//! Streaming corpus production: bounded-memory generation into sinks.
//!
//! The one-shot pipeline materializes a whole corpus per schema, which
//! caps corpus size at available memory. Real fine-tuning corpora are
//! hundreds of thousands of pairs, so this module turns the pipeline
//! into a *producer*: [`TrainingPipeline::stream`] runs the existing
//! generate → augment → lemmatize → analyze → dedup stages repeatedly
//! in seeded **rounds**, all admitting through one run-long dedup
//! index, pushes every admitted pair into a [`CorpusSink`], and never
//! holds more than one round of pairs plus the dedup index in memory.
//!
//! # Determinism contract
//!
//! The emitted byte stream is a pure function of the configuration:
//!
//! * **Round seeding** — round 0 runs on the configured seed itself
//!   (so a single-round stream reproduces the classic `generate()`
//!   corpus byte-for-byte), and round `r > 0` runs on
//!   `stream_seed(seed, r)`. Rounds cycle the schema list in order.
//! * **Thread counts** never change bytes: each round is a full
//!   pipeline run, which is already thread-count-invariant.
//! * **Rounds** are the only unit: dedup is resolved per round, the
//!   target-pairs stop condition is evaluated at round boundaries, and
//!   each round gets one report row and one resident-set probe.
//!
//! # Dedup semantics
//!
//! [`StreamDedup`] is the pipeline's only dedup decision. It keeps a
//! compact FNV-keyed index across rounds and admits each round as the
//! round's last stage:
//!
//! * [`DedupPolicy::Exact`] drops later pairs with an identical
//!   (lemmatized-NL, SQL) key — the classic corpus dedup, within a
//!   round and across rounds.
//! * [`DedupPolicy::ResolveConflicts`] additionally resolves same-NL /
//!   *conflicting*-SQL collisions: within a round the analyzer-cleanest
//!   pair wins (strictly lower [`crate::pipeline::SCORE_ERROR_WEIGHT`]
//!   -based score; ties keep the first seen), and across rounds the
//!   already-emitted pair always stays — emitted bytes are never
//!   retracted.
//!
//! The index stores 64-bit FNV-1a keys, not pair text, so 100k pairs
//! cost a few megabytes. (At that scale the probability of a 64-bit
//! collision is ~1e-10 — acceptable for corpus dedup, and any collision
//! only drops one extra pair, never corrupts output.)
//!
//! # Ceiling methodology
//!
//! [`StreamReport`] carries two memory observations per run: the
//! largest kernel-reported resident set among samples taken after each
//! round ([`dbpal_util::resident_bytes`]), and a conservative sink-side
//! estimate (`max` over rounds of bytes accepted in that round plus the
//! dedup-index footprint) for platforms without procfs. The corpus gate
//! asserts the probe against its configured ceiling.

use crate::io::{escaped_sql, write_pair_jsonl};
use crate::pair::QueryMemo;
use crate::pipeline::{timed, PipelineReport};
use crate::templates::{catalog, SeedTemplate};
use crate::{
    GenerationConfig, Provenance, StageTimings, TrainingCorpus, TrainingPair, TrainingPipeline,
};
use dbpal_schema::Schema;
use dbpal_sql::Query;
use dbpal_util::{resident_bytes, stream_seed, Fnv1a};
use std::collections::HashMap;
use std::io::Write;

/// Errors a sink can surface while accepting pairs.
#[derive(Debug)]
pub enum SinkError {
    /// The underlying writer failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Io(e) => write!(f, "sink I/O error: {e}"),
        }
    }
}

impl std::error::Error for SinkError {}

impl From<std::io::Error> for SinkError {
    fn from(e: std::io::Error) -> Self {
        SinkError::Io(e)
    }
}

/// Errors from a streaming run.
#[derive(Debug)]
pub enum StreamError {
    /// Invalid [`StreamOptions`] or inputs.
    Options(String),
    /// The sink failed.
    Sink(SinkError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Options(e) => write!(f, "invalid stream options: {e}"),
            StreamError::Sink(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// A consumer of streamed training pairs.
///
/// `accept` takes ownership of each emitted pair (in emission order —
/// the deterministic order the contract above pins) and returns the
/// number of bytes the sink accounted for it, which feeds the
/// memory-ceiling estimate. `finish` flushes whatever the sink
/// buffers; the driver calls it exactly once, after the last round.
pub trait CorpusSink {
    /// Consume one pair; returns the bytes accounted for it.
    fn accept(&mut self, pair: TrainingPair) -> Result<usize, SinkError>;

    /// Flush buffered state. Default: nothing to flush.
    fn finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Feed `h` the bytes of [`TrainingPair::nl_key`] without building it:
/// the lemmas with a space between them, or the lowercased NL when
/// there are none.
fn absorb_nl_key(h: &mut Fnv1a, pair: &TrainingPair) {
    if pair.nl_lemmas.is_empty() {
        // Pairs reach dedup lemmatized, so building the lowercased NL
        // here is the rare path.
        h.update(pair.nl.to_lowercase().as_bytes());
    }
    for (i, lemma) in pair.nl_lemmas.iter().enumerate() {
        if i > 0 {
            h.update(b" ");
        }
        h.update(lemma.as_bytes());
    }
}

/// Feed `h` the bytes of [`TrainingPair::sql_text`] as the query's
/// `Display` impl prints them, without building the text.
fn absorb_sql(h: &mut Fnv1a, query: &Query) {
    use std::fmt::Write as _;
    let _ = write!(h, "{query}");
}

/// FNV-1a over the query's text: the SQL half of a
/// [`DedupPolicy::ResolveConflicts`] key.
fn sql_hash(query: &Query) -> u64 {
    let mut h = Fnv1a::new();
    absorb_sql(&mut h, query);
    h.finish()
}

/// FNV-1a over [`TrainingPair::nl_key`], a separator, and the SQL
/// text: the exact-pair identity used by [`DedupPolicy::Exact`] — the
/// same (NL, SQL) identity [`TrainingCorpus::dedup`] keys on.
fn pair_hash(pair: &TrainingPair) -> u64 {
    let mut h = Fnv1a::new();
    absorb_nl_key(&mut h, pair);
    h.update(&[0x1f]);
    absorb_sql(&mut h, &pair.sql);
    h.finish()
}

/// Writes one compact JSON object per pair (JSONL), tracking pair
/// count, byte count, and a running FNV-1a digest over the emitted
/// bytes. Each line is encoded field by field into one reused buffer
/// (the bytes of [`crate::pair_to_jsonl`] plus a newline), written, and
/// digested. The SQL is escaped once per run of pairs that share a
/// query. Over [`std::io::sink`] it writes nothing and only digests —
/// the 1-vs-8-threads byte-identity check the corpus gate runs without
/// writing the file twice.
pub struct JsonlSink<W: Write> {
    writer: W,
    digest: Fnv1a,
    pairs: usize,
    bytes: u64,
    /// The line being written; cleared, not freed, between pairs.
    line: String,
    /// The escaped SQL of the last query written.
    sql: QueryMemo<String>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer (pass something buffered for real files).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            digest: Fnv1a::new(),
            pairs: 0,
            bytes: 0,
            line: String::new(),
            sql: QueryMemo::new(),
        }
    }

    /// FNV-1a digest over every byte written so far.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Pairs written so far.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> CorpusSink for JsonlSink<W> {
    fn accept(&mut self, pair: TrainingPair) -> Result<usize, SinkError> {
        self.line.clear();
        let sql = self.sql.get(&pair.sql, escaped_sql);
        write_pair_jsonl(&pair, sql, &mut self.line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        self.digest.update(self.line.as_bytes());
        self.pairs += 1;
        self.bytes += self.line.len() as u64;
        Ok(self.line.len())
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        self.writer.flush()?;
        Ok(())
    }
}

/// Collects pairs into a [`TrainingCorpus`] — the sink behind the
/// classic `generate`/`generate_with_report` API. Byte accounting is a
/// cheap in-memory estimate (string lengths plus fixed per-pair
/// overhead), not a serialized size.
#[derive(Debug, Default)]
pub struct MemorySink {
    pairs: Vec<TrainingPair>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        MemorySink { pairs: Vec::new() }
    }

    /// Pairs collected so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Unwrap into a corpus.
    pub fn into_corpus(self) -> TrainingCorpus {
        TrainingCorpus::from_pairs(self.pairs)
    }
}

impl CorpusSink for MemorySink {
    fn accept(&mut self, pair: TrainingPair) -> Result<usize, SinkError> {
        let est = pair.nl.len()
            + pair.nl_lemmas.iter().map(|l| l.len() + 1).sum::<usize>()
            + pair.template_id.len()
            + 48;
        self.pairs.push(pair);
        Ok(est)
    }
}

/// The share of the test split a pair's provenance earns relative to
/// the base test fraction: seed pairs ride at par, manual pairs are
/// overweighted (scarce, human-curated — the most valuable held-out
/// evaluation data), and the noisier augmentation provenances are
/// underweighted so synthetic noise mostly stays on the training side.
pub fn provenance_split_weight(p: Provenance) -> f64 {
    match p {
        Provenance::Seed => 1.0,
        Provenance::Manual => 1.25,
        Provenance::Paraphrased => 0.75,
        Provenance::Comparative => 0.75,
        Provenance::Dropped => 0.5,
    }
}

/// Routes each pair to a train or test sink by a deterministic
/// content hash, with the per-provenance weights of
/// [`provenance_split_weight`] scaling the base test fraction. The
/// routing depends only on pair content, so the same pair lands on the
/// same side regardless of thread count or arrival order.
pub struct SplitSink<'a> {
    train: &'a mut dyn CorpusSink,
    test: &'a mut dyn CorpusSink,
    test_fraction: f64,
    train_pairs: usize,
    test_pairs: usize,
}

impl<'a> SplitSink<'a> {
    /// Split into `train`/`test` with the given base test fraction
    /// (clamped to `[0, 1]`).
    pub fn new(
        train: &'a mut dyn CorpusSink,
        test: &'a mut dyn CorpusSink,
        test_fraction: f64,
    ) -> Self {
        SplitSink {
            train,
            test,
            test_fraction: test_fraction.clamp(0.0, 1.0),
            train_pairs: 0,
            test_pairs: 0,
        }
    }

    /// Pairs routed to the training side.
    pub fn train_pairs(&self) -> usize {
        self.train_pairs
    }

    /// Pairs routed to the test side.
    pub fn test_pairs(&self) -> usize {
        self.test_pairs
    }
}

impl CorpusSink for SplitSink<'_> {
    fn accept(&mut self, pair: TrainingPair) -> Result<usize, SinkError> {
        let p_test =
            (self.test_fraction * provenance_split_weight(pair.provenance)).clamp(0.0, 1.0);
        let mut h = Fnv1a::new();
        absorb_nl_key(&mut h, &pair);
        h.update(&[0x1f]);
        h.update(pair.template_id.as_bytes());
        // Top 53 bits → a uniform fraction in [0, 1).
        let frac = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        if frac < p_test {
            self.test_pairs += 1;
            self.test.accept(pair)
        } else {
            self.train_pairs += 1;
            self.train.accept(pair)
        }
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        self.train.finish()?;
        self.test.finish()
    }
}

/// How the dedup index treats repeated content, within a round and
/// across rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupPolicy {
    /// Drop later pairs whose (lemmatized NL, SQL) exactly matches an
    /// admitted one — the classic corpus dedup, extended across rounds.
    Exact,
    /// [`DedupPolicy::Exact`] plus same-NL/conflicting-SQL resolution:
    /// within a round the analyzer-cleanest pair wins (ties keep the
    /// first seen); across rounds the already-emitted pair stays.
    ResolveConflicts,
}

/// What one [`StreamDedup::admit_round`] call decided.
#[derive(Debug)]
pub struct AdmitOutcome {
    /// Pairs to emit, in deterministic order (first-seen positions).
    pub pairs: Vec<TrainingPair>,
    /// Pairs dropped as exact duplicates of emitted content.
    pub exact_dropped: usize,
    /// Pairs dropped as conflict losers (same NL, different SQL).
    pub conflicts_resolved: usize,
}

/// The streaming dedup index: FNV keys only, never pair text, so the
/// footprint stays flat per pair regardless of NL/SQL length. Keys are
/// hashed from the NL-key and SQL bytes as they are produced; neither
/// [`TrainingPair::nl_key`] nor [`TrainingPair::sql_text`] is built.
pub struct StreamDedup {
    policy: DedupPolicy,
    /// `Exact`: key is the full pair hash, value unused (0).
    /// `ResolveConflicts`: key is the NL hash, value the winner's SQL
    /// hash (to tell exact repeats from conflicts in later rounds).
    index: HashMap<u64, u64>,
}

impl StreamDedup {
    /// An empty index under `policy`.
    pub fn new(policy: DedupPolicy) -> Self {
        StreamDedup {
            policy,
            index: HashMap::new(),
        }
    }

    /// Entries in the cross-round index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Admit one generation round of analyzer-scored pairs (lower score
    /// = cleaner; see [`crate::pipeline::SCORE_ERROR_WEIGHT`]).
    /// Resolution scope is exactly this call: repeats and conflicts are
    /// settled among the round's pairs, then the winners are committed
    /// to the cross-round index.
    pub fn admit_round(&mut self, scored: Vec<(TrainingPair, u32)>) -> AdmitOutcome {
        match self.policy {
            DedupPolicy::Exact => self.admit_exact(scored),
            DedupPolicy::ResolveConflicts => self.admit_resolving(scored),
        }
    }

    fn admit_exact(&mut self, scored: Vec<(TrainingPair, u32)>) -> AdmitOutcome {
        let mut out = AdmitOutcome {
            pairs: Vec::with_capacity(scored.len()),
            exact_dropped: 0,
            conflicts_resolved: 0,
        };
        for (pair, _) in scored {
            let key = pair_hash(&pair);
            if let std::collections::hash_map::Entry::Vacant(slot) = self.index.entry(key) {
                slot.insert(0);
                out.pairs.push(pair);
            } else {
                out.exact_dropped += 1;
            }
        }
        out
    }

    fn admit_resolving(&mut self, scored: Vec<(TrainingPair, u32)>) -> AdmitOutcome {
        let mut out = AdmitOutcome {
            pairs: Vec::with_capacity(scored.len()),
            exact_dropped: 0,
            conflicts_resolved: 0,
        };
        // Within-round winners: NL hash → (slot in `out.pairs`, SQL
        // hash, score). Replacement happens in place at the first-seen
        // slot, so emission order is stable under resolution.
        let mut slots: HashMap<u64, (usize, u64, u32)> = HashMap::new();
        let mut sql_hashes = QueryMemo::new();
        for (pair, score) in scored {
            let mut nl_h = Fnv1a::new();
            absorb_nl_key(&mut nl_h, &pair);
            let (nl_h, sql_h) = (nl_h.finish(), *sql_hashes.get(&pair.sql, sql_hash));
            if let Some(&winner_sql) = self.index.get(&nl_h) {
                // An earlier round already emitted this NL; emitted
                // bytes are final.
                if winner_sql == sql_h {
                    out.exact_dropped += 1;
                } else {
                    out.conflicts_resolved += 1;
                }
                continue;
            }
            match slots.get(&nl_h).copied() {
                None => {
                    slots.insert(nl_h, (out.pairs.len(), sql_h, score));
                    out.pairs.push(pair);
                }
                Some((slot, incumbent_sql, incumbent_score)) => {
                    if incumbent_sql == sql_h {
                        out.exact_dropped += 1;
                    } else if score < incumbent_score {
                        // Strictly cleaner challenger wins the slot;
                        // a tie keeps the incumbent (first seen).
                        out.conflicts_resolved += 1;
                        out.pairs[slot] = pair;
                        slots.insert(nl_h, (slot, sql_h, score));
                    } else {
                        out.conflicts_resolved += 1;
                    }
                }
            }
        }
        for (nl_h, (_, sql_h, _)) in slots {
            self.index.insert(nl_h, sql_h);
        }
        out
    }
}

/// Knobs for a streaming run.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Stop after the first round boundary at which at least this many
    /// pairs have been emitted; `0` means "run `max_rounds` rounds".
    pub target_pairs: usize,
    /// Hard cap on generation rounds (each round is one full pipeline
    /// run over the next schema in the cycle).
    pub max_rounds: usize,
    /// Dedup policy of the run-long index.
    pub dedup: DedupPolicy,
}

impl StreamOptions {
    /// The configuration equivalent to the classic one-shot API: one
    /// round under a fresh exact index, which drops the round's repeats
    /// just as the classic corpus dedup does.
    pub fn one_shot() -> Self {
        StreamOptions {
            target_pairs: 0,
            max_rounds: 1,
            dedup: DedupPolicy::Exact,
        }
    }

    /// Corpus-scale defaults: run until `target_pairs`, resolve NL
    /// conflicts.
    pub fn corpus(target_pairs: usize) -> Self {
        StreamOptions {
            target_pairs,
            max_rounds: 1024,
            dedup: DedupPolicy::ResolveConflicts,
        }
    }

    /// Validate the knobs; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_rounds == 0 {
            return Err("max_rounds must be at least 1".into());
        }
        Ok(())
    }
}

/// Accounting for a whole streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The base seed the round seeds derive from.
    pub seed: u64,
    /// Resolved worker threads per round.
    pub threads: usize,
    /// Schemas in the cycle.
    pub schemas: usize,
    /// Per-round pipeline reports, in round order: each describes
    /// exactly the pairs its round handed the sink.
    pub rounds: Vec<PipelineReport>,
    /// Pairs emitted to the sink.
    pub emitted: usize,
    /// Pairs the analyzer let through to the dedup index.
    pub generated: usize,
    /// Bytes the sink accounted for all emitted pairs.
    pub bytes_accepted: u64,
    /// Exact repeats dropped by the index, within and across rounds.
    pub exact_dropped: usize,
    /// Conflict losers dropped by the index.
    pub conflicts_resolved: usize,
    /// Pairs the analyzer rejected inside the rounds (0 under the
    /// default policy — generation only emits analyzable SQL).
    pub analyzer_rejected: usize,
    /// The configured pair target (0 = none).
    pub target_pairs: usize,
    /// Whether the target was met before `max_rounds` ran out (always
    /// true when no target was set).
    pub target_reached: bool,
    /// Final dedup-index entry count.
    pub index_entries: usize,
    /// Maximum kernel resident-set observation across rounds, when the
    /// platform exposes one.
    pub peak_resident_bytes: Option<u64>,
    /// Sink-side ceiling estimate: max over rounds of that round's
    /// accepted bytes plus the dedup-index footprint after it.
    pub estimated_peak_bytes: u64,
    /// Per-stage wall time summed over every round.
    pub timings: StageTimings,
}

impl StreamReport {
    /// Dropped pairs as a fraction of the pairs the index saw.
    pub fn dedup_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            (self.exact_dropped + self.conflicts_resolved) as f64 / self.generated as f64
        }
    }

    /// Unwrap the per-round pipeline reports.
    pub fn into_rounds(self) -> Vec<PipelineReport> {
        self.rounds
    }

    /// Verify the round-by-round accounting invariants; returns a
    /// description of the first violation.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.generated != self.emitted + self.exact_dropped + self.conflicts_resolved {
            return Err(format!(
                "generated {} != emitted {} + exact {} + conflicts {}",
                self.generated, self.emitted, self.exact_dropped, self.conflicts_resolved
            ));
        }
        if self.rounds.iter().map(|r| r.final_pairs).sum::<usize>() != self.emitted {
            return Err("round final_pairs do not sum to emitted".into());
        }
        if self.rounds.iter().map(|r| r.dedup_dropped).sum::<usize>()
            != self.exact_dropped + self.conflicts_resolved
        {
            return Err("round dedup drops do not sum to the index's drops".into());
        }
        if self.estimated_peak_bytes
            > self.bytes_accepted + self.index_entries as u64 * INDEX_ENTRY_BYTES
        {
            return Err(format!(
                "estimated peak {} exceeds all bytes accepted plus the final index",
                self.estimated_peak_bytes
            ));
        }
        if self
            .rounds
            .iter()
            .map(|r| r.analyzer.rejected)
            .sum::<usize>()
            != self.analyzer_rejected
        {
            return Err("round analyzer rejects do not sum".into());
        }
        for (i, round) in self.rounds.iter().enumerate() {
            round
                .check_consistency()
                .map_err(|e| format!("round {i}: {e}"))?;
        }
        if self.target_pairs > 0 && self.target_reached && self.emitted < self.target_pairs {
            return Err(format!(
                "target marked reached at {} < {} pairs",
                self.emitted, self.target_pairs
            ));
        }
        Ok(())
    }

    /// A multi-line human-readable rendering (printed by the corpus
    /// gate).
    pub fn render(&self) -> String {
        let mut out = format!(
            "stream report (seed {:#x}, threads {}, {} schemas)\n",
            self.seed, self.threads, self.schemas
        );
        out += &format!("  rounds    {}\n", self.rounds.len());
        out += &format!(
            "  pairs     {} emitted of {} generated (dedup rate {:.3}: {} exact, {} conflicts)\n",
            self.emitted,
            self.generated,
            self.dedup_rate(),
            self.exact_dropped,
            self.conflicts_resolved,
        );
        out += &format!(
            "  bytes     {} accepted, estimated peak {}\n",
            self.bytes_accepted, self.estimated_peak_bytes
        );
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        out += &format!(
            "  time      {:.1}ms in the stages, {:.1}ms in the sink\n",
            ms(self.timings.total),
            ms(self.timings.sink)
        );
        if let Some(rss) = self.peak_resident_bytes {
            out += &format!(
                "  resident  peak {:.1} MiB\n",
                rss as f64 / (1 << 20) as f64
            );
        }
        out += &format!(
            "  analyze   {} rejected across rounds\n",
            self.analyzer_rejected
        );
        if self.target_pairs > 0 {
            out += &format!(
                "  target    {} pairs: {}\n",
                self.target_pairs,
                if self.target_reached {
                    "reached"
                } else {
                    "NOT reached"
                }
            );
        }
        out
    }
}

/// Bytes per dedup-index entry in the ceiling estimate: two 8-byte
/// words plus `HashMap` bucket overhead.
const INDEX_ENTRY_BYTES: u64 = 48;

fn round_seed(base: u64, round: u64) -> u64 {
    if round == 0 {
        base
    } else {
        stream_seed(base, round)
    }
}

impl TrainingPipeline {
    /// Stream pairs into `sink` with the full seed-template catalog.
    /// See the [module docs](self) for the determinism and dedup
    /// contract.
    pub fn stream<S: CorpusSink + ?Sized>(
        &self,
        schemas: &[&Schema],
        opts: &StreamOptions,
        sink: &mut S,
    ) -> Result<StreamReport, StreamError> {
        self.stream_with_templates(schemas, &catalog(), opts, sink)
    }

    /// [`TrainingPipeline::stream`] with an explicit template set.
    pub fn stream_with_templates<S: CorpusSink + ?Sized>(
        &self,
        schemas: &[&Schema],
        templates: &[SeedTemplate],
        opts: &StreamOptions,
        sink: &mut S,
    ) -> Result<StreamReport, StreamError> {
        opts.validate().map_err(StreamError::Options)?;
        if schemas.is_empty() {
            return Err(StreamError::Options(
                "at least one schema is required".into(),
            ));
        }
        let base_seed = self.config().seed;
        let mut dedup = StreamDedup::new(opts.dedup);
        let mut report = StreamReport {
            seed: base_seed,
            threads: self.config().effective_threads(),
            schemas: schemas.len(),
            rounds: Vec::new(),
            emitted: 0,
            generated: 0,
            bytes_accepted: 0,
            exact_dropped: 0,
            conflicts_resolved: 0,
            analyzer_rejected: 0,
            target_pairs: opts.target_pairs,
            target_reached: opts.target_pairs == 0,
            index_entries: 0,
            peak_resident_bytes: None,
            estimated_peak_bytes: 0,
            timings: StageTimings::default(),
        };
        for round in 0..opts.max_rounds {
            let config = GenerationConfig {
                seed: round_seed(base_seed, round as u64),
                ..self.config().clone()
            };
            let schema = schemas[round % schemas.len()];
            let (admitted, mut round_report) =
                TrainingPipeline::new(config).run_stages(schema, templates, &mut dedup);
            report.generated += round_report.final_pairs + round_report.dedup_dropped;
            report.exact_dropped += admitted.exact_dropped;
            report.conflicts_resolved += admitted.conflicts_resolved;
            report.analyzer_rejected += round_report.analyzer.rejected;

            let (accepted, sink_time) = timed(|| -> Result<u64, SinkError> {
                let mut bytes = 0u64;
                for pair in admitted.pairs {
                    bytes += sink.accept(pair)? as u64;
                    report.emitted += 1;
                }
                Ok(bytes)
            });
            let round_bytes = accepted.map_err(StreamError::Sink)?;
            round_report.timings.sink = sink_time;
            report.timings.accumulate(&round_report.timings);
            report.rounds.push(round_report);
            report.bytes_accepted += round_bytes;
            report.estimated_peak_bytes = report
                .estimated_peak_bytes
                .max(round_bytes + dedup.len() as u64 * INDEX_ENTRY_BYTES);
            if let Some(rss) = resident_bytes() {
                report.peak_resident_bytes = Some(report.peak_resident_bytes.unwrap_or(0).max(rss));
            }
            if opts.target_pairs > 0 && report.emitted >= opts.target_pairs {
                break;
            }
        }
        sink.finish().map_err(StreamError::Sink)?;
        report.index_entries = dedup.len();
        report.target_reached = opts.target_pairs == 0 || report.emitted >= opts.target_pairs;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_schema::{SchemaBuilder, SemanticDomain, SqlType};
    use dbpal_util::fnv1a;
    use std::sync::Arc;

    fn schema() -> Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column("disease", SqlType::Text)
            })
            .build()
            .unwrap()
    }

    fn tiny_config(seed: u64) -> GenerationConfig {
        GenerationConfig {
            seed,
            size_slot_fills: 3,
            num_para: 0,
            num_missing: 0,
            ..GenerationConfig::default()
        }
    }

    #[test]
    fn one_shot_stream_matches_generate() {
        let pipeline = TrainingPipeline::new(tiny_config(7));
        let classic = pipeline.generate(&schema());
        let mut sink = MemorySink::new();
        let report = pipeline
            .stream(&[&schema()], &StreamOptions::one_shot(), &mut sink)
            .unwrap();
        report.check_consistency().unwrap();
        let streamed = sink.into_corpus();
        assert_eq!(streamed.pairs(), classic.pairs());
        assert_eq!(report.emitted, classic.len());
        // The one round's repeats are the index's only drops.
        assert_eq!(report.exact_dropped, report.rounds[0].dedup_dropped);
        assert_eq!(report.conflicts_resolved, 0);
    }

    #[test]
    fn jsonl_sink_digest_is_fnv_of_written_bytes() {
        let pipeline = TrainingPipeline::new(tiny_config(11));
        let opts = StreamOptions {
            max_rounds: 2,
            ..StreamOptions::corpus(0)
        };
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut discard = JsonlSink::new(std::io::sink());
        pipeline.stream(&[&schema()], &opts, &mut jsonl).unwrap();
        pipeline.stream(&[&schema()], &opts, &mut discard).unwrap();
        assert!(jsonl.pairs() > 0);
        assert_eq!(
            (jsonl.digest(), jsonl.pairs(), jsonl.bytes()),
            (discard.digest(), discard.pairs(), discard.bytes())
        );
        let digest = jsonl.digest();
        let written = jsonl.into_inner();
        assert_eq!(written.len() as u64, discard.bytes());
        assert_eq!(dbpal_util::fnv1a(&written), digest);
    }

    #[test]
    fn in_place_hashes_match_the_built_keys() {
        let hash = |absorb: fn(&mut Fnv1a, &TrainingPair), pair: &TrainingPair| {
            let mut h = Fnv1a::new();
            absorb(&mut h, pair);
            h.finish()
        };
        let sql = dbpal_sql::parse_query(
            "SELECT name, COUNT(*) FROM patients WHERE age > @AGE AND name = 'O''Brien' \
             GROUP BY name ORDER BY name DESC LIMIT 3",
        )
        .unwrap();
        let mut lemmatized =
            TrainingPair::new("Shows the Names", sql.clone(), "t", Provenance::Seed);
        lemmatized.nl_lemmas = vec!["show".into(), "the".into(), String::new(), "name".into()];
        let unlemmatized = TrainingPair::new("Show The NAMES", sql, "t", Provenance::Seed);
        for pair in [lemmatized, unlemmatized] {
            assert_eq!(
                hash(absorb_nl_key, &pair),
                fnv1a(pair.nl_key().as_bytes()),
                "{:?}",
                pair.nl_key()
            );
            assert_eq!(sql_hash(&pair.sql), fnv1a(pair.sql_text().as_bytes()));
            let mut key = pair.nl_key().into_bytes();
            key.push(0x1f);
            key.extend(pair.sql_text().bytes());
            assert_eq!(pair_hash(&pair), fnv1a(&key));
        }
    }

    #[test]
    fn multi_round_streams_drop_cross_round_duplicates() {
        let pipeline = TrainingPipeline::new(tiny_config(3));
        let mut sink = JsonlSink::new(std::io::sink());
        let opts = StreamOptions {
            max_rounds: 3,
            ..StreamOptions::corpus(0)
        };
        let report = pipeline.stream(&[&schema()], &opts, &mut sink).unwrap();
        report.check_consistency().unwrap();
        assert_eq!(report.rounds.len(), 3);
        // Re-running the pipeline on the same tiny schema with fresh
        // seeds regenerates mostly-identical content, so the stream
        // index must be doing real work.
        assert!(
            report.exact_dropped + report.conflicts_resolved > 0,
            "three rounds on one tiny schema produced no duplicates"
        );
        assert_eq!(report.emitted, sink.pairs());
    }

    #[test]
    fn target_stops_at_round_boundary() {
        let pipeline = TrainingPipeline::new(tiny_config(5));
        let per_round = pipeline.generate(&schema()).len();
        let mut sink = JsonlSink::new(std::io::sink());
        let opts = StreamOptions {
            target_pairs: per_round + 1,
            max_rounds: 64,
            dedup: DedupPolicy::ResolveConflicts,
        };
        let report = pipeline.stream(&[&schema()], &opts, &mut sink).unwrap();
        report.check_consistency().unwrap();
        assert!(report.target_reached);
        assert!(report.emitted >= opts.target_pairs);
        assert!(
            report.rounds.len() >= 2,
            "target above one round's yield must take at least two rounds"
        );
    }

    #[test]
    fn empty_schema_list_and_bad_options_rejected() {
        let pipeline = TrainingPipeline::new(tiny_config(1));
        let mut sink = JsonlSink::new(std::io::sink());
        assert!(matches!(
            pipeline.stream(&[], &StreamOptions::one_shot(), &mut sink),
            Err(StreamError::Options(_))
        ));
        let bad = StreamOptions {
            max_rounds: 0,
            ..StreamOptions::one_shot()
        };
        assert!(matches!(
            pipeline.stream(&[&schema()], &bad, &mut sink),
            Err(StreamError::Options(_))
        ));
    }

    /// One generated round before analysis, with four fixture pairs
    /// whose queries run A, A, B, A (A fails analysis; the middle pair
    /// conflicts with the second, the last repeats the first).
    fn round_with_shared_queries() -> Vec<TrainingPair> {
        let schema = schema();
        let config = GenerationConfig::small();
        let mut corpus = crate::Generator::new(&schema, &config).generate(&catalog());
        for pair in crate::Augmenter::new(&schema, &config).augment(&corpus) {
            corpus.push(pair);
        }
        let a = Arc::new(dbpal_sql::parse_query("SELECT salary FROM patients").unwrap());
        let b = Arc::new(dbpal_sql::parse_query("SELECT name FROM patients").unwrap());
        for (nl, sql) in [
            ("what are the salaries", &a),
            ("list the salaries", &a),
            ("list the salaries", &b),
            ("what are the salaries", &a),
        ] {
            corpus.push(TrainingPair::new(
                nl,
                Arc::clone(sql),
                "t",
                Provenance::Manual,
            ));
        }
        let lemmatizer = dbpal_nlp::Lemmatizer::new();
        corpus
            .into_iter()
            .map(|mut p| {
                p.nl_lemmas = lemmatizer.lemmatize_sentence(&p.nl);
                p
            })
            .collect()
    }

    #[test]
    fn shared_queries_change_no_verdict_key_or_byte() {
        let shared = round_with_shared_queries();
        let runs = shared
            .windows(2)
            .filter(|w| Arc::ptr_eq(&w[0].sql, &w[1].sql))
            .count();
        assert!(runs > shared.len() / 2, "only {runs} shared neighbours");
        let copied: Vec<TrainingPair> = shared
            .iter()
            .map(|p| TrainingPair {
                sql: Arc::new(Query::clone(&p.sql)),
                ..p.clone()
            })
            .collect();
        let schema = schema();
        let analyze = |pairs: &[TrainingPair], policy| {
            crate::pipeline::analyze_pairs(&schema, pairs.to_vec(), 2, policy)
        };
        for policy in [
            dbpal_analyze::AnalyzerPolicy::Warn,
            dbpal_analyze::AnalyzerPolicy::Reject,
        ] {
            let (scored, report) = analyze(&shared, policy);
            let (scored_copies, report_copies) = analyze(&copied, policy);
            assert_eq!(scored, scored_copies, "{policy:?}");
            assert_eq!(report, report_copies, "{policy:?}");
            assert_eq!(report.flagged, 3, "the A pairs are flagged: {report:?}");
        }
        let (scored, _) = analyze(&shared, dbpal_analyze::AnalyzerPolicy::Warn);
        let scored_copies: Vec<(TrainingPair, u32)> = scored
            .iter()
            .map(|(p, score)| {
                let sql = Arc::new(Query::clone(&p.sql));
                (TrainingPair { sql, ..p.clone() }, *score)
            })
            .collect();
        for policy in [DedupPolicy::Exact, DedupPolicy::ResolveConflicts] {
            let admit = |round: Vec<(TrainingPair, u32)>| {
                let out = StreamDedup::new(policy).admit_round(round);
                (out.pairs, out.exact_dropped, out.conflicts_resolved)
            };
            let admitted = admit(scored.clone());
            assert!(admitted.1 > 0, "{policy:?} dropped no repeat");
            assert_eq!(admitted, admit(scored_copies.clone()), "{policy:?}");
        }
        let jsonl = |pairs: Vec<TrainingPair>| {
            let mut sink = JsonlSink::new(Vec::new());
            for pair in pairs {
                sink.accept(pair).unwrap();
            }
            sink.into_inner()
        };
        assert_eq!(jsonl(shared), jsonl(copied));
    }

    #[test]
    fn round_seeds_are_distinct_and_round0_is_base() {
        assert_eq!(round_seed(0x5EED, 0), 0x5EED);
        let mut seen = std::collections::HashSet::new();
        for r in 0..64 {
            assert!(seen.insert(round_seed(0x5EED, r)), "round {r} seed repeats");
        }
    }
}
