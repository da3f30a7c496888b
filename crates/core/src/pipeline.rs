//! The end-to-end training-data pipeline: generate → augment →
//! lemmatize → analyze → dedup.
//!
//! This is the flow of paper Figure 2 (left side): the Generator
//! instantiates seed templates against the schema, the Augmentation step
//! adds linguistic variations, and the Lemmatizer normalizes every NL
//! side. A static-analysis stage (`dbpal-analyze`) then proves every
//! pair name-resolves, type-checks, and joins validly against the
//! schema; the [`dbpal_analyze::AnalyzerPolicy`] knob decides whether
//! findings are ignored, counted, or gate the pair out of the corpus.
//! Last, the scored pairs are admitted through a
//! [`crate::stream::StreamDedup`] index, the pipeline's only dedup
//! decision. The output corpus can then be fed to any pluggable
//! [`crate::TranslationModel`].
//!
//! Every stage fans out across `config.threads` workers (see
//! DESIGN.md "Parallel pipeline"): each work unit draws from its own
//! [`dbpal_util::stream_seed`]-derived RNG stream and shards merge in
//! input order, so the corpus is byte-identical for a given seed at any
//! thread count. [`TrainingPipeline::generate_with_report`] additionally
//! returns a [`PipelineReport`] with per-stage wall time and pair
//! accounting.

use crate::pair::QueryMemo;
use crate::stream::{AdmitOutcome, StreamDedup};
use crate::templates::{catalog, SeedTemplate};
use crate::{
    Augmenter, GenerationConfig, Generator, GeneratorStats, Provenance, TrainingCorpus,
    TrainingPair,
};
use dbpal_analyze::{Analyzer, AnalyzerPolicy, Diagnostic};
use dbpal_nlp::Lemmatizer;
use dbpal_schema::Schema;
use dbpal_util::{stream_seed, MetricsRegistry, WorkerPool};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Template instantiation (§3.1).
    pub generate: Duration,
    /// Augmentation (§3.2).
    pub augment: Duration,
    /// Lemmatization (§2.2.3).
    pub lemmatize: Duration,
    /// Static semantic analysis of every pair.
    pub analyze: Duration,
    /// Admission through the dedup index.
    pub dedup: Duration,
    /// Handing the admitted pairs to the sink. Not part of `total`,
    /// which ends when the round's pairs are admitted.
    pub sink: Duration,
    /// The whole pipeline run, up to the sink.
    pub total: Duration,
}

impl StageTimings {
    /// Add another run's timings into this one — how the streaming
    /// layer rolls per-round timings up into run totals without taking
    /// any wall clocks of its own.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.generate += other.generate;
        self.augment += other.augment;
        self.lemmatize += other.lemmatize;
        self.analyze += other.analyze;
        self.dedup += other.dedup;
        self.sink += other.sink;
        self.total += other.total;
    }
}

/// Run `f`, returning its result and its wall time: how
/// [`TrainingPipeline::stream`] times its sink, since the stream module
/// reads no clock of its own.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Accounting for the static-analysis stage: how many pairs were
/// analyzed, flagged, and (under [`AnalyzerPolicy::Reject`]) dropped,
/// with per-code diagnostic counts. Rejections are never silent — they
/// are broken down by provenance here, mirroring the generator's
/// retry/exhaustion counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalyzerReport {
    /// The policy the stage ran under.
    pub policy: AnalyzerPolicy,
    /// Pairs the analyzer inspected (0 when the policy is `Off`).
    pub analyzed: usize,
    /// Pairs that carried at least one diagnostic of any severity.
    pub flagged: usize,
    /// Pairs dropped for error-severity diagnostics (`Reject` only).
    pub rejected: usize,
    /// Diagnostic occurrences per stable code id (e.g. `"E0101"`),
    /// ordered by id.
    pub codes: BTreeMap<&'static str, usize>,
    /// Rejected pairs per provenance (`Reject` only).
    pub rejected_provenance: BTreeMap<Provenance, usize>,
}

impl AnalyzerReport {
    /// Total diagnostic occurrences across all codes.
    pub fn total_findings(&self) -> usize {
        self.codes.values().sum()
    }
}

/// The weight of one error-severity diagnostic in a pair's
/// [`analyze_pairs`] cleanliness score; warnings count 1.
pub const SCORE_ERROR_WEIGHT: u32 = 1000;

/// Analyze a batch of pairs against a schema, applying `policy`.
///
/// Returns the surviving pairs (all of them unless the policy is
/// [`AnalyzerPolicy::Reject`]) and the stage's [`AnalyzerReport`]. Each
/// survivor carries its *cleanliness score*: `SCORE_ERROR_WEIGHT` per
/// error-severity diagnostic plus one per warning, so `0` means
/// analyzer-clean and lower is cleaner. The dedup index uses the score
/// to pick a winner when two pairs share an NL side but disagree on the
/// SQL. Analysis fans out across `threads` workers in fixed-size chunks
/// and the verdicts merge back in input order, so the surviving-pair
/// sequence and every report counter are identical at any thread count.
pub fn analyze_pairs(
    schema: &Schema,
    pairs: Vec<TrainingPair>,
    threads: usize,
    policy: AnalyzerPolicy,
) -> (Vec<(TrainingPair, u32)>, AnalyzerReport) {
    if policy == AnalyzerPolicy::Off {
        return (
            pairs.into_iter().map(|p| (p, 0)).collect(),
            AnalyzerReport {
                policy,
                ..AnalyzerReport::default()
            },
        );
    }
    let analyzer = Analyzer::new(schema);
    const CHUNK: usize = 64;
    let verdicts: Vec<Vec<Vec<Diagnostic>>> = {
        let chunks: Vec<&[TrainingPair]> = pairs.chunks(CHUNK).collect();
        WorkerPool::global().map_indexed(&chunks, threads, |_, chunk| {
            // A verdict depends only on the query, so a run of pairs
            // that share one is analyzed once.
            let mut memo = QueryMemo::new();
            chunk
                .iter()
                .map(|p| memo.get(&p.sql, |q| analyzer.analyze(q)).clone())
                .collect()
        })
    };
    let mut report = AnalyzerReport {
        policy,
        analyzed: pairs.len(),
        ..AnalyzerReport::default()
    };
    let mut kept = Vec::with_capacity(pairs.len());
    for (pair, diags) in pairs.into_iter().zip(verdicts.into_iter().flatten()) {
        if !diags.is_empty() {
            report.flagged += 1;
        }
        let mut score = 0u32;
        for d in &diags {
            *report.codes.entry(d.code.id()).or_insert(0) += 1;
            score += match d.severity {
                dbpal_analyze::Severity::Error => SCORE_ERROR_WEIGHT,
                dbpal_analyze::Severity::Warning => 1,
            };
        }
        if policy == AnalyzerPolicy::Reject && dbpal_analyze::has_errors(&diags) {
            report.rejected += 1;
            *report
                .rejected_provenance
                .entry(pair.provenance)
                .or_insert(0) += 1;
        } else {
            kept.push((pair, score));
        }
    }
    (kept, report)
}

/// Accounting for one pipeline run: how many pairs each stage produced,
/// how many the dedup index dropped, and where the generator's sampling
/// loop spent its retries. Built by
/// [`TrainingPipeline::generate_with_report`], and once per round by
/// [`TrainingPipeline::stream`]; either way it describes exactly the
/// pairs the sink received.
///
/// The counters obey invariants checked by
/// [`PipelineReport::check_consistency`]:
/// `seed_pairs + augmented_pairs - analyzer.rejected - dedup_dropped ==
/// final_pairs`, the analyzer saw every seed and augmented pair, and
/// the per-provenance counts sum to `final_pairs`.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Worker threads the run used (the resolved value, never 0).
    pub threads: usize,
    /// Pairs out of the instantiation stage.
    pub seed_pairs: usize,
    /// Pairs added by the augmentation stage.
    pub augmented_pairs: usize,
    /// Pairs the dedup index dropped: repeats of admitted content and,
    /// under [`crate::DedupPolicy::ResolveConflicts`], conflict losers.
    pub dedup_dropped: usize,
    /// Pairs handed to the sink.
    pub final_pairs: usize,
    /// Final pair count per provenance.
    pub provenance: BTreeMap<Provenance, usize>,
    /// Final pair count per template id (as tagged on the pairs, so
    /// grouped instantiations keep their `+group` suffix).
    pub template_counts: BTreeMap<String, usize>,
    /// Instantiation counters (retries, exhausted templates, shortfall).
    pub generator: GeneratorStats,
    /// Static-analysis counters (per-code findings, rejected pairs).
    pub analyzer: AnalyzerReport,
    /// Per-stage wall time.
    pub timings: StageTimings,
}

impl PipelineReport {
    /// Verify the internal accounting invariants; returns a description
    /// of the first violation.
    pub fn check_consistency(&self) -> Result<(), String> {
        let produced = self.seed_pairs + self.augmented_pairs;
        if produced != self.final_pairs + self.dedup_dropped + self.analyzer.rejected {
            return Err(format!(
                "drops mismatch: seed {} + augmented {} != final {} + dedup {} + rejected {}",
                self.seed_pairs,
                self.augmented_pairs,
                self.final_pairs,
                self.dedup_dropped,
                self.analyzer.rejected
            ));
        }
        let a = &self.analyzer;
        match a.policy {
            AnalyzerPolicy::Off => {
                if a.analyzed != 0 || a.flagged != 0 || a.rejected != 0 {
                    return Err("analyzer counted pairs under Off policy".into());
                }
            }
            AnalyzerPolicy::Warn | AnalyzerPolicy::Reject => {
                if a.analyzed != produced {
                    return Err(format!(
                        "analyzer saw {} pairs, the stages produced {produced}",
                        a.analyzed
                    ));
                }
                if a.policy == AnalyzerPolicy::Warn && a.rejected != 0 {
                    return Err("Warn policy rejected pairs".into());
                }
            }
        }
        if a.rejected > a.flagged || a.flagged > a.analyzed {
            return Err(format!(
                "analyzer counters out of order: rejected {} / flagged {} / analyzed {}",
                a.rejected, a.flagged, a.analyzed
            ));
        }
        if a.total_findings() < a.flagged {
            return Err(format!(
                "fewer findings ({}) than flagged pairs ({})",
                a.total_findings(),
                a.flagged
            ));
        }
        if a.rejected_provenance.values().sum::<usize>() != a.rejected {
            return Err(format!(
                "rejected-provenance counts sum to {}, rejected is {}",
                a.rejected_provenance.values().sum::<usize>(),
                a.rejected
            ));
        }
        if self.provenance.values().sum::<usize>() != self.final_pairs {
            return Err(format!(
                "provenance counts sum to {}, corpus has {}",
                self.provenance.values().sum::<usize>(),
                self.final_pairs
            ));
        }
        if self.template_counts.values().sum::<usize>() != self.final_pairs {
            return Err(format!(
                "template counts sum to {}, corpus has {}",
                self.template_counts.values().sum::<usize>(),
                self.final_pairs
            ));
        }
        if self.generator.produced != self.seed_pairs {
            return Err(format!(
                "generator produced {} but seed stage reports {}",
                self.generator.produced, self.seed_pairs
            ));
        }
        Ok(())
    }

    /// Record this report into a [`MetricsRegistry`], the export format
    /// shared with the serving layer and the fuzz driver: pair
    /// accounting as `pipeline.*` counters, stage wall times as one
    /// observation each in `pipeline.stage.*` histograms. Counter
    /// values and histogram observation counts are deterministic per
    /// seed; only the recorded durations vary.
    pub fn record_metrics(&self, reg: &MetricsRegistry) {
        reg.counter("pipeline.threads").add(self.threads as u64);
        reg.counter("pipeline.seed_pairs")
            .add(self.seed_pairs as u64);
        reg.counter("pipeline.augmented_pairs")
            .add(self.augmented_pairs as u64);
        reg.counter("pipeline.dedup_dropped")
            .add(self.dedup_dropped as u64);
        reg.counter("pipeline.final_pairs")
            .add(self.final_pairs as u64);
        reg.counter("pipeline.generator.retries")
            .add(self.generator.retries());
        reg.counter("pipeline.generator.shortfall")
            .add(self.generator.shortfall as u64);
        reg.counter("pipeline.analyzer.analyzed")
            .add(self.analyzer.analyzed as u64);
        reg.counter("pipeline.analyzer.flagged")
            .add(self.analyzer.flagged as u64);
        reg.counter("pipeline.analyzer.rejected")
            .add(self.analyzer.rejected as u64);
        let t = &self.timings;
        for (stage, d) in [
            ("pipeline.stage.generate", t.generate),
            ("pipeline.stage.augment", t.augment),
            ("pipeline.stage.lemmatize", t.lemmatize),
            ("pipeline.stage.analyze", t.analyze),
            ("pipeline.stage.dedup", t.dedup),
            ("pipeline.stage.sink", t.sink),
            ("pipeline.stage.total", t.total),
        ] {
            reg.histogram(stage).record(d);
        }
    }

    /// A multi-line human-readable rendering (printed by the bench
    /// binaries).
    pub fn render(&self) -> String {
        let ms = |d: Duration| format!("{:8.1}ms", d.as_secs_f64() * 1e3);
        let mut out = format!("pipeline report (threads = {})\n", self.threads);
        out += &format!(
            "  generate  {}  {} seed pairs (budgeted {}, retries {}, exhausted {}, shortfall {})\n",
            ms(self.timings.generate),
            self.seed_pairs,
            self.generator.budgeted,
            self.generator.retries(),
            self.generator.exhausted_templates,
            self.generator.shortfall,
        );
        out += &format!(
            "  augment   {}  +{} pairs\n",
            ms(self.timings.augment),
            self.augmented_pairs
        );
        out += &format!("  lemmatize {}\n", ms(self.timings.lemmatize));
        if self.analyzer.policy == AnalyzerPolicy::Off {
            out += "  analyze   (off)\n";
        } else {
            let codes = if self.analyzer.codes.is_empty() {
                "clean".to_string()
            } else {
                self.analyzer
                    .codes
                    .iter()
                    .map(|(code, n)| format!("{code} x{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out += &format!(
                "  analyze   {}  policy {}, {} flagged, -{} rejected ({codes})\n",
                ms(self.timings.analyze),
                self.analyzer.policy.label(),
                self.analyzer.flagged,
                self.analyzer.rejected,
            );
        }
        out += &format!(
            "  dedup     {}  -{} dropped\n",
            ms(self.timings.dedup),
            self.dedup_dropped
        );
        out += &format!("  sink      {}  (not in total)\n", ms(self.timings.sink));
        let provenance = self
            .provenance
            .iter()
            .map(|(p, n)| format!("{} {n}", p.label()))
            .collect::<Vec<_>>()
            .join(", ");
        out += &format!(
            "  total     {}  {} pairs ({provenance})\n",
            ms(self.timings.total),
            self.final_pairs
        );
        out
    }
}

/// The DBPal training pipeline.
#[derive(Debug, Clone)]
pub struct TrainingPipeline {
    config: GenerationConfig,
}

impl TrainingPipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: GenerationConfig) -> Self {
        TrainingPipeline { config }
    }

    /// Create a pipeline with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(GenerationConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &GenerationConfig {
        &self.config
    }

    /// Run the full pipeline on a schema with the complete seed-template
    /// catalog.
    pub fn generate(&self, schema: &Schema) -> TrainingCorpus {
        self.generate_with_report(schema).0
    }

    /// As [`TrainingPipeline::generate`], also returning the per-stage
    /// [`PipelineReport`].
    pub fn generate_with_report(&self, schema: &Schema) -> (TrainingCorpus, PipelineReport) {
        self.generate_with_templates_and_report(schema, &catalog())
    }

    /// Run the full pipeline with an explicit template set (used by the
    /// seed-template-fraction experiment of §6.3.2).
    pub fn generate_with_templates(
        &self,
        schema: &Schema,
        templates: &[SeedTemplate],
    ) -> TrainingCorpus {
        self.generate_with_templates_and_report(schema, templates).0
    }

    /// As [`TrainingPipeline::generate_with_templates`], also returning
    /// the per-stage [`PipelineReport`].
    ///
    /// This is now a thin wrapper over the streaming producer: one
    /// generation round into an in-memory sink (see
    /// [`crate::stream`]), which is how the one-shot API stays
    /// byte-identical to the corpus a [`crate::stream::JsonlSink`]
    /// would write for the same seed.
    pub fn generate_with_templates_and_report(
        &self,
        schema: &Schema,
        templates: &[SeedTemplate],
    ) -> (TrainingCorpus, PipelineReport) {
        let mut sink = crate::stream::MemorySink::new();
        let report = self
            .stream_with_templates(
                &[schema],
                templates,
                &crate::stream::StreamOptions::one_shot(),
                &mut sink,
            )
            .expect("one-shot in-memory streaming cannot fail");
        let round = report
            .into_rounds()
            .pop()
            .expect("a one-shot run has exactly one round");
        (sink.into_corpus(), round)
    }

    /// Run the five pipeline stages once over one schema, admitting the
    /// analyzer-scored pairs (see [`analyze_pairs`])
    /// through `dedup` as the last stage. Returns what the index let
    /// through and the round's report. This is the unit of work the
    /// streaming driver repeats per round, with one index for the run.
    pub(crate) fn run_stages(
        &self,
        schema: &Schema,
        templates: &[SeedTemplate],
        dedup: &mut StreamDedup,
    ) -> (AdmitOutcome, PipelineReport) {
        let threads = self.config.effective_threads();
        let run_start = Instant::now();

        // Step 1: instantiation (§3.1).
        let stage = Instant::now();
        let generator = Generator::new(schema, &self.config);
        let (mut corpus, generator_stats) = generator.generate_with_stats(templates);
        let generate_time = stage.elapsed();
        let seed_pairs = corpus.len();

        // Step 2: augmentation (§3.2).
        let stage = Instant::now();
        let augmenter = Augmenter::new(schema, &self.config);
        let additions = augmenter.augment(&corpus);
        let augmented_pairs = additions.len();
        for pair in additions {
            corpus.push(pair);
        }
        let augment_time = stage.elapsed();

        // Step 3: lemmatization (§2.2.3). The lemmatizer is pure lookup
        // state, so chunks of pairs lemmatize independently and the
        // per-chunk results zip back in order.
        let stage = Instant::now();
        let lemmatizer = Lemmatizer::new();
        let mut pairs: Vec<TrainingPair> = corpus.into_iter().collect();
        const CHUNK: usize = 64;
        let lemmas: Vec<Vec<Vec<String>>> = {
            let chunks: Vec<&[TrainingPair]> = pairs.chunks(CHUNK).collect();
            WorkerPool::global().map_indexed(&chunks, threads, |_, chunk| {
                chunk
                    .iter()
                    .map(|p| lemmatizer.lemmatize_sentence(&p.nl))
                    .collect()
            })
        };
        for (chunk_lemmas, chunk_pairs) in lemmas.into_iter().zip(pairs.chunks_mut(CHUNK)) {
            for (nl_lemmas, pair) in chunk_lemmas.into_iter().zip(chunk_pairs.iter_mut()) {
                pair.nl_lemmas = nl_lemmas;
            }
        }
        let lemmatize_time = stage.elapsed();

        // Step 4: static semantic analysis. Every pair is proven
        // against the schema; under `Reject` invalid pairs are dropped
        // with per-code and per-provenance accounting. The survivors
        // keep their cleanliness scores for the dedup index.
        let stage = Instant::now();
        let (scored, analyzer_report) =
            analyze_pairs(schema, pairs, threads, self.config.analyzer_policy);
        let analyze_time = stage.elapsed();

        // Step 5: dedup. The index drops this round's repeats and
        // anything it already admitted; a verdict depends only on the
        // SQL, so a repeat was scored like its first occurrence.
        let stage = Instant::now();
        let admitted = dedup.admit_round(scored);
        let dedup_time = stage.elapsed();

        let mut provenance = BTreeMap::new();
        let mut template_counts = BTreeMap::new();
        for pair in &admitted.pairs {
            *provenance.entry(pair.provenance).or_insert(0) += 1;
            *template_counts.entry(pair.template_id.clone()).or_insert(0) += 1;
        }
        let report = PipelineReport {
            threads,
            seed_pairs,
            augmented_pairs,
            dedup_dropped: admitted.exact_dropped + admitted.conflicts_resolved,
            final_pairs: admitted.pairs.len(),
            provenance,
            template_counts,
            generator: generator_stats,
            analyzer: analyzer_report,
            timings: StageTimings {
                generate: generate_time,
                augment: augment_time,
                lemmatize: lemmatize_time,
                analyze: analyze_time,
                dedup: dedup_time,
                sink: Duration::ZERO,
                total: run_start.elapsed(),
            },
        };
        (admitted, report)
    }

    /// Generate corpora for several schemas and merge them (the multi-
    /// schema setting of the Spider experiments, §6.1.2, where DBPal
    /// synthesizes data for every training — and, in the Full
    /// configuration, test — schema).
    pub fn generate_multi(&self, schemas: &[&Schema]) -> TrainingCorpus {
        let mut merged = TrainingCorpus::new();
        for (i, schema) in schemas.iter().enumerate() {
            // Vary the seed per schema so instance sampling differs.
            // Re-keying through `stream_seed` (rather than adding the
            // index) keeps adjacent (seed, schema-index) pairs from
            // colliding: seed s with schema i+1 must not see the same
            // stream as seed s+1 with schema i.
            let mut config = self.config.clone();
            config.seed = stream_seed(config.seed, i as u64);
            let pipeline = TrainingPipeline::new(config);
            merged.extend(pipeline.generate(schema));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Provenance;
    use dbpal_schema::{SchemaBuilder, SemanticDomain, SqlType};

    fn schema() -> Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column("disease", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap()
    }

    #[test]
    fn full_pipeline_produces_lemmatized_corpus() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let corpus = pipeline.generate(&schema());
        assert!(corpus.len() > 200, "only {} pairs", corpus.len());
        for p in corpus.pairs() {
            assert!(!p.nl_lemmas.is_empty(), "unlemmatized pair: {}", p.nl);
        }
        let counts = corpus.provenance_counts();
        assert!(counts.contains_key(&Provenance::Seed));
        assert!(counts.contains_key(&Provenance::Paraphrased));
    }

    #[test]
    fn corpus_has_no_duplicates() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let mut corpus = pipeline.generate(&schema());
        assert_eq!(corpus.dedup(), 0, "pipeline output contained duplicates");
    }

    #[test]
    fn pipeline_is_deterministic() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let a: Vec<String> = pipeline
            .generate(&schema())
            .pairs()
            .iter()
            .map(|p| p.nl.clone())
            .collect();
        let b: Vec<String> = pipeline
            .generate(&schema())
            .pairs()
            .iter()
            .map(|p| p.nl.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn template_subset_shrinks_corpus() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let full = pipeline.generate(&schema()).len();
        let sub = pipeline
            .generate_with_templates(&schema(), &crate::templates::catalog_subset(0.1, 1))
            .len();
        assert!(sub < full / 3, "subset corpus {sub} vs full {full}");
    }

    #[test]
    fn multi_schema_merging() {
        let s1 = schema();
        let s2 = SchemaBuilder::new("geo")
            .table("cities", |t| {
                t.column("name", SqlType::Text)
                    .column_with("population", SqlType::Integer, |c| {
                        c.domain(SemanticDomain::Population)
                    })
                    .column("state", SqlType::Text)
            })
            .build()
            .unwrap();
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let merged = pipeline.generate_multi(&[&s1, &s2]);
        let has_city = merged
            .pairs()
            .iter()
            .any(|p| p.sql_text().contains("cities"));
        let has_patients = merged
            .pairs()
            .iter()
            .any(|p| p.sql_text().contains("patients"));
        assert!(has_city && has_patients);
    }

    #[test]
    fn augmentation_grows_the_corpus() {
        let mut base_cfg = GenerationConfig::small();
        base_cfg.num_para = 0;
        base_cfg.num_missing = 0;
        let base = TrainingPipeline::new(base_cfg).generate(&schema()).len();
        let full = TrainingPipeline::new(GenerationConfig::small())
            .generate(&schema())
            .len();
        assert!(full > base, "augmentation added nothing: {full} vs {base}");
    }

    #[test]
    fn report_matches_corpus_and_is_consistent() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let (corpus, report) = pipeline.generate_with_report(&schema());
        report.check_consistency().expect("inconsistent report");
        assert_eq!(report.final_pairs, corpus.len());
        assert_eq!(
            report
                .provenance
                .iter()
                .map(|(p, n)| (*p, *n))
                .collect::<Vec<_>>(),
            {
                let mut v: Vec<_> = corpus.provenance_counts().into_iter().collect();
                v.sort();
                v
            }
        );
        assert!(report.threads >= 1);
        assert!(report.seed_pairs > 0);
        assert!(report.augmented_pairs > 0);
        assert!(report.timings.total >= report.timings.generate);
        let rendered = report.render();
        assert!(rendered.contains("generate"));
        assert!(rendered.contains("dedup"));
        assert!(rendered.contains(&format!("{} pairs", report.final_pairs)));
    }

    #[test]
    fn report_records_into_registry() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let (_, report) = pipeline.generate_with_report(&schema());
        let reg = MetricsRegistry::new();
        report.record_metrics(&reg);
        assert_eq!(
            reg.counter("pipeline.final_pairs").get(),
            report.final_pairs as u64
        );
        assert_eq!(reg.histogram("pipeline.stage.generate").count(), 1);
        // The deterministic export carries every counter and stage
        // observation count, no wall-clock values.
        let doc = reg.to_json_deterministic().pretty();
        assert!(doc.contains("pipeline.seed_pairs"));
        assert!(doc.contains("pipeline.stage.total"));
        assert!(!doc.contains("sum_ns"));
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let base = GenerationConfig::small();
        let run = |threads: usize| {
            let cfg = GenerationConfig {
                threads,
                ..base.clone()
            };
            TrainingPipeline::new(cfg).generate_with_report(&schema()).1
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.seed_pairs, four.seed_pairs);
        assert_eq!(one.augmented_pairs, four.augmented_pairs);
        assert_eq!(one.dedup_dropped, four.dedup_dropped);
        assert_eq!(one.final_pairs, four.final_pairs);
        assert_eq!(one.provenance, four.provenance);
        assert_eq!(one.generator, four.generator);
    }

    fn bad_pair() -> TrainingPair {
        // References a column the schema lacks: E0101 at analyze time.
        TrainingPair::new(
            "what are the salaries",
            dbpal_sql::parse_query("SELECT salary FROM patients").unwrap(),
            "manual-0",
            Provenance::Manual,
        )
    }

    fn warn_pair() -> TrainingPair {
        // Valid but suspicious: integer column against a float literal
        // (W0201), which must never be rejected.
        TrainingPair::new(
            "patients aged exactly one and a half",
            dbpal_sql::parse_query("SELECT name FROM patients WHERE age = 1.5").unwrap(),
            "manual-1",
            Provenance::Manual,
        )
    }

    fn good_pair() -> TrainingPair {
        TrainingPair::new(
            "show all patient names",
            dbpal_sql::parse_query("SELECT name FROM patients").unwrap(),
            "manual-2",
            Provenance::Manual,
        )
    }

    #[test]
    fn analyze_pairs_reject_drops_only_errors() {
        use dbpal_analyze::AnalyzerPolicy;
        let schema = schema();
        let pairs = vec![good_pair(), bad_pair(), warn_pair()];
        let (kept, report) = analyze_pairs(&schema, pairs, 1, AnalyzerPolicy::Reject);
        assert_eq!(kept.len(), 2, "error pair must be dropped, warn pair kept");
        assert_eq!(report.analyzed, 3);
        assert_eq!(report.flagged, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.codes.get("E0101"), Some(&1));
        assert_eq!(report.codes.get("W0201"), Some(&1));
        assert_eq!(
            report.rejected_provenance.get(&Provenance::Manual),
            Some(&1)
        );
    }

    #[test]
    fn analyze_pairs_warn_keeps_everything() {
        use dbpal_analyze::AnalyzerPolicy;
        let schema = schema();
        let pairs = vec![good_pair(), bad_pair(), warn_pair()];
        let (kept, report) = analyze_pairs(&schema, pairs, 1, AnalyzerPolicy::Warn);
        assert_eq!(kept.len(), 3);
        assert_eq!(report.flagged, 2);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.codes.get("E0101"), Some(&1));
    }

    #[test]
    fn analyze_pairs_off_skips_analysis() {
        use dbpal_analyze::AnalyzerPolicy;
        let schema = schema();
        let pairs = vec![good_pair(), bad_pair()];
        let (kept, report) = analyze_pairs(&schema, pairs, 1, AnalyzerPolicy::Off);
        assert_eq!(kept.len(), 2);
        assert_eq!(report.analyzed, 0);
        assert!(report.codes.is_empty());
    }

    #[test]
    fn analyze_pairs_report_identical_across_threads() {
        use dbpal_analyze::AnalyzerPolicy;
        let schema = schema();
        // A batch large enough to span several chunks.
        let mut pairs = Vec::new();
        for _ in 0..70 {
            pairs.push(good_pair());
            pairs.push(bad_pair());
            pairs.push(warn_pair());
        }
        let run = |threads| analyze_pairs(&schema, pairs.clone(), threads, AnalyzerPolicy::Reject);
        let (kept1, rep1) = run(1);
        let (kept2, rep2) = run(2);
        let (kept8, rep8) = run(8);
        assert_eq!(rep1, rep2);
        assert_eq!(rep1, rep8);
        assert_eq!(kept1, kept2);
        assert_eq!(kept1, kept8);
    }

    #[test]
    fn default_pipeline_rejects_nothing_and_reports_clean() {
        let pipeline = TrainingPipeline::new(GenerationConfig::small());
        let (_, report) = pipeline.generate_with_report(&schema());
        report.check_consistency().expect("inconsistent report");
        assert_eq!(
            report.analyzer.policy,
            dbpal_analyze::AnalyzerPolicy::Reject
        );
        assert_eq!(
            report.analyzer.analyzed,
            report.seed_pairs + report.augmented_pairs
        );
        assert_eq!(report.analyzer.flagged, 0, "generated pairs must be clean");
        assert_eq!(report.analyzer.rejected, 0);
        assert!(report.analyzer.codes.is_empty());
        assert!(report.render().contains("policy reject"));
    }

    #[test]
    fn off_policy_report_is_consistent() {
        let config = GenerationConfig {
            analyzer_policy: dbpal_analyze::AnalyzerPolicy::Off,
            ..GenerationConfig::small()
        };
        let (_, report) = TrainingPipeline::new(config).generate_with_report(&schema());
        report.check_consistency().expect("inconsistent report");
        assert_eq!(report.analyzer.analyzed, 0);
        assert!(report.render().contains("analyze   (off)"));
    }

    #[test]
    fn exhaustion_is_reported_not_silent() {
        // One table with one text column: most classes cannot instantiate
        // at all (failed draws) and the rest run out of distinct
        // instances long before a large budget (duplicate draws), so the
        // attempt cap (budget * 4 + 8) trips and the report must surface
        // the shortfall.
        let schema = SchemaBuilder::new("tiny")
            .table("t", |t| t.column("a", SqlType::Text))
            .build()
            .unwrap();
        let config = GenerationConfig {
            size_slot_fills: 50,
            num_para: 0,
            num_missing: 0,
            ..GenerationConfig::default()
        };
        let (corpus, report) = TrainingPipeline::new(config).generate_with_report(&schema);
        report.check_consistency().expect("inconsistent report");
        assert!(!corpus.is_empty(), "tiny schema produced nothing at all");
        let g = &report.generator;
        assert!(g.produced < g.budgeted, "tiny schema filled every budget");
        assert!(g.shortfall > 0, "shortfall not reported");
        assert!(g.exhausted_templates > 0, "no template reported exhausted");
        assert!(g.failed_draws > 0, "expected uninstantiable draws");
        assert!(g.duplicate_draws > 0, "expected duplicate draws");
        assert_eq!(g.retries(), g.failed_draws + g.duplicate_draws);
    }
}
