//! The fuzzing driver: seeded iteration fan-out, the oracle battery,
//! shrink-on-failure, and a deterministic report.
//!
//! One iteration is a pure function of `(base_seed, iteration_index)`:
//! the RNG is `Rng::for_stream(seed, i)`, so any schedule of iterations
//! across any number of worker threads produces byte-identical findings.
//! [`run_fuzz`] fans iterations out over the process-wide `WorkerPool`
//! and merges results in input order; [`FuzzReport::to_json`]
//! deliberately excludes thread count and wall-clock so reports can be
//! compared byte-for-byte across worker configurations.

use dbpal_engine::Database;
use dbpal_schema::{Schema, Value};
use dbpal_sql::Query;
use dbpal_util::{MetricsRegistry, Rng, WorkerPool};

use crate::case::{FuzzCase, SchemaSpec};
use crate::gen::{gen_query, gen_rows, gen_schema};
use crate::mutate::{seed_faults, shuffle_equivalent};
use crate::oracles;
use crate::shrink::shrink_query;

/// Fuzzing run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; each iteration derives its own stream from it.
    pub seed: u64,
    /// Number of iterations to run.
    pub iters: usize,
    /// Worker threads for the fan-out (results are thread-count invariant).
    pub threads: usize,
}

impl FuzzConfig {
    /// A config with explicit values.
    pub fn new(seed: u64, iters: usize, threads: usize) -> Self {
        FuzzConfig {
            seed,
            iters,
            threads: threads.max(1),
        }
    }
}

/// One oracle violation, with the shrunk reproducer and a replayable case.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Iteration index the violation occurred in.
    pub iteration: u64,
    /// Oracle name (`roundtrip`, `canonical`, `canonical-pair`,
    /// `analyzer-clean`, or a fault name like `broken-join`).
    pub oracle: String,
    /// The original failing query, as SQL.
    pub sql: String,
    /// The minimized failing query, as SQL.
    pub minimized: String,
    /// The oracle's violation message (for the minimized query).
    pub detail: String,
    /// Self-contained regression case ready for `tests/fuzz_corpus/`.
    pub case: FuzzCase,
}

/// The outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Base seed the run used.
    pub seed: u64,
    /// Iterations executed.
    pub iters: usize,
    /// All violations, in iteration order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Record this run into a [`MetricsRegistry`] (the export format
    /// shared with the training pipeline and the serving layer):
    /// iteration budget and total findings, plus one counter per oracle
    /// that produced a finding. Fully deterministic — the driver takes
    /// no wall-clock reads.
    pub fn record_metrics(&self, reg: &MetricsRegistry) {
        reg.counter("fuzz.iterations").add(self.iters as u64);
        reg.counter("fuzz.findings").add(self.findings.len() as u64);
        for f in &self.findings {
            reg.counter(&format!("fuzz.findings.{}", f.oracle)).inc();
        }
    }

    /// Deterministic JSON rendering. Thread count and timings are
    /// excluded on purpose: a run at 1 worker and a run at 8 workers
    /// must serialize to identical bytes.
    pub fn to_json(&self) -> String {
        use dbpal_util::Json;
        let findings = Json::Arr(
            self.findings
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("iteration".into(), Json::str(f.iteration.to_string())),
                        ("oracle".into(), Json::str(f.oracle.clone())),
                        ("sql".into(), Json::str(f.sql.clone())),
                        ("minimized".into(), Json::str(f.minimized.clone())),
                        ("detail".into(), Json::str(f.detail.clone())),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("seed".into(), Json::str(self.seed.to_string())),
            ("iters".into(), Json::Num(self.iters as f64)),
            ("findings".into(), findings),
        ])
        .pretty()
    }
}

/// Coarse failure class of an oracle message, used to keep the shrinker
/// from wandering onto a *different* bug: a candidate only counts as
/// "still failing" when its violation opens with the same word.
fn err_class(msg: &str) -> &str {
    msg.split_whitespace().next().unwrap_or("")
}

/// Shrink `q` under `check`, holding the failure class of `orig_err`
/// fixed, and return (minimized query, its violation message).
fn shrink_with(
    q: &Query,
    orig_err: &str,
    mut check: impl FnMut(&Query) -> Result<(), String>,
) -> (Query, String) {
    let class = err_class(orig_err).to_string();
    let min = shrink_query(q, |c| matches!(check(c), Err(e) if err_class(&e) == class));
    let detail = check(&min).err().unwrap_or_else(|| orig_err.to_string());
    (min, detail)
}

/// Everything one iteration generates, bundled for finding construction.
struct IterCtx {
    iteration: u64,
    spec: SchemaSpec,
    rows: Vec<(String, Vec<Vec<Value>>)>,
}

impl IterCtx {
    fn finding(&self, oracle: &str, sql: &Query, minimized: &Query, detail: String) -> Finding {
        Finding {
            iteration: self.iteration,
            oracle: oracle.to_string(),
            sql: sql.to_string(),
            minimized: minimized.to_string(),
            detail: detail.clone(),
            case: FuzzCase {
                name: format!("iter{}-{}", self.iteration, oracle),
                oracle: oracle.to_string(),
                schema: self.spec.clone(),
                rows: self.rows.clone(),
                sql: minimized.to_string(),
                sql_b: String::new(),
                note: detail,
            },
        }
    }
}

/// Run one fuzz iteration: generate a schema, database, and queries,
/// then run the full oracle battery in a fixed order. Pure in
/// `(seed, i)` — no other state feeds the RNG.
pub fn run_iteration(seed: u64, i: u64) -> Vec<Finding> {
    let mut rng = Rng::for_stream(seed, i);
    let schema: Schema = gen_schema(&mut rng);
    let rows = gen_rows(&mut rng, &schema);
    let mut db = Database::new(schema.clone());
    for (table, trows) in &rows {
        for row in trows {
            db.insert(table, row.clone())
                .expect("generated row is valid");
        }
    }
    let q1 = gen_query(&mut rng, &schema);
    let q2 = gen_query(&mut rng, &schema);
    let shuffled = shuffle_equivalent(&mut rng, &q1);

    let ctx = IterCtx {
        iteration: i,
        spec: SchemaSpec::from_schema(&schema),
        rows,
    };
    let mut findings = Vec::new();

    // Oracle 1: roundtrip, both queries.
    for q in [&q1, &q2] {
        if let Err(e) = oracles::check_roundtrip(q) {
            let (min, detail) = shrink_with(q, &e, oracles::check_roundtrip);
            findings.push(ctx.finding("roundtrip", q, &min, detail));
        }
    }

    // Oracle 3a: generated queries analyze clean.
    for q in [&q1, &q2] {
        if let Err(e) = oracles::check_analyzer_clean(&schema, q) {
            let (min, detail) = shrink_with(q, &e, |c| oracles::check_analyzer_clean(&schema, c));
            findings.push(ctx.finding("analyzer-clean", q, &min, detail));
        }
    }

    // Oracle 2a: canonicalization preserves results.
    for q in [&q1, &q2] {
        if let Err(e) = oracles::check_canonical_preserves(&db, q) {
            let (min, detail) = shrink_with(q, &e, |c| oracles::check_canonical_preserves(&db, c));
            findings.push(ctx.finding("canonical", q, &min, detail));
        }
    }

    // Oracle 2b: an equivalence-preserving shuffle keeps the canonical
    // form and the results; two arbitrary queries that happen to share a
    // form must agree on results. Pair findings are not shrunk (the two
    // queries would have to shrink in lockstep); the pair is persisted
    // verbatim.
    if let Err(e) = oracles::check_canonical_pair(&db, &q1, &shuffled, true) {
        let mut f = ctx.finding("canonical-pair", &q1, &q1, e);
        f.case.sql_b = shuffled.to_string();
        findings.push(f);
    }
    if let Err(e) = oracles::check_canonical_pair(&db, &q1, &q2, false) {
        let mut f = ctx.finding("canonical-pair", &q1, &q1, e);
        f.case.sql_b = q2.to_string();
        findings.push(f);
    }

    // Oracle 3b: every seeded fault must trip a matching diagnostic.
    for (mutated, fault) in seed_faults(&q1) {
        if let Err(e) = oracles::check_mutation_flagged(&schema, &mutated, fault) {
            let (min, detail) = shrink_with(&mutated, &e, |c| {
                oracles::check_mutation_flagged(&schema, c, fault)
            });
            findings.push(ctx.finding(fault.name(), &mutated, &min, detail));
        }
    }

    findings
}

/// Run `cfg.iters` iterations fanned out over `cfg.threads` workers.
/// Findings come back merged in iteration order, independent of thread
/// count or scheduling.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let idxs: Vec<u64> = (0..cfg.iters as u64).collect();
    let per_iter =
        WorkerPool::global().map_indexed(&idxs, cfg.threads, |_, &i| run_iteration(cfg.seed, i));
    FuzzReport {
        seed: cfg.seed,
        iters: cfg.iters,
        findings: per_iter.into_iter().flatten().collect(),
    }
}
