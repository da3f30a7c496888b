#![warn(missing_docs)]
//! Deterministic fuzzing and differential testing for the DBPal SQL stack.
//!
//! DBPal's correctness story rests on three contracts that ordinary
//! example-based tests cannot stress adversarially:
//!
//! 1. **Roundtrip** — the printer and parser agree: for every query `q`,
//!    `parse_query(&q.to_string()) == Ok(q)`. Exact-match scoring
//!    (paper §6.2.1) silently breaks if this drifts.
//! 2. **Canonicalizer soundness** — canonicalization never changes a
//!    query's results, and two queries with equal [`CanonicalForm`]s
//!    return identical result multisets on any database. The
//!    semantic-equivalence scorer depends on both directions.
//! 3. **Analyzer coherence** — every well-formed query the generator can
//!    produce is clean under `AnalyzerPolicy::Reject`, while fault-seeded
//!    mutations (bad column, bad table, type mismatch, broken join path)
//!    always trip a diagnostic.
//!
//! This crate generates arbitrary valid schemas, populated in-memory
//! databases, and well-typed SQL ASTs — driven entirely by the in-repo
//! [`dbpal_util::Rng`], so every run is reproducible from a seed — and
//! checks the three oracles differentially. Failing inputs are passed
//! through a minimizing shrinker ([`shrink`]) and serialized as JSON
//! ([`case`]) into `tests/fuzz_corpus/` at the workspace root, where a
//! replay harness runs them as ordinary `cargo test` regressions.
//!
//! The driver fans iterations out over the process-wide `WorkerPool`,
//! seeding each iteration with `Rng::for_stream(seed, i)`: findings are
//! byte-identical at any worker-thread count.
//!
//! [`CanonicalForm`]: dbpal_sql::CanonicalForm

pub mod case;
pub mod driver;
pub mod gen;
pub mod mutate;
pub mod oracles;
pub mod shrink;

pub use case::{FuzzCase, SchemaSpec};
pub use driver::{run_fuzz, run_iteration, Finding, FuzzConfig, FuzzReport};
pub use gen::{gen_database, gen_query, gen_rows, gen_schema};
pub use mutate::{seed_faults, shuffle_equivalent, FaultKind};
pub use oracles::{
    check_analyzer_clean, check_canonical_pair, check_canonical_preserves, check_mutation_flagged,
    check_roundtrip,
};
pub use shrink::shrink_query;
