//! Property tests for the static-analysis gate: every pair the default
//! pipeline generates must analyze clean at `Reject` — across random
//! schemas, random configurations, and any thread count — and the
//! per-code counts in the report must be thread-count invariant.

use dbpal_core::{AnalyzerPolicy, GenerationConfig, TrainingPipeline};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::{forall, Rng};

fn hospital() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.synonym("people")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("name", SqlType::Text)
                .column("specialty", SqlType::Text)
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .unwrap()
}

/// Small random configurations at the default `Reject` policy.
fn config(rng: &mut Rng) -> GenerationConfig {
    GenerationConfig {
        size_slot_fills: rng.gen_range(1usize..6),
        group_by_p: rng.gen_range(0.0f64..0.5),
        num_para: rng.gen_range(0usize..3),
        num_missing: rng.gen_range(0usize..3),
        rand_drop_p: rng.gen_range(0.0f64..0.8),
        seed: rng.next_u64(),
        ..GenerationConfig::default()
    }
}

/// Random one- or two-table schemas with mixed column types — including
/// degenerate single-table shapes that exhaust template slots.
fn random_small_schema(rng: &mut Rng) -> Schema {
    const TABLE_NAMES: [&str; 2] = ["t0", "t1"];
    const COLUMN_NAMES: [&str; 4] = ["c0", "c1", "c2", "c3"];
    let n_tables = rng.gen_range(1usize..3);
    let mut builder = SchemaBuilder::new("rand");
    for table_name in TABLE_NAMES.iter().take(n_tables) {
        let types: Vec<SqlType> = (0..rng.gen_range(1usize..5))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    SqlType::Text
                } else {
                    SqlType::Integer
                }
            })
            .collect();
        builder = builder.table(*table_name, |mut t| {
            for (name, ty) in COLUMN_NAMES.iter().zip(&types) {
                t = t.column(*name, *ty);
            }
            t
        });
    }
    builder.build().unwrap()
}

/// The generator's output is semantically valid by construction: under
/// any random schema and configuration, the `Reject` gate drops nothing
/// and flags nothing, and the analyzer report is byte-identical at
/// 1, 2, and 8 threads.
#[test]
fn generated_pairs_analyze_clean_at_any_thread_count() {
    forall!(cases = 12, |rng| {
        let base = config(rng);
        let schema = random_small_schema(rng);
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = GenerationConfig {
                threads,
                ..base.clone()
            };
            let (corpus, report) = TrainingPipeline::new(cfg).generate_with_report(&schema);
            report
                .check_consistency()
                .unwrap_or_else(|e| panic!("inconsistent report: {e}\n{}", report.render()));
            assert_eq!(report.analyzer.policy, AnalyzerPolicy::Reject);
            assert_eq!(
                report.analyzer.rejected,
                0,
                "rejected pairs under default config:\n{}",
                report.render()
            );
            assert_eq!(
                report.analyzer.flagged,
                0,
                "flagged pairs under default config:\n{}",
                report.render()
            );
            assert!(report.analyzer.codes.is_empty());
            assert_eq!(
                report.analyzer.analyzed,
                report.seed_pairs + report.augmented_pairs
            );
            assert_eq!(report.final_pairs, corpus.len());
            reports.push(report.analyzer);
        }
        assert_eq!(
            reports[0], reports[1],
            "analyzer report differs 1 vs 2 threads"
        );
        assert_eq!(
            reports[0], reports[2],
            "analyzer report differs 1 vs 8 threads"
        );
    });
}

/// Regression: a tiny single-table schema exhausts template slots, and a
/// large slot-fill budget used to be able to instantiate a column that
/// the target schema lacks. That fault must surface as an `E0101`
/// analyzer count (and a reject under `Reject`), never as a panic — and
/// with the current generator it must not happen at all.
#[test]
fn tiny_schema_slot_exhaustion_never_panics_or_leaks() {
    let schema = SchemaBuilder::new("tiny")
        .table("only", |t| t.column("solo", SqlType::Text))
        .build()
        .unwrap();
    let cfg = GenerationConfig {
        size_slot_fills: 50,
        ..GenerationConfig::default()
    };
    // Must not panic even though nearly every template exhausts.
    let (corpus, report) = TrainingPipeline::new(cfg).generate_with_report(&schema);
    report
        .check_consistency()
        .unwrap_or_else(|e| panic!("inconsistent report: {e}\n{}", report.render()));
    assert!(!corpus.is_empty(), "one-table schema produced no corpus");
    assert_eq!(
        report.analyzer.codes.get("E0101"),
        None,
        "generator emitted unresolved columns:\n{}",
        report.render()
    );
    assert_eq!(report.analyzer.rejected, 0, "{}", report.render());
}

/// The full default configuration on the reference schema analyzes 100%
/// clean at `Reject` with zero dropped pairs (acceptance criterion).
#[test]
fn default_config_hospital_generation_is_clean() {
    let (corpus, report) =
        TrainingPipeline::new(GenerationConfig::default()).generate_with_report(&hospital());
    assert_eq!(
        report.analyzer.analyzed,
        report.seed_pairs + report.augmented_pairs
    );
    assert_eq!(report.final_pairs, corpus.len());
    assert_eq!(report.analyzer.flagged, 0, "{}", report.render());
    assert_eq!(report.analyzer.rejected, 0, "{}", report.render());
}
