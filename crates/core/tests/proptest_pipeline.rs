//! Property tests for the training pipeline: invariants that must hold
//! for every generation configuration (ported from `proptest` to the
//! seeded `dbpal_util::check` harness; a failing case prints its seed
//! for `DBPAL_CHECK_REPLAY`).

use dbpal_core::{catalog, GenerationConfig, TrainingPipeline};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::{forall, stream_seed, Rng};
use std::collections::HashSet;

fn schema() -> Schema {
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

/// Small random configurations (kept tiny so each case is fast).
fn config(rng: &mut Rng) -> GenerationConfig {
    GenerationConfig {
        size_slot_fills: rng.gen_range(1usize..6),
        group_by_p: rng.gen_range(0.0f64..0.5),
        num_para: rng.gen_range(0usize..3),
        num_missing: rng.gen_range(0usize..3),
        rand_drop_p: rng.gen_range(0.0f64..0.8),
        paraphrase_min_quality: rng.gen_range(0.0f32..0.9),
        pos_gated_dropout: rng.gen_bool(0.5),
        seed: rng.next_u64(),
        ..GenerationConfig::default()
    }
}

/// Every configuration yields a corpus whose SQL parses, whose NL has
/// no unfilled slots, whose placeholders agree between NL and SQL,
/// and whose pairs are lemmatized and deduplicated.
#[test]
fn corpus_invariants_hold_for_any_config() {
    forall!(cases = 24, |rng| {
        let cfg = config(rng);
        let schema = schema();
        let pipeline = TrainingPipeline::new(cfg);
        let mut corpus = pipeline.generate(&schema);
        assert!(!corpus.is_empty());
        for pair in corpus.pairs() {
            // SQL round-trips through the parser.
            let text = pair.sql_text();
            let reparsed = dbpal_sql::parse_query(&text)
                .unwrap_or_else(|e| panic!("unparseable `{text}`: {e}"));
            assert_eq!(&reparsed, &*pair.sql);
            // NL is fully instantiated and lemmatized.
            assert!(!pair.nl.contains('{'), "unfilled slot in `{}`", pair.nl);
            assert!(!pair.nl_lemmas.is_empty());
            // Placeholder agreement.
            for ph in pair.sql.placeholders() {
                assert!(
                    pair.nl.to_uppercase().contains(&format!("@{ph}")),
                    "placeholder @{ph} missing from `{}`",
                    pair.nl
                );
            }
        }
        assert_eq!(corpus.dedup(), 0, "pipeline output contained duplicates");
    });
}

/// A random one- or two-table schema with random column types; small
/// enough that some templates fail to instantiate or exhaust their
/// attempt budgets, which is exactly what the report must account for.
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

/// The [`dbpal_core::PipelineReport`] counters are consistent for any
/// configuration, schema shape, and thread count: the stage outputs
/// less the analyzer's and the dedup index's drops are the final
/// corpus, and provenance counts sum to it.
#[test]
fn report_counters_are_consistent_for_any_config() {
    forall!(cases = 12, |rng| {
        let mut cfg = config(rng);
        cfg.threads = rng.gen_range(1usize..5);
        let schema = random_small_schema(rng);
        let (corpus, report) = TrainingPipeline::new(cfg).generate_with_report(&schema);
        report
            .check_consistency()
            .unwrap_or_else(|e| panic!("inconsistent report: {e}\n{}", report.render()));
        assert_eq!(report.final_pairs, corpus.len());
        assert_eq!(
            report.seed_pairs + report.augmented_pairs - report.final_pairs,
            report.dedup_dropped + report.analyzer.rejected
        );
        assert_eq!(
            report.provenance.values().sum::<usize>(),
            report.final_pairs
        );
    });
}

/// The reduced CI profile (`DBPAL_CHECK_CASES=16`, see scripts/verify.sh)
/// still exercises every query-class family: 16 stream-seeded random
/// configurations on the full catalog must between them instantiate every
/// template family. This loop is deliberately independent of
/// `DBPAL_CHECK_CASES` (which overrides `forall!` counts globally) so the
/// guarantee holds no matter how far the env knob shrinks the other
/// properties.
#[test]
fn reduced_profile_covers_every_query_class() {
    let all_families: HashSet<String> = catalog()
        .iter()
        .map(|t| t.id.split('.').next().unwrap().to_string())
        .collect();
    let schema = schema();
    let mut hit: HashSet<String> = HashSet::new();
    for i in 0..16u64 {
        let mut rng = Rng::seed_from_u64(stream_seed(dbpal_util::check::base_seed(), i));
        let cfg = config(&mut rng);
        let corpus = TrainingPipeline::new(cfg).generate(&schema);
        assert!(!corpus.is_empty(), "case {i} generated an empty corpus");
        hit.extend(
            corpus
                .pairs()
                .iter()
                .map(|p| p.template_id.split('.').next().unwrap().to_string()),
        );
    }
    let missed: Vec<&String> = all_families.iter().filter(|f| !hit.contains(*f)).collect();
    assert!(
        missed.is_empty(),
        "reduced profile never exercised families {missed:?}"
    );
}

/// Generation is a pure function of the configuration (same seed →
/// same corpus).
#[test]
fn generation_deterministic() {
    forall!(cases = 24, |rng| {
        let cfg = config(rng);
        let schema = schema();
        let a: Vec<String> = TrainingPipeline::new(cfg.clone())
            .generate(&schema)
            .pairs()
            .iter()
            .map(|p| p.nl.clone())
            .collect();
        let b: Vec<String> = TrainingPipeline::new(cfg)
            .generate(&schema)
            .pairs()
            .iter()
            .map(|p| p.nl.clone())
            .collect();
        assert_eq!(a, b);
    });
}
