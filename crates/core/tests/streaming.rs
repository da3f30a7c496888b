//! Streaming-corpus integration battery: dedup-policy fixtures, the
//! thread invariance property, JSONL round-trips, and the
//! provenance-weighted split sink.

use dbpal_core::CorpusSink;
use dbpal_core::{
    corpus_from_jsonl, DedupPolicy, GenerationConfig, JsonlSink, MemorySink, Provenance, SplitSink,
    StreamDedup, StreamOptions, TrainingCorpus, TrainingPair, TrainingPipeline,
};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::forall;

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

fn tiny_config(seed: u64) -> GenerationConfig {
    GenerationConfig {
        size_slot_fills: 2,
        num_para: 1,
        num_missing: 0,
        seed,
        ..GenerationConfig::default()
    }
}

/// A hand-built scored pair for the dedup fixtures: `sql` is parsed, so
/// the fixture's identity matches what real pairs carry.
fn scored(nl: &str, sql: &str, score: u32) -> (TrainingPair, u32) {
    let query = dbpal_sql::parse_query(sql).expect("fixture SQL parses");
    let mut pair = TrainingPair::new(nl.to_string(), query, "fixture", Provenance::Seed);
    pair.nl_lemmas = nl
        .to_lowercase()
        .split_whitespace()
        .map(String::from)
        .collect();
    (pair, score)
}

/// A fixture round after `TrainingCorpus::dedup`, which keeps each
/// (NL, SQL) pair's first occurrence. Survivors keep their scores: the
/// analyzer's verdict depends only on the SQL, so every repeat carries
/// the same one.
fn in_round_deduped(raw: &[(TrainingPair, u32)]) -> Vec<(TrainingPair, u32)> {
    let mut corpus = TrainingCorpus::from_pairs(raw.iter().map(|(p, _)| p.clone()).collect());
    corpus.dedup();
    corpus
        .into_iter()
        .map(|p| {
            let score = raw.iter().find(|(q, _)| *q == p).map(|(_, s)| *s);
            (p, score.expect("dedup keeps only input pairs"))
        })
        .collect()
}

/// One dedup fixture: named rounds of (nl, sql, score) plus the
/// expected emission (by SQL text, in order) and drop counters.
struct DedupCase {
    name: &'static str,
    rounds: &'static [&'static [(&'static str, &'static str, u32)]],
    want_sql: &'static [&'static str],
    want_exact: usize,
    want_conflicts: usize,
}

const Q_AGE: &str = "SELECT name FROM patients WHERE age > 50";
const Q_DISEASE: &str = "SELECT name FROM patients WHERE disease = 'flu'";
const Q_COUNT: &str = "SELECT COUNT(*) FROM patients";

#[test]
fn dedup_conflict_fixtures() {
    let cases = [
        DedupCase {
            name: "cleanest_wins_when_first",
            rounds: &[&[
                ("show old patients", Q_AGE, 0),
                ("show old patients", Q_DISEASE, 5),
            ]],
            want_sql: &[Q_AGE],
            want_exact: 0,
            want_conflicts: 1,
        },
        DedupCase {
            name: "cleanest_wins_when_second_and_keeps_first_seen_slot",
            rounds: &[&[
                ("show old patients", Q_AGE, 5),
                ("count patients", Q_COUNT, 0),
                ("show old patients", Q_DISEASE, 0),
            ]],
            // The winner replaces the loser at the loser's slot, so the
            // challenger's SQL appears *before* the count query.
            want_sql: &[Q_DISEASE, Q_COUNT],
            want_exact: 0,
            want_conflicts: 1,
        },
        DedupCase {
            name: "tie_keeps_first_seen",
            rounds: &[&[
                ("show old patients", Q_AGE, 3),
                ("show old patients", Q_DISEASE, 3),
            ]],
            want_sql: &[Q_AGE],
            want_exact: 0,
            want_conflicts: 1,
        },
        DedupCase {
            name: "exact_duplicate_within_round",
            rounds: &[&[
                ("show old patients", Q_AGE, 0),
                ("show old patients", Q_AGE, 0),
            ]],
            want_sql: &[Q_AGE],
            want_exact: 1,
            want_conflicts: 0,
        },
        DedupCase {
            name: "emitted_rounds_are_final_even_against_cleaner_latecomers",
            rounds: &[
                &[("show old patients", Q_AGE, 5)],
                &[("show old patients", Q_DISEASE, 0)],
            ],
            want_sql: &[Q_AGE],
            want_exact: 0,
            want_conflicts: 1,
        },
        DedupCase {
            name: "exact_duplicate_across_rounds",
            rounds: &[
                &[("show old patients", Q_AGE, 0)],
                &[
                    ("show old patients", Q_AGE, 0),
                    ("count patients", Q_COUNT, 0),
                ],
            ],
            want_sql: &[Q_AGE, Q_COUNT],
            want_exact: 1,
            want_conflicts: 0,
        },
        DedupCase {
            name: "repeat_of_incumbent_within_round",
            // The repeat differs only in raw casing, so keeping the
            // first occurrence is visible in the emitted pair.
            rounds: &[&[
                ("show old patients", Q_AGE, 0),
                ("show old patients", Q_DISEASE, 5),
                ("Show old patients", Q_AGE, 0),
            ]],
            want_sql: &[Q_AGE],
            want_exact: 1,
            want_conflicts: 1,
        },
        DedupCase {
            name: "repeat_of_conflict_winner_within_round",
            rounds: &[&[
                ("show old patients", Q_AGE, 5),
                ("count patients", Q_COUNT, 0),
                ("show old patients", Q_DISEASE, 0),
                ("Show old patients", Q_DISEASE, 0),
            ]],
            want_sql: &[Q_DISEASE, Q_COUNT],
            want_exact: 1,
            want_conflicts: 1,
        },
        DedupCase {
            name: "repeat_of_conflict_loser_within_round",
            rounds: &[&[
                ("show old patients", Q_AGE, 0),
                ("show old patients", Q_DISEASE, 5),
                ("count patients", Q_COUNT, 0),
                ("show old patients", Q_DISEASE, 5),
            ]],
            // A repeat of a loser loses again: it is a conflict with
            // the incumbent, not a repeat of it.
            want_sql: &[Q_AGE, Q_COUNT],
            want_exact: 0,
            want_conflicts: 2,
        },
        DedupCase {
            name: "repeat_of_displaced_incumbent_within_round",
            rounds: &[&[
                ("show old patients", Q_AGE, 5),
                ("show old patients", Q_DISEASE, 0),
                ("show old patients", Q_AGE, 5),
            ]],
            want_sql: &[Q_DISEASE],
            want_exact: 0,
            want_conflicts: 2,
        },
        DedupCase {
            name: "repeats_within_a_later_round",
            rounds: &[
                &[("show old patients", Q_AGE, 0)],
                &[
                    ("show old patients", Q_AGE, 0),
                    ("count patients", Q_COUNT, 0),
                    ("count patients", Q_COUNT, 0),
                    ("show old patients", Q_AGE, 0),
                ],
            ],
            want_sql: &[Q_AGE, Q_COUNT],
            want_exact: 3,
            want_conflicts: 0,
        },
        DedupCase {
            name: "distinct_nl_same_sql_both_kept",
            rounds: &[&[
                ("show old patients", Q_AGE, 0),
                ("elderly patient names", Q_AGE, 0),
            ]],
            want_sql: &[Q_AGE, Q_AGE],
            want_exact: 0,
            want_conflicts: 0,
        },
    ];
    for case in &cases {
        let mut dedup = StreamDedup::new(DedupPolicy::ResolveConflicts);
        let mut got_sql: Vec<String> = Vec::new();
        let mut exact = 0;
        let mut conflicts = 0;
        for round in case.rounds {
            let outcome = dedup.admit_round(
                round
                    .iter()
                    .map(|&(nl, sql, s)| scored(nl, sql, s))
                    .collect(),
            );
            got_sql.extend(outcome.pairs.iter().map(|p| p.sql_text()));
            exact += outcome.exact_dropped;
            conflicts += outcome.conflicts_resolved;
        }
        let want: Vec<String> = case
            .want_sql
            .iter()
            .map(|s| dbpal_sql::parse_query(s).unwrap().to_string())
            .collect();
        assert_eq!(got_sql, want, "{}: emitted SQL", case.name);
        assert_eq!(exact, case.want_exact, "{}: exact drops", case.name);
        assert_eq!(
            conflicts, case.want_conflicts,
            "{}: conflict drops",
            case.name
        );

        // The index alone does the in-round pass's job: under either
        // policy, admitting each raw round emits exactly what admitting
        // the in-round-deduped round does, and drops the difference.
        for policy in [DedupPolicy::Exact, DedupPolicy::ResolveConflicts] {
            let mut raw_index = StreamDedup::new(policy);
            let mut deduped_index = StreamDedup::new(policy);
            for (r, round) in case.rounds.iter().enumerate() {
                let raw: Vec<_> = round
                    .iter()
                    .map(|&(nl, sql, s)| scored(nl, sql, s))
                    .collect();
                let deduped = in_round_deduped(&raw);
                let repeats = raw.len() - deduped.len();
                let a = raw_index.admit_round(raw);
                let b = deduped_index.admit_round(deduped);
                assert_eq!(
                    a.pairs, b.pairs,
                    "{} {policy:?} round {r}: emitted pairs",
                    case.name
                );
                assert_eq!(
                    a.exact_dropped + a.conflicts_resolved,
                    b.exact_dropped + b.conflicts_resolved + repeats,
                    "{} {policy:?} round {r}: drops",
                    case.name
                );
            }
        }
    }
}

#[test]
fn exact_policy_never_resolves_conflicts() {
    let mut dedup = StreamDedup::new(DedupPolicy::Exact);
    let outcome = dedup.admit_round(vec![
        scored("show old patients", Q_AGE, 5),
        scored("show old patients", Q_DISEASE, 0),
        scored("show old patients", Q_AGE, 5),
    ]);
    // Same NL with different SQL is two distinct exact keys; only the
    // true repeat drops.
    assert_eq!(outcome.pairs.len(), 2);
    assert_eq!(outcome.exact_dropped, 1);
    assert_eq!(outcome.conflicts_resolved, 0);
}

/// The thread invariance property: at any thread count, a streaming
/// run emits byte-identical JSONL.
#[test]
fn threads_never_change_emitted_bytes() {
    let schema = schema();
    forall!(cases = 8, |rng| {
        let seed = rng.next_u64();
        let opts = StreamOptions {
            max_rounds: rng.gen_range(1usize..4),
            ..StreamOptions::corpus(0)
        };
        let baseline = {
            let mut sink = JsonlSink::new(std::io::sink());
            TrainingPipeline::new(tiny_config(seed))
                .stream(&[&schema], &opts, &mut sink)
                .expect("digest streaming cannot fail");
            (sink.digest(), sink.pairs())
        };
        let threads = rng.gen_range(1usize..5);
        let cfg = GenerationConfig {
            threads,
            ..tiny_config(seed)
        };
        let mut sink = JsonlSink::new(std::io::sink());
        let report = TrainingPipeline::new(cfg)
            .stream(&[&schema], &opts, &mut sink)
            .expect("digest streaming cannot fail");
        report
            .check_consistency()
            .unwrap_or_else(|e| panic!("inconsistent report: {e}"));
        assert_eq!(
            (sink.digest(), sink.pairs()),
            baseline,
            "seed {seed:#x}: {threads} threads diverged from the single-thread stream"
        );
    });
}

/// Streaming JSONL round-trips: the bytes a `JsonlSink` writes parse
/// back into exactly the pairs a `MemorySink` collects from the same
/// run.
#[test]
fn jsonl_stream_round_trips_to_memory_sink() {
    let schema = schema();
    let opts = StreamOptions {
        max_rounds: 2,
        ..StreamOptions::corpus(0)
    };
    let mut jsonl = JsonlSink::new(Vec::new());
    TrainingPipeline::new(tiny_config(0xBEEF))
        .stream(&[&schema], &opts, &mut jsonl)
        .expect("vec streaming cannot fail");
    let mut memory = MemorySink::new();
    TrainingPipeline::new(tiny_config(0xBEEF))
        .stream(&[&schema], &opts, &mut memory)
        .expect("memory streaming cannot fail");

    let text = String::from_utf8(jsonl.into_inner()).expect("JSONL is UTF-8");
    let reparsed = corpus_from_jsonl(&text).expect("written JSONL parses");
    let expected = memory.into_corpus();
    assert!(expected.len() > 100);
    assert_eq!(reparsed.len(), expected.len());
    for (a, b) in reparsed.pairs().iter().zip(expected.pairs()) {
        assert_eq!(a.nl, b.nl);
        assert_eq!(a.sql_text(), b.sql_text());
        assert_eq!(a.template_id, b.template_id);
        assert_eq!(a.provenance, b.provenance);
        assert_eq!(a.nl_lemmas, b.nl_lemmas);
    }
}

#[test]
fn split_sink_routes_each_pair_exactly_once_and_deterministically() {
    let schema = schema();
    let mut memory = MemorySink::new();
    TrainingPipeline::new(tiny_config(0x5111))
        .stream(
            &[&schema],
            &StreamOptions {
                max_rounds: 2,
                ..StreamOptions::corpus(0)
            },
            &mut memory,
        )
        .expect("memory streaming cannot fail");
    let corpus = memory.into_corpus();

    let route = |fraction: f64| {
        let mut train = MemorySink::new();
        let mut test = MemorySink::new();
        let mut split = SplitSink::new(&mut train, &mut test, fraction);
        for pair in corpus.pairs() {
            split
                .accept(pair.clone())
                .expect("memory sinks cannot fail");
        }
        assert_eq!(split.train_pairs() + split.test_pairs(), corpus.len());
        let test_nl: Vec<String> = {
            let n = split.test_pairs();
            let _ = n;
            test.into_corpus()
                .pairs()
                .iter()
                .map(|p| p.nl.clone())
                .collect()
        };
        (train.len(), test_nl)
    };

    // Degenerate fractions: everything on one side.
    let (train_all, test_none) = route(0.0);
    assert_eq!((train_all, test_none.len()), (corpus.len(), 0));

    // A real split lands pairs on both sides and is order-independent:
    // the same pairs go to the same side on a second pass.
    let (train_a, test_a) = route(0.2);
    let (train_b, test_b) = route(0.2);
    assert!(
        train_a > 0 && !test_a.is_empty(),
        "split produced an empty side"
    );
    assert_eq!(train_a, train_b);
    assert_eq!(test_a, test_b);
}

/// Provenance weighting is visible in aggregate: with the full
/// augmentation mix, weighted test fractions differ between provenance
/// classes (noisy classes are underweighted relative to seeds).
#[test]
fn split_weights_shift_noisy_provenance_toward_training() {
    use dbpal_core::provenance_split_weight;
    assert!(
        provenance_split_weight(Provenance::Manual) > provenance_split_weight(Provenance::Seed)
    );
    assert!(
        provenance_split_weight(Provenance::Seed)
            > provenance_split_weight(Provenance::Paraphrased)
    );
    assert!(
        provenance_split_weight(Provenance::Paraphrased)
            > provenance_split_weight(Provenance::Dropped)
    );
}

/// A multi-schema stream cycles schemas round-robin: with two schemas
/// and two rounds, both appear in the output.
#[test]
fn multi_schema_stream_covers_every_schema() {
    let hospital = schema();
    let geo = SchemaBuilder::new("geo")
        .table("cities", |t| {
            t.column("name", SqlType::Text)
                .column_with("population", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Population)
                })
        })
        .build()
        .unwrap();
    let mut sink = MemorySink::new();
    let report = TrainingPipeline::new(tiny_config(0xC1C1))
        .stream(
            &[&hospital, &geo],
            &StreamOptions {
                max_rounds: 2,
                ..StreamOptions::corpus(0)
            },
            &mut sink,
        )
        .expect("memory streaming cannot fail");
    assert_eq!(report.rounds.len(), 2);
    let corpus = sink.into_corpus();
    let has = |table: &str| corpus.pairs().iter().any(|p| p.sql_text().contains(table));
    assert!(has("patients"), "round 0 schema missing from the stream");
    assert!(has("cities"), "round 1 schema missing from the stream");
}
