//! End-to-end determinism: DBPal's pipeline is a pure function of
//! `GenerationConfig` (paper §3 — seeded template instantiation), and
//! the JSON exporter is byte-stable, so a seed fully identifies a
//! training corpus.

use dbpal::core::{corpus_to_json, GenerationConfig, TrainingPipeline};
use dbpal::schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};

fn schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.synonym("people")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column("disease", SqlType::Text)
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("name", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .unwrap()
}

fn geo_schema() -> Schema {
    SchemaBuilder::new("geo")
        .table("cities", |t| {
            t.column("name", SqlType::Text)
                .column_with("population", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Population)
                })
                .column("state", SqlType::Text)
        })
        .build()
        .unwrap()
}

fn export(seed: u64) -> String {
    let config = GenerationConfig {
        seed,
        ..GenerationConfig::small()
    };
    let corpus = TrainingPipeline::new(config).generate(&schema());
    corpus_to_json(&corpus).expect("export")
}

#[test]
fn same_seed_yields_byte_identical_exports() {
    let a = export(0x00DE_7EC7);
    let b = export(0x00DE_7EC7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the exact corpus bytes");
}

#[test]
fn different_seeds_yield_different_corpora() {
    let a = export(1);
    let b = export(2);
    assert_ne!(
        a, b,
        "different seeds must vary slot fills / augmentation choices"
    );
}

/// The parallel-pipeline contract: `threads` changes wall-clock time
/// only, never output bytes. Every stage re-keys its randomness per
/// work unit and merges shards in input order, so 1, 2, and 8 workers
/// must export the identical corpus.
#[test]
fn thread_count_never_changes_exported_bytes() {
    let export_with = |threads: usize| {
        let config = GenerationConfig {
            seed: 0x00DE_7EC7,
            threads,
            ..GenerationConfig::small()
        };
        let corpus = TrainingPipeline::new(config).generate(&schema());
        corpus_to_json(&corpus).expect("export")
    };
    let one = export_with(1);
    let two = export_with(2);
    let eight = export_with(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "2 threads diverged from the single-thread corpus");
    assert_eq!(
        one, eight,
        "8 threads diverged from the single-thread corpus"
    );
}

/// The same contract for the multi-schema merge path.
#[test]
fn thread_count_never_changes_multi_schema_bytes() {
    let s1 = schema();
    let s2 = geo_schema();
    let export_with = |threads: usize| {
        let config = GenerationConfig {
            seed: 0x00DE_7EC7,
            threads,
            ..GenerationConfig::small()
        };
        let corpus = TrainingPipeline::new(config).generate_multi(&[&s1, &s2]);
        corpus_to_json(&corpus).expect("export")
    };
    let one = export_with(1);
    let two = export_with(2);
    let eight = export_with(8);
    assert_eq!(one, two, "2 threads diverged on the multi-schema merge");
    assert_eq!(one, eight, "8 threads diverged on the multi-schema merge");
}

/// FNV-1a over the exported corpus bytes; tiny, dependency-free, and
/// stable across platforms, which is all a golden pin needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The golden corpus pins: (seed, byte length, FNV-1a digest, pair
/// count) of the exported corpus for two fixed seeds. Shared by the
/// classic one-shot test and the streaming-path test below — both
/// production paths must land on the same artifact.
const GOLDEN: [(u64, usize, u64, usize); 2] = [
    (0x00DE_7EC7, 2_333_908, 0x856d_ab8d_79d6_fa4f, 5256),
    (0x5EED, 2_339_561, 0x8b3e_01e2_6029_232e, 5272),
];

/// Golden-bytes pin: the exported corpus for a fixed seed is not just
/// run-to-run stable, it is *this exact artifact*. Any intentional
/// change to generation, augmentation, lemmatization, dedup, analysis,
/// or the JSON exporter shows up here and forces a conscious re-pin
/// (update the constants after verifying the diff is intended).
#[test]
fn golden_corpus_bytes_for_fixed_seeds() {
    for (seed, len, digest, pairs) in GOLDEN {
        let config = GenerationConfig {
            seed,
            ..GenerationConfig::small()
        };
        let corpus = TrainingPipeline::new(config).generate(&schema());
        let json = corpus_to_json(&corpus).expect("export");
        println!(
            "seed {seed:#x}: len {}, fnv1a 0x{:016x}, pairs {}",
            json.len(),
            fnv1a(json.as_bytes()),
            corpus.len()
        );
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes()), corpus.len()),
            (len, digest, pairs),
            "exported corpus for seed {seed:#x} drifted from its golden pin"
        );
    }
}

/// The streaming producer is the same function: a one-round stream
/// into a memory sink must land byte-for-byte on both golden pins.
/// Since `generate` is itself a thin wrapper over this path, the test
/// proves the wrapper adds nothing and the sink drops nothing.
#[test]
fn streaming_one_shot_reproduces_golden_pins() {
    use dbpal::core::{MemorySink, StreamOptions};
    for (seed, len, digest, pairs) in GOLDEN {
        let config = GenerationConfig {
            seed,
            ..GenerationConfig::small()
        };
        let mut sink = MemorySink::new();
        let report = TrainingPipeline::new(config)
            .stream(&[&schema()], &StreamOptions::one_shot(), &mut sink)
            .expect("in-memory streaming cannot fail");
        assert_eq!(report.emitted, pairs, "seed {seed:#x}: emitted count");
        assert_eq!(
            report.exact_dropped + report.conflicts_resolved,
            report.rounds[0].dedup_dropped,
            "seed {seed:#x}: the index dropped exactly the round's repeats"
        );
        let json = corpus_to_json(&sink.into_corpus()).expect("export");
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (len, digest),
            "streamed corpus for seed {seed:#x} drifted from its golden pin"
        );
    }
}

/// Thread invariance for the streaming JSONL path: a multi-round run
/// writes the identical byte stream (same running digest) at 1 and 8
/// worker threads, and that stream is pinned by length, FNV-1a digest
/// and pair count. Like `GOLDEN`, re-pin only for a stated reason: the
/// JSONL encoder and the dedup keys are meant to keep these bytes.
#[test]
fn streaming_jsonl_digest_is_thread_invariant() {
    use dbpal::core::{JsonlSink, StreamOptions};
    let digest_at = |threads: usize| {
        let config = GenerationConfig {
            seed: 0x00DE_7EC7,
            threads,
            ..GenerationConfig::small()
        };
        let opts = StreamOptions {
            max_rounds: 2,
            ..StreamOptions::corpus(0)
        };
        let mut sink = JsonlSink::new(Vec::new());
        TrainingPipeline::new(config)
            .stream(&[&schema(), &geo_schema()], &opts, &mut sink)
            .expect("in-memory streaming cannot fail");
        assert_eq!(
            (sink.bytes(), sink.digest(), sink.pairs()),
            (2_808_024, 0x5613_5a0c_f8b7_7da1, 8_946),
            "{threads}-thread JSONL stream drifted from its pin"
        );
        sink.digest()
    };
    let one = digest_at(1);
    assert_eq!(one, digest_at(8), "8 threads diverged from 1 thread");
}

/// Regression test for per-schema seed derivation. The seed for schema
/// `i` used to be `base + i`, so base seed `s` at schema index 1
/// collided with base seed `s + 1` at schema index 0 — two nominally
/// different runs shared a corpus. Schema seeds now come from
/// `stream_seed(base, i)`, which keeps adjacent (seed, index) pairs
/// distinct.
#[test]
fn adjacent_seed_schema_index_pairs_differ() {
    let s1 = schema();
    let s2 = geo_schema();
    let base = 0x00DE_7EC7u64;

    let multi = TrainingPipeline::new(GenerationConfig {
        seed: base,
        ..GenerationConfig::small()
    })
    .generate_multi(&[&s1, &s2]);
    let geo_portion: Vec<String> = multi
        .pairs()
        .iter()
        .filter(|p| p.sql_text().contains("cities"))
        .map(|p| p.nl.clone())
        .collect();
    assert!(!geo_portion.is_empty());

    let solo = TrainingPipeline::new(GenerationConfig {
        seed: base + 1,
        ..GenerationConfig::small()
    })
    .generate_multi(&[&s2]);
    let solo_portion: Vec<String> = solo.pairs().iter().map(|p| p.nl.clone()).collect();

    assert_ne!(
        geo_portion,
        solo_portion,
        "seed {base} at schema index 1 must not reuse seed {} at index 0",
        base + 1
    );
}
