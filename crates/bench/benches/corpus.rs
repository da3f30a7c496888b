//! Streaming-corpus benchmarks: multi-round production throughput,
//! JSONL encoding, and dedup-index admission (`dbpal_util::bench`
//! harness).
//!
//! Run with `cargo bench` for full measurement, or `cargo bench --
//! --quick` for the quick profile. Set `DBPAL_BENCH_JSON=<path>` for a
//! machine-readable report. The committed baseline lives in
//! `BENCH_corpus.json`, whose `corpus` member `corpus_gate` maintains.

use dbpal_core::{
    DedupPolicy, GenerationConfig, JsonlSink, StreamDedup, StreamOptions, TrainingPipeline,
};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::bench::{black_box, BenchOpts, Config, Harness};

fn bench_schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.synonym("people")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                .column_with("length_of_stay", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Duration)
                })
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("name", SqlType::Text)
                .column("specialty", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .unwrap()
}

fn main() {
    let mut h = Harness::with_config("corpus", Config::from_args());
    let schema = bench_schema();
    let small = GenerationConfig::small();

    // Two-round streaming pass at 1 vs 4 workers: exercises the round
    // loop, the dedup index, and a digesting JSONL sink end to end. The
    // emitted bytes are identical (the determinism contract); only
    // wall clock differs.
    let stream_opts = StreamOptions {
        max_rounds: 2,
        ..StreamOptions::corpus(0)
    };
    for threads in [1usize, 4] {
        let cfg = GenerationConfig {
            threads,
            ..small.clone()
        };
        let opts = stream_opts.clone();
        let schema_ref = &schema;
        h.bench(
            &format!("corpus/stream_2rounds_threads{threads}"),
            move || {
                let mut sink = JsonlSink::new(std::io::sink());
                let report = TrainingPipeline::new(cfg.clone())
                    .stream(&[schema_ref], &opts, &mut sink)
                    .expect("digest sink cannot fail");
                black_box((report.emitted, sink.digest()))
            },
        );
    }

    // JSONL encoding alone, over a fixed generated corpus.
    let corpus = TrainingPipeline::new(small.clone()).generate(&schema);
    h.bench_opts("corpus/jsonl_encode", BenchOpts { min_iters: 8 }, || {
        let bytes: usize = corpus
            .pairs()
            .iter()
            .map(|p| dbpal_core::pair_to_jsonl(p).len())
            .sum();
        black_box(bytes)
    });

    // Dedup admission over a pre-scored round (every pair scored
    // clean), isolating the index from generation.
    let scored: Vec<_> = corpus.pairs().iter().map(|p| (p.clone(), 0u32)).collect();
    h.bench_with_setup(
        "corpus/dedup_admit_round",
        || scored.clone(),
        |round| {
            let mut dedup = StreamDedup::new(DedupPolicy::ResolveConflicts);
            let outcome = dedup.admit_round(round);
            black_box((outcome.pairs.len(), dedup.len()))
        },
    );

    h.finish();
}
