//! Analyzer-throughput microbenchmarks: how fast the static semantic
//! analyzer gates a generated corpus, single-threaded vs parallel
//! (`dbpal_util::bench` harness).
//!
//! Run with `cargo bench` for full measurement, or `cargo bench --
//! --quick` for the quick profile. Set `DBPAL_BENCH_JSON=<path>` for a
//! machine-readable report.

use dbpal_analyze::{Analyzer, AnalyzerPolicy};
use dbpal_core::{analyze_pairs, GenerationConfig, TrainingPipeline};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::bench::{black_box, Config, Harness};

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
    let mut h = Harness::with_config("analyze", Config::from_args());
    let schema = bench_schema();

    // Generate the corpus once with the gate off so the benchmark
    // measures the analyzer alone, not generation.
    let config = GenerationConfig {
        analyzer_policy: AnalyzerPolicy::Off,
        ..GenerationConfig::default()
    };
    let corpus = TrainingPipeline::new(config).generate(&schema);
    let pairs = corpus.pairs().to_vec();
    let n = pairs.len();

    // Single-query analysis cost, amortised over the whole corpus.
    let analyzer = Analyzer::new(&schema);
    h.bench("analyze/single_thread_direct", || {
        let mut findings = 0usize;
        for p in &pairs {
            findings += analyzer.analyze(&p.sql).len();
        }
        black_box(findings)
    });

    // The pipeline stage itself (chunked fan-out + report merge), at one
    // worker vs all available parallelism. Reports must be identical;
    // only wall-clock may differ.
    h.bench_with_setup(
        "analyze/pairs_threads1",
        || pairs.clone(),
        |batch| black_box(analyze_pairs(&schema, batch, 1, AnalyzerPolicy::Reject).1),
    );
    let auto = dbpal_util::auto_threads();
    h.bench_with_setup(
        "analyze/pairs_threads_auto",
        || pairs.clone(),
        |batch| black_box(analyze_pairs(&schema, batch, auto, AnalyzerPolicy::Reject).1),
    );

    let (_, report) = analyze_pairs(&schema, pairs.clone(), auto, AnalyzerPolicy::Reject);
    println!(
        "analyzed {n} pairs ({} flagged, {} rejected) at {auto} threads",
        report.flagged, report.rejected
    );
    // Throughput summary: corpus size over the median per-pass time.
    for m in h.results() {
        if m.name.starts_with("analyze/pairs_threads") {
            let secs = m.median.as_secs_f64();
            if secs > 0.0 {
                println!("{}: {:.0} pairs/sec", m.name, n as f64 / secs);
            }
        }
    }

    h.finish();
}
