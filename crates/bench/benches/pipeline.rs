//! Microbenchmarks for the training pipeline: generation, augmentation,
//! and lemmatization throughput (`dbpal_util::bench` harness).
//!
//! Run with `cargo bench` for full measurement, or `cargo bench --
//! --quick` for the quick profile. Set `DBPAL_BENCH_JSON=<path>` for a
//! machine-readable report.

use dbpal_core::{catalog, Augmenter, GenerationConfig, Generator, TrainingPipeline};
use dbpal_nlp::Lemmatizer;
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
    let mut h = Harness::with_config("pipeline", Config::from_args());
    let schema = bench_schema();
    let config = GenerationConfig::small();
    let templates = catalog();

    h.bench("generator/seed_corpus", || {
        let g = Generator::new(&schema, &config);
        black_box(g.generate(&templates).len())
    });

    let seed_corpus = {
        let g = Generator::new(&schema, &config);
        g.generate(&templates)
    };
    h.bench_with_setup(
        "augmenter/full_pass",
        || seed_corpus.pairs().to_vec(),
        |pairs| {
            let corpus = dbpal_core::TrainingCorpus::from_pairs(pairs);
            let aug = Augmenter::new(&schema, &config);
            black_box(aug.augment(&corpus).len())
        },
    );

    // Sub-millisecond routine: floor the iteration count so the
    // quick-mode baseline records a real median, not one timer tick.
    let lem = Lemmatizer::new();
    let sentence = "What are the names of all patients older than 80 who stayed longest?";
    h.bench_opts("lemmatizer/sentence", BenchOpts { min_iters: 512 }, || {
        black_box(lem.lemmatize_sentence(sentence).len())
    });

    h.bench("pipeline/generate_small", || {
        let pipeline = TrainingPipeline::new(config.clone());
        black_box(pipeline.generate(&schema).len())
    });

    // Threads-scaling pair: identical full-size work at 1 vs 4 workers.
    // The corpora are byte-identical (the determinism contract); only
    // wall-clock time may differ, and on multi-core hardware the
    // 4-thread run should win.
    let full = GenerationConfig::default();
    h.bench("pipeline/generate_threads1", || {
        let cfg = GenerationConfig {
            threads: 1,
            ..full.clone()
        };
        black_box(TrainingPipeline::new(cfg).generate(&schema).len())
    });
    h.bench("pipeline/generate_threads4", || {
        let cfg = GenerationConfig {
            threads: 4,
            ..full.clone()
        };
        black_box(TrainingPipeline::new(cfg).generate(&schema).len())
    });

    // One instrumented run: surface the per-stage timing report.
    let (_, report) = TrainingPipeline::new(full).generate_with_report(&schema);
    println!("{}", report.render());

    let sql = "SELECT disease, COUNT(*) FROM patients WHERE age > @AGE \
               GROUP BY disease HAVING COUNT(*) > 2 ORDER BY COUNT(*) DESC LIMIT 5";
    h.bench_opts("sql/parse", BenchOpts { min_iters: 512 }, || {
        black_box(dbpal_sql::parse_query(sql).unwrap())
    });

    h.finish();
}
