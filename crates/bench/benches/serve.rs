//! Microbenchmarks for the serving layer: warm-cache answers, cold
//! batches, worker-count scaling, and the served Seq2Seq model's
//! translations (`dbpal_util::bench` harness).
//!
//! Run with `cargo bench` for full measurement, or `cargo bench --
//! --quick` for the quick profile. `DBPAL_BENCH_JSON=<path>` writes the
//! machine-readable `BENCH_serve.json` that records the serving-perf
//! trajectory (schema in DESIGN.md).

use std::fmt::Write as _;

use dbpal_benchsuite::PatientsBenchmark;
use dbpal_core::{GenerationConfig, TrainOptions, TrainingPipeline, TranslationModel};
use dbpal_model::Seq2SeqModel;
use dbpal_nlp::Lemmatizer;
use dbpal_runtime::Nlidb;
use dbpal_serve::testing::{hospital_db, hospital_script, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig};
use dbpal_util::bench::{black_box, BenchOpts, Config, Harness};
use dbpal_util::{Fnv1a, Rng, SliceRandom};

fn service(workers: usize) -> QueryService<ScriptedModel> {
    QueryService::new(
        Nlidb::new(hospital_db(), hospital_script()),
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
}

fn mixed_batch(len: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(0xBE7C);
    (0..len)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => {
                let age = *[80i64, 35, 64, 20, 47].choose(&mut rng).unwrap();
                format!("Show me the name of all patients with age {age}")
            }
            1 => {
                let d = *["influenza", "asthma", "malaria"].choose(&mut rng).unwrap();
                format!("How many patients have {d}?")
            }
            _ => "show the names of all patients".to_string(),
        })
        .collect()
}

/// The Seq2Seq model `dbpal-server` deploys on the Patients database in
/// the repository benchmark: `GenerationConfig::small()` bootstrap
/// data, one epoch over at most 3000 pairs.
fn paraphrase_model(bench: &PatientsBenchmark) -> Seq2SeqModel {
    let corpus = TrainingPipeline::new(GenerationConfig::small()).generate(bench.schema());
    let mut model = Seq2SeqModel::with_defaults();
    model.train(
        &corpus,
        &TrainOptions {
            epochs: 1,
            max_pairs: Some(3000),
            ..TrainOptions::default()
        },
    );
    model
}

/// FNV-1a over each translation's SQL text, one line each (`-` for no
/// translation).
fn translations_digest(model: &Seq2SeqModel, questions: &[Vec<String>]) -> u64 {
    let mut h = Fnv1a::new();
    for lemmas in questions {
        let _ = match model.translate(lemmas) {
            Some(q) => writeln!(h, "{q}"),
            None => writeln!(h, "-"),
        };
    }
    h.finish()
}

fn main() {
    let mut h = Harness::with_config("serve", Config::from_args());

    // Steady state: the translation is cached; the answer path is
    // anonymize + lemmatize + postprocess + execute.
    // Sub-millisecond routine: floor the iteration count so the
    // quick-mode baseline records a real median, not one timer tick.
    let warm = service(1);
    warm.answer("How many patients have influenza?").unwrap();
    h.bench_opts(
        "serve/answer_warm_cache",
        BenchOpts { min_iters: 64 },
        || black_box(warm.answer("How many patients have asthma?").unwrap()),
    );

    // Cold start: a fresh service pays translation for each unique key.
    let batch = mixed_batch(16);
    h.bench_with_setup(
        "serve/batch16_cold",
        || service(1),
        |svc| black_box(svc.submit_batch(&batch).len()),
    );

    // Worker scaling on one warm service: identical counters by
    // construction, wall-clock only. Single-CPU containers will show no
    // speedup; the pair still pins the overhead of the fan-out.
    // The `--compare` parity gate judges this pair's medians, so even
    // quick runs iterate enough that one scheduler hiccup does not read
    // as a fan-out regression.
    let scaling = BenchOpts { min_iters: 16 };
    let big = mixed_batch(64);
    for workers in [1usize, 4] {
        let svc = service(workers);
        svc.submit_batch(&big); // warm the cache
        h.bench_opts(
            &format!("serve/batch64_warm_workers{workers}"),
            scaling,
            || black_box(svc.submit_batch(&big).len()),
        );
    }

    // One translation pass of the served model over the 399 lemmatized
    // ParaphraseBench questions. The training losses and the
    // translations are pinned first, so a faster row is never a model
    // that computes different floats.
    let bench = PatientsBenchmark::new();
    let model = paraphrase_model(&bench);
    let loss_bits: Vec<u32> = model.epoch_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(loss_bits, [0x3f05d8c5], "epoch losses moved");
    let lemmatizer = Lemmatizer::new();
    let questions: Vec<Vec<String>> = bench
        .queries()
        .iter()
        .map(|q| lemmatizer.lemmatize_sentence(&q.nl))
        .collect();
    let digest = translations_digest(&model, &questions);
    assert_eq!(
        digest, 0x4228_5617_2bc9_ff9f,
        "translations moved: {digest:#018x}"
    );
    h.bench("model/seq2seq_paraphrase", || {
        black_box(
            questions
                .iter()
                .filter(|lemmas| model.translate(lemmas).is_some())
                .count(),
        )
    });

    h.finish();
}
