//! Microbenchmarks for the serving layer: warm-cache answers, cold and
//! warm batches, and the served Seq2Seq model's translations and
//! training (`dbpal_util::bench` harness).
//!
//! Run with `cargo bench` for full measurement, or `cargo bench --
//! --quick` for the quick profile. `DBPAL_BENCH_JSON=<path>` writes the
//! machine-readable `BENCH_serve.json` that records the serving-perf
//! trajectory (schema in DESIGN.md).

use std::fmt::Write as _;

use dbpal_benchsuite::PatientsBenchmark;
use dbpal_core::{
    GenerationConfig, TrainOptions, TrainingCorpus, TrainingPipeline, TranslationModel,
};
use dbpal_model::Seq2SeqModel;
use dbpal_nlp::Lemmatizer;
use dbpal_runtime::Nlidb;
use dbpal_serve::testing::{hospital_db, hospital_script, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig};
use dbpal_util::bench::{black_box, BenchOpts, Config, Harness};
use dbpal_util::{Fnv1a, Rng, SliceRandom};

fn service() -> QueryService<ScriptedModel> {
    QueryService::new(
        Nlidb::new(hospital_db(), hospital_script()),
        ServeConfig::default(),
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

/// A default Seq2Seq model trained for one epoch over at most
/// `max_pairs` pairs of `corpus`. On the Patients
/// `GenerationConfig::small()` corpus with 3000 pairs, this is the model
/// `dbpal-server` deploys in the repository benchmark.
fn trained_model(corpus: &TrainingCorpus, max_pairs: usize) -> Seq2SeqModel {
    let mut model = Seq2SeqModel::with_defaults();
    model.train(
        corpus,
        &TrainOptions {
            epochs: 1,
            max_pairs: Some(max_pairs),
            ..TrainOptions::default()
        },
    );
    model
}

fn loss_bits(model: &Seq2SeqModel) -> Vec<u32> {
    model.epoch_losses.iter().map(|l| l.to_bits()).collect()
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
    let warm = service();
    warm.answer("How many patients have influenza?").unwrap();
    h.bench_opts(
        "serve/answer_warm_cache",
        BenchOpts { min_iters: 64 },
        || black_box(warm.answer("How many patients have asthma?").unwrap()),
    );

    // Cold start: a fresh service pays translation for each unique key.
    let batch = mixed_batch(16);
    h.bench_with_setup("serve/batch16_cold", service, |svc| {
        black_box(svc.submit_batch(&batch).len())
    });

    // A full-depth request on a warm service: every question hits, so
    // the row times the per-question path of one request served on its
    // caller's thread. Quick runs iterate enough that one scheduler
    // hiccup does not set the median.
    let big = mixed_batch(64);
    let svc = service();
    svc.submit_batch(&big); // warm the cache
    h.bench_opts("serve/batch64_warm", BenchOpts { min_iters: 16 }, || {
        black_box(svc.submit_batch(&big).len())
    });

    // One translation pass of the served model over the 399 lemmatized
    // ParaphraseBench questions. The training losses and the
    // translations are pinned first, so a faster row is never a model
    // that computes different floats.
    let bench = PatientsBenchmark::new();
    let corpus = TrainingPipeline::new(GenerationConfig::small()).generate(bench.schema());
    let model = trained_model(&corpus, 3000);
    assert_eq!(loss_bits(&model), [0x3f05d8c5], "epoch losses moved");
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

    // One training run, the set-up cost of a deployment, over 200 pairs:
    // the first epoch of the two-epoch run pinned in dbpal-benchsuite's
    // Patients tests, so its loss is asserted first.
    assert_eq!(
        loss_bits(&trained_model(&corpus, 200)),
        [0x4010_8ccb],
        "epoch losses moved"
    );
    h.bench("model/seq2seq_train", || {
        black_box(trained_model(&corpus, 200).epoch_losses.len())
    });

    h.finish();
}
