//! Microbenchmarks for the serving layer: warm-cache answers, cold
//! batches, and worker-count scaling (`dbpal_util::bench` harness).
//!
//! Run with `cargo bench`; under `cargo test` each benchmark executes a
//! single smoke iteration. `DBPAL_BENCH_JSON=<path>` writes the
//! machine-readable `BENCH_serve.json` that records the serving-perf
//! trajectory (schema in DESIGN.md).

use dbpal_runtime::Nlidb;
use dbpal_serve::testing::{hospital_db, hospital_script, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig};
use dbpal_util::bench::{black_box, BenchOpts, Config, Harness};
use dbpal_util::{Rng, SliceRandom};

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
        BenchOpts {
            min_iters: 64,
            ..BenchOpts::default()
        },
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
    // quick runs iterate and sample enough that one scheduler hiccup
    // does not read as a fan-out regression.
    let scaling = BenchOpts {
        min_iters: 16,
        min_samples: 3,
    };
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

    h.finish();
}
