//! CI gate: a seeded, fixed-budget fuzz run over the three differential
//! oracles (roundtrip, canonicalizer soundness, analyzer coherence).
//!
//! The run executes twice — once on 1 worker thread and once on 8 — and
//! the two reports must serialize to identical bytes: per-iteration
//! `Rng::for_stream` seeding makes findings thread-count invariant, and
//! this gate keeps that property honest. Any finding, or any byte
//! divergence between the two reports, is a red build.
//!
//! Budget and seed come from `DBPAL_FUZZ_ITERS` / `DBPAL_FUZZ_SEED`
//! (decimal; defaults: 200 iterations, seed `0xDBA1`). A value that does
//! not parse exits 2 before any fuzzing. Throughput is reported through
//! the shared bench harness.

use dbpal_bench::Gate;
use dbpal_fuzz::{run_fuzz, FuzzConfig, FuzzReport};
use dbpal_util::bench::{Config, Harness};

const DEFAULT_SEED: u64 = 0xDBA1;
const DEFAULT_ITERS: usize = 200;

fn main() {
    let mut gate = Gate::from_args("fuzz_smoke");
    let seed = gate.env("DBPAL_FUZZ_SEED", DEFAULT_SEED);
    let iters = gate.env("DBPAL_FUZZ_ITERS", DEFAULT_ITERS);
    println!(
        "[fuzz_smoke] seed {seed:#x}, {iters} iterations, oracles: roundtrip + canonical + analyzer"
    );

    let mut harness = Harness::with_config("fuzz_smoke", Config::quick());
    let mut reports: Vec<FuzzReport> = Vec::new();
    for threads in [1usize, 8] {
        let cfg = FuzzConfig::new(seed, iters, threads);
        harness.bench(&format!("fuzz_{iters}_iters_{threads}_threads"), || {
            reports.push(run_fuzz(&cfg));
        });
    }

    // One timed sample per thread count; the median of a single sample
    // is the whole-run duration, which gives iterations/sec directly.
    for m in harness.results() {
        let secs = m.median.as_secs_f64();
        let rate = if secs > 0.0 {
            iters as f64 / secs
        } else {
            f64::INFINITY
        };
        println!("[fuzz_smoke] {}: {rate:.0} iterations/sec", m.name);
    }
    harness.finish();

    for f in reports.iter().flat_map(|r| &r.findings) {
        eprintln!(
            "[fuzz_smoke] FINDING iter {} [{}]\n  sql: {}\n  minimized: {}\n  {}\n  corpus case:\n{}",
            f.iteration,
            f.oracle,
            f.sql,
            f.minimized,
            f.detail,
            f.case.to_json()
        );
    }
    let (one, eight) = (&reports[0], &reports[1]);
    gate.check(
        "clean",
        one.findings.is_empty() && eight.findings.is_empty(),
        format!(
            "{} + {} findings over {iters} iterations at 1 and 8 threads",
            one.findings.len(),
            eight.findings.len()
        ),
    );
    let (json_one, json_eight) = (one.to_json(), eight.to_json());
    gate.check(
        "determinism",
        json_one == json_eight,
        if json_one == json_eight {
            "reports byte-identical at 1 and 8 threads".to_string()
        } else {
            format!("-- 1 thread --\n{json_one}\n-- 8 threads --\n{json_eight}")
        },
    );
    gate.finish();
}
