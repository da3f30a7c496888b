//! CI gate for the network serving layer: runs the closed-loop load
//! harness twice against fresh in-process `dbpal-server` instances and
//! asserts
//!
//! 1. **correctness under load** — zero protocol errors, zero answer
//!    mismatches, zero admission-control sheds;
//! 2. **cross-run determinism** — the two runs' deterministic payloads
//!    (question count, shed/error tallies, answer digest) are
//!    byte-identical, even though connection interleaving differs;
//! 3. **a throughput floor** — the better run sustains at least
//!    `DBPAL_LOAD_QPS_FLOOR` questions/second (default 200) against a
//!    live socket.
//!
//! `--quick` selects the reduced CI profile; `DBPAL_LOAD_*` variables
//! tune it further (see `LoadConfig::from_env`). The second run's
//! report is merged into `BENCH_serve.json` (or `$DBPAL_BENCH_JSON`),
//! where `bench_json_lint` then validates the `load` schema.

use std::path::PathBuf;

use dbpal_bench::loadgen::{run_against_fixture, LoadConfig, LoadReport};

const DEFAULT_QPS_FLOOR: f64 = 200.0;

fn check(label: &str, ok: bool, detail: String, failed: &mut bool) {
    if ok {
        println!("[load_gate] PASS {label}: {detail}");
    } else {
        eprintln!("[load_gate] FAIL {label}: {detail}");
        *failed = true;
    }
}

fn run(cfg: &LoadConfig) -> LoadReport {
    run_against_fixture(cfg).unwrap_or_else(|e| {
        eprintln!("[load_gate] could not start fixture server: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let cfg = if quick {
        LoadConfig::quick()
    } else {
        LoadConfig::full()
    }
    .from_env();
    let floor = std::env::var("DBPAL_LOAD_QPS_FLOOR")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_QPS_FLOOR);
    println!(
        "[load_gate] profile: {} clients x {} measured requests x batch {} (seed {:#x})",
        cfg.clients, cfg.measured_per_client, cfg.batch, cfg.seed
    );

    let first = run(&cfg);
    let second = run(&cfg);
    let mut failed = false;

    for (label, r) in [("run1", &first), ("run2", &second)] {
        check(
            "protocol_errors",
            r.protocol_errors == 0,
            format!("{label}: {}", r.protocol_errors),
            &mut failed,
        );
        check(
            "answer_mismatches",
            r.answer_mismatches == 0,
            format!("{label}: {}", r.answer_mismatches),
            &mut failed,
        );
        check(
            "sheds",
            r.sheds == 0,
            format!("{label}: {}", r.sheds),
            &mut failed,
        );
    }

    let (p1, p2) = (
        first.deterministic_payload(),
        second.deterministic_payload(),
    );
    check(
        "determinism",
        p1 == p2,
        if p1 == p2 {
            format!("payload byte-identical across runs: {p1}")
        } else {
            format!("run1 {p1} != run2 {p2}")
        },
        &mut failed,
    );

    let best_qps = first.qps.max(second.qps);
    check(
        "qps_floor",
        best_qps >= floor,
        format!(
            "best of two runs {best_qps:.0} qps (floor {floor:.0}; p50 {:.3} ms, p99 {:.3} ms)",
            second.p50_ns as f64 / 1e6,
            second.p99_ns as f64 / 1e6
        ),
        &mut failed,
    );

    let path = PathBuf::from(
        std::env::var("DBPAL_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve.json".into()),
    );
    match dbpal_bench::merge_report_member(&path, "serve", "load", second.to_json()) {
        Ok(()) => println!("[load_gate] merged `load` section into {}", path.display()),
        Err(e) => {
            eprintln!("[load_gate] FAIL: could not write {}: {e}", path.display());
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("[load_gate] all serving load checks passed");
}
