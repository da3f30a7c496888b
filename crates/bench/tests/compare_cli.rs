//! End-to-end tests for `bench_json_lint --compare`: drive the real
//! binary against synthetic `BENCH_*.json` fixtures and assert on exit
//! status plus diagnostic text. The pure band/parity logic is unit
//! tested in `dbpal_bench::compare`; these tests pin the CLI contract
//! that `verify.sh` depends on (argument parsing, pair chunking, env
//! overrides, exit codes).

mod common;

use std::fmt::Write as _;
use std::process::{Command, Output};

use common::{stderr_of, Fixtures};

/// Serialize a minimal bench report the schema lint would also accept.
fn report(group: &str, rows: &[(&str, u64)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"group\": \"{group}\", \"benchmarks\": [");
    for (i, (name, median)) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{name}\", \"median_ns\": {median}, \"min_ns\": {median}, \
             \"max_ns\": {median}, \"iters_per_sample\": 1, \"samples\": 5}}"
        );
    }
    out.push_str("]}");
    out
}

fn run_compare(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_json_lint"));
    cmd.arg("--compare").args(args);
    // The surrounding environment must not leak band overrides in.
    cmd.env_remove("DBPAL_BENCH_TOLERANCE")
        .env_remove("DBPAL_BENCH_PARITY");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().unwrap()
}

// The "runtime" group carries no parity pair, isolating band behavior.

#[test]
fn within_band_pair_passes() {
    let fx = Fixtures::new("within_band");
    let base = fx.write(
        "BENCH_runtime.json",
        &report("runtime", &[("a", 1000), ("b", 400)]),
    );
    let fresh = fx.write("fresh.json", &report("runtime", &[("a", 2500), ("b", 150)]));
    let out = run_compare(&[&base, &fresh], &[]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 medians within x3"), "stdout: {stdout}");
}

#[test]
fn out_of_band_median_fails() {
    let fx = Fixtures::new("out_of_band");
    let base = fx.write("BENCH_runtime.json", &report("runtime", &[("a", 1000)]));
    let fresh = fx.write("fresh.json", &report("runtime", &[("a", 3001)]));
    let out = run_compare(&[&base, &fresh], &[]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.contains("`a`") && err.contains("3.00x"),
        "stderr: {err}"
    );

    // Widening the band via the env knob turns the same pair green.
    let out = run_compare(&[&base, &fresh], &[("DBPAL_BENCH_TOLERANCE", "4")]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
}

#[test]
fn missing_baseline_benchmark_fails() {
    let fx = Fixtures::new("missing_bench");
    let base = fx.write(
        "BENCH_runtime.json",
        &report("runtime", &[("kept", 100), ("renamed", 100)]),
    );
    let fresh = fx.write("fresh.json", &report("runtime", &[("kept", 100)]));
    let out = run_compare(&[&base, &fresh], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("`renamed`: present in baseline, missing from fresh run"),
        "stderr: {}",
        stderr_of(&out)
    );
}

#[test]
fn parity_inversion_fails() {
    let fx = Fixtures::new("parity");
    let rows: &[(&str, u64)] = &[
        ("pipeline/generate_threads1", 1_000_000),
        ("pipeline/generate_threads4", 1_200_000),
    ];
    let base = fx.write("BENCH_pipeline.json", &report("pipeline", rows));
    let fresh = fx.write("fresh.json", &report("pipeline", rows));
    let out = run_compare(&[&base, &fresh], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("generate_threads4"),
        "stderr: {}",
        stderr_of(&out)
    );

    // The parity knob is independent of the tolerance band.
    let out = run_compare(&[&base, &fresh], &[("DBPAL_BENCH_PARITY", "1.25")]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
}

#[test]
fn second_pair_failure_still_fails_the_run() {
    let fx = Fixtures::new("pairs");
    let good = fx.write("BENCH_good.json", &report("runtime", &[("a", 100)]));
    let bad_base = fx.write("BENCH_bad.json", &report("runtime", &[("a", 100)]));
    let bad_fresh = fx.write("bad_fresh.json", &report("runtime", &[("a", 90_000)]));
    let out = run_compare(&[&good, &good, &bad_base, &bad_fresh], &[]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("OK"),
        "first pair should still report OK: {stdout}"
    );
}

#[test]
fn odd_argument_count_is_usage_error() {
    let fx = Fixtures::new("odd_args");
    let only = fx.write("BENCH_runtime.json", &report("runtime", &[("a", 100)]));
    let out = run_compare(&[&only], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("usage"),
        "stderr: {}",
        stderr_of(&out)
    );
}

#[test]
fn bad_band_env_is_config_error() {
    let fx = Fixtures::new("bad_env");
    let base = fx.write("BENCH_runtime.json", &report("runtime", &[("a", 100)]));
    let out = run_compare(&[&base, &base], &[("DBPAL_BENCH_TOLERANCE", "0.5")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("DBPAL_BENCH_TOLERANCE"),
        "stderr: {}",
        stderr_of(&out)
    );
}
