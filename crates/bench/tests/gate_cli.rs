//! Real-binary tests for the command-line contract of the gate harness
//! (`dbpal_bench::Gate`): a gate takes `--quick` and nothing else, and a
//! malformed env knob exits 2 before any work instead of falling back to
//! its default.

use std::process::Command;

#[test]
fn unknown_argument_is_a_usage_error() {
    for bin in [
        env!("CARGO_BIN_EXE_lint_gate"),
        env!("CARGO_BIN_EXE_fuzz_smoke"),
        env!("CARGO_BIN_EXE_load_gate"),
        env!("CARGO_BIN_EXE_corpus_gate"),
    ] {
        let out = Command::new(bin).arg("--json").output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: stderr: {err}");
        assert!(
            err.contains("unknown argument `--json`") && err.contains("[--quick]"),
            "{bin}: stderr: {err}"
        );
    }
}

#[test]
fn malformed_fuzz_budget_exits_before_fuzzing() {
    let out = Command::new(env!("CARGO_BIN_EXE_fuzz_smoke"))
        .env("DBPAL_FUZZ_ITERS", "20k")
        .env_remove("DBPAL_FUZZ_SEED")
        .output()
        .unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("DBPAL_FUZZ_ITERS=`20k`"),
        "stderr: {stderr}"
    );
    assert!(stdout.is_empty(), "fuzzing started: {stdout}");
}
