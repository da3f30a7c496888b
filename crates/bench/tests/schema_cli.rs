//! End-to-end tests for `bench_json_lint`'s schema mode: drive the real
//! binary over one valid report per group, then over table-driven
//! fixtures that each break exactly one rule, and assert on the exit
//! status plus the diagnostic text `verify.sh` prints.

mod common;

use std::process::{Command, Output};

use common::{stderr_of, Fixtures};

const BENCHMARKS: &str = r#"[{"name": "x/y", "median_ns": 10, "min_ns": 9, "max_ns": 12, "mad_ns": 1, "iters_per_sample": 1, "samples": 5}]"#;

const LOAD: &str = r#"{"clients": 4, "batch": 4, "warmup_requests": 32, "measured_requests": 160, "queries": 640, "qps": 1234.5, "p50_ns": 10, "p95_ns": 20, "p99_ns": 30, "protocol_errors": 0, "answer_mismatches": 0, "sheds": 0, "digest": "5e0f359903713de6"}"#;

const CORPUS: &str = r#"{"pairs": 100, "target_pairs": 90, "rounds": 2, "schemas": 3, "threads": 1, "pairs_per_sec": 5000.5, "bytes": 4096, "dedup_rate": 0.25, "exact_dropped": 20, "conflicts_resolved": 5, "analyzer_rejected": 0, "estimated_peak_bytes": 8192, "digest": "0x00000000000000ab", "peak_resident_bytes": 16384}"#;

/// A report for `group`, carrying `member` as `(key, body)` when given.
fn report(group: &str, member: Option<(&str, &str)>) -> String {
    let extra = member.map_or(String::new(), |(key, body)| format!(", \"{key}\": {body}"));
    format!("{{\"group\": \"{group}\", \"benchmarks\": {BENCHMARKS}{extra}}}")
}

/// One valid report per group with a required member, plus one without.
fn valid_reports() -> Vec<(&'static str, String)> {
    vec![
        ("pipeline", report("pipeline", None)),
        ("serve", report("serve", Some(("load", LOAD)))),
        ("corpus", report("corpus", Some(("corpus", CORPUS)))),
    ]
}

fn lint(paths: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_json_lint"))
        .args(paths)
        .output()
        .unwrap()
}

#[test]
fn valid_report_for_each_group_passes() {
    let fx = Fixtures::new("schema_valid");
    let paths: Vec<String> = valid_reports()
        .iter()
        .map(|(group, text)| fx.write(&format!("BENCH_{group}.json"), text))
        .collect();
    let out = lint(&paths);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (group, _) in valid_reports() {
        assert!(
            stdout.contains(&format!("group `{group}`, 1 benchmarks")),
            "stdout: {stdout}"
        );
    }
}

#[test]
fn each_broken_rule_fails_with_its_diagnostic() {
    // (case, report text, expected stderr): each breaks one rule of a
    // valid report.
    let serve = report("serve", Some(("load", LOAD)));
    let corpus = report("corpus", Some(("corpus", CORPUS)));
    let edit = |text: &str, from: &str, to: &str| {
        assert!(text.contains(from), "fixture edit `{from}` matches nothing");
        text.replacen(from, to, 1)
    };
    let cases: Vec<(&str, String, &str)> = vec![
        (
            "serve_without_load",
            report("serve", None),
            "group `serve` requires a `load` member (run load_gate)",
        ),
        (
            "corpus_without_corpus",
            report("corpus", None),
            "group `corpus` requires a `corpus` member (run corpus_gate)",
        ),
        (
            "negative_benchmark_median",
            edit(&serve, "\"median_ns\": 10", "\"median_ns\": -10"),
            "benchmarks[0]: negative `median_ns`",
        ),
        (
            "mad_wider_than_spread",
            edit(&serve, "\"mad_ns\": 1", "\"mad_ns\": 4"),
            "benchmarks[0]: mad_ns 4 outside [0, max_ns - min_ns = 3]",
        ),
        (
            "too_few_samples",
            edit(&serve, "\"samples\": 5", "\"samples\": 4"),
            "benchmarks[0]: 4 samples, fewer than 5",
        ),
        (
            "negative_load_count",
            edit(&serve, "\"sheds\": 0", "\"sheds\": -1"),
            "load: negative `sheds`",
        ),
        (
            "missing_load_count",
            edit(&serve, "\"queries\": 640, ", ""),
            "load: missing number `queries`",
        ),
        (
            "empty_load_digest",
            edit(&serve, "\"5e0f359903713de6\"", "\"\""),
            "load: empty `digest`",
        ),
        (
            "empty_corpus_digest",
            edit(&corpus, "\"0x00000000000000ab\"", "\"\""),
            "corpus: empty `digest`",
        ),
        (
            "analyzer_rejects",
            edit(
                &corpus,
                "\"analyzer_rejected\": 0",
                "\"analyzer_rejected\": 2",
            ),
            "corpus_gate should have failed",
        ),
        (
            "dedup_rate_above_one",
            edit(&corpus, "\"dedup_rate\": 0.25", "\"dedup_rate\": 1.5"),
            "corpus: dedup_rate 1.5 outside [0, 1]",
        ),
        (
            "does_not_parse",
            edit(&serve, "\"group\": \"serve\",", "\"group\": \"serve\""),
            "does not parse",
        ),
    ];
    let fx = Fixtures::new("schema_broken");
    for (case, text, expect) in cases {
        let path = fx.write(&format!("{case}.json"), &text);
        let out = lint(std::slice::from_ref(&path));
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{case}: stderr: {err}");
        assert!(
            err.contains(&format!("FAIL {path}")) && err.contains(expect),
            "{case}: want `{expect}`, stderr: {err}"
        );
    }
}
