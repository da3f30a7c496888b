//! Seeded fuzz smoke over the three differential oracles (roundtrip,
//! canonicalizer soundness, analyzer coherence): a fixed budget of
//! iterations must come back clean at 1 and 8 worker threads, and the
//! report must be byte-identical at both. Longer runs go through the
//! ignored `explore` test (see its docs).

use dbpal_fuzz::{run_fuzz, run_iteration, FuzzConfig};

const SEED: u64 = 0xDBA1;
const ITERS: usize = 200;

#[test]
fn seeded_smoke_finds_nothing() {
    for threads in [1, 8] {
        let report = run_fuzz(&FuzzConfig::new(SEED, ITERS, threads));
        let details: Vec<String> = report
            .findings
            .iter()
            .map(|f| {
                format!(
                    "iter {} [{}]\n  sql: {}\n  minimized: {}\n  {}\n  corpus case:\n{}",
                    f.iteration,
                    f.oracle,
                    f.sql,
                    f.minimized,
                    f.detail,
                    f.case.to_json()
                )
            })
            .collect();
        assert!(
            report.findings.is_empty(),
            "fuzz smoke found violations at {threads} threads:\n{}",
            details.join("\n")
        );
    }
}

#[test]
fn report_is_thread_count_invariant() {
    let one = run_fuzz(&FuzzConfig::new(SEED, ITERS, 1));
    let eight = run_fuzz(&FuzzConfig::new(SEED, ITERS, 8));
    assert_eq!(one.to_json(), eight.to_json());
}

#[test]
fn report_records_into_shared_registry() {
    use dbpal_util::MetricsRegistry;
    let report = run_fuzz(&FuzzConfig::new(SEED, 16, 2));
    let reg = MetricsRegistry::new();
    report.record_metrics(&reg);
    assert_eq!(reg.counter("fuzz.iterations").get(), 16);
    assert_eq!(
        reg.counter("fuzz.findings").get(),
        report.findings.len() as u64
    );
    // The registry export is deterministic: recording the same report
    // into a fresh registry serializes identically.
    let reg2 = MetricsRegistry::new();
    report.record_metrics(&reg2);
    assert_eq!(
        reg.to_json_deterministic().pretty(),
        reg2.to_json_deterministic().pretty()
    );
}

#[test]
fn iterations_are_seed_reproducible() {
    for i in [0u64, 7, 33] {
        let a = run_iteration(SEED, i);
        let b = run_iteration(SEED, i);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.case.to_json(), y.case.to_json());
        }
    }
}
