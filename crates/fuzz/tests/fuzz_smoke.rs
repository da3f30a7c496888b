//! Seeded fuzz smoke: a fixed budget of iterations must come back clean,
//! and the report must be byte-identical regardless of worker threads.

use dbpal_fuzz::{run_fuzz, run_iteration, FuzzConfig};

const SEED: u64 = 0xDBA1;
const ITERS: usize = 64;

#[test]
fn seeded_smoke_finds_nothing() {
    let report = run_fuzz(&FuzzConfig::new(SEED, ITERS, 2));
    let details: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("iter {} [{}]: {}", f.iteration, f.oracle, f.detail))
        .collect();
    assert!(
        report.findings.is_empty(),
        "fuzz smoke found violations:\n{}",
        details.join("\n")
    );
}

#[test]
fn report_is_thread_count_invariant() {
    let one = run_fuzz(&FuzzConfig::new(SEED, ITERS, 1));
    let three = run_fuzz(&FuzzConfig::new(SEED, ITERS, 3));
    assert_eq!(one.to_json(), three.to_json());
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
