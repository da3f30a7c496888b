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
//!    200 questions/second against a live socket.
//!
//! `--quick` selects the reduced CI profile. The second run's report is
//! merged into `BENCH_serve.json` (or `$DBPAL_BENCH_JSON`), where
//! `bench_json_lint` then validates the `load` schema.

use dbpal_bench::loadgen::{run_against_fixture, LoadConfig};
use dbpal_bench::Gate;

/// Set far below the measured rate (~25k QPS on a 2-vCPU container), so
/// only a collapse fails CI.
const QPS_FLOOR: f64 = 200.0;

fn main() {
    let mut gate = Gate::from_args("load_gate");
    let cfg = if gate.quick() {
        LoadConfig::quick()
    } else {
        LoadConfig::full()
    };
    println!(
        "[load_gate] profile: {} clients x {} measured requests x batch {} (seed {:#x})",
        cfg.clients, cfg.measured_per_client, cfg.batch, cfg.seed
    );

    let run = || {
        run_against_fixture(&cfg)
            .unwrap_or_else(|e| gate.abort(format!("could not start fixture server: {e}")))
    };
    let (first, second) = (run(), run());

    for (label, r) in [("run1", &first), ("run2", &second)] {
        gate.check(
            "protocol_errors",
            r.protocol_errors == 0,
            format!("{label}: {}", r.protocol_errors),
        );
        gate.check(
            "answer_mismatches",
            r.answer_mismatches == 0,
            format!("{label}: {}", r.answer_mismatches),
        );
        gate.check("sheds", r.sheds == 0, format!("{label}: {}", r.sheds));
    }

    let (p1, p2) = (
        first.deterministic_payload(),
        second.deterministic_payload(),
    );
    gate.check(
        "determinism",
        p1 == p2,
        if p1 == p2 {
            format!("payload byte-identical across runs: {p1}")
        } else {
            format!("run1 {p1} != run2 {p2}")
        },
    );

    let best_qps = first.qps.max(second.qps);
    gate.check(
        "qps_floor",
        best_qps >= QPS_FLOOR,
        format!(
            "best of two runs {best_qps:.0} qps (floor {QPS_FLOOR:.0}; p50 {:.3} ms, p99 {:.3} ms)",
            second.p50_ns as f64 / 1e6,
            second.p99_ns as f64 / 1e6
        ),
    );

    gate.publish("serve", "load", second.to_json());
    gate.finish();
}
