//! Closed-loop load generator for `dbpal-server`: the full profile of
//! the harness in [`dbpal_bench::loadgen`], printed as a table and
//! merged into `BENCH_serve.json`.
//!
//! ```text
//! load_gen [--quick] [--addr HOST:PORT] [--no-merge]
//! ```
//!
//! With no `--addr`, an in-process hospital-fixture server is started
//! and drained around the run. The merge target is `$DBPAL_BENCH_JSON`,
//! then `BENCH_serve.json`.

use std::net::SocketAddr;

use dbpal_bench::loadgen::{run_against_fixture, run_load, LoadConfig, LoadReport};
use dbpal_bench::{render_table, Gate};

fn usage() -> ! {
    eprintln!("usage: load_gen [--quick] [--addr HOST:PORT] [--no-merge]");
    std::process::exit(2);
}

fn report_table(r: &LoadReport) -> String {
    let header = vec!["metric".to_string(), "value".to_string()];
    let ms = |ns: u64| format!("{:.3} ms", ns as f64 / 1e6);
    let rows = vec![
        vec!["clients".into(), r.clients.to_string()],
        vec!["batch".into(), r.batch.to_string()],
        vec!["warmup requests".into(), r.warmup_requests.to_string()],
        vec!["measured requests".into(), r.measured_requests.to_string()],
        vec!["measured questions".into(), r.queries.to_string()],
        vec!["QPS".into(), format!("{:.0}", r.qps)],
        vec!["p50 latency".into(), ms(r.p50_ns)],
        vec!["p95 latency".into(), ms(r.p95_ns)],
        vec!["p99 latency".into(), ms(r.p99_ns)],
        vec!["protocol errors".into(), r.protocol_errors.to_string()],
        vec!["answer mismatches".into(), r.answer_mismatches.to_string()],
        vec!["sheds".into(), r.sheds.to_string()],
        vec!["digest".into(), r.digest.clone()],
    ];
    render_table(&header, &rows)
}

fn main() {
    let mut gate = Gate::new("load_gen");
    let mut quick = false;
    let mut addr: Option<SocketAddr> = None;
    let mut merge = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--addr" => {
                let v = args.next().unwrap_or_else(|| usage());
                addr = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("[load_gen] bad --addr {v:?}: {e}");
                    std::process::exit(2);
                }));
            }
            "--no-merge" => merge = false,
            _ => usage(),
        }
    }
    let cfg = if quick {
        LoadConfig::quick()
    } else {
        LoadConfig::full()
    };

    let report = match addr {
        Some(addr) => {
            println!("[load_gen] targeting external server at {addr}");
            run_load(addr, &cfg)
        }
        None => run_against_fixture(&cfg)
            .unwrap_or_else(|e| gate.abort(format!("could not start fixture server: {e}"))),
    };
    print!("{}", report_table(&report));

    if merge {
        gate.publish("serve", "load", report.to_json());
    }
    gate.check(
        "answers",
        report.protocol_errors + report.answer_mismatches == 0,
        format!(
            "{} protocol errors, {} answer mismatches",
            report.protocol_errors, report.answer_mismatches
        ),
    );
    gate.finish();
}
