//! `dbpal-server` — the network-facing NLIDB server.
//!
//! Serves the hospital demo fixture (the paper's running Patients
//! example) over the length-delimited JSON-over-TCP protocol described
//! in DESIGN.md "Network serving". The process runs until a client
//! sends the `shutdown` op, then drains gracefully — stops accepting,
//! finishes in-flight requests — and flushes the full metrics JSON.
//!
//! ```text
//! dbpal-server [--addr HOST:PORT] [--queue-depth N] [--max-conns N]
//!              [--cache N] [--tenants SPEC] [--metrics-out PATH] [--quiet]
//! ```
//!
//! Each connection serves its requests start to finish on its own
//! thread, so `--max-conns` bounds both the requests in flight and the
//! threads serving them.
//!
//! `--tenants` selects the hosted deployments. `--tenants demo` serves
//! the three-tenant fixture registry (`alpha` hospital / `beta` clinic /
//! `gamma` library). Otherwise the value is a comma-separated list of
//! `name` or `name:quota` entries, each an independent hospital-fixture
//! tenant with an optional per-request admission quota; the first entry
//! is the default tenant for untagged requests. Without the flag the
//! server hosts the single hospital fixture, exactly as before.
//!
//! Defaults: `--addr 127.0.0.1:7432`, service defaults otherwise.
//! Request logs (structured one-line JSON, question text redacted) go
//! to stderr unless `--quiet`; the final metrics flush goes to
//! `--metrics-out` or stdout.

use std::process::exit;

use dbpal_runtime::Nlidb;
use dbpal_serve::net::{serve, ServerConfig};
use dbpal_serve::testing::{hospital_db, hospital_script, tenant_registry, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig, TenantRegistry};

struct Args {
    addr: String,
    queue_depth: usize,
    cache_capacity: usize,
    max_connections: usize,
    tenants: Option<String>,
    metrics_out: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dbpal-server [--addr HOST:PORT] [--queue-depth N] [--max-conns N]\n\
         \x20                   [--cache N] [--tenants demo|name[:quota],...]\n\
         \x20                   [--metrics-out PATH] [--quiet]\n\
         each connection serves its requests on its own thread; --max-conns\n\
         bounds the requests served at once"
    );
    exit(2);
}

fn parse_args() -> Args {
    let defaults = ServeConfig::default();
    let server_defaults = ServerConfig::default();
    let mut args = Args {
        addr: "127.0.0.1:7432".to_string(),
        queue_depth: defaults.queue_depth,
        cache_capacity: defaults.cache_capacity,
        max_connections: server_defaults.max_connections,
        tenants: None,
        metrics_out: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--queue-depth" => {
                args.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth")
            }
            "--max-conns" => args.max_connections = parse_num(&value("--max-conns"), "--max-conns"),
            "--cache" => args.cache_capacity = parse_num(&value("--cache"), "--cache"),
            "--tenants" => args.tenants = Some(value("--tenants")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    args
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number, got `{s}`");
        usage()
    })
}

/// Build the tenant registry selected by `--tenants`: `demo` → the
/// three-tenant fixture set; otherwise comma-separated `name[:quota]`
/// entries, each a hospital-fixture clone.
fn registry_from_spec(spec: &str) -> TenantRegistry<ScriptedModel> {
    if spec == "demo" {
        return tenant_registry();
    }
    let mut registry = TenantRegistry::new();
    for entry in spec.split(',') {
        let (name, quota) = match entry.split_once(':') {
            Some((name, q)) => {
                let quota: usize = q.parse().unwrap_or_else(|_| {
                    eprintln!("--tenants entry `{entry}` needs a numeric quota");
                    usage()
                });
                (name, quota)
            }
            None => (entry, usize::MAX),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            eprintln!("--tenants name `{name}` must match [A-Za-z0-9_-]+");
            usage();
        }
        registry =
            registry.register_with_quota(name, Nlidb::new(hospital_db(), hospital_script()), quota);
    }
    registry
}

fn main() {
    let args = parse_args();
    let config = ServeConfig {
        queue_depth: args.queue_depth,
        cache_capacity: args.cache_capacity,
    };
    let service = match &args.tenants {
        Some(spec) => QueryService::with_tenants(registry_from_spec(spec), config),
        None => QueryService::new(Nlidb::new(hospital_db(), hospital_script()), config),
    };
    let handle = match serve(
        service,
        ServerConfig {
            addr: args.addr.clone(),
            max_connections: args.max_connections,
            log: !args.quiet,
            ..ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dbpal-server: cannot bind {}: {e}", args.addr);
            exit(1);
        }
    };
    println!(
        "dbpal-server listening on {} (tenants: {})",
        handle.addr(),
        handle.service().tenant_ids().join(", ")
    );
    // Blocks until a client sends the `shutdown` op, then drains.
    let report = handle.join();
    eprintln!(
        "dbpal-server drained: {} connections, {} requests, {} refused, {} protocol errors",
        report.connections, report.requests, report.refused, report.protocol_errors
    );
    match &args.metrics_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, report.metrics_json.clone() + "\n") {
                eprintln!("dbpal-server: cannot write {path}: {e}");
                exit(1);
            }
            eprintln!("dbpal-server: metrics flushed to {path}");
        }
        None => println!("{}", report.metrics_json),
    }
}
