//! The closed-loop load harness behind `load_gen` and the `load_gate`
//! CI bin: N client threads drive a live `dbpal-server` socket with a
//! seeded request mix over the hospital fixture, a warmup window primes
//! the translation cache, and a barrier-aligned measurement window
//! yields QPS and exact p50/p95/p99 latencies.
//!
//! # Determinism contract
//!
//! Wall-clock numbers (QPS, percentiles) vary run to run; everything
//! else is a pure function of the seed. Each client draws its requests
//! from an independent stream (`Rng::for_stream(seed, client_id)`), so
//! the question sequence — and therefore every answer — is fixed no
//! matter how the server interleaves connections. The harness folds
//! each client's answer payloads (via [`QueryOutcome::digest_form`],
//! which excludes the interleaving-dependent `cached` flag) into one
//! FNV-1a digest, chained in client-id order, and `load_gate` asserts
//! the [`LoadReport::deterministic_payload`] is byte-identical across
//! two independent runs.

use std::io;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use dbpal_runtime::Nlidb;
use dbpal_serve::net::{serve, Client, QueryOutcome, ServerConfig, ServerHandle};
use dbpal_serve::testing::{hospital_db, hospital_script, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig};
use dbpal_util::{Json, Rng};

/// Default seed for the request mix.
pub const DEFAULT_SEED: u64 = 0x10AD;

/// Load-harness knobs: [`LoadConfig::quick`] for the CI gate,
/// [`LoadConfig::full`] for `load_gen`.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop client connections.
    pub clients: usize,
    /// Warmup requests per client (prime the cache; not measured).
    pub warmup_per_client: usize,
    /// Measured requests per client.
    pub measured_per_client: usize,
    /// Questions per request frame.
    pub batch: usize,
    /// Base seed for the per-client request streams.
    pub seed: u64,
}

impl LoadConfig {
    /// The fast CI profile (`load_gate --quick`).
    pub fn quick() -> Self {
        LoadConfig {
            clients: 4,
            warmup_per_client: 8,
            measured_per_client: 40,
            batch: 4,
            seed: DEFAULT_SEED,
        }
    }

    /// The full profile (`load_gen`).
    pub fn full() -> Self {
        LoadConfig {
            clients: 8,
            warmup_per_client: 50,
            measured_per_client: 200,
            batch: 4,
            seed: DEFAULT_SEED,
        }
    }
}

/// What one load run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Client threads.
    pub clients: usize,
    /// Questions per request frame.
    pub batch: usize,
    /// Total warmup requests across clients.
    pub warmup_requests: u64,
    /// Total measured requests across clients.
    pub measured_requests: u64,
    /// Total measured questions (requests × batch).
    pub queries: u64,
    /// Measured questions per second of wall clock.
    pub qps: f64,
    /// Exact request-latency median over the measurement window.
    pub p50_ns: u64,
    /// Exact 95th-percentile request latency.
    pub p95_ns: u64,
    /// Exact 99th-percentile request latency.
    pub p99_ns: u64,
    /// Client-visible protocol failures (must be zero).
    pub protocol_errors: u64,
    /// Answers that differed from the fixture's expected rows.
    pub answer_mismatches: u64,
    /// Questions shed by admission control.
    pub sheds: u64,
    /// FNV-1a digest over every answer payload, both windows, chained
    /// in client-id order.
    pub digest: String,
}

impl LoadReport {
    /// The run-invariant slice of the report, rendered compactly so two
    /// runs can be compared byte for byte.
    pub fn deterministic_payload(&self) -> String {
        Json::Obj(vec![
            ("queries".into(), Json::Num(self.queries as f64)),
            ("sheds".into(), Json::Num(self.sheds as f64)),
            (
                "protocol_errors".into(),
                Json::Num(self.protocol_errors as f64),
            ),
            (
                "answer_mismatches".into(),
                Json::Num(self.answer_mismatches as f64),
            ),
            ("digest".into(), Json::str(self.digest.clone())),
        ])
        .compact()
    }

    /// The `load` member stored in `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clients".into(), Json::Num(self.clients as f64)),
            ("batch".into(), Json::Num(self.batch as f64)),
            (
                "warmup_requests".into(),
                Json::Num(self.warmup_requests as f64),
            ),
            (
                "measured_requests".into(),
                Json::Num(self.measured_requests as f64),
            ),
            ("queries".into(), Json::Num(self.queries as f64)),
            ("qps".into(), Json::Num(self.qps)),
            ("p50_ns".into(), Json::Num(self.p50_ns as f64)),
            ("p95_ns".into(), Json::Num(self.p95_ns as f64)),
            ("p99_ns".into(), Json::Num(self.p99_ns as f64)),
            (
                "protocol_errors".into(),
                Json::Num(self.protocol_errors as f64),
            ),
            (
                "answer_mismatches".into(),
                Json::Num(self.answer_mismatches as f64),
            ),
            ("sheds".into(), Json::Num(self.sheds as f64)),
            ("digest".into(), Json::str(self.digest.clone())),
        ])
    }
}

// ----- request mix ------------------------------------------------------

/// One drawable question with its expected result rows.
struct MixItem {
    question: String,
    expected_rows: Vec<Vec<Json>>,
}

/// The seeded request mix over the hospital fixture: every scripted
/// family, every constant, each with the rows the fixture data implies.
fn request_mix() -> Vec<MixItem> {
    let mut mix = Vec::new();
    for (age, name) in [
        (80, "Ann"),
        (35, "Bob"),
        (64, "Cat"),
        (20, "Dan"),
        (47, "Eve"),
    ] {
        mix.push(MixItem {
            question: format!("Show me the name of all patients with age {age}"),
            expected_rows: vec![vec![Json::str(name)]],
        });
    }
    for (disease, count) in [("influenza", 2.0), ("asthma", 2.0), ("malaria", 1.0)] {
        mix.push(MixItem {
            question: format!("How many patients have {disease}"),
            expected_rows: vec![vec![Json::Num(count)]],
        });
    }
    for (doctor, avg) in [("House", 54.0), ("Grey", 42.0)] {
        mix.push(MixItem {
            question: format!("What is the average age of patients of doctor {doctor}"),
            expected_rows: vec![vec![Json::Num(avg)]],
        });
    }
    mix.push(MixItem {
        question: "Show the name of all patients".to_string(),
        expected_rows: ["Ann", "Bob", "Cat", "Dan", "Eve"]
            .iter()
            .map(|n| vec![Json::str(*n)])
            .collect(),
    });
    mix
}

// ----- digest -----------------------------------------------------------

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

// ----- the harness ------------------------------------------------------

/// Per-client tallies brought back to the coordinator.
struct ClientOutcome {
    latencies_ns: Vec<u64>,
    protocol_errors: u64,
    answer_mismatches: u64,
    sheds: u64,
    digest: u64,
}

fn run_client(
    addr: SocketAddr,
    cfg: &LoadConfig,
    client_id: usize,
    start: &Barrier,
    stop: &Barrier,
) -> ClientOutcome {
    let mix = request_mix();
    let mut rng = Rng::for_stream(cfg.seed, client_id as u64);
    let mut out = ClientOutcome {
        latencies_ns: Vec::with_capacity(cfg.measured_per_client),
        protocol_errors: 0,
        answer_mismatches: 0,
        sheds: 0,
        digest: FNV_OFFSET,
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.protocol_errors += 1;
            start.wait();
            stop.wait();
            return out;
        }
    };
    let issue = |client: &mut Client, out: &mut ClientOutcome, rng: &mut Rng| -> u64 {
        let picks: Vec<usize> = (0..cfg.batch)
            .map(|_| rng.gen_range(0..mix.len()))
            .collect();
        let questions: Vec<String> = picks.iter().map(|&i| mix[i].question.clone()).collect();
        let t0 = Instant::now();
        match client.query(&questions) {
            Ok(outcomes) => {
                let elapsed = t0.elapsed().as_nanos() as u64;
                for (&pick, outcome) in picks.iter().zip(&outcomes) {
                    out.digest = fnv1a64(out.digest, outcome.digest_form().as_bytes());
                    match outcome {
                        QueryOutcome::Answer { rows, .. } => {
                            if *rows != mix[pick].expected_rows {
                                out.answer_mismatches += 1;
                            }
                        }
                        QueryOutcome::Overloaded { .. } | QueryOutcome::TenantOverloaded { .. } => {
                            out.sheds += 1
                        }
                        QueryOutcome::Failed { .. } => out.answer_mismatches += 1,
                    }
                }
                if outcomes.len() != picks.len() {
                    out.protocol_errors += 1;
                }
                elapsed
            }
            Err(_) => {
                out.protocol_errors += 1;
                t0.elapsed().as_nanos() as u64
            }
        }
    };
    for _ in 0..cfg.warmup_per_client {
        let _ = issue(&mut client, &mut out, &mut rng);
    }
    start.wait();
    for _ in 0..cfg.measured_per_client {
        let ns = issue(&mut client, &mut out, &mut rng);
        out.latencies_ns.push(ns);
    }
    stop.wait();
    out
}

/// Exact percentile over a sorted latency vector: the smallest element
/// with at least `q` of the population at or below it.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drive `cfg.clients` closed-loop clients against a live server at
/// `addr` and report.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let start = Barrier::new(cfg.clients + 1);
    let stop = Barrier::new(cfg.clients + 1);
    let (wall, outcomes): (std::time::Duration, Vec<ClientOutcome>) = std::thread::scope(|s| {
        let (start, stop) = (&start, &stop);
        let handles: Vec<_> = (0..cfg.clients)
            .map(|id| s.spawn(move || run_client(addr, cfg, id, start, stop)))
            .collect();
        start.wait();
        let t0 = Instant::now();
        stop.wait();
        let wall = t0.elapsed();
        (
            wall,
            handles
                .into_iter()
                .map(|h| h.join().expect("load client thread"))
                .collect(),
        )
    });

    // Chain per-client digests in client-id order: scheduling cannot
    // reorder them.
    let mut digest = FNV_OFFSET;
    for o in &outcomes {
        digest = fnv1a64(digest, &o.digest.to_be_bytes());
    }
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let measured_requests = latencies.len() as u64;
    let queries = measured_requests * cfg.batch as u64;
    let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    LoadReport {
        clients: cfg.clients,
        batch: cfg.batch,
        warmup_requests: (cfg.clients * cfg.warmup_per_client) as u64,
        measured_requests,
        queries,
        qps: queries as f64 / secs,
        p50_ns: percentile(&latencies, 0.50),
        p95_ns: percentile(&latencies, 0.95),
        p99_ns: percentile(&latencies, 0.99),
        protocol_errors: outcomes.iter().map(|o| o.protocol_errors).sum(),
        answer_mismatches: outcomes.iter().map(|o| o.answer_mismatches).sum(),
        sheds: outcomes.iter().map(|o| o.sheds).sum(),
        digest: format!("{digest:016x}"),
    }
}

/// Spin up the standard hospital-fixture server the harness targets
/// when no external `--addr` is given.
pub fn fixture_server() -> io::Result<ServerHandle<ScriptedModel>> {
    let service = QueryService::new(
        Nlidb::new(hospital_db(), hospital_script()),
        ServeConfig::default(),
    );
    serve(service, ServerConfig::default())
}

/// Run the harness against a fresh in-process fixture server, then
/// drain it. Returns the load report.
pub fn run_against_fixture(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let handle = fixture_server()?;
    let report = run_load(handle.addr(), cfg);
    handle.shutdown();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_small_populations() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a64(FNV_OFFSET, b"ab");
        let b = fnv1a64(FNV_OFFSET, b"ba");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a64(FNV_OFFSET, b"ab"));
    }

    #[test]
    fn request_mix_covers_every_family() {
        let mix = request_mix();
        assert_eq!(mix.len(), 11);
        assert!(mix.iter().all(|m| !m.expected_rows.is_empty()));
    }
}
