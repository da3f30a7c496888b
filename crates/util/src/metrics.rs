//! A zero-dependency observability substrate: counters, fixed-bucket
//! latency histograms, scoped span timers, and a registry with
//! deterministic JSON export.
//!
//! Built for the serving layer (`dbpal-serve`) but shared by the
//! training pipeline and the fuzz driver so one export format covers
//! generation, fuzzing, and serving. Everything is lock-free on the hot
//! path: counters and histogram buckets are atomics, so worker threads
//! record into a shared [`MetricsRegistry`] without coordination.
//!
//! Determinism contract: metric *values* that derive from wall-clock
//! time (bucket occupancy, quantiles, sums) vary run to run, but metric
//! *structure* and every pure counter — including each histogram's
//! observation count — are a function of the workload alone. The
//! registry therefore has two exports:
//!
//! * [`MetricsRegistry::to_json`] — the full picture, timings included;
//! * [`MetricsRegistry::to_json_deterministic`] — counters plus
//!   per-histogram observation counts only, byte-identical for a given
//!   workload at any thread count. CI gates compare this one.
//!
//! Both renderings list metrics in sorted name order, so the same
//! registry state always serializes to the same bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;

/// A monotonic event counter.
///
/// Relaxed atomics: counts from concurrent workers interleave, but the
/// final total is exact once the work is joined (the registry is only
/// exported between batches, never mid-flight).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bounds (exclusive, in nanoseconds) of the fixed histogram
/// buckets: 1µs doubling to ~8.6s, plus an unbounded overflow bucket.
/// The layout is part of the export format and never changes at
/// runtime, so histograms from different runs are always comparable.
pub const BUCKET_BOUNDS_NS: [u64; 24] = [
    1_000,
    2_000,
    4_000,
    8_000,
    16_000,
    32_000,
    64_000,
    128_000,
    256_000,
    512_000,
    1_024_000,
    2_048_000,
    4_096_000,
    8_192_000,
    16_384_000,
    32_768_000,
    65_536_000,
    131_072_000,
    262_144_000,
    524_288_000,
    1_048_576_000,
    2_097_152_000,
    4_194_304_000,
    8_388_608_000,
];

/// A fixed-bucket latency histogram with quantile estimation.
///
/// Recording is a single relaxed `fetch_add` into the bucket the
/// duration falls in (binary search over [`BUCKET_BOUNDS_NS`]), plus
/// count/sum updates — safe and cheap from any number of threads.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = BUCKET_BOUNDS_NS.partition_point(|&bound| bound <= ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Time `f` and record its wall-clock duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }

    /// Start a scoped span that records into this histogram on drop.
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) as the upper bound of the
    /// bucket containing that rank. Returns `None` when empty. The
    /// overflow bucket reports the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let bound = BUCKET_BOUNDS_NS
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1]);
                return Some(Duration::from_nanos(bound));
            }
        }
        None
    }

    /// Bucket occupancy, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A scoped timer: measures from creation to drop and records into its
/// histogram. Obtained from [`Histogram::span`].
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed());
    }
}

/// A named collection of counters and histograms with deterministic
/// ordered JSON export.
///
/// `counter`/`histogram` get-or-create by name and hand back an
/// [`Arc`], so hot paths resolve each metric once and then record
/// without touching the registry lock again.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().expect("metrics counter lock");
        if let Some((_, c)) = counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("metrics histogram lock");
        if let Some((_, h)) = histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    fn sorted_counters(&self) -> Vec<(String, Arc<Counter>)> {
        let mut v = self.counters.lock().expect("metrics counter lock").clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn sorted_histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        let mut v = self
            .histograms
            .lock()
            .expect("metrics histogram lock")
            .clone();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Full export: counters plus per-histogram count, sum, p50/p95/p99
    /// (nanoseconds), and bucket occupancy. Metric order is sorted by
    /// name; timing values vary run to run.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.sorted_counters()
                .into_iter()
                .map(|(n, c)| (n, Json::Num(c.get() as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.sorted_histograms()
                .into_iter()
                .map(|(n, h)| {
                    let q = |q: f64| {
                        h.quantile(q)
                            .map(|d| Json::Num(d.as_nanos() as f64))
                            .unwrap_or(Json::Null)
                    };
                    let detail = Json::Obj(vec![
                        ("count".into(), Json::Num(h.count() as f64)),
                        ("sum_ns".into(), Json::Num(h.sum_ns() as f64)),
                        ("p50_ns".into(), q(0.50)),
                        ("p95_ns".into(), q(0.95)),
                        ("p99_ns".into(), q(0.99)),
                        (
                            "buckets".into(),
                            Json::Arr(
                                h.bucket_counts()
                                    .into_iter()
                                    .map(|c| Json::Num(c as f64))
                                    .collect(),
                            ),
                        ),
                    ]);
                    (n, detail)
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("histograms".into(), histograms),
        ])
    }

    /// Deterministic export: counters plus per-histogram observation
    /// counts only — no wall-clock-derived value appears, so for a given
    /// workload the output is byte-identical at any worker-thread count.
    pub fn to_json_deterministic(&self) -> Json {
        let counters = Json::Obj(
            self.sorted_counters()
                .into_iter()
                .map(|(n, c)| (n, Json::Num(c.get() as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.sorted_histograms()
                .into_iter()
                .map(|(n, h)| {
                    (
                        n,
                        Json::Obj(vec![("count".into(), Json::Num(h.count() as f64))]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("histograms".into(), histograms),
        ])
    }

    /// A compact human-readable rendering (one line per metric, sorted).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (n, c) in self.sorted_counters() {
            let _ = writeln!(out, "{n} = {}", c.get());
        }
        for (n, h) in self.sorted_histograms() {
            let fmt_q = |q: f64| {
                h.quantile(q)
                    .map(crate::bench::fmt_dur)
                    .unwrap_or_else(|| "-".to_string())
            };
            let _ = writeln!(
                out,
                "{n}: count {} p50 {} p95 {} p99 {}",
                h.count(),
                fmt_q(0.50),
                fmt_q(0.95),
                fmt_q(0.99),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_records_and_buckets() {
        let h = Histogram::new();
        h.record(Duration::from_micros(3)); // bucket (2µs, 4µs]
        h.record(Duration::from_micros(3));
        h.record(Duration::from_secs(100)); // overflow bucket
        assert_eq!(h.count(), 3);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.len(), BUCKET_BOUNDS_NS.len() + 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[BUCKET_BOUNDS_NS.len()], 1);
        assert!(h.sum_ns() > 100_000_000_000);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(1_500)); // (1µs, 2µs]
        }
        h.record(Duration::from_millis(900)); // (512ms, 1.024s]
        assert_eq!(h.quantile(0.5), Some(Duration::from_nanos(2_000)));
        assert_eq!(h.quantile(0.95), Some(Duration::from_nanos(2_000)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_nanos(1_048_576_000)));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn sub_microsecond_lands_in_first_bucket() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.quantile(0.5), Some(Duration::from_nanos(1_000)));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns(), 0);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn single_observation_pins_every_percentile() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(5_000)); // bucket (4µs, 8µs]
        let bound = Some(Duration::from_nanos(8_000));
        assert_eq!(h.quantile(0.50), bound);
        assert_eq!(h.quantile(0.95), bound);
        assert_eq!(h.quantile(0.99), bound);
        // Even q=0 resolves to the only occupied bucket (rank floors at 1).
        assert_eq!(h.quantile(0.0), bound);
    }

    #[test]
    fn exact_bucket_boundary_lands_in_the_next_bucket() {
        // Bounds are exclusive upper: a value exactly equal to a bound
        // belongs to the *following* bucket, so its quantile reports the
        // next bound up. Pin this for the first and an interior bound.
        let h = Histogram::new();
        h.record(Duration::from_nanos(1_000)); // == bounds[0] → bucket 1
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.quantile(0.50), Some(Duration::from_nanos(2_000)));

        let h2 = Histogram::new();
        h2.record(Duration::from_nanos(999)); // < bounds[0] → bucket 0
        assert_eq!(h2.bucket_counts()[0], 1);
        assert_eq!(h2.quantile(0.50), Some(Duration::from_nanos(1_000)));

        let h3 = Histogram::new();
        h3.record(Duration::from_nanos(1_048_576_000)); // == bounds[20]
        assert_eq!(h3.bucket_counts()[21], 1);
        assert_eq!(h3.quantile(0.99), Some(Duration::from_nanos(2_097_152_000)));
    }

    #[test]
    fn saturation_at_the_top_bucket_reports_largest_finite_bound() {
        let top = BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1];
        let h = Histogram::new();
        h.record(Duration::from_nanos(top)); // == last bound → overflow
        h.record(Duration::from_secs(3_600)); // deep overflow
        h.record(Duration::MAX); // nanos clamp to u64::MAX, no panic
        assert_eq!(h.bucket_counts()[BUCKET_BOUNDS_NS.len()], 3);
        // Every percentile saturates to the largest finite bound.
        let sat = Some(Duration::from_nanos(top));
        assert_eq!(h.quantile(0.50), sat);
        assert_eq!(h.quantile(0.95), sat);
        assert_eq!(h.quantile(0.99), sat);
    }

    #[test]
    fn mixed_population_percentile_split_is_exact() {
        // 90 fast + 10 slow observations: p50 reports the fast bucket's
        // bound, p95/p99 the slow one's.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(Duration::from_nanos(500)); // bucket 0 → bound 1µs
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(3)); // (2.048ms, 4.096ms]
        }
        assert_eq!(h.quantile(0.50), Some(Duration::from_nanos(1_000)));
        assert_eq!(h.quantile(0.90), Some(Duration::from_nanos(1_000)));
        assert_eq!(h.quantile(0.95), Some(Duration::from_nanos(4_096_000)));
        assert_eq!(h.quantile(0.99), Some(Duration::from_nanos(4_096_000)));
    }

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _s = h.span();
        }
        assert_eq!(h.count(), 1);
        let out = h.time(|| 7u8);
        assert_eq!(out, 7);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_get_or_create_shares_state() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.counter("a").inc();
        assert_eq!(reg.counter("a").get(), 2);
        reg.histogram("h").record(Duration::from_micros(1));
        assert_eq!(reg.histogram("h").count(), 1);
    }

    #[test]
    fn export_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(9);
        reg.counter("a.first").add(1);
        reg.histogram("m.mid").record(Duration::from_micros(5));
        let doc = reg.to_json_deterministic().pretty();
        let a = doc.find("a.first").unwrap();
        let m = doc.find("m.mid").unwrap();
        let z = doc.find("z.last").unwrap();
        assert!(a < z, "counters not sorted: {doc}");
        assert!(z < m, "histograms must follow counters: {doc}");
        assert_eq!(doc, reg.to_json_deterministic().pretty());
        // The deterministic export never mentions wall-clock fields.
        assert!(!doc.contains("_ns"));
        // The full export carries the timing detail.
        let full = reg.to_json().pretty();
        assert!(full.contains("p95_ns"));
        assert!(full.contains("buckets"));
    }

    #[test]
    fn concurrent_recording_totals_exactly() {
        let reg = MetricsRegistry::new();
        let idxs: Vec<u64> = (0..64).collect();
        crate::WorkerPool::new(8).map_indexed(&idxs, 8, |_, _| {
            reg.counter("hits").inc();
            reg.histogram("lat").record(Duration::from_micros(2));
        });
        assert_eq!(reg.counter("hits").get(), 64);
        assert_eq!(reg.histogram("lat").count(), 64);
    }

    #[test]
    fn deterministic_export_thread_invariant() {
        let pool = crate::WorkerPool::new(8);
        let run = |threads: usize| {
            let reg = MetricsRegistry::new();
            let idxs: Vec<u64> = (0..40).collect();
            pool.map_indexed(&idxs, threads, |i, _| {
                reg.counter(if i % 2 == 0 { "even" } else { "odd" }).inc();
                reg.histogram("work").record(Duration::from_nanos(i as u64));
            });
            reg.to_json_deterministic().pretty()
        };
        assert_eq!(run(1), run(8));
    }
}
