//! A tiny wall-clock benchmark harness.
//!
//! Each benchmark is calibrated (iterations per sample chosen so a
//! sample takes roughly [`Config::target_sample`]), warmed up, then
//! measured for [`Config::samples`] samples; the report shows the
//! median, minimum, and maximum per-iteration time. Results can also be
//! dumped as JSON — set `DBPAL_BENCH_JSON=<path>` (or `-` for stdout)
//! to get a machine-readable record of the run.
//!
//! This replaces `criterion` for this workspace: no statistics beyond
//! median-of-N, no plotting, no registry dependency — just `Instant`.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Opaque identity function preventing the optimizer from deleting the
/// benchmarked computation. Re-exported so bench files need only
/// `dbpal_util::bench::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Harness tuning knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Measured samples per benchmark (the median of these is reported).
    pub samples: usize,
    /// Warmup time before measurement starts.
    pub warmup: Duration,
    /// Target wall-clock duration of one sample; iteration count per
    /// sample is calibrated to roughly hit this.
    pub target_sample: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            samples: 15,
            warmup: Duration::from_millis(300),
            target_sample: Duration::from_millis(100),
        }
    }
}

impl Config {
    /// Five samples, no warmup, no calibration target — a short run
    /// whose median still carries a spread (`min`/`max`).
    pub fn quick() -> Self {
        Config {
            samples: 5,
            warmup: Duration::ZERO,
            target_sample: Duration::ZERO,
        }
    }

    /// Full measurement when invoked by `cargo bench` (which passes
    /// `--bench` to `harness = false` targets), [`Config::quick`]
    /// otherwise, e.g. when a bench binary is run directly. An
    /// explicit `--quick` forces the quick profile even under
    /// `cargo bench`; CI uses this to emit machine-readable reports
    /// without paying for full measurement. (`cargo test` does not run
    /// bench targets.)
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") || !args.iter().any(|a| a == "--bench") {
            Config::quick()
        } else {
            Config::default()
        }
    }
}

/// Per-benchmark floors layered on top of the harness [`Config`].
///
/// Quick runs (`--quick`, CI) calibrate to one iteration per sample,
/// which for sub-millisecond routines records timer noise instead of a
/// meaningful median — and the committed `BENCH_*.json` baselines are
/// produced by exactly those runs. A benchmark that knows it is fast
/// declares a floor here; full `cargo bench` runs already exceed it and
/// are unaffected.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOpts {
    /// Minimum iterations per sample, applied after calibration.
    pub min_iters: u64,
}

/// One benchmark's measured result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name as passed to [`Harness::bench`].
    pub name: String,
    /// Median per-iteration time across samples.
    pub median: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Slowest sample's per-iteration time.
    pub max: Duration,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of measured samples.
    pub samples: usize,
}

/// Collects measurements and renders the final report.
pub struct Harness {
    group: String,
    config: Config,
    results: Vec<Measurement>,
}

impl Harness {
    /// A harness with default [`Config`]; `group` names the run.
    pub fn new(group: impl Into<String>) -> Self {
        Harness::with_config(group, Config::default())
    }

    /// A harness with explicit tuning.
    pub fn with_config(group: impl Into<String>, config: Config) -> Self {
        Harness {
            group: group.into(),
            config,
            results: Vec::new(),
        }
    }

    /// Benchmark `f`, which is called once per iteration.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        self.bench_with_setup(name, || (), move |()| f());
    }

    /// [`Harness::bench`] with explicit per-benchmark floors.
    pub fn bench_opts<R>(&mut self, name: &str, opts: BenchOpts, mut f: impl FnMut() -> R) {
        self.bench_with_setup_opts(name, opts, || (), move |()| f());
    }

    /// Benchmark `routine` with a fresh, untimed `setup` value per
    /// iteration (the equivalent of criterion's `iter_batched`).
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> S,
        routine: impl FnMut(S) -> R,
    ) {
        self.bench_with_setup_opts(name, BenchOpts::default(), setup, routine);
    }

    /// [`Harness::bench_with_setup`] with explicit per-benchmark floors.
    pub fn bench_with_setup_opts<S, R>(
        &mut self,
        name: &str,
        opts: BenchOpts,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        eprint!("bench {}/{name} ... ", self.group);
        let iters = self
            .calibrate(&mut setup, &mut routine)
            .max(opts.min_iters)
            .max(1);
        let samples = self.config.samples.max(1);
        self.warmup(iters, &mut setup, &mut routine);

        let mut per_iter: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let total = Self::sample(iters, &mut setup, &mut routine);
            per_iter.push(total / iters as u32);
        }
        per_iter.sort_unstable();
        let m = Measurement {
            name: name.to_string(),
            median: per_iter[per_iter.len() / 2],
            min: per_iter[0],
            max: per_iter[per_iter.len() - 1],
            iters_per_sample: iters,
            samples: per_iter.len(),
        };
        eprintln!(
            "{} (min {}, max {})",
            fmt_dur(m.median),
            fmt_dur(m.min),
            fmt_dur(m.max)
        );
        self.results.push(m);
    }

    /// Time one sample of `iters` iterations (setup excluded).
    fn sample<S, R>(
        iters: u64,
        setup: &mut impl FnMut() -> S,
        routine: &mut impl FnMut(S) -> R,
    ) -> Duration {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            total += start.elapsed();
            drop(std_black_box(out));
        }
        total
    }

    /// Pick iterations-per-sample so one sample ≈ `target_sample`.
    fn calibrate<S, R>(
        &self,
        setup: &mut impl FnMut() -> S,
        routine: &mut impl FnMut(S) -> R,
    ) -> u64 {
        let mut iters = 1u64;
        loop {
            let took = Self::sample(iters, setup, routine);
            if took >= self.config.target_sample / 2 || iters >= 1 << 20 {
                let per_iter = took.as_secs_f64() / iters as f64;
                let want = self.config.target_sample.as_secs_f64() / per_iter.max(1e-12);
                return (want as u64).clamp(1, 1 << 24);
            }
            iters = iters.saturating_mul(4);
        }
    }

    fn warmup<S, R>(
        &self,
        iters: u64,
        setup: &mut impl FnMut() -> S,
        routine: &mut impl FnMut(S) -> R,
    ) {
        let deadline = Instant::now() + self.config.warmup;
        while Instant::now() < deadline {
            Self::sample(iters.min(16), setup, routine);
        }
    }

    /// The collected measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// The whole run as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("group".into(), Json::str(self.group.clone())),
            (
                "benchmarks".into(),
                Json::Arr(
                    self.results
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(m.name.clone())),
                                ("median_ns".into(), Json::Num(m.median.as_nanos() as f64)),
                                ("min_ns".into(), Json::Num(m.min.as_nanos() as f64)),
                                ("max_ns".into(), Json::Num(m.max.as_nanos() as f64)),
                                (
                                    "iters_per_sample".into(),
                                    Json::Num(m.iters_per_sample as f64),
                                ),
                                ("samples".into(), Json::Num(m.samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Print the human-readable table and honor `DBPAL_BENCH_JSON=<path|->`,
    /// which records the run as a machine-readable report (see DESIGN.md
    /// "Serving & observability" for the schema). Call once at the end
    /// of a bench binary's `main`.
    pub fn finish(self) {
        println!("\n== {} ==", self.group);
        let name_w = self
            .results
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        println!(
            "{:<name_w$}  {:>12}  {:>12}  {:>12}",
            "name", "median", "min", "max"
        );
        for m in &self.results {
            println!(
                "{:<name_w$}  {:>12}  {:>12}  {:>12}",
                m.name,
                fmt_dur(m.median),
                fmt_dur(m.min),
                fmt_dur(m.max),
            );
        }
        if let Ok(path) = std::env::var("DBPAL_BENCH_JSON") {
            let doc = self.to_json().pretty();
            if path == "-" {
                println!("{doc}");
            } else if let Err(e) = std::fs::write(&path, doc + "\n") {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!("bench report written to {path}");
            }
        }
    }
}

/// Render a duration with an auto-scaled unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> Config {
        Config {
            samples: 3,
            warmup: Duration::from_millis(1),
            target_sample: Duration::from_micros(200),
        }
    }

    #[test]
    fn measures_something_positive() {
        let mut h = Harness::with_config("unit", fast_config());
        h.bench("sum", || (0..100u64).sum::<u64>());
        let m = &h.results()[0];
        assert_eq!(m.samples, 3);
        assert!(m.iters_per_sample >= 1);
        assert!(m.min <= m.median && m.median <= m.max);
    }

    #[test]
    fn setup_excluded_from_timing() {
        let mut h = Harness::with_config("unit", fast_config());
        h.bench_with_setup(
            "sort",
            || vec![5u32, 3, 1, 4, 2],
            |mut v| {
                v.sort_unstable();
                v
            },
        );
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn json_report_shape() {
        let mut h = Harness::with_config("unit", fast_config());
        h.bench("noop", || black_box(1u8));
        let doc = h.to_json();
        assert_eq!(doc.get("group").unwrap().as_str(), Some("unit"));
        let benches = doc.get("benchmarks").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("name").unwrap().as_str(), Some("noop"));
        assert!(benches[0].get("median_ns").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn quick_floors_iters_and_takes_five_samples() {
        let mut h = Harness::with_config("unit", Config::quick());
        h.bench_opts("floored", BenchOpts { min_iters: 32 }, || black_box(1u8));
        let m = &h.results()[0];
        assert!(m.iters_per_sample >= 32, "iters {}", m.iters_per_sample);
        assert_eq!(m.samples, 5);
    }

    #[test]
    fn fmt_dur_scales_units() {
        assert_eq!(fmt_dur(Duration::from_nanos(250)), "250 ns");
        assert_eq!(fmt_dur(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00 s");
    }
}
