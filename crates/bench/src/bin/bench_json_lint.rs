//! CI gate: every `BENCH_*.json` report handed on the command line must
//! parse with the in-repo JSON parser and match the bench-report schema
//! (DESIGN.md "Serving & observability"): a `group` string plus a
//! `benchmarks` array whose entries carry name, median/min/max
//! nanoseconds, the samples' MAD (finite, within `[0, max_ns − min_ns]`),
//! iterations per sample, and a sample count of at least
//! [`MIN_SAMPLES`], so every row carries its own spread.
//!
//! This is what makes the machine-readable perf trajectory trustworthy:
//! a report that silently stopped parsing would otherwise rot unnoticed.
//!
//! Gate-written members are checked from one `(group, member, gate,
//! validator)` table, `MEMBERS`: a member is validated wherever it
//! appears, and *required* in its group's report, so a gate that
//! silently stopped merging fails CI. The `serve` report carries the
//! load harness's `load` member (client and request counts, QPS,
//! p50/p95/p99 latencies, error tallies, the answer digest); the
//! `corpus` report the `corpus` member (streaming-run totals, dedup
//! rate, JSONL digest, memory observations, and zero analyzer rejects —
//! a committed corpus report that rejected pairs means `corpus_gate`
//! should have failed).
//!
//! A second mode, `--compare <BASE> <FRESH> [<BASE> <FRESH>...]`, diffs
//! a fresh run against the committed baseline pair by pair: every
//! baseline benchmark must reappear within its group's tolerance band
//! (default ×3; per-group rows in `GROUP_TOLERANCE`, e.g. ×4 for the
//! whole-run `corpus` group; env-tunable via `DBPAL_BENCH_TOLERANCE`
//! and `DBPAL_BENCH_TOLERANCE_<GROUP>`, both directions), and the
//! thread-scaling pairs must satisfy `threads4 ≤ threads1 ×
//! DBPAL_BENCH_PARITY` (default ×1.05). See `dbpal_bench::compare` for
//! the rules and `verify.sh` for the CI wiring.

use dbpal_bench::compare::{compare_reports, parity_from_env, tolerance_for_group};
use dbpal_util::Json;

/// Fewest samples a row may report: what `Config::quick` takes, the
/// profile verify.sh regenerates the committed reports with.
const MIN_SAMPLES: f64 = 5.0;

/// A validator for one gate-written report member.
type Validator = fn(&Json) -> Result<(), String>;

/// `(group, member, gate that writes it, validator)`.
const MEMBERS: &[(&str, &str, &str, Validator)] = &[
    ("serve", "load", "load_gate", check_load),
    ("corpus", "corpus", "corpus_gate", check_corpus),
];

/// The values of `keys` in `obj`, each a required non-negative number.
fn numbers<const N: usize>(ctx: &str, obj: &Json, keys: [&str; N]) -> Result<[f64; N], String> {
    let mut values = [0.0; N];
    for (value, key) in values.iter_mut().zip(keys) {
        *value = obj
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("{ctx}: missing number `{key}`"))?;
        if *value < 0.0 {
            return Err(format!("{ctx}: negative `{key}`"));
        }
    }
    Ok(values)
}

/// Each of `keys` in `obj` must be a non-empty string.
fn strings(ctx: &str, obj: &Json, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        let s = obj
            .get(key)
            .and_then(Json::as_str)
            .ok_or(format!("{ctx}: missing string `{key}`"))?;
        if s.is_empty() {
            return Err(format!("{ctx}: empty `{key}`"));
        }
    }
    Ok(())
}

/// The `load` member written by the load harness.
fn check_load(load: &Json) -> Result<(), String> {
    numbers(
        "load",
        load,
        [
            "clients",
            "batch",
            "warmup_requests",
            "measured_requests",
            "queries",
            "qps",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "protocol_errors",
            "answer_mismatches",
            "sheds",
        ],
    )?;
    strings("load", load, &["digest"])
}

/// The `corpus` member written by `corpus_gate`.
fn check_corpus(corpus: &Json) -> Result<(), String> {
    let [pairs, .., dedup_rate, rejected] = numbers(
        "corpus",
        corpus,
        [
            "pairs",
            "target_pairs",
            "rounds",
            "schemas",
            "threads",
            "pairs_per_sec",
            "bytes",
            "exact_dropped",
            "conflicts_resolved",
            "estimated_peak_bytes",
            "dedup_rate",
            "analyzer_rejected",
        ],
    )?;
    if pairs == 0.0 {
        return Err("corpus: zero pairs emitted".to_string());
    }
    if dedup_rate > 1.0 {
        return Err(format!("corpus: dedup_rate {dedup_rate} outside [0, 1]"));
    }
    if rejected != 0.0 {
        return Err(format!(
            "corpus: {rejected} analyzer rejects in a committed report — corpus_gate should have failed"
        ));
    }
    strings("corpus", corpus, &["digest"])?;
    // The resident-set probe is platform-dependent, so the member is
    // optional — but when present it must be a plausible number.
    if let Some(rss) = corpus.get("peak_resident_bytes") {
        let v = rss
            .as_f64()
            .ok_or("corpus: non-numeric `peak_resident_bytes`")?;
        if v <= 0.0 {
            return Err("corpus: non-positive `peak_resident_bytes`".to_string());
        }
    }
    Ok(())
}

/// Validate one report document; returns a description of the first
/// schema violation.
fn check_report(doc: &Json) -> Result<(usize, String), String> {
    let group = doc
        .get("group")
        .and_then(Json::as_str)
        .ok_or("missing string `group`")?
        .to_string();
    let benchmarks = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("missing array `benchmarks`")?;
    for (i, b) in benchmarks.iter().enumerate() {
        let ctx = format!("benchmarks[{i}]");
        strings(&ctx, b, &["name"])?;
        let [_, min, max, mad, _, samples] = numbers(
            &ctx,
            b,
            [
                "median_ns",
                "min_ns",
                "max_ns",
                "mad_ns",
                "iters_per_sample",
                "samples",
            ],
        )?;
        if !(mad.is_finite() && mad <= max - min) {
            return Err(format!(
                "{ctx}: mad_ns {mad} outside [0, max_ns - min_ns = {}]",
                max - min
            ));
        }
        if samples < MIN_SAMPLES {
            return Err(format!(
                "{ctx}: {samples} samples, fewer than {MIN_SAMPLES}"
            ));
        }
    }
    for &(member_group, member, gate, validate) in MEMBERS {
        match doc.get(member) {
            Some(value) => validate(value)?,
            None if group == member_group => {
                return Err(format!(
                    "group `{group}` requires a `{member}` member (run {gate})"
                ))
            }
            None => {}
        }
    }
    Ok((benchmarks.len(), group))
}

/// Load and parse one report file, or exit-worthy error text.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    Json::parse(&text).map_err(|e| format!("does not parse: {e}"))
}

/// The `--compare` mode: `(baseline, fresh)` path pairs.
fn run_compare(paths: &[String]) -> ! {
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        eprintln!("usage: bench_json_lint --compare <BASE.json> <FRESH.json> [pairs...]");
        std::process::exit(2);
    }
    let parity = match parity_from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[bench_json_lint] FAIL {e}");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    for pair in paths.chunks(2) {
        let (base_path, fresh_path) = (&pair[0], &pair[1]);
        let docs = load(base_path)
            .map_err(|e| format!("{base_path}: {e}"))
            .and_then(|b| {
                load(fresh_path)
                    .map_err(|e| format!("{fresh_path}: {e}"))
                    .map(|f| (b, f))
            });
        // The tolerance band is resolved per fresh report, so each
        // group can carry its own width. A band that fails to resolve
        // is a config (env) error, not a comparison failure.
        let report = match docs {
            Ok((base, fresh)) => {
                let group = fresh
                    .get("group")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                match tolerance_for_group(&group) {
                    Ok(t) => compare_reports(&base, &fresh, t, parity).map(|r| (r, t)),
                    Err(e) => {
                        eprintln!("[bench_json_lint] FAIL {e}");
                        std::process::exit(2);
                    }
                }
            }
            Err(e) => Err(e),
        };
        match report {
            Ok((r, tolerance)) => {
                for w in &r.warnings {
                    eprintln!("[bench_json_lint] warn {fresh_path}: {w}");
                }
                for e in &r.errors {
                    eprintln!("[bench_json_lint] FAIL {fresh_path}: {e}");
                }
                if r.ok() {
                    println!(
                        "[bench_json_lint] OK {fresh_path}: group `{}`, {} medians within x{tolerance} of {base_path}",
                        r.group, r.compared
                    );
                } else {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("[bench_json_lint] FAIL {e}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.first().map(String::as_str) == Some("--compare") {
        paths.remove(0);
        run_compare(&paths);
    }
    if paths.is_empty() {
        eprintln!("usage: bench_json_lint <BENCH_*.json>... | --compare <BASE> <FRESH>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match load(path).and_then(|doc| check_report(&doc)) {
            Ok((n, group)) => {
                println!("[bench_json_lint] OK {path}: group `{group}`, {n} benchmarks");
            }
            Err(e) => {
                eprintln!("[bench_json_lint] FAIL {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
