//! CI gate: every `BENCH_*.json` report handed on the command line must
//! parse with the in-repo JSON parser and match the bench-report schema
//! (DESIGN.md "Serving & observability"): a `group` string plus a
//! `benchmarks` array whose entries carry name, median/min/max
//! nanoseconds, iterations per sample, and sample count.
//!
//! This is what makes the machine-readable perf trajectory trustworthy:
//! a report that silently stopped parsing would otherwise rot unnoticed.
//!
//! The `serve` report additionally carries the load harness's `load`
//! member (written by `load_gate` / `load_gen`); its schema — client
//! and request counts, QPS, p50/p95/p99 latencies, error tallies, and
//! the answer digest — is validated here too, and *required* for the
//! `serve` group so a gate that silently stopped merging would fail CI.
//! The `tenant` report likewise requires the `tenants` member written
//! by `tenant_gate`: one entry per tenant with its queries, hits,
//! misses, and sheds, each internally consistent.
//! The `lint` report requires the `lints` member written by
//! `lint_gate`: the rule catalog with per-rule finding counts, a
//! violations array that must be empty (the gate fails otherwise, so a
//! non-empty array here means a stale or hand-edited report), and the
//! allowlist entry count.
//! The `corpus` report requires the `corpus` member written by
//! `corpus_gate`: streaming-run totals (pairs, rounds, throughput,
//! dedup rate, JSONL digest, memory observations) with
//! zero analyzer rejects — a committed corpus report that rejected
//! pairs means the gate should have failed.
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

/// Validate the `load` member written by the load harness.
fn check_load(load: &Json) -> Result<(), String> {
    for key in [
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
    ] {
        let v = load
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("load: missing number `{key}`"))?;
        if v < 0.0 {
            return Err(format!("load: negative `{key}`"));
        }
    }
    let digest = load
        .get("digest")
        .and_then(Json::as_str)
        .ok_or("load: missing string `digest`")?;
    if digest.is_empty() {
        return Err("load: empty `digest`".to_string());
    }
    Ok(())
}

/// Validate the `tenants` member written by `tenant_gate`.
fn check_tenants(tenants: &Json) -> Result<(), String> {
    let rows = tenants.as_arr().ok_or("`tenants` is not an array")?;
    if rows.is_empty() {
        return Err("tenants: empty array".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let id = row
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or(format!("tenants[{i}]: missing string `tenant`"))?;
        if id.is_empty() {
            return Err(format!("tenants[{i}]: empty `tenant`"));
        }
        let mut nums = [0.0f64; 4];
        for (slot, key) in ["queries", "hits", "misses", "sheds"].iter().enumerate() {
            let v = row
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("tenants[{i}]: missing number `{key}`"))?;
            if v < 0.0 {
                return Err(format!("tenants[{i}]: negative `{key}`"));
            }
            nums[slot] = v;
        }
        if nums[1] + nums[2] != nums[0] {
            return Err(format!(
                "tenants[{i}] (`{id}`): hits + misses != queries ({} + {} != {})",
                nums[1], nums[2], nums[0]
            ));
        }
    }
    Ok(())
}

/// Validate the `lints` member written by `lint_gate`.
fn check_lints(lints: &Json) -> Result<(), String> {
    for key in ["schema_version", "files_scanned", "allowlist_entries"] {
        let v = lints
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("lints: missing number `{key}`"))?;
        if v < 0.0 {
            return Err(format!("lints: negative `{key}`"));
        }
    }
    if lints.get("files_scanned").and_then(Json::as_f64) == Some(0.0) {
        return Err("lints: scanned zero files".to_string());
    }
    let rules = lints
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("lints: missing array `rules`")?;
    if rules.is_empty() {
        return Err("lints: empty rule catalog".to_string());
    }
    for (i, rule) in rules.iter().enumerate() {
        for key in ["code", "name"] {
            let s = rule
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("lints.rules[{i}]: missing string `{key}`"))?;
            if s.is_empty() {
                return Err(format!("lints.rules[{i}]: empty `{key}`"));
            }
        }
        let findings = rule
            .get("findings")
            .and_then(Json::as_f64)
            .ok_or(format!("lints.rules[{i}]: missing number `findings`"))?;
        let allowed = rule
            .get("allowlisted")
            .and_then(Json::as_f64)
            .ok_or(format!("lints.rules[{i}]: missing number `allowlisted`"))?;
        if findings < 0.0 || allowed < 0.0 || allowed > findings {
            return Err(format!(
                "lints.rules[{i}]: inconsistent counts (findings {findings}, allowlisted {allowed})"
            ));
        }
    }
    let violations = lints
        .get("violations")
        .and_then(Json::as_arr)
        .ok_or("lints: missing array `violations`")?;
    if !violations.is_empty() {
        return Err(format!(
            "lints: {} violations in a committed report — lint_gate should have failed",
            violations.len()
        ));
    }
    Ok(())
}

/// Validate the `corpus` member written by `corpus_gate`.
fn check_corpus(corpus: &Json) -> Result<(), String> {
    for key in [
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
    ] {
        let v = corpus
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("corpus: missing number `{key}`"))?;
        if v < 0.0 {
            return Err(format!("corpus: negative `{key}`"));
        }
    }
    if corpus.get("pairs").and_then(Json::as_f64) == Some(0.0) {
        return Err("corpus: zero pairs emitted".to_string());
    }
    let dedup_rate = corpus
        .get("dedup_rate")
        .and_then(Json::as_f64)
        .ok_or("corpus: missing number `dedup_rate`")?;
    if !(0.0..=1.0).contains(&dedup_rate) {
        return Err(format!("corpus: dedup_rate {dedup_rate} outside [0, 1]"));
    }
    let rejected = corpus
        .get("analyzer_rejected")
        .and_then(Json::as_f64)
        .ok_or("corpus: missing number `analyzer_rejected`")?;
    if rejected != 0.0 {
        return Err(format!(
            "corpus: {rejected} analyzer rejects in a committed report — corpus_gate should have failed"
        ));
    }
    let digest = corpus
        .get("digest")
        .and_then(Json::as_str)
        .ok_or("corpus: missing string `digest`")?;
    if digest.is_empty() {
        return Err("corpus: empty `digest`".to_string());
    }
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
        b.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("benchmarks[{i}]: missing string `name`"))?;
        for key in [
            "median_ns",
            "min_ns",
            "max_ns",
            "iters_per_sample",
            "samples",
        ] {
            let v = b
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("benchmarks[{i}]: missing number `{key}`"))?;
            if v < 0.0 {
                return Err(format!("benchmarks[{i}]: negative `{key}`"));
            }
        }
    }
    match doc.get("load") {
        Some(load) => check_load(load)?,
        None if group == "serve" => {
            return Err("group `serve` requires a `load` member (run load_gate)".to_string())
        }
        None => {}
    }
    match doc.get("tenants") {
        Some(tenants) => check_tenants(tenants)?,
        None if group == "tenant" => {
            return Err("group `tenant` requires a `tenants` member (run tenant_gate)".to_string())
        }
        None => {}
    }
    match doc.get("lints") {
        Some(lints) => check_lints(lints)?,
        None if group == "lint" => {
            return Err("group `lint` requires a `lints` member (run lint_gate)".to_string())
        }
        None => {}
    }
    match doc.get("corpus") {
        Some(corpus) => check_corpus(corpus)?,
        None if group == "corpus" => {
            return Err("group `corpus` requires a `corpus` member (run corpus_gate)".to_string())
        }
        None => {}
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
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[bench_json_lint] FAIL {path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("[bench_json_lint] FAIL {path}: does not parse: {e}");
                failed = true;
                continue;
            }
        };
        match check_report(&doc) {
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
