//! Bench-report regression comparison: the pure logic behind
//! `bench_json_lint --compare`.
//!
//! A compare run diffs a *fresh* bench report against the committed
//! *baseline* (`BENCH_*.json`) benchmark by benchmark. Medians may
//! drift — quick-mode runs on shared CI hardware are noisy — so each
//! ratio is judged against a symmetric tolerance band (default ×3,
//! env-tunable via `DBPAL_BENCH_TOLERANCE`): a fresh median more than
//! the band above its baseline is a regression, more than the band
//! below means the baseline itself is stale and must be regenerated.
//! Independent of the band, thread-scaling pairs must not invert: the
//! 4-thread variant of a group's scaling benchmark must finish within
//! `DBPAL_BENCH_PARITY` (default ×1.05) of its 1-thread twin — the
//! persistent worker pool's whole point is that fan-out never costs
//! more than running inline.

use dbpal_util::Json;

/// Default symmetric tolerance band for median drift (either direction).
pub const DEFAULT_TOLERANCE: f64 = 3.0;

/// Default ceiling on `threads4 / threads1` for the scaling pairs.
pub const DEFAULT_PARITY: f64 = 1.05;

/// Per-group default tolerance bands overriding [`DEFAULT_TOLERANCE`].
/// The corpus group's benchmarks run whole multi-round streaming passes
/// whose wall time swings more with CI load than the single-stage
/// microbenches, so it gets a wider band.
pub const GROUP_TOLERANCE: &[(&str, f64)] = &[("corpus", 4.0)];

/// The thread-scaling pairs enforced per group: `(group, many-worker
/// benchmark, one-worker benchmark)`. Both members are *required* in
/// the named group's fresh report — a renamed benchmark must not
/// silently drop the invariant.
pub const PARITY_PAIRS: &[(&str, &str, &str)] = &[(
    "pipeline",
    "pipeline/generate_threads4",
    "pipeline/generate_threads1",
)];

/// `DBPAL_BENCH_PARITY`, or [`DEFAULT_PARITY`]. Values ≤ 1 rejected.
pub fn parity_from_env() -> Result<f64, String> {
    band_from_env("DBPAL_BENCH_PARITY", DEFAULT_PARITY)
}

/// The tolerance band for one group, resolved in precedence order:
/// `DBPAL_BENCH_TOLERANCE_<GROUP>` (group name uppercased), then the
/// global `DBPAL_BENCH_TOLERANCE`, then the group's [`GROUP_TOLERANCE`]
/// row, then [`DEFAULT_TOLERANCE`].
pub fn tolerance_for_group(group: &str) -> Result<f64, String> {
    let default = GROUP_TOLERANCE
        .iter()
        .find(|(g, _)| *g == group)
        .map(|&(_, t)| t)
        .unwrap_or(DEFAULT_TOLERANCE);
    let group_var = format!("DBPAL_BENCH_TOLERANCE_{}", group.to_uppercase());
    if std::env::var(&group_var).is_ok() {
        return band_from_env(&group_var, default);
    }
    band_from_env("DBPAL_BENCH_TOLERANCE", default)
}

fn band_from_env(var: &str, default: f64) -> Result<f64, String> {
    match std::env::var(var) {
        Err(_) => Ok(default),
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(v) if v > 1.0 && v.is_finite() => Ok(v),
            _ => Err(format!("{var}=`{raw}` is not a finite number > 1")),
        },
    }
}

/// Outcome of one baseline-vs-fresh comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// The (shared) group name.
    pub group: String,
    /// Benchmarks whose medians were compared.
    pub compared: usize,
    /// Hard failures: out-of-band drift, missing benchmarks, parity
    /// inversions, group mismatch.
    pub errors: Vec<String>,
    /// Non-fatal notes: benchmarks present only in the fresh report.
    pub warnings: Vec<String>,
}

impl CompareReport {
    /// Whether the comparison passed.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Extract `(name, median_ns)` rows from a parsed bench report.
fn medians(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let benchmarks = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("missing array `benchmarks`")?;
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("benchmarks[{i}]: missing string `name`"))?;
            let median = b
                .get("median_ns")
                .and_then(Json::as_f64)
                .ok_or(format!("benchmarks[{i}]: missing number `median_ns`"))?;
            Ok((name.to_string(), median))
        })
        .collect()
}

fn group_of(doc: &Json) -> Result<String, String> {
    Ok(doc
        .get("group")
        .and_then(Json::as_str)
        .ok_or("missing string `group`")?
        .to_string())
}

/// Compare a fresh report against its committed baseline.
///
/// `tolerance` bounds per-benchmark median drift in both directions;
/// `parity` bounds the `threads4 / threads1` ratio of the group's
/// [`PARITY_PAIRS`] in the *fresh* report. Fails (via `Err`) only on
/// malformed documents; measured violations land in
/// [`CompareReport::errors`].
pub fn compare_reports(
    base: &Json,
    fresh: &Json,
    tolerance: f64,
    parity: f64,
) -> Result<CompareReport, String> {
    let mut report = CompareReport {
        group: group_of(fresh)?,
        ..CompareReport::default()
    };
    let base_group = group_of(base)?;
    if base_group != report.group {
        report.errors.push(format!(
            "group mismatch: baseline `{base_group}` vs fresh `{}`",
            report.group
        ));
        return Ok(report);
    }
    let base_rows = medians(base).map_err(|e| format!("baseline: {e}"))?;
    let fresh_rows = medians(fresh).map_err(|e| format!("fresh: {e}"))?;

    for (name, base_med) in &base_rows {
        let Some((_, fresh_med)) = fresh_rows.iter().find(|(n, _)| n == name) else {
            report.errors.push(format!(
                "`{name}`: present in baseline, missing from fresh run"
            ));
            continue;
        };
        report.compared += 1;
        // Zero medians cannot anchor a ratio; a sub-resolution timing
        // on either side only fails if the other side is also slow
        // enough to measure, which the band then judges against 1 ns.
        let base_med = base_med.max(1.0);
        let fresh_med = fresh_med.max(1.0);
        if fresh_med > base_med * tolerance {
            report.errors.push(format!(
                "`{name}`: fresh median {:.0} ns is {:.2}x the baseline {:.0} ns (band x{tolerance})",
                fresh_med,
                fresh_med / base_med,
                base_med
            ));
        } else if base_med > fresh_med * tolerance {
            report.errors.push(format!(
                "`{name}`: fresh median {:.0} ns is {:.2}x *below* the baseline {:.0} ns \
                 (band x{tolerance}) — regenerate the committed baseline",
                fresh_med,
                base_med / fresh_med,
                base_med
            ));
        }
    }
    for (name, _) in &fresh_rows {
        if !base_rows.iter().any(|(n, _)| n == name) {
            report.warnings.push(format!(
                "`{name}`: new benchmark with no committed baseline"
            ));
        }
    }

    for &(group, many, one) in PARITY_PAIRS {
        if group != report.group {
            continue;
        }
        let find = |name: &str| fresh_rows.iter().find(|(n, _)| n == name).map(|(_, m)| *m);
        match (find(many), find(one)) {
            (Some(m_many), Some(m_one)) => {
                if m_many > m_one.max(1.0) * parity {
                    report.errors.push(format!(
                        "`{many}` ({m_many:.0} ns) exceeds `{one}` ({m_one:.0} ns) x{parity} — \
                         the pooled fan-out is costing wall-clock over the 1-worker run"
                    ));
                }
            }
            _ => {
                report.errors.push(format!(
                    "group `{group}` must carry both `{many}` and `{one}` for the parity check"
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(group: &str, rows: &[(&str, f64)]) -> Json {
        Json::Obj(vec![
            ("group".into(), Json::str(group)),
            (
                "benchmarks".into(),
                Json::Arr(
                    rows.iter()
                        .map(|(n, m)| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(*n)),
                                ("median_ns".into(), Json::Num(*m)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    // A group with no PARITY_PAIRS entry, so pure band logic is isolated.
    fn runtime(rows: &[(&str, f64)]) -> Json {
        doc("runtime", rows)
    }

    #[test]
    fn within_band_passes() {
        let base = runtime(&[("a", 1000.0), ("b", 500.0)]);
        let fresh = runtime(&[("a", 2500.0), ("b", 200.0)]);
        let r = compare_reports(&base, &fresh, 3.0, DEFAULT_PARITY).unwrap();
        assert!(r.ok(), "errors: {:?}", r.errors);
        assert_eq!(r.compared, 2);
    }

    #[test]
    fn out_of_band_fails_both_directions() {
        let base = runtime(&[("slow", 1000.0), ("fast", 9000.0)]);
        let fresh = runtime(&[("slow", 3001.0), ("fast", 2999.0)]);
        let r = compare_reports(&base, &fresh, 3.0, DEFAULT_PARITY).unwrap();
        assert_eq!(r.errors.len(), 2, "errors: {:?}", r.errors);
        assert!(r.errors[0].contains("slow"));
        assert!(r.errors[1].contains("below"));
    }

    #[test]
    fn missing_benchmark_fails_new_benchmark_warns() {
        let base = runtime(&[("kept", 100.0), ("dropped", 100.0)]);
        let fresh = runtime(&[("kept", 100.0), ("added", 100.0)]);
        let r = compare_reports(&base, &fresh, 3.0, DEFAULT_PARITY).unwrap();
        assert_eq!(r.errors.len(), 1);
        assert!(r.errors[0].contains("dropped"));
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].contains("added"));
    }

    #[test]
    fn group_mismatch_fails() {
        let r = compare_reports(
            &doc("pipeline", &[]),
            &doc("serve", &[]),
            3.0,
            DEFAULT_PARITY,
        )
        .unwrap();
        assert!(!r.ok());
        assert!(r.errors[0].contains("group mismatch"));
    }

    #[test]
    fn parity_inversion_fails() {
        let rows = [
            ("pipeline/generate_threads1", 1000.0),
            ("pipeline/generate_threads4", 1100.0),
        ];
        let base = doc("pipeline", &rows);
        let fresh = doc("pipeline", &rows);
        let r = compare_reports(&base, &fresh, 3.0, 1.05).unwrap();
        assert_eq!(r.errors.len(), 1, "errors: {:?}", r.errors);
        assert!(r.errors[0].contains("generate_threads4"));
    }

    #[test]
    fn parity_within_bound_passes() {
        let rows = [
            ("pipeline/generate_threads1", 1000.0),
            ("pipeline/generate_threads4", 1040.0),
        ];
        let r =
            compare_reports(&doc("pipeline", &rows), &doc("pipeline", &rows), 3.0, 1.05).unwrap();
        assert!(r.ok(), "errors: {:?}", r.errors);
    }

    #[test]
    fn parity_pair_required_in_its_group() {
        let rows = [("pipeline/generate_threads1", 1000.0)];
        let r =
            compare_reports(&doc("pipeline", &rows), &doc("pipeline", &rows), 3.0, 1.05).unwrap();
        assert!(!r.ok());
        assert!(r.errors[0].contains("must carry both"));
    }

    #[test]
    fn env_band_parsing() {
        // Only the default paths here — env mutation is process-global,
        // so the parse edge cases go through band_from_env directly.
        assert_eq!(band_from_env("DBPAL_NO_SUCH_VAR", 3.0), Ok(3.0));
    }

    #[test]
    fn group_tolerance_defaults() {
        // With no env vars set, corpus resolves to its wider table row
        // and unknown groups to the global default.
        assert_eq!(tolerance_for_group("corpus"), Ok(4.0));
        assert_eq!(tolerance_for_group("pipeline"), Ok(DEFAULT_TOLERANCE));
    }
}
