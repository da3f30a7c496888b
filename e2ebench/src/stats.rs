//! Order statistics with the sample-size rules the benchmark reports by.

/// Minimum number of samples that must lie strictly beyond a tail
/// percentile before it is reported; below that, one outlier decides it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, if `n`
/// samples support it: `p` in `(0, 100]`, and above the median at least
/// [`MIN_BEYOND`] samples beyond the rank.
fn supported_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (p <= 50.0 || n - rank >= MIN_BEYOND).then_some(rank)
}

/// Nearest-rank percentile of `samples`: the value at 1-based rank
/// `ceil(p/100 · n)` of the sorted samples, or `None` when the sample
/// count does not support `p` (see [`MIN_BEYOND`]).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = supported_rank(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank - 1).copied()
}

/// The highest of p99, p98, p97, p95, p90, p75 that `n` samples
/// support, else the median (p99 needs 1000 samples).
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 98.0, 97.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| supported_rank(n, p).is_some())
        .unwrap_or(50.0)
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Completions per whole one-second window of a phase that ran for
/// `phase_s` seconds; `completions` holds `(seconds since phase start,
/// units completed)`. Only whole windows count, so a partial last
/// second cannot drag the figures down.
pub fn per_second_windows(completions: &[(f64, u64)], phase_s: f64) -> Vec<f64> {
    let windows = phase_s.floor().max(0.0) as usize;
    let mut counts = vec![0u64; windows];
    for &(t, units) in completions {
        if t >= 0.0 {
            if let Some(c) = counts.get_mut(t.floor() as usize) {
                *c += units;
            }
        }
    }
    counts.into_iter().map(|c| c as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_rule() {
        let s = one_to(1000);
        // rank ceil(0.99 · 1000) = 990, and exactly 10 samples lie beyond.
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 100.0 / 3.0), Some(334.0));
        // Input order does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(990.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&one_to(999), 99.0), None);
        assert_eq!(percentile(&one_to(200), 95.0), Some(190.0));
        assert_eq!(percentile(&one_to(199), 95.0), None);
        // The median of a single sample is still reported.
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&one_to(10), 0.0), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(480), 97.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_partial_window() {
        // 3.5 s phase: windows [0,1) [1,2) [2,3); the 3.2 s completion
        // falls in the partial fourth second and is dropped.
        let completions = [
            (0.1, 8),
            (0.9, 8),
            (1.5, 8),
            (2.0, 8),
            (2.4, 8),
            (2.99, 8),
            (3.2, 8),
        ];
        let w = per_second_windows(&completions, 3.5);
        assert_eq!(w, vec![16.0, 8.0, 24.0]);
        assert_eq!(median(&w), Some(16.0));
        // A stall that empties one window moves the median, not the mean.
        let stalled = per_second_windows(&[(0.5, 10), (2.5, 10), (3.5, 10)], 4.0);
        assert_eq!(stalled, vec![10.0, 0.0, 10.0, 10.0]);
        assert_eq!(median(&stalled), Some(10.0));
    }
}
