//! Hyperparameter optimization of the data-generation process.
//!
//! "In DBPal, we use a random search approach to automatically tune the
//! hyperparameters ϕ of the function Generate. For each candidate set of
//! parameters, the entire system pipeline, including data generation and
//! model training (labeled Generate(D, T, ϕ)), is completed and the
//! accuracy is returned." (paper §3.3)
//!
//! The module is generic over the evaluation function: callers supply a
//! closure that generates data for a candidate ϕ, trains their model, and
//! returns accuracy on the tuning workload T.

use crate::GenerationConfig;
use dbpal_util::Rng;

/// One trial of the search: a candidate ϕ and its measured accuracy.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The candidate configuration.
    pub config: GenerationConfig,
    /// Accuracy of the model trained on data generated with `config`.
    pub accuracy: f64,
}

/// Random search over [`GenerationConfig`] candidates (§3.3; the paper
/// samples 68 candidate sets for Figure 4).
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Number of candidate configurations to draw.
    pub trials: usize,
    /// RNG seed for candidate sampling.
    pub seed: u64,
}

impl RandomSearch {
    /// Create a random search with the given trial budget.
    pub fn new(trials: usize, seed: u64) -> Self {
        RandomSearch { trials, seed }
    }

    /// Run the search, invoking `generate` (the paper's
    /// `Generate(D, T, ϕ)`) for every sampled candidate.
    pub fn run(&self, mut generate: impl FnMut(&GenerationConfig) -> f64) -> Vec<TrialResult> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut results = Vec::with_capacity(self.trials);
        for _ in 0..self.trials {
            let config = GenerationConfig::sample(&mut rng);
            let accuracy = generate(&config);
            results.push(TrialResult { config, accuracy });
        }
        results
    }

    /// Parallel variant of [`RandomSearch::run`]: trials are independent
    /// (each runs the full generate → train → evaluate loop), so the
    /// sweep parallelizes perfectly across `threads` workers. The result
    /// order and contents are identical to the sequential run.
    pub fn run_parallel(
        &self,
        threads: usize,
        generate: impl Fn(&GenerationConfig) -> f64 + Sync,
    ) -> Vec<TrialResult> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let configs: Vec<GenerationConfig> = (0..self.trials)
            .map(|_| GenerationConfig::sample(&mut rng))
            .collect();
        let accuracies =
            dbpal_util::WorkerPool::global().map_indexed(&configs, threads, |_, c| generate(c));
        configs
            .into_iter()
            .zip(accuracies)
            .map(|(config, accuracy)| TrialResult { config, accuracy })
            .collect()
    }
}

/// Exhaustive grid search over a small explicit grid — the alternative
/// the paper contrasts with random search ("grid search ... searches the
/// specified subset of hyperparameters ... exhaustively").
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Values tried for `num_para`.
    pub num_para: Vec<usize>,
    /// Values tried for `rand_drop_p`.
    pub rand_drop_p: Vec<f64>,
    /// Values tried for `paraphrase_min_quality`.
    pub min_quality: Vec<f32>,
}

impl Default for GridSearch {
    fn default() -> Self {
        GridSearch {
            num_para: vec![0, 2, 4],
            rand_drop_p: vec![0.0, 0.3, 0.6],
            min_quality: vec![0.0, 0.5, 0.8],
        }
    }
}

impl GridSearch {
    /// Number of grid points.
    pub fn size(&self) -> usize {
        self.num_para.len() * self.rand_drop_p.len() * self.min_quality.len()
    }

    /// Run the exhaustive search from a base configuration.
    pub fn run(
        &self,
        base: &GenerationConfig,
        mut generate: impl FnMut(&GenerationConfig) -> f64,
    ) -> Vec<TrialResult> {
        let mut results = Vec::with_capacity(self.size());
        for &np in &self.num_para {
            for &dp in &self.rand_drop_p {
                for &mq in &self.min_quality {
                    let mut config = base.clone();
                    config.num_para = np;
                    config.rand_drop_p = dp;
                    config.paraphrase_min_quality = mq;
                    let accuracy = generate(&config);
                    results.push(TrialResult { config, accuracy });
                }
            }
        }
        results
    }
}

/// The best trial by accuracy, if any.
pub fn best(results: &[TrialResult]) -> Option<&TrialResult> {
    results
        .iter()
        .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
}

/// Summary statistics over trial accuracies: `(min, max, mean, stddev)`,
/// the numbers the paper reports for Figure 4 (worst 37.5%, best 55.5%,
/// mean 48.4%, σ 3.5%).
pub fn accuracy_stats(results: &[TrialResult]) -> (f64, f64, f64, f64) {
    if results.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let accs: Vec<f64> = results.iter().map(|r| r.accuracy).collect();
    let min = accs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    let var = accs.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / accs.len() as f64;
    (min, max, mean, var.sqrt())
}

/// Bucket accuracies into a histogram of `bins` equal-width bins over
/// `[min, max]` (Figure 4's rendering). Returns `(bin lower edge, count)`.
pub fn accuracy_histogram(results: &[TrialResult], bins: usize) -> Vec<(f64, usize)> {
    if results.is_empty() || bins == 0 {
        return Vec::new();
    }
    let (min, max, _, _) = accuracy_stats(results);
    let width = if max > min {
        (max - min) / bins as f64
    } else {
        1.0
    };
    let mut hist = vec![0usize; bins];
    for r in results {
        let mut b = ((r.accuracy - min) / width) as usize;
        if b >= bins {
            b = bins - 1;
        }
        hist[b] += 1;
    }
    hist.into_iter()
        .enumerate()
        .map(|(i, count)| (min + i as f64 * width, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic evaluation surface: prefers moderate paraphrasing and
    /// moderate dropout, like the real trade-off.
    fn surface(c: &GenerationConfig) -> f64 {
        let para = 1.0 - ((c.num_para as f64) - 3.0).abs() / 6.0;
        let drop = 1.0 - (c.rand_drop_p - 0.3).abs();
        (para + drop) / 2.0
    }

    #[test]
    fn random_search_runs_all_trials() {
        let search = RandomSearch::new(20, 42);
        let results = search.run(surface);
        assert_eq!(results.len(), 20);
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let a = RandomSearch::new(10, 7).run(surface);
        let b = RandomSearch::new(10, 7).run(surface);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.accuracy, y.accuracy);
        }
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let sequential = RandomSearch::new(12, 5).run(surface);
        let parallel = RandomSearch::new(12, 5).run_parallel(4, surface);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.config, b.config);
            assert!((a.accuracy - b.accuracy).abs() < 1e-12);
        }
    }

    #[test]
    fn best_finds_maximum() {
        let results = RandomSearch::new(30, 1).run(surface);
        let b = best(&results).unwrap();
        assert!(results.iter().all(|r| r.accuracy <= b.accuracy));
    }

    #[test]
    fn grid_search_covers_the_grid() {
        let grid = GridSearch::default();
        let base = GenerationConfig::default();
        let results = grid.run(&base, surface);
        assert_eq!(results.len(), grid.size());
        // All points distinct.
        let distinct: std::collections::HashSet<String> = results
            .iter()
            .map(|r| {
                format!(
                    "{}-{}-{}",
                    r.config.num_para, r.config.rand_drop_p, r.config.paraphrase_min_quality
                )
            })
            .collect();
        assert_eq!(distinct.len(), results.len());
    }

    #[test]
    fn stats_are_consistent() {
        let results = RandomSearch::new(50, 3).run(surface);
        let (min, max, mean, std) = accuracy_stats(&results);
        assert!(min <= mean && mean <= max);
        assert!(std >= 0.0);
    }

    #[test]
    fn histogram_counts_everything() {
        let results = RandomSearch::new(68, 4).run(surface);
        let hist = accuracy_histogram(&results, 10);
        assert_eq!(hist.len(), 10);
        assert_eq!(hist.iter().map(|(_, c)| c).sum::<usize>(), 68);
    }

    #[test]
    fn empty_results_handled() {
        assert_eq!(accuracy_stats(&[]), (0.0, 0.0, 0.0, 0.0));
        assert!(accuracy_histogram(&[], 10).is_empty());
        assert!(best(&[]).is_none());
    }
}
