//! Reproduce **Figure 4**: histogram of test accuracy over randomly
//! sampled data-generation hyperparameter configurations (paper §6.3.3:
//! 68 random sets, tuned against the GeoQuery workload; worst 0.375,
//! best 0.555, mean 0.484, sigma 0.035 in the paper).
//!
//! Run with `--quick` to sample fewer configurations.

use dbpal_bench::render_histogram;
use dbpal_benchsuite::GeoTuningExperiment;
use dbpal_core::{accuracy_histogram, accuracy_stats, best};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials = if quick { 8 } else { 68 };
    let exp = GeoTuningExperiment::new();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    eprintln!(
        "[fig4] running {trials} random-search trials over the generator parameters ({threads} threads)"
    );
    let results = exp.run(trials, 0x68, threads);

    let (min, max, mean, std) = accuracy_stats(&results);
    println!("Figure 4: Histogram of Test Accuracy for Random Parameter Configurations\n");
    println!(
        "{}",
        render_histogram(&accuracy_histogram(&results, 10), 40)
    );
    println!("trials: {trials}");
    println!("worst:  {min:.3}");
    println!("best:   {max:.3}");
    println!("mean:   {mean:.3}");
    println!("stddev: {std:.3}");
    if let Some(b) = best(&results) {
        println!("\nbest configuration: {:#?}", b.config);
    }
}
