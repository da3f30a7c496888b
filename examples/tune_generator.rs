//! Hyperparameter tuning of the data generator (paper §3.3).
//!
//! Runs a small random search over the generation parameters ϕ against
//! the GeoQuery-like tuning workload and prints the accuracy
//! distribution — a scaled-down Figure 4.
//!
//! Run with: `cargo run --release --example tune_generator`

use dbpal::benchsuite::GeoTuningExperiment;
use dbpal::core::{accuracy_histogram, accuracy_stats, best};

fn main() {
    let trials = 12;
    let exp = GeoTuningExperiment::new();
    println!(
        "tuning against the GeoQuery-like workload ({} pairs); {trials} random trials",
        exp.geo.examples().len()
    );

    let results = exp.run(trials, 42, 1);
    for (i, trial) in results.iter().enumerate() {
        println!(
            "  trial {i:>2}: acc {:.3}  (num_para={}, rand_drop_p={:.2}, min_quality={:.2}, slot_fills={})",
            trial.accuracy,
            trial.config.num_para,
            trial.config.rand_drop_p,
            trial.config.paraphrase_min_quality,
            trial.config.size_slot_fills,
        );
    }

    let (min, max, mean, std) = accuracy_stats(&results);
    println!("\nworst {min:.3}, best {max:.3}, mean {mean:.3}, stddev {std:.3}");
    println!("\nhistogram:");
    for (edge, count) in accuracy_histogram(&results, 6) {
        println!("  {edge:.3} | {}", "#".repeat(count * 4));
    }
    if let Some(b) = best(&results) {
        println!(
            "\nbest ϕ: num_para={}, size_para={}, rand_drop_p={:.2}, min_quality={:.2}",
            b.config.num_para,
            b.config.size_para,
            b.config.rand_drop_p,
            b.config.paraphrase_min_quality
        );
    }
}
