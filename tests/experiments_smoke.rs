//! Scaled-down runs of every paper experiment, asserting the result
//! *shapes* the paper reports (orderings, not absolute numbers).

use dbpal::benchsuite::eval::evaluate_spider;
use dbpal::benchsuite::{Configuration, GeoTuningExperiment, PatientsExperiment, SpiderExperiment};
use dbpal::core::{accuracy_stats, GenerationConfig};

#[test]
fn table2_shape_dbpal_beats_baseline() {
    let exp = SpiderExperiment::quick();
    let baseline = evaluate_spider(
        &exp.train_model(Configuration::Baseline),
        &exp.bench.test_examples,
    );
    let full = evaluate_spider(
        &exp.train_model(Configuration::DbpalFull),
        &exp.bench.test_examples,
    );
    assert!(
        full.overall.accuracy() > baseline.overall.accuracy(),
        "DBPal (Full) {} must beat baseline {}",
        full.overall,
        baseline.overall
    );
}

#[test]
fn table3_shape_dbpal_beats_baseline_on_patients() {
    let exp = PatientsExperiment::quick();
    let (_, baseline) = exp
        .patients
        .evaluate(&exp.train_model(Configuration::Baseline));
    let (per, full) = exp
        .patients
        .evaluate(&exp.train_model(Configuration::DbpalFull));
    assert!(
        full.accuracy() > baseline.accuracy() + 0.1,
        "DBPal (Full) {} must clearly beat baseline {}",
        full,
        baseline
    );
    // Naive is the easiest category for DBPal (its templates cover it
    // directly) — it must be at least as good as the overall accuracy.
    let naive = per[&dbpal::benchsuite::LinguisticCategory::Naive];
    assert!(
        naive.accuracy() >= full.accuracy() - 1e-9,
        "naive {} below overall {}",
        naive,
        full
    );
}

#[test]
fn table4_shape_dbpal_bucket_requires_dbpal_data() {
    let exp = SpiderExperiment::quick();
    let results = exp.run_table4();
    let baseline = &results[&Configuration::Baseline];
    // Patterns only DBPal covers are unanswerable without DBPal data.
    if let Some(outcome) = baseline.get(&dbpal::benchsuite::CoverageBucket::DbpalOnly) {
        assert_eq!(
            outcome.correct, 0,
            "baseline cannot know DBPal-only patterns"
        );
    }
}

#[test]
fn fig3_shape_more_templates_help() {
    let exp = PatientsExperiment::quick();
    let results = exp.run_fig3(&[0.0, 1.0]);
    let zero = results[0].1;
    let full = results[1].1;
    assert!(
        full > zero + 0.05,
        "full templates {full:.3} must clearly beat none {zero:.3}"
    );
}

#[test]
fn fig4_shape_parameters_matter() {
    // A small random search must show real spread across configurations
    // (the paper's Figure 4 point: ϕ materially affects accuracy).
    let exp = GeoTuningExperiment::new();
    let results = exp.run(4, 9, 1);
    let (min, max, mean, _std) = accuracy_stats(&results);
    assert!(max > 0.0, "all trials scored zero");
    assert!(mean > 0.0 && mean <= 1.0);
    assert!(max >= min);
}

#[test]
fn generate_function_signature_matches_paper() {
    // Acc = Generate(D, T, phi): one trial end to end.
    let exp = GeoTuningExperiment::new();
    let acc = exp.generate(&GenerationConfig::small());
    assert!((0.0..=1.0).contains(&acc));
}
