//! Every seed template in the catalog must instantiate at least once
//! under the default configuration on a join-capable schema. A template
//! that never fires is dead weight in the catalog — or a regression in
//! the generator's class coverage — and this test turns either into a
//! red build via the corpus's per-template counts.

use dbpal_core::{templates::catalog, GenerationConfig, TrainingPipeline};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use std::collections::BTreeMap;

/// Two tables plus a foreign key, so join and nested templates have a
/// real path to instantiate (the single-table Patients schema cannot
/// exercise them).
fn hospital_schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.synonym("people")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                .column_with("length_of_stay", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Duration)
                })
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("name", SqlType::Text)
                .column("specialty", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .unwrap()
}

#[test]
fn every_catalog_template_instantiates_at_least_once() {
    let config = GenerationConfig::default();
    let (corpus, report) = TrainingPipeline::new(config).generate_with_report(&hospital_schema());
    report.check_consistency().unwrap();

    // Pairs are tagged with the template id plus an optional `+group`
    // suffix for grouped instantiations; fold those back onto the base id.
    let counts = corpus.template_counts();
    let mut by_template: BTreeMap<&str, usize> = BTreeMap::new();
    for (id, n) in &counts {
        *by_template
            .entry(id.strip_suffix("+group").unwrap_or(id))
            .or_insert(0) += n;
    }

    let missing: Vec<String> = catalog()
        .iter()
        .filter(|t| by_template.get(t.id.as_str()).copied().unwrap_or(0) == 0)
        .map(|t| t.id.clone())
        .collect();
    assert!(
        missing.is_empty(),
        "{} of {} templates never instantiated under the default config: {missing:?}",
        missing.len(),
        catalog().len()
    );
}
