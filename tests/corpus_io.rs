//! Integration tests for corpus interchange and the manual-data
//! complement (paper §1: manually curated data "can still be used to
//! complement our proposed data generation pipeline").

use dbpal::core::{
    corpus_from_json, corpus_to_json, manual_corpus_from_tsv, GenerationConfig, Provenance,
    TrainOptions, TrainingPipeline, TranslationModel,
};
use dbpal::model::SketchModel;
use dbpal::nlp::Lemmatizer;
use dbpal::schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};

fn schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column("disease", SqlType::Text)
        })
        .build()
        .unwrap()
}

#[test]
fn generated_corpus_survives_json_round_trip() {
    let pipeline = TrainingPipeline::new(GenerationConfig::small());
    let corpus = pipeline.generate(&schema());
    let json = corpus_to_json(&corpus).unwrap();
    let back = corpus_from_json(&json).unwrap();
    assert_eq!(back.len(), corpus.len());
    // Full fidelity: every field of every pair survives the trip.
    for (a, b) in corpus.pairs().iter().zip(back.pairs()) {
        assert_eq!(a.nl, b.nl);
        assert_eq!(a.nl_lemmas, b.nl_lemmas);
        assert_eq!(a.sql, b.sql);
        assert_eq!(a.template_id, b.template_id);
        assert_eq!(a.provenance, b.provenance);
    }
    // Training on the re-imported corpus behaves identically.
    let opts = TrainOptions::fast();
    let mut a = SketchModel::new(vec![schema()]);
    a.train(&corpus, &opts);
    let mut b = SketchModel::new(vec![schema()]);
    b.train(&back, &opts);
    let lem = Lemmatizer::new();
    let q = lem.lemmatize_sentence("show the name of all patients with age @AGE");
    assert_eq!(
        a.translate(&q).map(|q| q.to_string()),
        b.translate(&q).map(|q| q.to_string())
    );
}

#[test]
fn manual_data_complements_the_pipeline() {
    // A question style the templates never produce...
    let exotic_nl = "yo dbpal gimme the patient count pronto";
    let tsv = format!("{exotic_nl}\tSELECT COUNT(*) FROM patients\n");
    let manual = manual_corpus_from_tsv(&tsv).unwrap();
    assert_eq!(manual.pairs()[0].provenance, Provenance::Manual);

    let pipeline = TrainingPipeline::new(GenerationConfig::small());
    let mut corpus = pipeline.generate(&schema());
    corpus.extend(manual);

    let mut model = SketchModel::new(vec![schema()]);
    model.train(
        &corpus,
        &TrainOptions {
            epochs: 6,
            seed: 3,
            max_pairs: None,
        },
    );
    let lem = Lemmatizer::new();
    let pred = model
        .translate(&lem.lemmatize_sentence(exotic_nl))
        .expect("manual pair learned");
    assert!(pred.to_string().contains("COUNT"), "got {pred}");
}
