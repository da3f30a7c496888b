//! End-to-end integration tests spanning every crate: schema → pipeline →
//! model → runtime → engine, exercising the lifecycle of paper Figure 1.

use dbpal::benchsuite::PatientsBenchmark;
use dbpal::core::{
    GenerationConfig, Provenance, TrainOptions, TrainingCorpus, TrainingPair, TranslationModel,
};
use dbpal::engine::Database;
use dbpal::model::{RetrievalModel, SketchModel};
use dbpal::nlp::Lemmatizer;
use dbpal::runtime::Nlidb;
use dbpal::schema::{Schema, SchemaBuilder, SemanticDomain, SqlType, Value};
use dbpal::util::{Rng, SliceRandom};

fn hospital_schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.synonym("people")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("dname", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .unwrap()
}

fn hospital_db() -> Database {
    let mut db = Database::new(hospital_schema());
    for (n, a, d, doc) in [
        ("Ann", 80, "influenza", 1),
        ("Bob", 35, "asthma", 1),
        ("Cat", 64, "influenza", 2),
        ("Dan", 80, "diabetes", 2),
        ("Eve", 12, "asthma", 1),
    ] {
        db.insert(
            "patients",
            vec![n.into(), Value::Int(a), d.into(), Value::Int(doc)],
        )
        .unwrap();
    }
    for (id, n) in [(1, "House"), (2, "Grey")] {
        db.insert("doctors", vec![Value::Int(id), n.into()])
            .unwrap();
    }
    db
}

fn bootstrapped_nlidb() -> Nlidb<SketchModel> {
    let db = hospital_db();
    let model = SketchModel::new(vec![db.schema().clone()]);
    let mut nlidb = Nlidb::new(db, model);
    nlidb.bootstrap(
        GenerationConfig {
            size_slot_fills: 15,
            ..GenerationConfig::default()
        },
        &TrainOptions {
            epochs: 6,
            seed: 5,
            max_pairs: None,
        },
    );
    nlidb
}

#[test]
fn paper_figure1_lifecycle() {
    // "Show me the name of all patients with age 80": anonymize,
    // translate, post-process, execute, return a table.
    let nlidb = bootstrapped_nlidb();
    let resp = nlidb
        .answer("Show me the name of all patients with age 80")
        .expect("answerable");
    assert_eq!(
        resp.anonymized_nl,
        "Show me the name of all patients with age @AGE"
    );
    let names: Vec<String> = resp
        .result
        .rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    assert_eq!(resp.result.row_count(), 2, "sql was {}", resp.final_sql);
    assert!(names.contains(&"Ann".to_string()));
    assert!(names.contains(&"Dan".to_string()));
}

#[test]
fn string_constants_and_counts() {
    let nlidb = bootstrapped_nlidb();
    let resp = nlidb
        .answer("How many patients have influenza?")
        .expect("answerable");
    assert_eq!(
        resp.result.rows()[0][0],
        Value::Int(2),
        "sql: {}",
        resp.final_sql
    );
}

#[test]
fn aggregates_over_schema_vocabulary() {
    let nlidb = bootstrapped_nlidb();
    let resp = nlidb
        .answer("What is the average age of patients?")
        .expect("answerable");
    assert_eq!(
        resp.result.rows()[0][0],
        Value::Float((80 + 35 + 64 + 80 + 12) as f64 / 5.0),
        "sql: {}",
        resp.final_sql
    );
}

#[test]
fn synonym_questions_answered() {
    // "illness" is a schema annotation; it reaches the model through the
    // generated training data.
    let nlidb = bootstrapped_nlidb();
    let resp = nlidb
        .answer("How many patients have asthma?")
        .expect("answerable");
    assert_eq!(
        resp.result.rows()[0][0],
        Value::Int(2),
        "sql: {}",
        resp.final_sql
    );
}

#[test]
fn data_updates_need_no_retraining() {
    // Placeholders decouple the model from database content (§3.1).
    // A brand-new disease value appears...
    let mut db2 = hospital_db();
    db2.insert(
        "patients",
        vec![
            "Finn".into(),
            Value::Int(50),
            "malaria".into(),
            Value::Int(1),
        ],
    )
    .unwrap();
    // Build the NLIDB around the updated data; its value index makes
    // the new constant anonymizable without retraining the model.
    let mut nlidb = Nlidb::new(db2, SketchModel::new(vec![hospital_schema()]));
    nlidb.bootstrap(GenerationConfig::small(), &TrainOptions::fast());
    let resp = nlidb
        .answer("How many patients have malaria?")
        .expect("answerable");
    assert_eq!(
        resp.result.rows()[0][0],
        Value::Int(1),
        "sql: {}",
        resp.final_sql
    );
}

#[test]
fn pluggable_model_swap() {
    // The same pipeline trains a completely different model family.
    let db = hospital_db();
    let mut nlidb = Nlidb::new(db, RetrievalModel::new());
    nlidb.bootstrap(GenerationConfig::small(), &TrainOptions::default());
    // Retrieval can at least answer a question phrased like its training
    // data.
    let resp = nlidb.answer("show the name of all patients");
    assert!(resp.is_ok(), "retrieval model failed: {:?}", resp.err());
}

#[test]
fn retrieval_answers_do_not_depend_on_earlier_queries() {
    // A retrieval model that has answered every other query gives each
    // query the answer a freshly trained model gives it as its first.
    // Queries: the ParaphraseBench lemma lists (the even-numbered ones
    // train the model) and seeded lists that mix their lemmas with a
    // shared pool of words the corpus lacks.
    let bench = PatientsBenchmark::new();
    let lemmatizer = Lemmatizer::new();
    let mut queries: Vec<Vec<String>> = bench
        .queries()
        .iter()
        .map(|q| lemmatizer.lemmatize_sentence(&q.nl))
        .collect();
    let pairs = bench
        .queries()
        .iter()
        .zip(&queries)
        .step_by(2)
        .map(|(q, lemmas)| {
            let mut pair = TrainingPair::new(&q.nl, q.gold.clone(), "bench", Provenance::Manual);
            pair.nl_lemmas = lemmas.clone();
            pair
        })
        .collect();
    let corpus = TrainingCorpus::from_pairs(pairs);
    let known: Vec<String> = queries.iter().flatten().cloned().collect();
    let novel: Vec<String> = (0..16).map(|i| format!("novel{i}")).collect();
    let mut rng = Rng::seed_from_u64(0x4E7);
    for _ in 0..64 {
        let len = rng.gen_range(1usize..12);
        let query = (0..len)
            .map(|_| {
                let pool = if rng.gen_bool(0.5) { &known } else { &novel };
                pool.choose(&mut rng).unwrap().clone()
            })
            .collect();
        queries.push(query);
    }

    let trained = || {
        let mut model = RetrievalModel::new();
        model.train(&corpus, &TrainOptions::default());
        model
    };
    let warm = trained();
    for query in &queries {
        warm.translate(query);
    }
    for query in &queries {
        assert_eq!(
            warm.translate(query),
            trained().translate(query),
            "answer to {query:?} depends on earlier queries"
        );
    }
}

#[test]
fn unanswerable_is_an_error_not_a_panic() {
    let nlidb = bootstrapped_nlidb();
    // Gibberish may translate to *something* (the model is forgiving) but
    // must never panic; if it fails it fails with TranslationFailed.
    let _ = nlidb.answer("colorless green ideas sleep furiously");
}

#[test]
fn lemmatized_variants_answered_identically() {
    let nlidb = bootstrapped_nlidb();
    let a = nlidb.answer("Show the names of all patients with age 80");
    let b = nlidb.answer("Showing the name of all patients with age 80");
    if let (Ok(a), Ok(b)) = (a, b) {
        assert!(a.result.rows_equal_unordered(&b.result));
    }
}
