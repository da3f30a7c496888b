//! Microbenchmarks for the runtime phase: anonymization, join-path
//! inference, translation, and execution (`dbpal_util::bench` harness).
//!
//! Run with `cargo bench` for full measurement, or `cargo bench --
//! --quick` for the quick profile.

use dbpal_core::{GenerationConfig, TrainOptions, TrainingPipeline, TranslationModel};
use dbpal_engine::Database;
use dbpal_model::SketchModel;
use dbpal_nlp::Lemmatizer;
use dbpal_runtime::{ParameterHandler, PostProcessor, ValueIndex};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType, Value};
use dbpal_util::bench::{black_box, Config, Harness};

fn schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column("disease", SqlType::Text)
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("name", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .unwrap()
}

fn database() -> Database {
    let mut db = Database::new(schema());
    for i in 0..500i64 {
        db.insert(
            "patients",
            vec![
                Value::Text(format!("patient{i}")),
                Value::Int(20 + i % 70),
                Value::Text(["influenza", "asthma", "diabetes"][(i % 3) as usize].into()),
                Value::Int(1 + i % 10),
            ],
        )
        .unwrap();
    }
    for i in 1..=10i64 {
        db.insert(
            "doctors",
            vec![Value::Int(i), Value::Text(format!("doc{i}"))],
        )
        .unwrap();
    }
    db
}

fn main() {
    let mut h = Harness::with_config("runtime", Config::from_args());

    let db = database();
    let index = ValueIndex::build(&db);
    let handler = ParameterHandler::new(db.schema(), &index);
    h.bench("runtime/anonymize", || {
        black_box(handler.anonymize("show the names of patients with influenza older than 50"))
    });

    let s = schema();
    let post = PostProcessor::new(&s);
    let q =
        dbpal_sql::parse_query("SELECT AVG(patients.age) FROM @JOIN WHERE doctors.name = 'doc1'")
            .unwrap();
    h.bench("runtime/expand_join", || {
        black_box(post.process(&q, &[]).unwrap())
    });

    let pipeline = TrainingPipeline::new(GenerationConfig::small());
    let corpus = pipeline.generate(&s);
    let mut model = SketchModel::new(vec![s.clone()]);
    model.train(
        &corpus,
        &TrainOptions {
            epochs: 3,
            seed: 1,
            max_pairs: Some(2000),
            verbose: false,
        },
    );
    let lem = Lemmatizer::new();
    let lemmas = lem.lemmatize_sentence("show the name of all patients with age @AGE");
    h.bench("runtime/translate_sketch", || {
        black_box(model.translate(&lemmas))
    });

    let gq = dbpal_sql::parse_query(
        "SELECT disease, AVG(age) FROM patients WHERE age > 30 GROUP BY disease",
    )
    .unwrap();
    h.bench("engine/group_by_500_rows", || {
        black_box(db.execute(&gq).unwrap().row_count())
    });
    let join = dbpal_sql::parse_query(
        "SELECT COUNT(*) FROM patients, doctors WHERE patients.doctor_id = doctors.id",
    )
    .unwrap();
    h.bench("engine/hash_join_500x10", || {
        black_box(db.execute(&join).unwrap().row_count())
    });

    h.finish();
}
