//! The end-to-end NLIDB facade (paper Figure 1).

use crate::{Anonymized, ParameterHandler, PostProcessor, RuntimeError, ValueIndex};
use dbpal_core::{GenerationConfig, TrainOptions, TrainingPipeline, TranslationModel};
use dbpal_engine::{Database, ResultSet};
use dbpal_nlp::{ComparativeDictionary, Lemmatizer, TokenScratch};
use dbpal_sql::Query;
use dbpal_util::intern::{Sym, Vocab};

/// The answer to an NL question: the SQL that was executed and its result.
#[derive(Debug, Clone)]
pub struct NlidbResponse {
    /// The anonymized NL query after pre-processing.
    pub anonymized_nl: String,
    /// The model's raw SQL (with placeholders).
    pub translated_sql: Query,
    /// The executed SQL after post-processing.
    pub final_sql: Query,
    /// The tabular result.
    pub result: ResultSet,
}

/// A natural-language interface over one database, backed by any
/// pluggable translation model.
pub struct Nlidb<M: TranslationModel> {
    db: Database,
    model: M,
    index: ValueIndex,
    lemmatizer: Lemmatizer,
    comparatives: ComparativeDictionary,
}

impl<M: TranslationModel> Nlidb<M> {
    /// Wrap a database and an (untrained) model.
    pub fn new(db: Database, model: M) -> Self {
        let index = ValueIndex::build(&db);
        Nlidb {
            db,
            model,
            index,
            lemmatizer: Lemmatizer::new(),
            comparatives: ComparativeDictionary::new(),
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The underlying model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Bootstrap the NLIDB: generate synthetic training data for this
    /// database's schema with DBPal's pipeline and train the model on it.
    /// No manually crafted training data is required (paper §1).
    pub fn bootstrap(&mut self, config: GenerationConfig, opts: &TrainOptions) {
        let pipeline = TrainingPipeline::new(config);
        let corpus = pipeline.generate(self.db.schema());
        self.model.train(&corpus, opts);
    }

    /// Swap in a different database (same or different content) and
    /// rebuild the value index. The model carries over untouched —
    /// placeholders keep it independent of the data (§3.1) — but any
    /// caller-side cache keyed on anonymized text must be invalidated,
    /// since anonymization itself depends on the new value index
    /// (`dbpal-serve` does this).
    pub fn replace_database(&mut self, db: Database) {
        self.db = db;
        self.index = ValueIndex::build(&self.db);
    }

    /// Stage 1 of pre-processing: anonymize constants against the value
    /// index (§4.1). Split out from [`Nlidb::preprocess`] so callers can
    /// time the stages independently. The handler borrows this NLIDB's
    /// lemmatizer and comparative dictionary, so per-query construction
    /// is free.
    pub fn anonymize(&self, question: &str) -> Anonymized {
        let handler = ParameterHandler::reusing(
            self.db.schema(),
            &self.index,
            &self.lemmatizer,
            &self.comparatives,
        );
        handler.anonymize(question)
    }

    /// Stage 2 of pre-processing: lemmatize an (anonymized) sentence.
    pub fn lemmatize(&self, text: &str) -> Vec<String> {
        self.lemmatizer.lemmatize_sentence(text)
    }

    /// Interned variant of [`Nlidb::lemmatize`]: appends one [`Sym`] per
    /// lemma to `syms` and the space-joined lemma text (the cache key)
    /// to `key`, reusing the caller's scratch buffers. Byte-identical to
    /// `lemmatize(text).join(" ")`. Kept for e2ebench's layer replay;
    /// the serving path calls [`Nlidb::lemmatize`].
    pub fn lemmatize_interned(
        &self,
        text: &str,
        vocab: &Vocab,
        scratch: &mut TokenScratch,
        syms: &mut Vec<Sym>,
        key: &mut String,
    ) {
        self.lemmatizer
            .lemmatize_interned(text, vocab, scratch, syms, key);
    }

    /// Pre-process an input question: anonymize constants and lemmatize.
    pub fn preprocess(&self, question: &str) -> (Anonymized, Vec<String>) {
        let anonymized = self.anonymize(question);
        let lemmas = self.lemmatize(&anonymized.text);
        (anonymized, lemmas)
    }

    /// Answer an NL question end to end.
    pub fn answer(&self, question: &str) -> Result<NlidbResponse, RuntimeError> {
        let (anonymized, lemmas) = self.preprocess(question);
        let translated = self
            .model
            .translate(&lemmas)
            .ok_or(RuntimeError::TranslationFailed)?;
        let post = PostProcessor::new(self.db.schema());
        let final_sql = post.process(&translated, &anonymized.bindings)?;
        let result = self.db.execute(&final_sql)?;
        Ok(NlidbResponse {
            anonymized_nl: anonymized.text,
            translated_sql: translated,
            final_sql,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_core::TrainingCorpus;
    use dbpal_schema::{SchemaBuilder, SemanticDomain, SqlType, Value};
    use dbpal_sql::parse_query;
    use std::collections::HashMap;

    /// A deterministic lookup model: lemmatized NL → SQL.
    struct Scripted {
        table: HashMap<String, Query>,
    }

    impl Scripted {
        fn new(entries: &[(&str, &str)]) -> Self {
            Scripted {
                table: entries
                    .iter()
                    .map(|(nl, sql)| (nl.to_string(), parse_query(sql).unwrap()))
                    .collect(),
            }
        }
    }

    impl TranslationModel for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn train(&mut self, _corpus: &TrainingCorpus, _opts: &TrainOptions) {}
        fn translate(&self, nl_lemmas: &[String]) -> Option<Query> {
            self.table.get(&nl_lemmas.join(" ")).cloned()
        }
    }

    fn hospital_db() -> Database {
        let schema = SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column("disease", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("dname", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (n, a, d, doc) in [
            ("Ann", 80, "influenza", 1),
            ("Bob", 35, "asthma", 1),
            ("Cat", 64, "influenza", 2),
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

    #[test]
    fn end_to_end_paper_lifecycle() {
        // Figure 1's lifecycle: NL in, tabular result out.
        let model = Scripted::new(&[(
            "show me the name of all patient with age @AGE",
            "SELECT name FROM patients WHERE age = @AGE",
        )]);
        let nlidb = Nlidb::new(hospital_db(), model);
        let resp = nlidb
            .answer("Show me the name of all patients with age 80")
            .unwrap();
        assert_eq!(
            resp.anonymized_nl,
            "Show me the name of all patients with age @AGE"
        );
        assert_eq!(resp.result.row_count(), 1);
        assert_eq!(resp.result.rows()[0][0], Value::Text("Ann".into()));
        assert!(resp.final_sql.to_string().contains("= 80"));
    }

    #[test]
    fn join_placeholder_expanded_and_executed() {
        let model = Scripted::new(&[(
            "what be the average age of patient of doctor @DNAME",
            "SELECT AVG(patients.age) FROM @JOIN WHERE doctors.dname = @DOCTORS.DNAME",
        )]);
        let nlidb = Nlidb::new(hospital_db(), model);
        let resp = nlidb
            .answer("What is the average age of patients of doctor House")
            .unwrap();
        assert_eq!(resp.result.rows()[0][0], Value::Float(57.5));
        assert!(!resp.final_sql.to_string().contains("@JOIN"));
    }

    #[test]
    fn string_constant_round_trip() {
        let model = Scripted::new(&[(
            "how many patient have @DISEASE",
            "SELECT COUNT(*) FROM patients WHERE disease = @DISEASE",
        )]);
        let nlidb = Nlidb::new(hospital_db(), model);
        let resp = nlidb.answer("How many patients have influenza?").unwrap();
        assert_eq!(resp.result.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn untranslatable_question_errors() {
        let model = Scripted::new(&[]);
        let nlidb = Nlidb::new(hospital_db(), model);
        assert!(matches!(
            nlidb.answer("gibberish question").unwrap_err(),
            RuntimeError::TranslationFailed
        ));
    }

    #[test]
    fn from_repair_applied_before_execution() {
        // Model predicts the wrong FROM table; the post-processor repairs
        // it (§4.2) and execution succeeds.
        let model = Scripted::new(&[("show the name of all patient", "SELECT name FROM doctors")]);
        let nlidb = Nlidb::new(hospital_db(), model);
        let resp = nlidb.answer("show the names of all patients").unwrap();
        assert!(resp
            .final_sql
            .from
            .tables()
            .contains(&"patients".to_string()));
        assert_eq!(resp.result.row_count(), 3);
    }

    #[test]
    fn replace_database_sees_new_values() {
        let model = Scripted::new(&[(
            "how many patient have @DISEASE",
            "SELECT COUNT(*) FROM patients WHERE disease = @DISEASE",
        )]);
        let mut nlidb = Nlidb::new(hospital_db(), model);
        // "malaria" is unknown → the constant is not anonymized and the
        // scripted model cannot match the question.
        assert!(nlidb.answer("How many patients have malaria?").is_err());
        // Insert a malaria patient and swap the database in: the value
        // index rebuilds and the constant anonymizes. (The model carries
        // over with no retraining — §3.1.)
        let mut db2 = hospital_db();
        db2.insert(
            "patients",
            vec![
                "Dan".into(),
                Value::Int(20),
                "malaria".into(),
                Value::Int(1),
            ],
        )
        .unwrap();
        nlidb.replace_database(db2);
        let resp = nlidb.answer("How many patients have malaria?").unwrap();
        assert_eq!(resp.result.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn preprocess_stages_compose() {
        let nlidb = Nlidb::new(hospital_db(), Scripted::new(&[]));
        let question = "Show all patients with age 80";
        let anonymized = nlidb.anonymize(question);
        let lemmas = nlidb.lemmatize(&anonymized.text);
        assert_eq!(nlidb.preprocess(question), (anonymized, lemmas));
    }
}
