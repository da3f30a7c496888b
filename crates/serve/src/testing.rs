//! Deterministic fixtures shared by the serve tests, the load harness,
//! and the serve benchmarks: a lookup translation model, a trio of
//! tenant databases, and seeded question generators over them.
//!
//! [`ScriptedModel`] maps an exact anonymized + lemmatized token string
//! to a fixed SQL translation — the serving layer's contract surface
//! (cache keys, hit/miss accounting, error paths) without the noise of
//! a learned model. Anything not in the script fails to translate,
//! which exercises the typed error path.
//!
//! The multi-tenant fixtures deliberately overlap: `alpha`
//! ([`hospital_db`]) and `beta` ([`clinic_db`]) share one schema and
//! one script, so the *same* question produces the *same* cache key in
//! both tenants but different answers — the sharpest possible probe
//! for cross-tenant cache leaks. `gamma` ([`library_db`]) has a
//! disjoint schema to prove routing across genuinely different
//! deployments.

use dbpal_core::{TrainOptions, TrainingCorpus, TranslationModel};
use dbpal_engine::Database;
use dbpal_runtime::Nlidb;
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType, Value};
use dbpal_sql::{parse_query, Query};
use dbpal_util::intern::{Sym, Vocab};
use dbpal_util::{Rng, SliceRandom};

use crate::TenantRegistry;

/// A lookup model: lemmatized NL → SQL, nothing learned. Script keys
/// are interned against [`Vocab::global`] at construction, so the hot
/// lookup compares `Sym` slices, never strings.
pub struct ScriptedModel {
    entries: Vec<(Vec<Sym>, Query)>,
    delay: std::time::Duration,
}

impl ScriptedModel {
    /// Build from `(lemmatized NL, SQL)` pairs. Panics on invalid SQL —
    /// scripts are fixtures, not inputs.
    pub fn new(entries: &[(&str, &str)]) -> Self {
        Self::from_pairs(
            entries
                .iter()
                .map(|(nl, sql)| (nl.to_string(), sql.to_string()))
                .collect(),
        )
    }

    /// Build from owned `(lemmatized NL, SQL)` pairs — for scripts
    /// whose keys are computed (see [`cache_key_for`]) rather than
    /// hand-written.
    pub fn from_pairs(entries: Vec<(String, String)>) -> Self {
        let vocab = Vocab::global();
        ScriptedModel {
            entries: entries
                .into_iter()
                .map(|(nl, sql)| {
                    let q = parse_query(&sql)
                        .unwrap_or_else(|e| panic!("bad scripted SQL `{sql}`: {e}"));
                    let key = nl.split_whitespace().map(|w| vocab.intern(w)).collect();
                    (key, q)
                })
                .collect(),
            delay: std::time::Duration::ZERO,
        }
    }

    /// Sleep this long inside every cache-missing `translate` call —
    /// lets drain tests hold a batch reliably in flight.
    pub fn with_delay(mut self, delay: std::time::Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Exact-match lookup over interned keys (applies the configured
    /// delay) and materialization of the hit.
    fn lookup(&self, syms: &[Sym]) -> Option<Query> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.entries
            .iter()
            .find(|(nl, _)| nl.as_slice() == syms)
            .map(|(_, q)| q.clone())
    }
}

impl TranslationModel for ScriptedModel {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn train(&mut self, _corpus: &TrainingCorpus, _opts: &TrainOptions) {}

    fn translate(&self, nl_lemmas: &[String]) -> Option<Query> {
        let vocab = Vocab::global();
        let mut syms = Vec::with_capacity(nl_lemmas.len());
        for t in nl_lemmas {
            syms.push(vocab.intern(t));
        }
        self.lookup(&syms)
    }

    fn translate_syms(&self, lemmas: &[Sym], vocab: &Vocab) -> Option<Query> {
        if std::ptr::eq(vocab, Vocab::global()) {
            // The serving layer's ids are already in the entry key
            // space: compare directly, no re-mapping.
            return self.lookup(lemmas);
        }
        let global = Vocab::global();
        let mut syms = Vec::with_capacity(lemmas.len());
        for &s in lemmas {
            syms.push(global.intern(vocab.resolve(s)));
        }
        self.lookup(&syms)
    }
}

/// The serving-layer cache key of `question` over `db`: anonymize
/// against the database's value index, lemmatize, join. Exactly what
/// `QueryService` computes in its preprocess phase — scripts built
/// from this can never drift from the runtime's tokenization.
pub fn cache_key_for(db: Database, question: &str) -> String {
    let nlidb = Nlidb::new(db, ScriptedModel::new(&[]));
    let anonymized = nlidb.anonymize(question);
    nlidb.lemmatize(&anonymized.text).join(" ")
}

/// The hospital/clinic schema shared by the `alpha` and `beta` tenant
/// fixtures: patients with diseases and ages, doctors behind a foreign
/// key.
fn hospital_schema() -> Schema {
    SchemaBuilder::new("hospital")
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
        .expect("fixture schema is valid")
}

fn populate_hospital(
    schema: Schema,
    patients: &[(&str, i64, &str, i64)],
    doctors: &[(i64, &str)],
) -> Database {
    let mut db = Database::new(schema);
    for &(n, a, d, doc) in patients {
        db.insert(
            "patients",
            vec![n.into(), Value::Int(a), d.into(), Value::Int(doc)],
        )
        .expect("fixture row inserts");
    }
    for &(id, n) in doctors {
        db.insert("doctors", vec![Value::Int(id), n.into()])
            .expect("fixture row inserts");
    }
    db
}

/// The serving fixtures' hospital database (the paper's running
/// example), tenant `alpha` in the multi-tenant fixtures.
pub fn hospital_db() -> Database {
    populate_hospital(
        hospital_schema(),
        &[
            ("Ann", 80, "influenza", 1),
            ("Bob", 35, "asthma", 1),
            ("Cat", 64, "influenza", 2),
            ("Dan", 20, "malaria", 2),
            ("Eve", 47, "asthma", 1),
        ],
        &[(1, "House"), (2, "Grey")],
    )
}

/// Tenant `beta`: the *same schema* as [`hospital_db`] over different
/// rows, so identical questions form identical cache keys but must
/// answer from this tenant's data (3 influenza patients, not 2 — any
/// cross-tenant cache leak shows up as a wrong count).
pub fn clinic_db() -> Database {
    populate_hospital(
        hospital_schema(),
        &[
            ("Pam", 61, "influenza", 1),
            ("Quin", 33, "malaria", 2),
            ("Rex", 33, "asthma", 1),
            ("Sol", 58, "influenza", 2),
            ("Tia", 47, "influenza", 1),
        ],
        &[(1, "Adams"), (2, "Baker")],
    )
}

/// The script matching the hospital schema (used by `alpha` and
/// `beta`): four question families keyed on their anonymized lemma
/// strings. Constant-different questions within a family share one key
/// — and therefore one cache entry.
pub fn hospital_script() -> ScriptedModel {
    ScriptedModel::new(&[
        (
            "show me the name of all patient with age @AGE",
            "SELECT name FROM patients WHERE age = @AGE",
        ),
        (
            "how many patient have @DISEASE",
            "SELECT COUNT(*) FROM patients WHERE disease = @DISEASE",
        ),
        (
            "what be the average age of patient of doctor @DNAME",
            "SELECT AVG(patients.age) FROM @JOIN WHERE doctors.dname = @DOCTORS.DNAME",
        ),
        ("show the name of all patient", "SELECT name FROM patients"),
    ])
}

/// Tenant `gamma`: a disjoint schema (books and authors) proving the
/// registry really routes to per-tenant schemas, not just per-tenant
/// rows.
pub fn library_db() -> Database {
    let schema = SchemaBuilder::new("library")
        .table("books", |t| {
            t.column("title", SqlType::Text)
                .column("genre", SqlType::Text)
                .column("author_id", SqlType::Integer)
        })
        .table("authors", |t| {
            t.column("id", SqlType::Integer)
                .column("aname", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("books", "author_id", "authors", "id")
        .build()
        .expect("fixture schema is valid");
    let mut db = Database::new(schema);
    for (id, n) in [(1, "Herbert"), (2, "Simmons"), (3, "Austen")] {
        db.insert("authors", vec![Value::Int(id), n.into()])
            .expect("fixture row inserts");
    }
    for (t, g, a) in [
        ("Dune", "scifi", 1),
        ("Messiah", "scifi", 1),
        ("Hyperion", "scifi", 2),
        ("Endymion", "horror", 2),
        ("Emma", "romance", 3),
        ("Persuasion", "romance", 3),
    ] {
        db.insert("books", vec![t.into(), g.into(), Value::Int(a)])
            .expect("fixture row inserts");
    }
    db
}

/// The script matching [`library_db`]. Keys are computed through
/// [`cache_key_for`] — the same anonymize + lemmatize path the service
/// runs — so the script tracks the runtime's tokenization by
/// construction.
pub fn library_script() -> ScriptedModel {
    let entries = [
        (
            "How many books are about scifi",
            "SELECT COUNT(*) FROM books WHERE genre = @GENRE",
        ),
        (
            "Show the title of all books written by Herbert",
            "SELECT books.title FROM @JOIN WHERE authors.aname = @AUTHORS.ANAME",
        ),
        ("Show the title of all books", "SELECT title FROM books"),
    ];
    ScriptedModel::from_pairs(
        entries
            .iter()
            .map(|(q, sql)| (cache_key_for(library_db(), q), sql.to_string()))
            .collect(),
    )
}

/// The three-tenant fixture registry the multi-tenant battery runs
/// against: `alpha` (hospital), `beta` (same schema, different data),
/// `gamma` (disjoint library schema). `alpha` is first, so it doubles
/// as the default tenant for untagged requests.
pub fn tenant_registry() -> TenantRegistry<ScriptedModel> {
    TenantRegistry::new()
        .register("alpha", Nlidb::new(hospital_db(), hospital_script()))
        .register("beta", Nlidb::new(clinic_db(), hospital_script()))
        .register("gamma", Nlidb::new(library_db(), library_script()))
}

/// One seeded question from one of [`hospital_script`]'s four families,
/// with its constant drawn from `ages` or `doctors` (the disease list
/// is shared by both hospital-schema tenants).
fn patient_question(rng: &mut Rng, ages: &[i64], doctors: &[&str]) -> String {
    match rng.gen_range(0u32..4) {
        0 => {
            let age = *ages.choose(rng).unwrap();
            format!("Show me the name of all patients with age {age}")
        }
        1 => {
            let d = *["influenza", "asthma", "malaria"].choose(rng).unwrap();
            format!("How many patients have {d}?")
        }
        2 => {
            let doc = *doctors.choose(rng).unwrap();
            format!("What is the average age of patients of doctor {doc}")
        }
        _ => "show the names of all patients".to_string(),
    }
}

/// One seeded question over [`hospital_db`] and [`hospital_script`]:
/// a random family, with a constant that exists in the fixture data.
/// With four families there are four cache keys, so a long run of
/// these is mostly cache hits.
pub fn hospital_question(rng: &mut Rng) -> String {
    patient_question(rng, &[80, 35, 64, 20, 47], &["House", "Grey"])
}

/// A seeded interleaved mixed-tenant workload of `(tenant, question)`
/// pairs over [`tenant_registry`]'s three tenants, every question
/// drawn from its tenant's script families with constants that exist
/// in that tenant's data. Deterministic per seed — the mixed-tenant
/// tests replay it at different worker counts.
pub fn tenant_workload(seed: u64, len: usize) -> Vec<(String, String)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => ("alpha".to_string(), hospital_question(&mut rng)),
            1 => (
                "beta".to_string(),
                patient_question(&mut rng, &[61, 33, 58, 47], &["Adams", "Baker"]),
            ),
            _ => ("gamma".to_string(), {
                match rng.gen_range(0u32..3) {
                    0 => {
                        let g = *["scifi", "horror", "romance"].choose(&mut rng).unwrap();
                        format!("How many books are about {g}")
                    }
                    1 => {
                        let a = *["Herbert", "Simmons", "Austen"].choose(&mut rng).unwrap();
                        format!("Show the title of all books written by {a}")
                    }
                    _ => "Show the title of all books".to_string(),
                }
            }),
        })
        .collect()
}
