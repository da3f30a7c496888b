//! The *Patients* benchmark (ParaphraseBench, paper §6.2).
//!
//! "The schema of our new benchmark models a medical database comprised
//! of hospital patients with attributes such as name, age, and disease.
//! ... In total, the benchmark consists of 399 carefully crafted pairs of
//! NL-SQL queries" grouped into seven linguistic-variation categories of
//! 57 queries each: naive, syntactic, morphological, lexical, semantic,
//! missing, and mixed. "Unlike other benchmarks that test for exact
//! syntactic match of SQL queries, Patients tests instead for semantic
//! equivalence."
//!
//! This module reconstructs the benchmark programmatically: 19 base query
//! intents × 3 attribute variants × 7 category phrasings, following the
//! published category examples (§6.2.1).

use dbpal_core::TranslationModel;
use dbpal_engine::Database;
use dbpal_nlp::Lemmatizer;
use dbpal_runtime::{bind_constants, Binding};
use dbpal_schema::{ColumnId, Schema, SchemaBuilder, SemanticDomain, SqlType, TableId, Value};
use dbpal_sql::{exact_set_match, parse_query, Query};
use std::collections::BTreeMap;

/// The seven linguistic-variation categories (§6.2.1), in Table 3's
/// column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinguisticCategory {
    /// Direct verbalization of the SQL.
    Naive,
    /// Structural rearrangements (clause fronting).
    Syntactic,
    /// Synonymous words and phrases.
    Lexical,
    /// Inflection-heavy phrasings (affixes, stemming).
    Morphological,
    /// Re-lexicalized phrasings with the same meaning.
    Semantic,
    /// Implicit references; the attribute is never named.
    Missing,
    /// Combinations of the above.
    Mixed,
}

impl LinguisticCategory {
    /// All categories in Table 3 order.
    pub const ALL: [LinguisticCategory; 7] = [
        LinguisticCategory::Naive,
        LinguisticCategory::Syntactic,
        LinguisticCategory::Lexical,
        LinguisticCategory::Morphological,
        LinguisticCategory::Semantic,
        LinguisticCategory::Missing,
        LinguisticCategory::Mixed,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LinguisticCategory::Naive => "Naive",
            LinguisticCategory::Syntactic => "Syntactic",
            LinguisticCategory::Lexical => "Lexical",
            LinguisticCategory::Morphological => "Morphological",
            LinguisticCategory::Semantic => "Semantic",
            LinguisticCategory::Missing => "Missing",
            LinguisticCategory::Mixed => "Mixed",
        }
    }
}

/// One benchmark query.
#[derive(Debug, Clone)]
pub struct PatientsQuery {
    /// Category of the phrasing.
    pub category: LinguisticCategory,
    /// The NL question (pre-anonymized, contains placeholders).
    pub nl: String,
    /// Gold SQL with placeholders.
    pub gold: Query,
    /// Manually enumerated semantically equivalent alternatives.
    pub alternatives: Vec<Query>,
}

/// The complete benchmark: schema, data, and 399 queries.
pub struct PatientsBenchmark {
    schema: Schema,
    db: Database,
    queries: Vec<PatientsQuery>,
}

/// A substitution set for one variant of a base item.
struct Sub {
    /// Selected attribute: SQL name and NL phrase.
    sel: (&'static str, &'static str),
    /// Filter attribute: SQL name, NL phrase, placeholder name.
    fil: (&'static str, &'static str, &'static str),
}

/// Schema-specific synonym surface for an attribute ("illness" for
/// `disease`). The semantic/missing frames use these, exercising
/// vocabulary a model can only learn from target-schema training data
/// (the paper's §6.2.2 explanation of the DBPal (Full) gains).
fn synonym_of(attr: &str) -> &'static str {
    match attr {
        "age" => "years",
        "disease" => "illness",
        "length_of_stay" => "stay",
        _ => "name",
    }
}

/// One base intent: a SQL pattern and seven NL frames.
struct BaseItem {
    sql: &'static str,
    /// `[naive, syntactic, lexical, morphological, semantic, missing, mixed]`.
    nls: [&'static str; 7],
    alternatives: &'static [&'static str],
}

impl PatientsBenchmark {
    /// Build the benchmark (schema, sample data, 399 queries).
    pub fn new() -> Self {
        let schema = patients_schema();
        let db = populate_patients(&schema);
        let queries = build_queries();
        debug_assert_eq!(queries.len(), 399);
        PatientsBenchmark {
            schema,
            db,
            queries,
        }
    }

    /// The Patients schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The populated benchmark database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// All 399 queries.
    pub fn queries(&self) -> &[PatientsQuery] {
        &self.queries
    }

    /// Queries of one category (57 each).
    pub fn queries_in(&self, category: LinguisticCategory) -> Vec<&PatientsQuery> {
        self.queries
            .iter()
            .filter(|q| q.category == category)
            .collect()
    }

    /// Evaluate a model with the benchmark's semantic-equivalence
    /// criterion; returns per-category tallies plus the overall tally.
    pub fn evaluate(
        &self,
        model: &dyn TranslationModel,
    ) -> (
        BTreeMap<LinguisticCategory, crate::EvalOutcome>,
        crate::EvalOutcome,
    ) {
        let lemmatizer = Lemmatizer::new();
        let mut per: BTreeMap<LinguisticCategory, crate::EvalOutcome> = BTreeMap::new();
        let mut overall = crate::EvalOutcome::default();
        for q in &self.queries {
            let lemmas = lemmatizer.lemmatize_sentence(&q.nl);
            let correct = match model.translate(&lemmas) {
                Some(pred) => self.is_equivalent(&pred, q),
                None => false,
            };
            per.entry(q.category).or_default().record(correct);
            overall.record(correct);
        }
        (per, overall)
    }

    /// Semantic equivalence: exact set match against the gold or any
    /// enumerated alternative, falling back to result equivalence on the
    /// benchmark database with a standard constant binding (§6.2.1).
    pub fn is_equivalent(&self, predicted: &Query, query: &PatientsQuery) -> bool {
        if exact_set_match(predicted, &query.gold) {
            return true;
        }
        if query
            .alternatives
            .iter()
            .any(|alt| exact_set_match(predicted, alt))
        {
            return true;
        }
        // Execution match: bind both with the standard constants and
        // compare result multisets.
        let bindings = standard_bindings(&self.schema);
        let Ok(gold_bound) = bind_constants(&query.gold, &bindings) else {
            return false;
        };
        let Ok(pred_bound) = bind_constants(predicted, &bindings) else {
            return false;
        };
        let (Ok(gold_result), Ok(pred_result)) =
            (self.db.execute(&gold_bound), self.db.execute(&pred_bound))
        else {
            return false;
        };
        gold_result.semantically_equal(&pred_result)
    }
}

impl Default for PatientsBenchmark {
    fn default() -> Self {
        Self::new()
    }
}

/// The benchmark schema.
pub fn patients_schema() -> Schema {
    SchemaBuilder::new("patients_bench")
        .table("patients", |t| {
            t.synonym("people")
                .synonym("cases")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Age).synonym("years")
                })
                .column_with("disease", SqlType::Text, |c| {
                    c.synonym("illness")
                        .synonym("condition")
                        .synonym("diagnosis")
                })
                .column_with("length_of_stay", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Duration)
                        .readable("length of stay")
                        .synonym("stay")
                        .synonym("hospital stay")
                })
        })
        .build()
        .expect("patients schema is valid")
}

fn populate_patients(schema: &Schema) -> Database {
    let mut db = Database::new(schema.clone());
    let diseases = ["influenza", "asthma", "diabetes", "migraine"];
    let names = [
        "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan", "judy",
        "mallory", "nick", "olivia", "peggy", "quentin", "rosa", "steve", "trent", "ursula",
        "victor",
    ];
    for (i, name) in names.iter().enumerate() {
        // Ages and stays are strictly increasing so each numeric column
        // has a unique maximum/minimum; otherwise `ORDER BY ... LIMIT 1`
        // and the nested-MAX alternative would legitimately disagree.
        let age = 20 + (i as i64) * 3; // 20..77
        let disease = diseases[i % diseases.len()];
        let stay = 1 + i as i64; // 1..20
        db.insert(
            "patients",
            vec![
                Value::Text(name.to_string()),
                Value::Int(age),
                Value::Text(disease.to_string()),
                Value::Int(stay),
            ],
        )
        .expect("row fits");
    }
    // Ensure the standard binding constants hit real data.
    db.insert(
        "patients",
        vec![
            Value::Text("zoe".into()),
            Value::Int(80),
            Value::Text("influenza".into()),
            Value::Int(10),
        ],
    )
    .expect("row fits");
    db
}

/// The standard constants used when scoring by execution.
fn standard_bindings(schema: &Schema) -> Vec<Binding> {
    let table = TableId(0);
    let col = |name: &str| {
        let (idx, _) = schema.tables()[0].column_by_name(name).expect("col");
        ColumnId::new(table, idx)
    };
    vec![
        Binding {
            placeholder: "AGE".into(),
            value: Value::Int(80),
            column: col("age"),
        },
        Binding {
            placeholder: "AGE_LOW".into(),
            value: Value::Int(30),
            column: col("age"),
        },
        Binding {
            placeholder: "AGE_HIGH".into(),
            value: Value::Int(60),
            column: col("age"),
        },
        Binding {
            placeholder: "DISEASE".into(),
            value: Value::Text("influenza".into()),
            column: col("disease"),
        },
        Binding {
            placeholder: "DISEASE_2".into(),
            value: Value::Text("asthma".into()),
            column: col("disease"),
        },
        Binding {
            placeholder: "NAME".into(),
            value: Value::Text("alice".into()),
            column: col("name"),
        },
        Binding {
            placeholder: "LENGTH_OF_STAY".into(),
            value: Value::Int(10),
            column: col("length_of_stay"),
        },
        Binding {
            placeholder: "LENGTH_OF_STAY_LOW".into(),
            value: Value::Int(3),
            column: col("length_of_stay"),
        },
        Binding {
            placeholder: "LENGTH_OF_STAY_HIGH".into(),
            value: Value::Int(12),
            column: col("length_of_stay"),
        },
    ]
}

/// The 19 base intents. Markers: `{sel}`/`{sel_nl}` selected attribute,
/// `{fil}`/`{fil_nl}` filter attribute, `{PH}` the filter placeholder.
/// NL frame order: naive, syntactic, lexical, morphological, semantic,
/// missing, mixed.
fn base_items() -> Vec<BaseItem> {
    vec![
        // 1. Point lookup.
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE {fil} = @{PH}",
            nls: [
                "what is the {sel_nl} of patients where {fil_nl} is @{PH}",
                "where {fil_nl} is @{PH} , what is the {sel_nl} of patients",
                "show the {sel_nl} of people whose {fil_nl} is @{PH}",
                "what are the {sel_nl}s of patients whose {fil_nl} equaled @{PH}",
                "for anyone whose {fil_syn} reads @{PH} , tell me their {sel_syn}",
                "what is the {sel_syn} of patients with @{PH}",
                "whose {fil_nl} equaled @{PH} , show those people their {sel_nl}",
            ],
            alternatives: &[],
        },
        // 2. Full rows by filter.
        BaseItem {
            sql: "SELECT * FROM patients WHERE {fil} = @{PH}",
            nls: [
                "show all patients where {fil_nl} is @{PH}",
                "where {fil_nl} is @{PH} , show all patients",
                "display every person whose {fil_nl} is @{PH}",
                "show all of the patients having {fil_nl} equaling @{PH}",
                "bring up the full records for a {fil_syn} of @{PH}",
                "show all patients with @{PH}",
                "having {fil_nl} equaling @{PH} , display every person",
            ],
            alternatives: &[],
        },
        // 3. Average with filter (the paper's running example).
        BaseItem {
            sql: "SELECT AVG({sel}) FROM patients WHERE {fil} = @{PH}",
            nls: [
                "what is the average {sel_nl} of patients where {fil_nl} is @{PH}",
                "where {fil_nl} is @{PH} , what is the average {sel_nl} of patients",
                "what is the mean {sel_nl} of patients where {fil_nl} is @{PH}",
                "what is the averaged {sel_nl} of patients where {fil_nl} equaled @{PH}",
                "on average , how much {sel_syn} do patients with {fil_syn} @{PH} have",
                "what is the average {sel_syn} of patients who are @{PH}",
                "where {fil_nl} equaled @{PH} , what is the mean {sel_nl} of patients",
            ],
            alternatives: &[],
        },
        // 4. Count with filter.
        BaseItem {
            sql: "SELECT COUNT(*) FROM patients WHERE {fil} = @{PH}",
            nls: [
                "how many patients have {fil_nl} @{PH}",
                "with {fil_nl} @{PH} , how many patients are there",
                "what is the number of people with {fil_nl} @{PH}",
                "how many of the patients are having {fil_nl} equaling @{PH}",
                "give the patient count for a {fil_syn} of @{PH}",
                "how many patients have @{PH}",
                "with {fil_nl} equaling @{PH} , what is the number of people",
            ],
            alternatives: &[],
        },
        // 5. Maximum of a column.
        BaseItem {
            sql: "SELECT MAX({sel}) FROM patients",
            nls: [
                "what is the maximum {sel_nl} of patients",
                "of all patients , what is the maximum {sel_nl}",
                "what is the highest {sel_nl} among the people",
                "what is the {sel_nl} maximized over all patients",
                "how high does the {sel_nl} of any patient get",
                "what is the maximum {sel_nl}",
                "of all people , what is the highest {sel_nl}",
            ],
            alternatives: &[],
        },
        // 6. Minimum of a column.
        BaseItem {
            sql: "SELECT MIN({sel}) FROM patients",
            nls: [
                "what is the minimum {sel_nl} of patients",
                "of all patients , what is the minimum {sel_nl}",
                "what is the lowest {sel_nl} among the people",
                "what is the {sel_nl} minimized over all patients",
                "how low does the {sel_nl} of any patient get",
                "what is the minimum {sel_nl}",
                "of all people , what is the lowest {sel_nl}",
            ],
            alternatives: &[],
        },
        // 7. Count all.
        BaseItem {
            sql: "SELECT COUNT(*) FROM patients",
            nls: [
                "how many patients are there",
                "in total , how many patients are there",
                "what is the number of people",
                "how many patients exist",
                "give the total patient headcount",
                "how many are there",
                "in total , what is the number of people",
            ],
            alternatives: &[],
        },
        // 8. Distinct values.
        BaseItem {
            sql: "SELECT DISTINCT {sel} FROM patients",
            nls: [
                "show the distinct {sel_nl} of patients",
                "among all patients , show the distinct {sel_nl}",
                "show the different {sel_nl} of the people",
                "show the {sel_nl}s of patients without duplicates",
                "which {sel_nl} values occur at all among patients",
                "show the distinct {sel_nl}",
                "among all people , show the different {sel_nl}",
            ],
            alternatives: &[],
        },
        // 9. Greater-than filter (domain comparatives).
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE {fil} > @{PH}",
            nls: [
                "show the {sel_nl} of patients with {fil_nl} greater than @{PH}",
                "with {fil_nl} greater than @{PH} , show the {sel_nl} of patients",
                "show the {sel_nl} of people whose {fil_nl} is above @{PH}",
                "show the {sel_nl}s of patients having {fil_nl} exceeding @{PH}",
                "whenever the {fil_syn} tops @{PH} , report that patient 's {sel_syn}",
                "show the {sel_syn} of patients over @{PH}",
                "whose {fil_nl} is above @{PH} , show those people their {sel_nl}",
            ],
            alternatives: &[],
        },
        // 10. Less-than filter.
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE {fil} < @{PH}",
            nls: [
                "show the {sel_nl} of patients with {fil_nl} less than @{PH}",
                "with {fil_nl} less than @{PH} , show the {sel_nl} of patients",
                "show the {sel_nl} of people whose {fil_nl} is below @{PH}",
                "show the {sel_nl}s of patients having {fil_nl} undercutting @{PH}",
                "whenever the {fil_syn} stays under @{PH} , report that patient 's {sel_syn}",
                "show the {sel_syn} of patients under @{PH}",
                "whose {fil_nl} is below @{PH} , show those people their {sel_nl}",
            ],
            alternatives: &[],
        },
        // 11. Range (BETWEEN).
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE {fil} BETWEEN @{PH}_LOW AND @{PH}_HIGH",
            nls: [
                "show the {sel_nl} of patients with {fil_nl} between @{PH}_LOW and @{PH}_HIGH",
                "with {fil_nl} between @{PH}_LOW and @{PH}_HIGH , show the {sel_nl} of patients",
                "show the {sel_nl} of people whose {fil_nl} ranges from @{PH}_LOW to @{PH}_HIGH",
                "show the {sel_nl}s of patients having {fil_nl} bounded by @{PH}_LOW and @{PH}_HIGH",
                "report the {sel_nl} whenever the {fil_nl} falls inside @{PH}_LOW to @{PH}_HIGH",
                "show the {sel_nl} of patients between @{PH}_LOW and @{PH}_HIGH",
                "whose {fil_nl} ranges from @{PH}_LOW to @{PH}_HIGH , show those people their {sel_nl}",
            ],
            alternatives: &[],
        },
        // 12. Sum.
        BaseItem {
            sql: "SELECT SUM({sel}) FROM patients",
            nls: [
                "what is the total {sel_nl} of all patients",
                "over all patients , what is the total {sel_nl}",
                "what is the combined {sel_nl} of the people",
                "what is the {sel_nl} summed across all patients",
                "if you add up every patient 's {sel_syn} , what do you get",
                "what is the total {sel_nl}",
                "over all people , what is the combined {sel_nl}",
            ],
            alternatives: &[],
        },
        // 13. Group count by disease.
        BaseItem {
            sql: "SELECT disease, COUNT(*) FROM patients GROUP BY disease",
            nls: [
                "how many patients are there for each disease",
                "for each disease , how many patients are there",
                "count the people per illness",
                "how many patients exist for each of the diseases",
                "break the patient numbers down by what they suffer from",
                "how many patients for each disease",
                "per illness , how many people exist",
            ],
            alternatives: &[],
        },
        // 14. Group average by disease.
        BaseItem {
            sql: "SELECT disease, AVG({sel}) FROM patients GROUP BY disease",
            nls: [
                "what is the average {sel_nl} of patients for each disease",
                "for each disease , what is the average {sel_nl} of patients",
                "what is the mean {sel_nl} of the people per illness",
                "what is the averaged {sel_nl} of patients for each of the diseases",
                "compare the typical {sel_syn} across the different illnesses",
                "what is the average {sel_nl} for each disease",
                "per illness , what is the mean {sel_nl} of people",
            ],
            alternatives: &[],
        },
        // 15. Superlative row (max), with nested alternative.
        BaseItem {
            sql: "SELECT * FROM patients ORDER BY {sel} DESC LIMIT 1",
            nls: [
                "show the patient with the highest {sel_nl}",
                "of all patients , show the one with the highest {sel_nl}",
                "display the person with the greatest {sel_nl}",
                "show the patient whose {sel_nl} is the very highest",
                "which patient tops the list by {sel_syn}",
                "show the highest {sel_nl} patient",
                "of all people , display the one with the greatest {sel_nl}",
            ],
            alternatives: &["SELECT * FROM patients WHERE {sel} = (SELECT MAX({sel}) FROM patients)"],
        },
        // 16. Superlative row (min), with nested alternative.
        BaseItem {
            sql: "SELECT * FROM patients ORDER BY {sel} ASC LIMIT 1",
            nls: [
                "show the patient with the lowest {sel_nl}",
                "of all patients , show the one with the lowest {sel_nl}",
                "display the person with the smallest {sel_nl}",
                "show the patient whose {sel_nl} is the very lowest",
                "which patient sits at the bottom by {sel_syn}",
                "show the lowest {sel_nl} patient",
                "of all people , display the one with the smallest {sel_nl}",
            ],
            alternatives: &["SELECT * FROM patients WHERE {sel} = (SELECT MIN({sel}) FROM patients)"],
        },
        // 17. Conjunction of two filters.
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE {fil} = @{PH} AND length_of_stay > @LENGTH_OF_STAY",
            nls: [
                "show the {sel_nl} of patients with {fil_nl} @{PH} and length of stay greater than @LENGTH_OF_STAY",
                "with {fil_nl} @{PH} and length of stay greater than @LENGTH_OF_STAY , show the {sel_nl} of patients",
                "show the {sel_nl} of people having {fil_nl} @{PH} who stay longer than @LENGTH_OF_STAY",
                "show the {sel_nl}s of patients having {fil_nl} equaling @{PH} and staying over @LENGTH_OF_STAY",
                "among those staying past @LENGTH_OF_STAY whose {fil_nl} reads @{PH} , report the {sel_nl}",
                "show the {sel_nl} of patients with @{PH} staying longer than @LENGTH_OF_STAY",
                "who stay longer than @LENGTH_OF_STAY , show the {sel_nl} of people having {fil_nl} @{PH}",
            ],
            alternatives: &[],
        },
        // 18. Disjunction.
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE disease = @DISEASE OR disease = @DISEASE_2",
            nls: [
                "show the {sel_nl} of patients with disease @DISEASE or disease @DISEASE_2",
                "with disease @DISEASE or @DISEASE_2 , show the {sel_nl} of patients",
                "show the {sel_nl} of people whose illness is @DISEASE or @DISEASE_2",
                "show the {sel_nl}s of patients having diseases @DISEASE or @DISEASE_2",
                "whether it is @DISEASE or @DISEASE_2 , report the {sel_nl} of those patients",
                "show the {sel_nl} of patients with @DISEASE or @DISEASE_2",
                "whose illness is @DISEASE or @DISEASE_2 , show those people their {sel_nl}",
            ],
            alternatives: &["SELECT {sel} FROM patients WHERE disease IN (@DISEASE, @DISEASE_2)"],
        },
        // 19. Inequality filter.
        BaseItem {
            sql: "SELECT {sel} FROM patients WHERE {fil} <> @{PH}",
            nls: [
                "show the {sel_nl} of patients whose {fil_nl} is not @{PH}",
                "whose {fil_nl} is not @{PH} , show the {sel_nl} of patients",
                "show the {sel_nl} of people with a {fil_nl} other than @{PH}",
                "show the {sel_nl}s of patients not having {fil_nl} equaling @{PH}",
                "leave out {fil_nl} @{PH} and report the {sel_nl} of the rest",
                "show the {sel_nl} of patients not @{PH}",
                "with a {fil_nl} other than @{PH} , show those people their {sel_nl}",
            ],
            alternatives: &["SELECT {sel} FROM patients WHERE NOT ({fil} = @{PH})"],
        },
    ]
}

/// The three substitution variants applied to every base item.
fn variants() -> [Sub; 3] {
    [
        Sub {
            sel: ("name", "name"),
            fil: ("age", "age", "AGE"),
        },
        Sub {
            sel: ("length_of_stay", "length of stay"),
            fil: ("age", "age", "AGE"),
        },
        Sub {
            sel: ("age", "age"),
            fil: ("disease", "disease", "DISEASE"),
        },
    ]
}

/// Variants for bases whose selected attribute must be numeric
/// (`AVG`/`SUM` are undefined over text).
fn variants_numeric() -> [Sub; 3] {
    [
        Sub {
            sel: ("length_of_stay", "length of stay"),
            fil: ("age", "age", "AGE"),
        },
        Sub {
            sel: ("age", "age"),
            fil: ("disease", "disease", "DISEASE"),
        },
        Sub {
            sel: ("length_of_stay", "length of stay"),
            fil: ("disease", "disease", "DISEASE"),
        },
    ]
}

fn substitute(text: &str, sub: &Sub, nl: bool) -> String {
    let mut out = text.to_string();
    if nl {
        out = out.replace("{sel_syn}", synonym_of(sub.sel.0));
        out = out.replace("{fil_syn}", synonym_of(sub.fil.0));
        out = out.replace("{sel_nl}", sub.sel.1);
        out = out.replace("{fil_nl}", sub.fil.1);
    }
    out = out.replace("{sel}", sub.sel.0);
    out = out.replace("{fil}", sub.fil.0);
    out = out.replace("{PH}", sub.fil.2);
    out
}

fn build_queries() -> Vec<PatientsQuery> {
    let mut out = Vec::with_capacity(399);
    for base in base_items() {
        let needs_numeric_sel = base.sql.contains("AVG({sel})")
            || base.sql.contains("SUM({sel})")
            || base.sql.contains("ORDER BY {sel}");
        let variant_set = if needs_numeric_sel {
            variants_numeric()
        } else {
            variants()
        };
        for sub in &variant_set {
            // Variant 3 filters on `disease`; numeric comparisons against
            // a text filter would be ill-typed, so variant 3 falls back to
            // the AGE filter on comparison-based bases.
            let sub = if base.sql.contains("{fil} >")
                || base.sql.contains("{fil} <")
                || base.sql.contains("BETWEEN")
            {
                Sub {
                    sel: sub.sel,
                    fil: ("length_of_stay", "length of stay", "LENGTH_OF_STAY"),
                }
            } else {
                Sub {
                    sel: sub.sel,
                    fil: sub.fil,
                }
            };
            let sql_text = substitute(base.sql, &sub, false);
            let gold = parse_query(&sql_text)
                .unwrap_or_else(|e| panic!("bad benchmark SQL `{sql_text}`: {e}"));
            let alternatives: Vec<Query> = base
                .alternatives
                .iter()
                .map(|alt| {
                    let t = substitute(alt, &sub, false);
                    parse_query(&t).unwrap_or_else(|e| panic!("bad alternative `{t}`: {e}"))
                })
                .collect();
            for (i, category) in LinguisticCategory::ALL.into_iter().enumerate() {
                // NL frame order in BaseItem is Table 3's order.
                let frame = base.nls[i];
                out.push(PatientsQuery {
                    category,
                    nl: substitute(frame, &sub, true),
                    gold: gold.clone(),
                    alternatives: alternatives.clone(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_exactly_399_queries() {
        let bench = PatientsBenchmark::new();
        assert_eq!(bench.queries().len(), 399);
    }

    #[test]
    fn each_category_has_57_queries() {
        let bench = PatientsBenchmark::new();
        for cat in LinguisticCategory::ALL {
            assert_eq!(bench.queries_in(cat).len(), 57, "category {cat:?}");
        }
    }

    #[test]
    fn all_gold_queries_execute() {
        let bench = PatientsBenchmark::new();
        let bindings = standard_bindings(bench.schema());
        for q in bench.queries() {
            let bound = bind_constants(&q.gold, &bindings)
                .unwrap_or_else(|e| panic!("binding failed for `{}`: {e}", q.gold));
            bench
                .database()
                .execute(&bound)
                .unwrap_or_else(|e| panic!("execution failed for `{bound}`: {e}"));
        }
    }

    #[test]
    fn nl_placeholders_match_sql() {
        let bench = PatientsBenchmark::new();
        for q in bench.queries() {
            for ph in q.gold.placeholders() {
                assert!(
                    q.nl.to_uppercase().contains(&format!("@{ph}")),
                    "[{:?}] @{ph} missing from `{}` (gold {})",
                    q.category,
                    q.nl,
                    q.gold
                );
            }
        }
    }

    #[test]
    fn alternatives_are_semantically_equal_to_gold() {
        let bench = PatientsBenchmark::new();
        let bindings = standard_bindings(bench.schema());
        for q in bench.queries() {
            for alt in &q.alternatives {
                let g = bind_constants(&q.gold, &bindings).unwrap();
                let a = bind_constants(alt, &bindings).unwrap();
                let rg = bench.database().execute(&g).unwrap();
                let ra = bench.database().execute(&a).unwrap();
                assert!(
                    rg.semantically_equal(&ra),
                    "alternative `{alt}` differs from gold `{}` on the benchmark data",
                    q.gold
                );
            }
        }
    }

    #[test]
    fn equivalence_accepts_alternative_formulation() {
        let bench = PatientsBenchmark::new();
        // Find a superlative query and test its nested alternative.
        let q = bench
            .queries()
            .iter()
            .find(|q| !q.alternatives.is_empty() && q.gold.limit == Some(1))
            .expect("superlative base exists");
        assert!(bench.is_equivalent(&q.alternatives[0], q));
    }

    #[test]
    fn equivalence_rejects_wrong_query() {
        let bench = PatientsBenchmark::new();
        let q = &bench.queries()[0];
        let wrong = parse_query("SELECT COUNT(*) FROM patients").unwrap();
        assert!(!bench.is_equivalent(&wrong, q));
    }

    #[test]
    fn naive_frames_differ_from_other_categories() {
        let bench = PatientsBenchmark::new();
        let naive: Vec<&str> = bench
            .queries_in(LinguisticCategory::Naive)
            .iter()
            .map(|q| q.nl.as_str())
            .collect();
        for cat in [
            LinguisticCategory::Syntactic,
            LinguisticCategory::Semantic,
            LinguisticCategory::Missing,
        ] {
            let other: Vec<&str> = bench
                .queries_in(cat)
                .iter()
                .map(|q| q.nl.as_str())
                .collect();
            let same = naive.iter().zip(&other).filter(|(a, b)| a == b).count();
            assert_eq!(same, 0, "{cat:?} duplicates naive phrasings");
        }
    }

    /// Pins the Seq2Seq model's floats on a deployment-shaped run, larger
    /// than the model crate's tiny-corpus pin: the Patients bootstrap
    /// corpus capped at 200 pairs gives a 57-token target vocabulary, so
    /// the output layer runs its 16-, 8- and 1-row blocks, over 150
    /// source tokens and ParaphraseBench's unknown words. Any change to
    /// the order or the set of float operations in training or greedy
    /// decoding moves these bits.
    #[test]
    fn seq2seq_training_on_a_capped_corpus_is_pinned() {
        use dbpal_core::{GenerationConfig, TrainOptions, TrainingPipeline};
        use dbpal_model::Seq2SeqModel;
        use std::fmt::Write as _;

        let bench = PatientsBenchmark::new();
        let corpus = TrainingPipeline::new(GenerationConfig::small()).generate(bench.schema());
        let mut model = Seq2SeqModel::with_defaults();
        model.train(
            &corpus,
            &TrainOptions {
                epochs: 2,
                max_pairs: Some(200),
                ..TrainOptions::default()
            },
        );
        let loss_bits: Vec<u32> = model.epoch_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(loss_bits, [0x4010_8ccb, 0x3f90_d20a], "epoch losses moved");
        let lemmatizer = Lemmatizer::new();
        let mut digest = dbpal_util::Fnv1a::new();
        for q in bench.queries() {
            let _ = match model.translate(&lemmatizer.lemmatize_sentence(&q.nl)) {
                Some(sql) => writeln!(digest, "{sql}"),
                None => writeln!(digest, "-"),
            };
        }
        let digest = digest.finish();
        assert_eq!(
            digest, 0xbe15_d883_584c_7d73,
            "translations moved: {digest:#018x}"
        );
    }
}
