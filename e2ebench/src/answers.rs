//! The serve workloads' questions and how their answers are judged.
//!
//! Patients (ParaphraseBench) questions are written with placeholders
//! (`@AGE`, `@DISEASE_2`, `@LENGTH_OF_STAY_LOW`, …). The benchmark asks
//! them with real constants drawn from the database's own values, and
//! binds the gold SQL with the same constants to get the expected rows.

use dbpal_benchsuite::patients::PatientsQuery;
use dbpal_engine::Database;
use dbpal_runtime::{bind_constants, Binding};
use dbpal_schema::{ColumnId, TableId, Value};
use dbpal_serve::net::protocol::value_to_json;
use dbpal_serve::net::{QueryOutcome, Response};
use dbpal_util::{Fnv1a, Json, Rng};

const TABLE: &str = "patients";

/// One askable question: raw NL with constants, plus the rows the gold
/// SQL returns for those constants.
#[derive(Debug, Clone)]
pub struct Instance {
    pub question: String,
    pub expected: Expected,
}

/// Expected answer rows, each cell in its compact wire-JSON spelling.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub columns: usize,
    pub rows: Vec<Vec<String>>,
    /// The gold has ORDER BY, so row order is part of the answer.
    pub ordered: bool,
}

/// `AGE_LOW` → (`AGE`, `_LOW`), `DISEASE_2` → (`DISEASE`, `_2`),
/// `AGE` → (`AGE`, ``). The base, lowercased, names the column.
fn split_placeholder(ph: &str) -> (&str, &str) {
    ["_LOW", "_HIGH", "_2"]
        .into_iter()
        .find_map(|suffix| Some((ph.strip_suffix(suffix)?, suffix)))
        .unwrap_or((ph, ""))
}

fn placeholders(nl: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for tok in nl.split_whitespace() {
        if let Some(ph) = tok.strip_prefix('@') {
            if !out.iter().any(|p| p == ph) {
                out.push(ph.to_string());
            }
        }
    }
    out
}

fn value_text(v: &Value) -> String {
    match v {
        Value::Text(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Distinct values of every placeholder-bearing column, sorted so the
/// draws depend only on the seed.
pub struct ValuePool {
    columns: Vec<(&'static str, u32, Vec<Value>)>,
}

impl ValuePool {
    pub fn new(db: &Database) -> Self {
        let table = db
            .schema()
            .table_by_name(TABLE)
            .expect("Patients schema has a patients table");
        let columns = ["name", "age", "disease", "length_of_stay"]
            .iter()
            .map(|&c| {
                let (idx, _) = table.column_by_name(c).expect("Patients column");
                let mut vals = db.distinct_values(TABLE, c).expect("Patients column");
                vals.sort_by_key(value_text);
                (c, idx, vals)
            })
            .collect();
        ValuePool { columns }
    }

    fn column(&self, name: &str) -> Option<&(&'static str, u32, Vec<Value>)> {
        self.columns.iter().find(|(c, _, _)| *c == name)
    }

    /// Draw one constant per placeholder of `query`: `_LOW`/`_HIGH`
    /// pairs are distinct and ordered, `X` and `X_2` are distinct.
    pub fn draw(&self, query: &PatientsQuery, rng: &mut Rng) -> Vec<Binding> {
        let mut bindings: Vec<Binding> = Vec::new();
        for ph in placeholders(&query.nl) {
            if bindings.iter().any(|b| b.placeholder == ph) {
                continue;
            }
            let (base, suffix) = split_placeholder(&ph);
            let Some((_, idx, vals)) = self.column(&base.to_ascii_lowercase()) else {
                continue;
            };
            let column = ColumnId::new(TableId(0), *idx);
            let pick = |rng: &mut Rng| vals[rng.gen_range(0..vals.len())].clone();
            if suffix == "_LOW" || suffix == "_HIGH" {
                let a = pick(rng);
                let mut b = pick(rng);
                while b == a {
                    b = pick(rng);
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                for (suffix, v) in [("_LOW", lo), ("_HIGH", hi)] {
                    bindings.push(Binding {
                        placeholder: format!("{base}{suffix}"),
                        value: v,
                        column,
                    });
                }
            } else {
                let mut v = pick(rng);
                let clash =
                    |v: &Value| bindings.iter().any(|b| b.column == column && &b.value == v);
                while clash(&v) {
                    v = pick(rng);
                }
                bindings.push(Binding {
                    placeholder: ph,
                    value: v,
                    column,
                });
            }
        }
        bindings
    }
}

/// The question text with every placeholder replaced by its constant.
pub fn fill(nl: &str, bindings: &[Binding]) -> String {
    nl.split_whitespace()
        .map(|tok| match tok.strip_prefix('@') {
            Some(ph) => bindings
                .iter()
                .find(|b| b.placeholder == ph)
                .map_or(tok.to_string(), |b| value_text(&b.value)),
            None => tok.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Ask `query` with `bindings`: the question text, and the gold SQL
/// bound with the same constants and executed on `db`.
pub fn instance(db: &Database, query: &PatientsQuery, bindings: &[Binding]) -> Instance {
    let bound = bind_constants(&query.gold, bindings).expect("gold binds its own placeholders");
    let result = db
        .execute(&bound)
        .expect("gold SQL executes on the Patients DB");
    Instance {
        question: fill(&query.nl, bindings),
        expected: Expected {
            columns: result.column_count(),
            rows: result
                .rows()
                .iter()
                .map(|r| r.iter().map(|v| value_to_json(v).compact()).collect())
                .collect(),
            ordered: !query.gold.order_by.is_empty(),
        },
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for i in 0..n {
            if !prefix.contains(&i) {
                prefix.push(i);
                go(prefix, n, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), n, &mut out);
    out
}

/// Whether served rows equal the expected rows: same shape, rows
/// compared as a multiset unless the gold has ORDER BY, tolerating a
/// column permutation for results up to 6 columns (the Patients
/// benchmark's `ResultSet::semantically_equal` rule).
pub fn rows_match(expected: &Expected, columns: usize, rows: &[Vec<Json>]) -> bool {
    if columns != expected.columns || rows.len() != expected.rows.len() {
        return false;
    }
    let got: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Json::compact).collect())
        .collect();
    let perms = if (1..=6).contains(&columns) {
        permutations(columns)
    } else {
        vec![(0..columns).collect()]
    };
    let mut want = expected.rows.clone();
    if !expected.ordered {
        want.sort();
    }
    perms.iter().any(|p| {
        let mut permuted: Vec<Vec<String>> = got
            .iter()
            .map(|r| p.iter().filter_map(|&i| r.get(i).cloned()).collect())
            .collect();
        if !expected.ordered {
            permuted.sort();
        }
        permuted == want
    })
}

/// Whether an outcome answers its question correctly.
pub fn is_accurate(expected: &Expected, outcome: &QueryOutcome) -> bool {
    match outcome {
        QueryOutcome::Answer { columns, rows, .. } => rows_match(expected, columns.len(), rows),
        _ => false,
    }
}

/// How a served question counts. Typed runtime outcomes
/// (`translation_failed`, `execution_failed`, …) are answers — wrong
/// ones, which lower accuracy. Sheds, `internal`, and anything that is
/// not a well-formed outcome are failed operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Answered,
    Failed,
}

pub fn classify(outcome: &QueryOutcome) -> Verdict {
    match outcome {
        QueryOutcome::Answer { .. } => Verdict::Answered,
        QueryOutcome::Overloaded { .. } | QueryOutcome::TenantOverloaded { .. } => Verdict::Failed,
        QueryOutcome::Failed { kind, .. } if kind == "internal" || kind == "unknown_tenant" => {
            Verdict::Failed
        }
        QueryOutcome::Failed { .. } => Verdict::Answered,
    }
}

/// Verdicts for one request of `asked` questions. A frame-level error,
/// a wrong outcome count, a protocol error, or no response at all
/// (timeout, refused or dropped connection) fails every question.
pub fn classify_response<E>(response: &Result<Response, E>, asked: usize) -> Vec<Verdict> {
    match response {
        Ok(Response::Results(items)) if items.len() == asked => {
            items.iter().map(classify).collect()
        }
        _ => vec![Verdict::Failed; asked],
    }
}

/// Chained FNV-1a over the outcomes' `digest_form`, one per line.
#[derive(Default)]
pub struct AnswerDigest(Fnv1a);

impl AnswerDigest {
    pub fn push(&mut self, outcome: &QueryOutcome) {
        self.0.update(outcome.digest_form().as_bytes());
        self.0.update(b"\n");
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_benchsuite::PatientsBenchmark;
    use dbpal_serve::net::ClientError;

    fn expected(rows: &[&[&str]], ordered: bool) -> Expected {
        Expected {
            columns: rows.first().map_or(1, |r| r.len()),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
            ordered,
        }
    }

    fn json_rows(rows: &[&[&str]]) -> Vec<Vec<Json>> {
        rows.iter()
            .map(|r| r.iter().map(|s| Json::parse(s).unwrap()).collect())
            .collect()
    }

    #[test]
    fn unordered_unless_gold_orders() {
        let want = expected(&[&["\"ann\"", "80"], &["\"bob\"", "35"]], false);
        let swapped = json_rows(&[&["\"bob\"", "35"], &["\"ann\"", "80"]]);
        assert!(rows_match(&want, 2, &swapped));
        // Column order may differ too.
        let permuted = json_rows(&[&["35", "\"bob\""], &["80", "\"ann\""]]);
        assert!(rows_match(&want, 2, &permuted));

        let ordered = expected(&[&["\"ann\"", "80"], &["\"bob\"", "35"]], true);
        assert!(!rows_match(&ordered, 2, &swapped));
        assert!(rows_match(
            &ordered,
            2,
            &json_rows(&[&["\"ann\"", "80"], &["\"bob\"", "35"]])
        ));
        assert!(rows_match(
            &ordered,
            2,
            &json_rows(&[&["80", "\"ann\""], &["35", "\"bob\""]])
        ));
    }

    #[test]
    fn shape_and_multiplicity_matter() {
        let want = expected(&[&["1"], &["1"], &["2"]], false);
        assert!(!rows_match(&want, 1, &json_rows(&[&["1"], &["2"], &["2"]])));
        assert!(!rows_match(&want, 1, &json_rows(&[&["1"], &["2"]])));
        assert!(!rows_match(&want, 2, &json_rows(&[&["1"], &["1"], &["2"]])));
        assert!(rows_match(&want, 1, &json_rows(&[&["2"], &["1"], &["1"]])));
        // Wire numbers compare by value: 57.5 from AVG is not 57.
        let avg = expected(&[&["57.5"]], false);
        assert!(!rows_match(&avg, 1, &json_rows(&[&["57"]])));
    }

    #[test]
    fn outcome_classification() {
        let answer = QueryOutcome::Answer {
            cached: false,
            sql: "SELECT 1".into(),
            columns: vec![],
            rows: vec![],
        };
        let typed = |kind: &str| QueryOutcome::Failed {
            kind: kind.into(),
            message: String::new(),
        };
        assert_eq!(classify(&answer), Verdict::Answered);
        for kind in [
            "translation_failed",
            "unbound_placeholder",
            "execution_failed",
            "repair_failed",
        ] {
            assert_eq!(classify(&typed(kind)), Verdict::Answered, "{kind}");
            assert!(!is_accurate(&expected(&[], false), &typed(kind)));
        }
        assert_eq!(classify(&typed("internal")), Verdict::Failed);
        assert_eq!(
            classify(&QueryOutcome::Overloaded { queue_depth: 64 }),
            Verdict::Failed
        );
        assert_eq!(
            classify(&QueryOutcome::TenantOverloaded {
                tenant: "t".into(),
                quota: 1
            }),
            Verdict::Failed
        );

        let ok: Result<Response, ClientError> =
            Ok(Response::Results(vec![answer.clone(), typed("internal")]));
        assert_eq!(
            classify_response(&ok, 2),
            vec![Verdict::Answered, Verdict::Failed]
        );
        // Wrong outcome count, frame-level error, timeout, dropped
        // connection, unparseable response: every question fails.
        assert_eq!(classify_response(&ok, 3), vec![Verdict::Failed; 3]);
        let frame_error: Result<Response, ClientError> = Ok(Response::Error {
            kind: dbpal_serve::net::ErrorKind::Busy,
            message: String::new(),
        });
        assert_eq!(classify_response(&frame_error, 2), vec![Verdict::Failed; 2]);
        let timeout: Result<Response, ClientError> = Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "timeout",
        )));
        assert_eq!(classify_response(&timeout, 8), vec![Verdict::Failed; 8]);
        let closed: Result<Response, ClientError> = Err(ClientError::Closed);
        assert_eq!(classify_response(&closed, 1), vec![Verdict::Failed]);
        let garbled: Result<Response, ClientError> = Err(ClientError::BadResponse("x".into()));
        assert_eq!(classify_response(&garbled, 1), vec![Verdict::Failed]);
    }

    #[test]
    fn drawn_constants_fill_question_and_gold() {
        let bench = PatientsBenchmark::new();
        let pool = ValuePool::new(bench.database());
        let mut rng = Rng::seed_from_u64(5);
        for q in bench.queries() {
            let bindings = pool.draw(q, &mut rng);
            let inst = instance(bench.database(), q, &bindings);
            assert!(!inst.question.contains('@'), "{}", inst.question);
            for b in &bindings {
                if let Some(base) = b.placeholder.strip_suffix("_LOW") {
                    let hi = bindings
                        .iter()
                        .find(|h| h.placeholder == format!("{base}_HIGH"))
                        .unwrap();
                    assert!(b.value < hi.value);
                }
            }
        }
        // Same seed, same questions.
        let q = &bench.queries()[0];
        let a = fill(&q.nl, &pool.draw(q, &mut Rng::seed_from_u64(9)));
        let b = fill(&q.nl, &pool.draw(q, &mut Rng::seed_from_u64(9)));
        assert_eq!(a, b);
    }
}
