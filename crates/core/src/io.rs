//! Corpus import/export.
//!
//! Two interchange formats:
//!
//! * **JSON** — full-fidelity export of a generated corpus (provenance,
//!   lemmas, template ids) so external model stacks can train on DBPal's
//!   output; this is the practical meaning of "fully pluggable" beyond
//!   this workspace's own models.
//! * **JSONL** (one compact JSON object per line) — the streaming
//!   export format written by [`crate::stream::JsonlSink`]: each line is
//!   a full-fidelity pair record, so corpora larger than memory can be
//!   written, concatenated, and re-imported incrementally. Lines are
//!   encoded field by field straight into the caller's buffer, with the
//!   same escaper and the same bytes as the compact rendering of the
//!   JSON record; import goes back through the JSON parser.
//! * **TSV** (`nl<TAB>sql` per line) — the minimal format for *manually
//!   curated* pairs, which "can still be used to complement our proposed
//!   data generation pipeline" (paper §1). Imported pairs get
//!   [`Provenance::Manual`] and are lemmatized on load.
//!
//! Both JSON importers reject a record whose provenance is not one of
//! the [`Provenance::label`] values.

use crate::{Provenance, TrainingCorpus, TrainingPair};
use dbpal_nlp::Lemmatizer;
use dbpal_sql::{parse_query, Query};
use dbpal_util::json::escape_into;
use dbpal_util::Json;
use std::fmt::{self, Write as _};

/// Serialized form of one pair.
#[derive(Debug, Clone)]
struct PairRecord {
    nl: String,
    nl_lemmas: Vec<String>,
    sql: String,
    template_id: String,
    provenance: Provenance,
}

impl PairRecord {
    fn from_pair(p: &TrainingPair) -> PairRecord {
        PairRecord {
            nl: p.nl.clone(),
            nl_lemmas: p.nl_lemmas.clone(),
            sql: p.sql_text(),
            template_id: p.template_id.clone(),
            provenance: p.provenance,
        }
    }

    /// Rebuild the in-memory pair; `record` is the 1-based position for
    /// errors.
    fn into_pair(self, record: usize) -> Result<TrainingPair, CorpusIoError> {
        let sql = parse_query(&self.sql).map_err(|e| CorpusIoError::BadSql {
            line: record,
            detail: format!("{e} in `{}`", self.sql),
        })?;
        let mut pair = TrainingPair::new(self.nl, sql, self.template_id, self.provenance);
        pair.nl_lemmas = self.nl_lemmas;
        Ok(pair)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nl".into(), Json::str(self.nl.clone())),
            (
                "nl_lemmas".into(),
                Json::Arr(self.nl_lemmas.iter().map(Json::str).collect()),
            ),
            ("sql".into(), Json::str(self.sql.clone())),
            ("template_id".into(), Json::str(self.template_id.clone())),
            ("provenance".into(), Json::str(self.provenance.label())),
        ])
    }

    /// Decode one record; `record` is the 1-based position for errors.
    fn from_json(v: &Json, record: usize) -> Result<PairRecord, CorpusIoError> {
        let field_str = |key: &str| -> Result<String, CorpusIoError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    CorpusIoError::Json(format!("record {record}: missing string field `{key}`"))
                })
        };
        let lemmas = v
            .get("nl_lemmas")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                CorpusIoError::Json(format!("record {record}: missing array field `nl_lemmas`"))
            })?
            .iter()
            .map(|l| {
                l.as_str().map(str::to_string).ok_or_else(|| {
                    CorpusIoError::Json(format!("record {record}: non-string lemma"))
                })
            })
            .collect::<Result<Vec<String>, CorpusIoError>>()?;
        let label = field_str("provenance")?;
        let provenance = Provenance::from_label(&label).ok_or_else(|| {
            CorpusIoError::Json(format!("record {record}: unknown provenance `{label}`"))
        })?;
        Ok(PairRecord {
            nl: field_str("nl")?,
            nl_lemmas: lemmas,
            sql: field_str("sql")?,
            template_id: field_str("template_id")?,
            provenance,
        })
    }
}

/// Errors raised while importing corpora.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusIoError {
    /// A line/record had the wrong shape.
    Malformed {
        /// 1-based line/record number.
        line: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// A SQL side failed to parse.
    BadSql {
        /// 1-based line/record number.
        line: usize,
        /// Parser error text.
        detail: String,
    },
    /// JSON (de)serialization failed.
    Json(String),
}

impl std::fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusIoError::Malformed { line, detail } => {
                write!(f, "malformed record at line {line}: {detail}")
            }
            CorpusIoError::BadSql { line, detail } => {
                write!(f, "unparseable SQL at line {line}: {detail}")
            }
            CorpusIoError::Json(e) => write!(f, "JSON error: {e}"),
        }
    }
}

impl std::error::Error for CorpusIoError {}

/// Export a corpus as pretty JSON. Output is deterministic: the same
/// corpus always serializes to byte-identical text.
pub fn corpus_to_json(corpus: &TrainingCorpus) -> Result<String, CorpusIoError> {
    let doc = Json::Arr(
        corpus
            .pairs()
            .iter()
            .map(|p| PairRecord::from_pair(p).to_json())
            .collect(),
    );
    Ok(doc.pretty())
}

/// Import a corpus from JSON produced by [`corpus_to_json`].
pub fn corpus_from_json(json: &str) -> Result<TrainingCorpus, CorpusIoError> {
    let doc = Json::parse(json).map_err(|e| CorpusIoError::Json(e.to_string()))?;
    let items = doc
        .as_arr()
        .ok_or_else(|| CorpusIoError::Json("top-level value must be an array".to_string()))?;
    let records = items
        .iter()
        .enumerate()
        .map(|(i, v)| PairRecord::from_json(v, i + 1))
        .collect::<Result<Vec<PairRecord>, CorpusIoError>>()?;
    let mut pairs = Vec::with_capacity(records.len());
    for (i, r) in records.into_iter().enumerate() {
        pairs.push(r.into_pair(i + 1)?);
    }
    Ok(TrainingCorpus::from_pairs(pairs))
}

/// Encode one pair as a single compact JSON object — one JSONL line,
/// without the trailing newline. Byte-deterministic: the same pair
/// always encodes to the same text, which is what lets the streaming
/// sinks digest their output and pin it in tests.
pub fn pair_to_jsonl(pair: &TrainingPair) -> String {
    let mut out = String::new();
    write_pair_jsonl(pair, &escaped_sql(&pair.sql), &mut out);
    out
}

/// The query's text as its `Display` impl prints it, escaped as
/// [`Json::compact`] escapes a string; the unescaped text is never
/// built on its own.
pub(crate) fn escaped_sql(query: &Query) -> String {
    let mut out = String::new();
    let _ = write!(Escaped(&mut out), "{query}");
    out
}

/// Append [`pair_to_jsonl`]'s line to `out`: the fields of
/// `PairRecord::to_json`, in its order, each escaped as
/// [`Json::compact`] escapes it. `sql` is [`escaped_sql`] of the pair's
/// query, which callers that see one query for many pairs escape once.
pub(crate) fn write_pair_jsonl(pair: &TrainingPair, sql: &str, out: &mut String) {
    out.push_str("{\"nl\":\"");
    escape_into(out, &pair.nl);
    out.push_str("\",\"nl_lemmas\":[");
    for (i, lemma) in pair.nl_lemmas.iter().enumerate() {
        out.push_str(if i == 0 { "\"" } else { ",\"" });
        escape_into(out, lemma);
        out.push('"');
    }
    out.push_str("],\"sql\":\"");
    out.push_str(sql);
    out.push_str("\",\"template_id\":\"");
    escape_into(out, &pair.template_id);
    out.push_str("\",\"provenance\":\"");
    escape_into(out, pair.provenance.label());
    out.push_str("\"}");
}

/// A `fmt::Write` that JSON-escapes everything written through it into
/// the wrapped string.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Import a corpus from JSONL text (one [`pair_to_jsonl`] record per
/// line; blank lines skipped). The inverse of what
/// [`crate::stream::JsonlSink`] writes.
pub fn corpus_from_jsonl(text: &str) -> Result<TrainingCorpus, CorpusIoError> {
    let mut pairs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let doc =
            Json::parse(line).map_err(|e| CorpusIoError::Json(format!("record {}: {e}", i + 1)))?;
        pairs.push(PairRecord::from_json(&doc, i + 1)?.into_pair(i + 1)?);
    }
    Ok(TrainingCorpus::from_pairs(pairs))
}

/// Import manually curated pairs from TSV text (`nl<TAB>sql` per line;
/// blank lines and `#` comments skipped). Pairs are lemmatized on load
/// and tagged [`Provenance::Manual`].
pub fn manual_corpus_from_tsv(tsv: &str) -> Result<TrainingCorpus, CorpusIoError> {
    let lemmatizer = Lemmatizer::new();
    let mut pairs = Vec::new();
    for (i, raw) in tsv.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((nl, sql_text)) = line.split_once('\t') else {
            return Err(CorpusIoError::Malformed {
                line: i + 1,
                detail: "expected `nl<TAB>sql`".to_string(),
            });
        };
        let sql = parse_query(sql_text.trim()).map_err(|e| CorpusIoError::BadSql {
            line: i + 1,
            detail: e.to_string(),
        })?;
        let mut pair = TrainingPair::new(nl.trim(), sql, "manual", Provenance::Manual);
        pair.nl_lemmas = lemmatizer.lemmatize_sentence(&pair.nl);
        pairs.push(pair);
    }
    Ok(TrainingCorpus::from_pairs(pairs))
}

/// Export a corpus as TSV (`nl<TAB>sql`), dropping lemmas/provenance.
pub fn corpus_to_tsv(corpus: &TrainingCorpus) -> String {
    let mut out = String::new();
    for p in corpus.pairs() {
        out.push_str(&p.nl.replace('\t', " "));
        out.push('\t');
        out.push_str(&p.sql_text());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainingCorpus {
        let mut p = TrainingPair::new(
            "show the name of patients with age @AGE",
            parse_query("SELECT name FROM patients WHERE age = @AGE").unwrap(),
            "select_col_where.Direct.0",
            Provenance::Seed,
        );
        p.nl_lemmas = vec!["show".into(), "the".into(), "name".into()];
        let q = TrainingPair::new(
            "display every patient",
            parse_query("SELECT * FROM patients").unwrap(),
            "t2",
            Provenance::Paraphrased,
        );
        TrainingCorpus::from_pairs(vec![p, q])
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let corpus = sample();
        let json = corpus_to_json(&corpus).unwrap();
        let back = corpus_from_json(&json).unwrap();
        assert_eq!(back.len(), corpus.len());
        for (a, b) in corpus.pairs().iter().zip(back.pairs()) {
            assert_eq!(a.nl, b.nl);
            assert_eq!(a.nl_lemmas, b.nl_lemmas);
            assert_eq!(a.sql, b.sql);
            assert_eq!(a.template_id, b.template_id);
            assert_eq!(a.provenance, b.provenance);
        }
    }

    #[test]
    fn bad_json_rejected() {
        // Lexically broken, structurally wrong, and schema-violating
        // inputs all surface as CorpusIoError::Json.
        for bad in [
            "not json",
            "",
            "[{",
            "{\"nl\":\"x\"}",                  // object, not array
            "[42]",                            // record is not an object
            "[{\"nl\":\"x\"}]",                // missing fields
            "[{\"nl\":1,\"nl_lemmas\":[],\"sql\":\"SELECT * FROM t\",\"template_id\":\"t\",\"provenance\":\"seed\"}]",
            "[{\"nl\":\"x\",\"nl_lemmas\":[7],\"sql\":\"SELECT * FROM t\",\"template_id\":\"t\",\"provenance\":\"seed\"}]",
        ] {
            assert!(
                matches!(corpus_from_json(bad), Err(CorpusIoError::Json(_))),
                "accepted `{bad}`"
            );
        }
    }

    #[test]
    fn json_with_bad_sql_rejected() {
        let json =
            r#"[{"nl":"x","nl_lemmas":[],"sql":"NOT SQL","template_id":"t","provenance":"seed"}]"#;
        assert!(matches!(
            corpus_from_json(json).unwrap_err(),
            CorpusIoError::BadSql { line: 1, .. }
        ));
    }

    #[test]
    fn tsv_import_lemmatizes_and_tags_manual() {
        let tsv = "# a comment\n\
                   How many patients are there?\tSELECT COUNT(*) FROM patients\n\
                   \n\
                   Show the oldest patients\tSELECT * FROM patients ORDER BY age DESC LIMIT 1\n";
        let corpus = manual_corpus_from_tsv(tsv).unwrap();
        assert_eq!(corpus.len(), 2);
        for p in corpus.pairs() {
            assert_eq!(p.provenance, Provenance::Manual);
            assert!(!p.nl_lemmas.is_empty());
        }
    }

    #[test]
    fn tsv_missing_tab_rejected() {
        let err = manual_corpus_from_tsv("just one field").unwrap_err();
        assert!(matches!(err, CorpusIoError::Malformed { line: 1, .. }));
    }

    #[test]
    fn tsv_bad_sql_rejected() {
        let err = manual_corpus_from_tsv("q\tDELETE FROM t").unwrap_err();
        assert!(matches!(err, CorpusIoError::BadSql { line: 1, .. }));
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let corpus = sample();
        let text: String = corpus
            .pairs()
            .iter()
            .map(|p| pair_to_jsonl(p) + "\n")
            .collect();
        assert_eq!(text.lines().count(), corpus.len(), "one line per pair");
        assert!(!text.contains("\n\n"), "compact lines only");
        let back = corpus_from_jsonl(&text).unwrap();
        assert_eq!(back.len(), corpus.len());
        for (a, b) in corpus.pairs().iter().zip(back.pairs()) {
            assert_eq!(a.nl, b.nl);
            assert_eq!(a.nl_lemmas, b.nl_lemmas);
            assert_eq!(a.sql, b.sql);
            assert_eq!(a.template_id, b.template_id);
            assert_eq!(a.provenance, b.provenance);
        }
    }

    #[test]
    fn jsonl_blank_lines_skipped_bad_lines_rejected() {
        let good = pair_to_jsonl(&sample().pairs()[0].clone());
        let text = format!("\n{good}\n\n");
        assert_eq!(corpus_from_jsonl(&text).unwrap().len(), 1);
        assert!(matches!(
            corpus_from_jsonl("{not json"),
            Err(CorpusIoError::Json(_))
        ));
        let bad_sql =
            r#"{"nl":"x","nl_lemmas":[],"sql":"NOT SQL","template_id":"t","provenance":"seed"}"#;
        assert!(matches!(
            corpus_from_jsonl(bad_sql),
            Err(CorpusIoError::BadSql { line: 1, .. })
        ));
    }

    /// The direct encoder must write the bytes of the compact JSON
    /// record, escapes included, and its line must import back into the
    /// same pair.
    #[test]
    fn jsonl_encoder_matches_compact_record() {
        const AWKWARD: &str = "\" \\ \n \t \u{1} \u{1F} \u{7F} é 你 🚀";
        let sql =
            parse_query(r#"SELECT name FROM patients WHERE name = 'O''Brien "q" \ x'"#).unwrap();
        let mut awkward = TrainingPair::new(
            format!("show {AWKWARD} names"),
            sql.clone(),
            format!("t{AWKWARD}"),
            Provenance::Comparative,
        );
        awkward.nl_lemmas = vec!["show".into(), AWKWARD.into(), "name".into()];
        let mut empty_lemma = TrainingPair::new("a  b", sql.clone(), "t", Provenance::Manual);
        empty_lemma.nl_lemmas = vec!["a".into(), String::new(), "b".into()];
        let no_lemmas = TrainingPair::new(AWKWARD, sql, "", Provenance::Dropped);
        for pair in [awkward, empty_lemma, no_lemmas] {
            let line = pair_to_jsonl(&pair);
            assert_eq!(line, PairRecord::from_pair(&pair).to_json().compact());
            assert!(!line.contains('\n'), "one line per pair: {line}");
            let back = corpus_from_jsonl(&line).unwrap();
            assert_eq!(back.pairs(), [pair]);
        }
    }

    #[test]
    fn unknown_provenance_rejected() {
        let record = r#"{"nl":"x","nl_lemmas":[],"sql":"SELECT * FROM t","template_id":"t","provenance":"bogus"}"#;
        let expected = CorpusIoError::Json("record 1: unknown provenance `bogus`".into());
        assert_eq!(corpus_from_jsonl(record).unwrap_err(), expected);
        assert_eq!(
            corpus_from_json(&format!("[{record}]")).unwrap_err(),
            expected
        );
    }

    #[test]
    fn tsv_export_round_trips_through_import() {
        let corpus = sample();
        let tsv = corpus_to_tsv(&corpus);
        let back = manual_corpus_from_tsv(&tsv).unwrap();
        assert_eq!(back.len(), corpus.len());
        for (a, b) in corpus.pairs().iter().zip(back.pairs()) {
            assert_eq!(a.nl, b.nl);
            assert_eq!(a.sql, b.sql);
        }
    }
}
