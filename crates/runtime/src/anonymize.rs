//! The parameter handler: constant anonymization (paper §4.1).
//!
//! "The Parameter Handler is responsible for replacing the constants in
//! the input NL query with placeholders to make the translation model
//! independent from the actual database." String constants are matched
//! against the [`ValueIndex`] (exactly, then by Jaccard similarity);
//! numeric constants are bound to a column via the surrounding context
//! (an explicit attribute mention, or a domain-specific comparative such
//! as "older than" implying an age column).

use std::borrow::Cow;

use crate::ValueIndex;
use dbpal_nlp::{ComparativeDictionary, ComparativeSense, Lemmatizer};
use dbpal_schema::{ColumnId, Schema, SemanticDomain, Value};

/// One captured constant.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// Placeholder name without the leading `@` (e.g. `AGE`, `AGE_LOW`).
    pub placeholder: String,
    /// The constant value (canonical database spelling for fuzzy hits).
    pub value: Value,
    /// The column the constant was attributed to.
    pub column: ColumnId,
}

/// The anonymization result.
#[derive(Debug, Clone, PartialEq)]
pub struct Anonymized {
    /// The NL query with constants replaced by `@PLACEHOLDER` tokens.
    pub text: String,
    /// Captured constants in appearance order.
    pub bindings: Vec<Binding>,
}

/// The parameter handler for one database.
pub struct ParameterHandler<'a> {
    schema: &'a Schema,
    index: &'a ValueIndex,
    lemmatizer: Cow<'a, Lemmatizer>,
    comparatives: Cow<'a, ComparativeDictionary>,
    /// Similarity floor for fuzzy value matching.
    pub min_similarity: f64,
}

impl<'a> ParameterHandler<'a> {
    /// Create a handler over a schema and its value index, building its
    /// own lemmatizer and comparative dictionary. For per-query use,
    /// prefer [`ParameterHandler::reusing`] — the irregular-form tables
    /// are not free to rebuild.
    pub fn new(schema: &'a Schema, index: &'a ValueIndex) -> Self {
        ParameterHandler {
            schema,
            index,
            lemmatizer: Cow::Owned(Lemmatizer::new()),
            comparatives: Cow::Owned(ComparativeDictionary::new()),
            min_similarity: 0.45,
        }
    }

    /// Create a handler that borrows a caller-owned lemmatizer and
    /// comparative dictionary, making construction free. [`crate::Nlidb`]
    /// uses this so the per-query hot path rebuilds nothing.
    pub fn reusing(
        schema: &'a Schema,
        index: &'a ValueIndex,
        lemmatizer: &'a Lemmatizer,
        comparatives: &'a ComparativeDictionary,
    ) -> Self {
        ParameterHandler {
            schema,
            index,
            lemmatizer: Cow::Borrowed(lemmatizer),
            comparatives: Cow::Borrowed(comparatives),
            min_similarity: 0.45,
        }
    }

    /// Anonymize an input NL query.
    ///
    /// This is a lint-audited hot function (L030): placeholder text is
    /// tracked as indices into `bindings` and rendered once at the end,
    /// so the scanning passes themselves never clone or format strings.
    pub fn anonymize(&self, input: &str) -> Anonymized {
        // Word tokens with original spelling preserved.
        let words: Vec<String> = split_words(input);
        let mut consumed = vec![false; words.len()];
        // Index into `bindings` of the placeholder rendered at this word.
        let mut replacement: Vec<Option<usize>> = vec![None; words.len()];
        let mut bindings: Vec<Binding> = Vec::new();

        // Pass 1: exact text-value matches, longest n-gram first.
        for n in (1..=4usize).rev() {
            if n > words.len() {
                continue;
            }
            for start in 0..=words.len() - n {
                if consumed[start..start + n].iter().any(|&c| c) {
                    continue;
                }
                let span = words[start..start + n].join(" ");
                let hits = self.index.lookup_exact(&span);
                if let Some((cid, canonical)) = hits.first() {
                    // Skip single lowercase stopword-ish values to avoid
                    // anonymizing function words that happen to be data.
                    if n == 1 && span.len() < 3 {
                        continue;
                    }
                    let ph = self.fresh_placeholder(*cid, &bindings);
                    for c in consumed.iter_mut().skip(start).take(n) {
                        *c = true;
                    }
                    replacement[start] = Some(bindings.len());
                    bindings.push(text_binding(ph, canonical, *cid));
                }
            }
        }

        // Pass 2: fuzzy matches for capitalized spans not yet consumed.
        for n in (1..=3usize).rev() {
            if n > words.len() {
                continue;
            }
            for start in 0..=words.len() - n {
                if consumed[start..start + n].iter().any(|&c| c) {
                    continue;
                }
                // Require a capitalized span (a likely proper constant),
                // not at position 0 where capitalization is sentence case.
                let capitalized = words[start..start + n]
                    .iter()
                    .all(|w| w.chars().next().is_some_and(char::is_uppercase));
                if !capitalized || (start == 0 && n == 1) {
                    continue;
                }
                let span = words[start..start + n].join(" ");
                if let Some((cid, canonical, _)) =
                    self.index.lookup_fuzzy(&span, self.min_similarity)
                {
                    let ph = self.fresh_placeholder(cid, &bindings);
                    for c in consumed.iter_mut().skip(start).take(n) {
                        *c = true;
                    }
                    replacement[start] = Some(bindings.len());
                    bindings.push(Binding {
                        placeholder: ph,
                        value: Value::Text(canonical),
                        column: cid,
                    });
                }
            }
        }

        // Pass 3: numbers, with BETWEEN handling.
        let mut i = 0;
        while i < words.len() {
            let number = if consumed[i] {
                None
            } else {
                parse_number(&words[i])
            };
            let Some(value) = number else {
                i += 1;
                continue;
            };
            // "between N1 and N2"?
            let high = if i >= 1
                && words[i - 1].eq_ignore_ascii_case("between")
                && i + 2 < words.len()
                && words[i + 1].eq_ignore_ascii_case("and")
            {
                parse_number(&words[i + 2])
            } else {
                None
            };
            let column = self.infer_numeric_column(&words, i);
            if let Some(cid) = column {
                if let Some(hi) = high {
                    consumed[i] = true;
                    consumed[i + 2] = true;
                    replacement[i] = Some(bindings.len());
                    bindings.push(self.range_binding(cid, "_LOW", value));
                    replacement[i + 2] = Some(bindings.len());
                    bindings.push(self.range_binding(cid, "_HIGH", hi));
                    i += 3;
                    continue;
                }
                let ph = self.fresh_placeholder(cid, &bindings);
                consumed[i] = true;
                replacement[i] = Some(bindings.len());
                bindings.push(Binding {
                    placeholder: ph,
                    value,
                    column: cid,
                });
            }
            i += 1;
        }

        // Render the anonymized text in one pass.
        let mut text = String::with_capacity(input.len());
        for (i, w) in words.iter().enumerate() {
            let rendered: &str = match replacement[i] {
                Some(b) => &bindings[b].placeholder,
                None if consumed[i] => continue, // swallowed by a multi-word span
                None => w,
            };
            if !text.is_empty() {
                text.push(' ');
            }
            if replacement[i].is_some() {
                text.push('@');
            }
            text.push_str(rendered);
        }
        Anonymized { text, bindings }
    }

    /// Materialize a `{BASE}_LOW` / `{BASE}_HIGH` range binding. Split
    /// out of [`ParameterHandler::anonymize`] so the hot function itself
    /// performs no string formatting.
    fn range_binding(&self, cid: ColumnId, suffix: &str, value: Value) -> Binding {
        let base = self.placeholder_base(cid);
        let mut placeholder = String::with_capacity(base.len() + suffix.len());
        placeholder.push_str(&base);
        placeholder.push_str(suffix);
        Binding {
            placeholder,
            value,
            column: cid,
        }
    }

    /// The placeholder base name for a column (its uppercase name).
    fn placeholder_base(&self, cid: ColumnId) -> String {
        self.schema.column(cid).name().to_uppercase()
    }

    /// A placeholder name unused so far (`AGE`, then `AGE_2`, ...).
    fn fresh_placeholder(&self, cid: ColumnId, bindings: &[Binding]) -> String {
        let base = self.placeholder_base(cid);
        if !bindings.iter().any(|b| b.placeholder == base) {
            return base;
        }
        let mut k = 2;
        loop {
            let candidate = format!("{base}_{k}");
            if !bindings.iter().any(|b| b.placeholder == candidate) {
                return candidate;
            }
            k += 1;
        }
    }

    /// Infer the column a number refers to from the left context:
    /// an explicit attribute mention wins, then a domain comparative
    /// ("older than 80" → the age-domain column), then the schema's only
    /// numeric column (if unique), then the first numeric column.
    fn infer_numeric_column(&self, words: &[String], pos: usize) -> Option<ColumnId> {
        let window_start = pos.saturating_sub(4);
        let context: Vec<String> = words[window_start..pos]
            .iter()
            .map(|w| self.lemmatizer.lemma(&w.to_lowercase()))
            .collect();

        let numeric_cols: Vec<ColumnId> = self
            .schema
            .all_column_ids()
            .filter(|c| self.schema.column(*c).sql_type().is_numeric())
            .collect();

        // Explicit attribute mention (closest to the number wins).
        let mut best: Option<(usize, ColumnId)> = None;
        for &cid in &numeric_cols {
            for phrase in self.schema.column(cid).nl_phrases() {
                let lemmas: Vec<String> = self
                    .lemmatizer
                    .lemmatize_sentence(&phrase)
                    .into_iter()
                    .collect();
                if lemmas.is_empty() || lemmas.len() > context.len() {
                    continue;
                }
                for start in 0..=context.len() - lemmas.len() {
                    if context[start..start + lemmas.len()] == lemmas[..] {
                        let dist = context.len() - start;
                        if best.is_none_or(|(d, _)| dist < d) {
                            best = Some((dist, cid));
                        }
                    }
                }
            }
        }
        if let Some((_, cid)) = best {
            return Some(cid);
        }

        // Domain comparative cue.
        for &cid in &numeric_cols {
            let domain = self.schema.column(cid).domain();
            if domain == SemanticDomain::Generic {
                continue;
            }
            for sense in [ComparativeSense::Greater, ComparativeSense::Less] {
                for phrase in self.comparatives.domain_phrases(domain, sense) {
                    let first = phrase.split(' ').next().unwrap_or(phrase);
                    let lemma = self.lemmatizer.lemma(first);
                    if context.contains(&lemma) {
                        return Some(cid);
                    }
                }
            }
        }

        // Unique numeric column, else first.
        numeric_cols.first().copied()
    }
}

/// Split into word tokens preserving original case (digits, letters,
/// inner hyphens/apostrophes). A numeral keeps its sign, decimal point
/// and digit groups (`-5`, `1.5`, `1,000`): in a word that starts with a
/// digit or a sign, a `.` between two digits stays, and so does a `,`
/// between a digit and exactly three digits; a `-` that starts a word
/// and is followed by a digit is a sign.
fn split_words(input: &str) -> Vec<String> {
    let digit_at = |i: usize| input.as_bytes().get(i).is_some_and(u8::is_ascii_digit);
    let alphanumeric_after = |i: usize| {
        input
            .get(i + 1..)
            .and_then(|rest| rest.chars().next())
            .is_some_and(char::is_alphanumeric)
    };
    let mut words = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        // No alphanumeric comes right before a `-` seen here: a `-`
        // after one and before a digit joins the word in front of it.
        let signed = c == '-' && digit_at(start + 1);
        if !(c.is_alphanumeric() || signed) {
            continue;
        }
        let numeral = signed || c.is_ascii_digit();
        let mut end = start + c.len_utf8();
        while let Some((i, c)) = chars.next_if(|&(i, c)| match c {
            '-' | '\'' => alphanumeric_after(i),
            '.' => numeral && digit_at(i - 1) && digit_at(i + 1),
            ',' => {
                numeral && digit_at(i - 1) && (1..=3).all(|k| digit_at(i + k)) && !digit_at(i + 4)
            }
            _ => c.is_alphanumeric(),
        }) {
            end = i + c.len_utf8();
        }
        words.extend(input.get(start..end).map(String::from));
    }
    words
}

/// Materialize a text binding from an index hit. The canonical spelling
/// is copied here, outside the lint-audited hot function: the binding
/// must own its value, so this single allocation is inherent.
fn text_binding(placeholder: String, canonical: &str, column: ColumnId) -> Binding {
    Binding {
        placeholder,
        value: Value::Text(String::from(canonical)),
        column,
    }
}

/// A numeral's value: an integer, else a finite float such as `1e3`.
/// Only a word that starts with an ASCII digit, or with `-` and one, is
/// a numeral, so words that `f64` also parses (`nan`, `inf`,
/// `Infinity`) stay words. Digit-group commas (`1,000`) are dropped
/// before parsing.
fn parse_number(word: &str) -> Option<Value> {
    let unsigned = word.strip_prefix('-').unwrap_or(word);
    if !unsigned.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let numeral = if word.contains(',') {
        Cow::Owned(word.replace(',', ""))
    } else {
        Cow::Borrowed(word)
    };
    if let Ok(i) = numeral.parse::<i64>() {
        return Some(Value::Int(i));
    }
    numeral
        .parse::<f64>()
        .ok()
        .filter(|f| f.is_finite())
        .map(Value::Float)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_engine::Database;
    use dbpal_schema::{SchemaBuilder, SqlType};

    fn setup() -> (Database, ValueIndex) {
        let schema = SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column("disease", SqlType::Text)
                    .column("length_of_stay", SqlType::Integer)
            })
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (n, a, d, l) in [
            ("Ann Smith", 80, "influenza", 10),
            ("Bob Jones", 35, "asthma", 3),
        ] {
            db.insert(
                "patients",
                vec![n.into(), Value::Int(a), d.into(), Value::Int(l)],
            )
            .unwrap();
        }
        let idx = ValueIndex::build(&db);
        (db, idx)
    }

    #[test]
    fn paper_example_age_80() {
        // §4.1: "Show me the name of all patients with age 80" →
        // "... with age @AGE".
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("Show me the name of all patients with age 80");
        assert_eq!(a.text, "Show me the name of all patients with age @AGE");
        assert_eq!(a.bindings.len(), 1);
        assert_eq!(a.bindings[0].placeholder, "AGE");
        assert_eq!(a.bindings[0].value, Value::Int(80));
    }

    #[test]
    fn string_constant_matched_exactly() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("Which patients have influenza?");
        assert!(a.text.contains("@DISEASE"), "got: {}", a.text);
        assert_eq!(a.bindings[0].value, Value::Text("influenza".into()));
    }

    #[test]
    fn multiword_value_consumed_whole() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("show the disease of Ann Smith");
        assert!(a.text.contains("@NAME"), "got: {}", a.text);
        assert!(!a.text.contains("Ann"));
        assert!(!a.text.contains("Smith"));
        assert_eq!(a.bindings[0].value, Value::Text("Ann Smith".into()));
    }

    #[test]
    fn fuzzy_match_replaces_misspelling() {
        // §4.1's similar-constant case.
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("show the disease of Ann Smyth");
        assert!(a.text.contains("@NAME"), "got: {}", a.text);
        assert_eq!(a.bindings[0].value, Value::Text("Ann Smith".into()));
    }

    #[test]
    fn unknown_constant_left_in_place() {
        // §4.1: "we use the constant as given by the user and do not
        // replace it" when similarity is too low.
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("show the disease of Zebulon Xylophone");
        assert!(a.text.contains("Zebulon"), "got: {}", a.text);
        assert!(a.bindings.is_empty());
    }

    #[test]
    fn domain_comparative_infers_age() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("patients older than 70");
        assert!(a.text.contains("@AGE"), "got: {}", a.text);
        assert_eq!(a.bindings[0].value, Value::Int(70));
    }

    #[test]
    fn explicit_attribute_beats_domain() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("patients with length of stay above 5");
        assert!(a.text.contains("@LENGTH_OF_STAY"), "got: {}", a.text);
    }

    #[test]
    fn between_produces_low_high() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("patients with age between 30 and 50");
        assert!(a.text.contains("@AGE_LOW"), "got: {}", a.text);
        assert!(a.text.contains("@AGE_HIGH"));
        assert_eq!(a.bindings.len(), 2);
        assert_eq!(a.bindings[0].value, Value::Int(30));
        assert_eq!(a.bindings[1].value, Value::Int(50));
    }

    #[test]
    fn only_digit_led_words_are_numerals() {
        // `f64::from_str` also reads `nan`, `inf` and `infinity` in any
        // case. Those words are no constants: they stay in the text and
        // bind no NaN or infinite value.
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        for (question, word) in [
            ("Show the name of the patient called Infinity", "Infinity"),
            ("show the names of patients with age NaN", "NaN"),
            ("patients aged between nan and 5", "nan"),
        ] {
            let a = handler.anonymize(question);
            assert!(a.text.split(' ').any(|w| w == word), "got: {}", a.text);
            assert!(
                a.bindings
                    .iter()
                    .all(|b| !matches!(b.value, Value::Float(f) if !f.is_finite())),
                "`{question}` bound {:?}",
                a.bindings
            );
        }
        // Digit-led numerals bind as they always have, and punctuation
        // that is no sign, decimal point or digit group still splits.
        let ages = [("AGE", Value::Int(20)), ("AGE_2", Value::Int(30))];
        for (question, expected) in [
            ("patients with age 80", &[("AGE", Value::Int(80))][..]),
            ("patients with age 80.", &[("AGE", Value::Int(80))]),
            (
                "patients with age between 20 and 30",
                &[("AGE_LOW", Value::Int(20)), ("AGE_HIGH", Value::Int(30))],
            ),
            ("patients with ages 20,30", &ages),
            ("patients aged 20-30", &[]),
            ("patients with age 1e3", &[("AGE", Value::Float(1000.0))]),
            (
                "patients with age 1,0000",
                &[("AGE", Value::Int(1)), ("AGE_2", Value::Int(0))],
            ),
        ] {
            let a = handler.anonymize(question);
            let bound: Vec<(&str, Value)> = a
                .bindings
                .iter()
                .map(|b| (b.placeholder.as_str(), b.value.clone()))
                .collect();
            assert_eq!(bound, expected, "`{question}` → {}", a.text);
        }
    }

    #[test]
    fn numerals_keep_sign_decimals_and_digit_groups() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        for (question, expected) in [
            ("patients with age 1.5", Value::Float(1.5)),
            ("patients older than -5", Value::Int(-5)),
            ("patients with age 1,000", Value::Int(1000)),
            ("patients with age -1,000.5", Value::Float(-1000.5)),
        ] {
            let a = handler.anonymize(question);
            assert_eq!(a.bindings.len(), 1, "`{question}` → {}", a.text);
            assert_eq!(a.bindings[0].value, expected, "`{question}`");
            assert!(a.text.ends_with(" @AGE"), "`{question}` → {}", a.text);
        }
    }

    #[test]
    fn repeated_column_gets_suffixed_placeholder() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("patients with influenza or asthma");
        assert!(a.text.contains("@DISEASE"), "got: {}", a.text);
        assert!(a.text.contains("@DISEASE_2"), "got: {}", a.text);
        assert_eq!(a.bindings.len(), 2);
    }

    #[test]
    fn no_constants_is_identity() {
        let (db, idx) = setup();
        let handler = ParameterHandler::new(db.schema(), &idx);
        let a = handler.anonymize("show the name of all patients");
        assert_eq!(a.text, "show the name of all patients");
        assert!(a.bindings.is_empty());
    }
}
