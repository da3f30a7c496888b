//! The pluggable model interface.
//!
//! "DBPal is fully pluggable and is designed to improve the accuracy of
//! any existing NL2SQL deep learning model" (paper §3.4). This module
//! defines the contract a model must satisfy to be trained by the
//! pipeline, plus the evaluation helpers shared by the benchmarks.

use crate::TrainingCorpus;
use dbpal_nlp::Lemmatizer;
use dbpal_sql::{exact_set_match, Query};
use dbpal_util::intern::{Sym, Vocab};

/// Options controlling a training run.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// RNG seed for parameter initialization and shuffling.
    pub seed: u64,
    /// Optional cap on the number of training pairs (random prefix after
    /// shuffling); used to scale the Figure 4 sweep down to laptop time.
    pub max_pairs: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 8,
            seed: 13,
            max_pairs: None,
        }
    }
}

impl TrainOptions {
    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        TrainOptions {
            epochs: 2,
            max_pairs: Some(500),
            ..Default::default()
        }
    }
}

/// A pluggable NL→SQL translation model.
///
/// Models consume *lemmatized, anonymized* NL token sequences (the
/// runtime's pre-processing output, §4.1) and produce SQL queries with
/// placeholders (the post-processor restores constants and expands
/// `@JOIN`).
pub trait TranslationModel {
    /// Short human-readable model name.
    fn name(&self) -> &'static str;

    /// Train (or re-train) on a corpus. Implementations must reset any
    /// previous state.
    fn train(&mut self, corpus: &TrainingCorpus, opts: &TrainOptions);

    /// Translate a lemmatized NL token sequence into SQL. `None` when the
    /// model cannot produce a well-formed query.
    fn translate(&self, nl_lemmas: &[String]) -> Option<Query>;

    /// Translate an interned lemma sequence (ids issued by `vocab`).
    ///
    /// The default materializes the lemmas and delegates to
    /// [`TranslationModel::translate`]; no model overrides it. Kept for
    /// e2ebench's layer replay, which times this call; the serving path
    /// calls `translate`.
    fn translate_syms(&self, lemmas: &[Sym], vocab: &Vocab) -> Option<Query> {
        let strings: Vec<String> = lemmas
            .iter()
            .map(|&s| String::from(vocab.resolve(s)))
            .collect();
        self.translate(&strings)
    }
}

/// One evaluation example: a (pre-anonymized) NL question and its gold
/// SQL. The paper "evaluates on test sets with pre-anonymized values"
/// (§4.1), so `nl` contains `@PLACEHOLDER` tokens.
#[derive(Debug, Clone)]
pub struct EvalExample {
    /// The NL question (raw, not lemmatized).
    pub nl: String,
    /// Gold SQL with placeholders.
    pub gold: Query,
    /// Equivalent alternative gold queries, if any (the Patients
    /// benchmark "manually enumerated possible semantically equivalent
    /// SQL query answers", §6.2.1).
    pub alternatives: Vec<Query>,
}

impl EvalExample {
    /// A simple example with no alternatives.
    pub fn new(nl: impl Into<String>, gold: Query) -> Self {
        EvalExample {
            nl: nl.into(),
            gold,
            alternatives: Vec::new(),
        }
    }

    /// Whether a predicted query matches the gold (or any enumerated
    /// alternative) under exact set match.
    pub fn matches(&self, predicted: &Query) -> bool {
        exact_set_match(predicted, &self.gold)
            || self
                .alternatives
                .iter()
                .any(|alt| exact_set_match(predicted, alt))
    }
}

/// Exact-set-match accuracy of a model over a workload.
///
/// NL inputs are lemmatized with the same [`Lemmatizer`] the pipeline
/// uses, mirroring the runtime pre-processing.
pub fn evaluate_exact(model: &dyn TranslationModel, workload: &[EvalExample]) -> f64 {
    if workload.is_empty() {
        return 0.0;
    }
    let lemmatizer = Lemmatizer::new();
    let mut correct = 0usize;
    for ex in workload {
        let lemmas = lemmatizer.lemmatize_sentence(&ex.nl);
        if let Some(pred) = model.translate(&lemmas) {
            if ex.matches(&pred) {
                correct += 1;
            }
        }
    }
    correct as f64 / workload.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Provenance, TrainingPair};
    use dbpal_sql::parse_query;
    use std::collections::HashMap;

    /// A trivial lookup model for testing the API plumbing.
    struct Memorizer {
        table: HashMap<String, Query>,
    }

    impl TranslationModel for Memorizer {
        fn name(&self) -> &'static str {
            "memorizer"
        }

        fn train(&mut self, corpus: &TrainingCorpus, _opts: &TrainOptions) {
            self.table.clear();
            for (nl, sql) in corpus.text_pairs() {
                self.table.insert(nl, parse_query(&sql).unwrap());
            }
        }

        fn translate(&self, nl_lemmas: &[String]) -> Option<Query> {
            self.table.get(&nl_lemmas.join(" ")).cloned()
        }
    }

    fn corpus() -> TrainingCorpus {
        let lem = dbpal_nlp::Lemmatizer::new();
        let mut pairs = Vec::new();
        for (nl, sql) in [
            ("show the name of patients", "SELECT name FROM patients"),
            (
                "show the name of patients with age @AGE",
                "SELECT name FROM patients WHERE age = @AGE",
            ),
        ] {
            let mut p = TrainingPair::new(nl, parse_query(sql).unwrap(), "t", Provenance::Seed);
            p.nl_lemmas = lem.lemmatize_sentence(nl);
            pairs.push(p);
        }
        TrainingCorpus::from_pairs(pairs)
    }

    #[test]
    fn memorizer_round_trips_through_api() {
        let mut m = Memorizer {
            table: HashMap::new(),
        };
        m.train(&corpus(), &TrainOptions::fast());
        let workload = vec![
            EvalExample::new(
                "Shows the names of patients",
                parse_query("SELECT name FROM patients").unwrap(),
            ),
            EvalExample::new(
                "unknown question",
                parse_query("SELECT age FROM patients").unwrap(),
            ),
        ];
        // Lemmatization maps "Shows the names" onto the trained "show the
        // name"; the unknown question misses.
        let acc = evaluate_exact(&m, &workload);
        assert!((acc - 0.5).abs() < 1e-9, "accuracy {acc}");
    }

    #[test]
    fn alternatives_count_as_correct() {
        let gold = parse_query("SELECT name FROM patients ORDER BY age DESC LIMIT 1").unwrap();
        let alt =
            parse_query("SELECT name FROM patients WHERE age = (SELECT MAX(age) FROM patients)")
                .unwrap();
        let mut ex = EvalExample::new("who is the oldest patient", gold);
        ex.alternatives.push(alt.clone());
        assert!(ex.matches(&alt));
    }

    #[test]
    fn empty_workload_scores_zero() {
        let m = Memorizer {
            table: HashMap::new(),
        };
        assert_eq!(evaluate_exact(&m, &[]), 0.0);
    }
}
