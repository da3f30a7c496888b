//! A TF-IDF nearest-neighbour retrieval baseline.
//!
//! The weakest pluggable model: it memorizes the training corpus and
//! answers with the SQL of the most similar training question under
//! TF-IDF-weighted cosine similarity. It provides a sanity floor for the
//! learned models and a fast stand-in for tests.
//!
//! `train` numbers the corpus tokens with dense `u32` ids that
//! `translate` only looks up, and the sparse vectors are kept sorted by
//! id so the cosine dot product is a merge-join with a *deterministic*
//! f32 summation order (the old `HashMap`-backed vectors summed in
//! iteration order, which varies between runs).

use dbpal_core::{TrainOptions, TrainingCorpus, TranslationModel};
use dbpal_sql::Query;
use std::collections::{HashMap, HashSet};

/// TF-IDF nearest-neighbour translator.
pub struct RetrievalModel {
    /// Token → id, numbered in corpus first-seen order by `train`.
    vocab: HashMap<String, u32>,
    /// Document frequency per token id.
    df: Vec<f32>,
    /// Stored (tf-idf vector, SQL) pairs; vectors sorted by id.
    entries: Vec<(Vec<(u32, f32)>, Query)>,
    n_docs: f32,
    /// Minimum cosine similarity to answer at all.
    pub min_similarity: f32,
}

/// `n` as a token id: distinct corpus tokens plus one query's tokens.
fn token_id(n: usize) -> u32 {
    u32::try_from(n).expect("retrieval token ids fit in u32")
}

impl RetrievalModel {
    /// Create an untrained retrieval model.
    pub fn new() -> Self {
        RetrievalModel {
            vocab: HashMap::new(),
            df: Vec::new(),
            entries: Vec::new(),
            n_docs: 0.0,
            min_similarity: 0.1,
        }
    }

    /// The id of a corpus token, numbering it if new.
    fn add_token(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.vocab.get(token) {
            return id;
        }
        let id = token_id(self.vocab.len());
        self.vocab.insert(token.to_string(), id);
        id
    }

    /// The ids of a query's tokens, without adding any to the table.
    /// Tokens `train` never saw are numbered after the trained ids in
    /// first-seen order, so they still weigh in the query norm and the
    /// answer is the one a freshly trained model gives this query.
    fn query_ids(&self, lemmas: &[String]) -> Vec<u32> {
        let mut unknown: HashMap<&str, u32> = HashMap::new();
        lemmas
            .iter()
            .map(|t| match self.vocab.get(t.as_str()) {
                Some(&id) => id,
                None => {
                    let next = token_id(self.vocab.len() + unknown.len());
                    *unknown.entry(t.as_str()).or_insert(next)
                }
            })
            .collect()
    }

    /// TF-IDF sparse vector for a token sequence, sorted by id.
    fn vectorize(&self, ids: &[u32]) -> Vec<(u32, f32)> {
        let mut sorted: Vec<u32> = ids.to_vec();
        sorted.sort_unstable();
        let mut v: Vec<(u32, f32)> = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let s = sorted[i];
            let mut tf = 0.0f32;
            while i < sorted.len() && sorted[i] == s {
                tf += 1.0;
                i += 1;
            }
            let df = self.df.get(s as usize).copied().unwrap_or(0.0);
            let idf = ((self.n_docs + 1.0) / (df + 1.0)).ln() + 1.0;
            v.push((s, tf * idf));
        }
        v
    }

    /// Cosine similarity of two id-sorted sparse vectors (merge-join).
    fn cosine(a: &[(u32, f32)], b: &[(u32, f32)]) -> f32 {
        let mut dot = 0.0f32;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f32 = a.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Nearest-neighbour lookup over query token ids; materializes the
    /// winning entry's SQL.
    fn nearest_sql(&self, query_ids: &[u32]) -> Option<Query> {
        let q = self.vectorize(query_ids);
        let mut best: Option<(f32, &Query)> = None;
        for (v, sql) in &self.entries {
            let sim = Self::cosine(&q, v);
            if best.as_ref().is_none_or(|(b, _)| sim > *b) {
                best = Some((sim, sql));
            }
        }
        match best {
            Some((sim, sql)) if sim >= self.min_similarity => Some(sql.clone()),
            _ => None,
        }
    }
}

impl Default for RetrievalModel {
    fn default() -> Self {
        Self::new()
    }
}

impl TranslationModel for RetrievalModel {
    fn name(&self) -> &'static str {
        "retrieval-tfidf"
    }

    fn train(&mut self, corpus: &TrainingCorpus, opts: &TrainOptions) {
        self.vocab.clear();
        self.entries.clear();
        let mut docs: Vec<(Vec<u32>, Query)> = corpus
            .pairs()
            .iter()
            .map(|p| {
                let toks: Vec<u32> = if p.nl_lemmas.is_empty() {
                    p.nl.to_lowercase()
                        .split_whitespace()
                        .map(|w| self.add_token(w))
                        .collect()
                } else {
                    p.nl_lemmas.iter().map(|w| self.add_token(w)).collect()
                };
                (toks, Query::clone(&p.sql))
            })
            .collect();
        if let Some(cap) = opts.max_pairs {
            docs.truncate(cap);
        }
        self.n_docs = docs.len() as f32;
        self.df = vec![0.0; self.vocab.len()];
        for (toks, _) in &docs {
            let mut seen = HashSet::new();
            for &t in toks {
                if seen.insert(t) {
                    self.df[t as usize] += 1.0;
                }
            }
        }
        for (toks, sql) in docs {
            let v = self.vectorize(&toks);
            self.entries.push((v, sql));
        }
    }

    fn translate(&self, nl_lemmas: &[String]) -> Option<Query> {
        if self.entries.is_empty() {
            return None;
        }
        self.nearest_sql(&self.query_ids(nl_lemmas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_core::{Provenance, TrainingPair};
    use dbpal_sql::parse_query;

    fn corpus() -> TrainingCorpus {
        let mut pairs = Vec::new();
        for (nl, sql) in [
            ("show the name of patient", "SELECT name FROM patients"),
            ("how many patient be there", "SELECT COUNT(*) FROM patients"),
            (
                "what be the average age of patient",
                "SELECT AVG(age) FROM patients",
            ),
        ] {
            let mut p = TrainingPair::new(nl, parse_query(sql).unwrap(), "t", Provenance::Seed);
            p.nl_lemmas = nl.split_whitespace().map(str::to_string).collect();
            pairs.push(p);
        }
        TrainingCorpus::from_pairs(pairs)
    }

    fn lemmas(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn exact_question_retrieves_its_sql() {
        let mut m = RetrievalModel::new();
        m.train(&corpus(), &TrainOptions::fast());
        let q = m.translate(&lemmas("show the name of patient")).unwrap();
        assert_eq!(q, parse_query("SELECT name FROM patients").unwrap());
    }

    #[test]
    fn similar_question_retrieves_nearest() {
        let mut m = RetrievalModel::new();
        m.train(&corpus(), &TrainOptions::fast());
        let q = m.translate(&lemmas("average age of patient")).unwrap();
        assert!(q.to_string().contains("AVG"));
    }

    #[test]
    fn dissimilar_question_returns_none() {
        let mut m = RetrievalModel::new();
        m.min_similarity = 0.5;
        m.train(&corpus(), &TrainOptions::fast());
        assert!(m.translate(&lemmas("zork frobnicate quux")).is_none());
    }

    #[test]
    fn untrained_returns_none() {
        let m = RetrievalModel::new();
        assert!(m.translate(&lemmas("anything")).is_none());
    }

    #[test]
    fn idf_downweights_common_words() {
        let mut m = RetrievalModel::new();
        m.train(&corpus(), &TrainOptions::fast());
        // "patient" appears in every doc; "average" in one. The distinctive
        // word must dominate.
        let q = m.translate(&lemmas("patient average")).unwrap();
        assert!(q.to_string().contains("AVG"));
    }

    #[test]
    fn novel_query_tokens_leave_the_token_table_unchanged() {
        let mut m = RetrievalModel::new();
        m.train(&corpus(), &TrainOptions::fast());
        let trained = m.vocab.len();
        for i in 0..64 {
            m.translate(&lemmas(&format!("how many novel{i} patient unseen{i}")));
        }
        assert_eq!(m.vocab.len(), trained);
    }

    #[test]
    fn repeated_translation_is_deterministic() {
        // Merge-join cosine sums in id order, so the same query must
        // produce the identical answer on every call.
        let mut m = RetrievalModel::new();
        m.train(&corpus(), &TrainOptions::fast());
        let q = lemmas("how many patient");
        let first = m.translate(&q);
        for _ in 0..10 {
            assert_eq!(m.translate(&q), first);
        }
    }
}
