//! A TF-IDF nearest-neighbour retrieval baseline.
//!
//! The weakest pluggable model: it memorizes the training corpus and
//! answers with the SQL of the most similar training question under
//! TF-IDF-weighted cosine similarity. It provides a sanity floor for the
//! learned models and a fast stand-in for tests.
//!
//! Tokens are interned into a private [`Vocab`] so the hot `translate`
//! path compares `u32` ids instead of hashing strings, and the sparse
//! vectors are kept sorted by id so the cosine dot product is a
//! merge-join with a *deterministic* f32 summation order (the old
//! `HashMap`-backed vectors summed in iteration order, which varies
//! between runs).

use dbpal_core::{TrainOptions, TrainingCorpus, TranslationModel};
use dbpal_sql::Query;
use dbpal_util::intern::{Sym, Vocab};
use std::collections::HashMap;

/// TF-IDF nearest-neighbour translator.
pub struct RetrievalModel {
    /// Private interner for this model's token space. Re-created on every
    /// `train` so ids stay dense and corpus-order-deterministic.
    vocab: Vocab,
    /// Document frequency per token.
    df: HashMap<Sym, f32>,
    /// Stored (tf-idf vector, SQL) pairs; vectors sorted by `Sym`.
    entries: Vec<(Vec<(Sym, f32)>, Query)>,
    n_docs: f32,
    /// Minimum cosine similarity to answer at all.
    pub min_similarity: f32,
}

impl RetrievalModel {
    /// Create an untrained retrieval model.
    pub fn new() -> Self {
        RetrievalModel {
            vocab: Vocab::new(),
            df: HashMap::new(),
            entries: Vec::new(),
            n_docs: 0.0,
            min_similarity: 0.1,
        }
    }

    /// TF-IDF sparse vector for a token sequence, sorted by `Sym`.
    fn vectorize(&self, syms: &[Sym]) -> Vec<(Sym, f32)> {
        let mut sorted: Vec<Sym> = syms.to_vec();
        sorted.sort_unstable();
        let mut v: Vec<(Sym, f32)> = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let s = sorted[i];
            let mut tf = 0.0f32;
            while i < sorted.len() && sorted[i] == s {
                tf += 1.0;
                i += 1;
            }
            let df = self.df.get(&s).copied().unwrap_or(0.0);
            let idf = ((self.n_docs + 1.0) / (df + 1.0)).ln() + 1.0;
            v.push((s, tf * idf));
        }
        v
    }

    /// Cosine similarity of two id-sorted sparse vectors (merge-join).
    fn cosine(a: &[(Sym, f32)], b: &[(Sym, f32)]) -> f32 {
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

    /// Nearest-neighbour lookup over interned query tokens; materializes
    /// the winning entry's SQL. Unknown tokens still carry ids (interned
    /// at query time) so the query norm matches the string-era behavior.
    fn nearest_sql(&self, query_syms: &[Sym]) -> Option<Query> {
        let q = self.vectorize(query_syms);
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
        self.vocab = Vocab::new();
        self.df.clear();
        self.entries.clear();
        let mut docs: Vec<(Vec<Sym>, Query)> = corpus
            .pairs()
            .iter()
            .map(|p| {
                let toks: Vec<Sym> = if p.nl_lemmas.is_empty() {
                    p.nl.to_lowercase()
                        .split_whitespace()
                        .map(|w| self.vocab.intern(w))
                        .collect()
                } else {
                    p.nl_lemmas.iter().map(|w| self.vocab.intern(w)).collect()
                };
                (toks, Query::clone(&p.sql))
            })
            .collect();
        if let Some(cap) = opts.max_pairs {
            docs.truncate(cap);
        }
        self.n_docs = docs.len() as f32;
        for (toks, _) in &docs {
            let mut seen = std::collections::HashSet::new();
            for &t in toks {
                if seen.insert(t) {
                    *self.df.entry(t).or_insert(0.0) += 1.0;
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
        let mut local = Vec::with_capacity(nl_lemmas.len());
        for t in nl_lemmas {
            local.push(self.vocab.intern(t));
        }
        self.nearest_sql(&local)
    }

    fn translate_syms(&self, lemmas: &[Sym], vocab: &Vocab) -> Option<Query> {
        if self.entries.is_empty() {
            return None;
        }
        // The caller's ids come from a different interner; re-map into
        // this model's private token space without building Strings.
        let mut local = Vec::with_capacity(lemmas.len());
        for &s in lemmas {
            local.push(self.vocab.intern(vocab.resolve(s)));
        }
        self.nearest_sql(&local)
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
    fn translate_syms_matches_translate() {
        let mut m = RetrievalModel::new();
        m.train(&corpus(), &TrainOptions::fast());
        let shared = Vocab::new();
        for q in [
            "show the name of patient",
            "average age of patient",
            "zork frobnicate quux",
            "patient average",
        ] {
            let words = lemmas(q);
            let syms: Vec<Sym> = words.iter().map(|w| shared.intern(w)).collect();
            assert_eq!(
                m.translate_syms(&syms, &shared),
                m.translate(&words),
                "divergence for {q:?}"
            );
        }
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
