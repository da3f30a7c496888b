//! Training pairs and corpora.

use dbpal_sql::Query;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How a pair entered the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provenance {
    /// Direct instantiation of a seed template (§3.1).
    Seed,
    /// Automatic paraphrasing via the paraphrase store (§3.2.1).
    Paraphrased,
    /// Word-dropout duplicate modelling missing information (§3.2.2).
    Dropped,
    /// Domain-specific comparative/superlative substitution (§3.2.3).
    Comparative,
    /// Manually curated pair supplied by the user (the paper notes such
    /// data "can still be used to complement our proposed data generation
    /// pipeline", §1).
    Manual,
}

impl Provenance {
    /// Every provenance, in declaration order.
    const ALL: [Provenance; 5] = [
        Provenance::Seed,
        Provenance::Paraphrased,
        Provenance::Dropped,
        Provenance::Comparative,
        Provenance::Manual,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Seed => "seed",
            Provenance::Paraphrased => "paraphrased",
            Provenance::Dropped => "dropped",
            Provenance::Comparative => "comparative",
            Provenance::Manual => "manual",
        }
    }

    /// The provenance whose [`Provenance::label`] is `label`, or `None`
    /// for any other text.
    pub fn from_label(label: &str) -> Option<Provenance> {
        Provenance::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// One NL–SQL training pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingPair {
    /// The natural-language side as raw text (pre-lemmatization).
    pub nl: String,
    /// Lemmatized NL tokens (filled by the pipeline's lemmatization step).
    pub nl_lemmas: Vec<String>,
    /// The SQL side with placeholder constants. Augmentation changes
    /// only the NL side, so a seed pair and its augmentations share one
    /// query.
    pub sql: Arc<Query>,
    /// Id of the seed template this pair descends from.
    pub template_id: String,
    /// How the pair was produced.
    pub provenance: Provenance,
}

impl TrainingPair {
    /// Create a fresh (not yet lemmatized) pair. `sql` is an owned
    /// [`Query`] or an `Arc` shared with other pairs.
    pub fn new(
        nl: impl Into<String>,
        sql: impl Into<Arc<Query>>,
        template_id: impl Into<String>,
        provenance: Provenance,
    ) -> Self {
        TrainingPair {
            nl: nl.into(),
            nl_lemmas: Vec::new(),
            sql: sql.into(),
            template_id: template_id.into(),
            provenance,
        }
    }

    /// The SQL side rendered as text.
    pub fn sql_text(&self) -> String {
        self.sql.to_string()
    }

    /// The NL side as dedup and the translation models see it: the
    /// lemmatized tokens joined by spaces, or the lowercased raw NL
    /// before lemmatization.
    pub fn nl_key(&self) -> String {
        if self.nl_lemmas.is_empty() {
            self.nl.to_lowercase()
        } else {
            self.nl_lemmas.join(" ")
        }
    }
}

impl fmt::Display for TrainingPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⇒ {}", self.nl, self.sql)
    }
}

/// What was derived from the last query seen, so a run of pairs that
/// share one query (a seed pair and its augmentations) derives it
/// once. The memo keeps its own `Arc` to that query: the query stays
/// alive while the memo answers for it, so no other query can take its
/// address and be mistaken for it.
pub(crate) struct QueryMemo<T> {
    last: Option<(Arc<Query>, T)>,
}

impl<T> QueryMemo<T> {
    pub(crate) fn new() -> Self {
        QueryMemo { last: None }
    }

    /// `derive(query)`, computed only when `query` is not the query
    /// this memo saw last.
    pub(crate) fn get(&mut self, query: &Arc<Query>, derive: impl FnOnce(&Query) -> T) -> &T {
        if !matches!(&self.last, Some((q, _)) if Arc::ptr_eq(q, query)) {
            self.last = None;
        }
        let (_, value) = self
            .last
            .get_or_insert_with(|| (Arc::clone(query), derive(query)));
        value
    }
}

/// A generated training corpus with provenance statistics.
#[derive(Debug, Clone, Default)]
pub struct TrainingCorpus {
    pairs: Vec<TrainingPair>,
}

impl TrainingCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap a list of pairs.
    pub fn from_pairs(pairs: Vec<TrainingPair>) -> Self {
        TrainingCorpus { pairs }
    }

    /// All pairs.
    pub fn pairs(&self) -> &[TrainingPair] {
        &self.pairs
    }

    /// Append a pair.
    pub fn push(&mut self, pair: TrainingPair) {
        self.pairs.push(pair);
    }

    /// Append all pairs of another corpus (e.g. merging DBPal synthetic
    /// data with an existing manually curated training set, §6.1.2).
    pub fn extend(&mut self, other: TrainingCorpus) {
        self.pairs.extend(other.pairs);
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Count of pairs per provenance.
    pub fn provenance_counts(&self) -> HashMap<Provenance, usize> {
        let mut m = HashMap::new();
        for p in &self.pairs {
            *m.entry(p.provenance).or_insert(0) += 1;
        }
        m
    }

    /// Count of pairs per seed template.
    pub fn template_counts(&self) -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for p in &self.pairs {
            *m.entry(p.template_id.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Remove exact duplicates (same lemmatized NL and same SQL text),
    /// keeping first occurrences. Returns the number removed.
    pub fn dedup(&mut self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let before = self.pairs.len();
        self.pairs
            .retain(|p| seen.insert((p.nl_key(), p.sql_text())));
        before - self.pairs.len()
    }

    /// A human-readable summary line.
    pub fn summary(&self) -> String {
        let counts = self.provenance_counts();
        let fmt_count = |p: Provenance| counts.get(&p).copied().unwrap_or(0);
        format!(
            "{} pairs (seed {}, paraphrased {}, dropped {}, comparative {}, manual {})",
            self.len(),
            fmt_count(Provenance::Seed),
            fmt_count(Provenance::Paraphrased),
            fmt_count(Provenance::Dropped),
            fmt_count(Provenance::Comparative),
            fmt_count(Provenance::Manual),
        )
    }

    /// Iterate over `(lemmatized NL, SQL text)` string pairs, the format
    /// consumed by translation models.
    pub fn text_pairs(&self) -> impl Iterator<Item = (String, String)> + '_ {
        self.pairs.iter().map(|p| (p.nl_key(), p.sql_text()))
    }
}

impl IntoIterator for TrainingCorpus {
    type Item = TrainingPair;
    type IntoIter = std::vec::IntoIter<TrainingPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter()
    }
}

impl<'a> IntoIterator for &'a TrainingCorpus {
    type Item = &'a TrainingPair;
    type IntoIter = std::slice::Iter<'a, TrainingPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_sql::parse_query;

    fn pair(nl: &str, sql: &str, prov: Provenance) -> TrainingPair {
        TrainingPair::new(nl, parse_query(sql).unwrap(), "t1", prov)
    }

    #[test]
    fn provenance_counts() {
        let mut c = TrainingCorpus::new();
        c.push(pair("a", "SELECT a FROM t", Provenance::Seed));
        c.push(pair("b", "SELECT a FROM t", Provenance::Seed));
        c.push(pair("c", "SELECT a FROM t", Provenance::Paraphrased));
        let counts = c.provenance_counts();
        assert_eq!(counts[&Provenance::Seed], 2);
        assert_eq!(counts[&Provenance::Paraphrased], 1);
    }

    #[test]
    fn provenance_labels_round_trip() {
        for p in [
            Provenance::Seed,
            Provenance::Paraphrased,
            Provenance::Dropped,
            Provenance::Comparative,
            Provenance::Manual,
        ] {
            assert_eq!(Provenance::from_label(p.label()), Some(p));
        }
        for bad in ["", "bogus", "Seed", " seed"] {
            assert_eq!(Provenance::from_label(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let mut c = TrainingCorpus::new();
        c.push(pair("show a", "SELECT a FROM t", Provenance::Seed));
        c.push(pair("Show A", "SELECT a FROM t", Provenance::Paraphrased));
        c.push(pair("show b", "SELECT a FROM t", Provenance::Seed));
        assert_eq!(c.dedup(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dedup_respects_lemmas_when_present() {
        let mut c = TrainingCorpus::new();
        let mut p1 = pair("shows a", "SELECT a FROM t", Provenance::Seed);
        p1.nl_lemmas = vec!["show".into(), "a".into()];
        let mut p2 = pair("showed a", "SELECT a FROM t", Provenance::Seed);
        p2.nl_lemmas = vec!["show".into(), "a".into()];
        c.push(p1);
        c.push(p2);
        assert_eq!(c.dedup(), 1);
    }

    #[test]
    fn text_pairs_prefer_lemmas() {
        let mut p = pair("Shows the A", "SELECT a FROM t", Provenance::Seed);
        p.nl_lemmas = vec!["show".into(), "the".into(), "a".into()];
        let c = TrainingCorpus::from_pairs(vec![p]);
        let (nl, sql) = c.text_pairs().next().unwrap();
        assert_eq!(nl, "show the a");
        assert_eq!(sql, "SELECT a FROM t");
    }

    #[test]
    fn merge_extends() {
        let mut a =
            TrainingCorpus::from_pairs(vec![pair("x", "SELECT a FROM t", Provenance::Seed)]);
        let b = TrainingCorpus::from_pairs(vec![pair("y", "SELECT a FROM t", Provenance::Manual)]);
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert!(a.summary().contains("manual 1"));
    }
}
