//! Data augmentation: paraphrasing, word dropout, and domain-specific
//! comparatives (paper §3.2).

use crate::{GenerationConfig, Provenance, TrainingCorpus, TrainingPair};
use dbpal_nlp::{tokenize, ComparativeDictionary, ComparativeSense, ParaphraseStore, PosTagger};
use dbpal_schema::{Schema, SemanticDomain};
use dbpal_sql::{CmpOp, Pred, Scalar};
use dbpal_util::{Rng, SliceRandom};
use std::sync::Arc;

/// The augmentation engine. Produces additional pairs from a seed corpus;
/// it never mutates the input pairs. Augmentation changes only the NL
/// side, so each addition shares its seed pair's query.
pub struct Augmenter<'a> {
    config: &'a GenerationConfig,
    schema: &'a Schema,
    store: ParaphraseStore,
    comparatives: ComparativeDictionary,
    tagger: PosTagger,
}

impl<'a> Augmenter<'a> {
    /// Create an augmenter for a schema and configuration.
    pub fn new(schema: &'a Schema, config: &'a GenerationConfig) -> Self {
        Augmenter {
            config,
            schema,
            store: ParaphraseStore::new(),
            comparatives: ComparativeDictionary::new(),
            tagger: PosTagger::new(),
        }
    }

    /// Run all augmentation steps over a corpus, returning the additions.
    ///
    /// Pairs are fanned out across `config.threads` workers in fixed-size
    /// chunks; every pair draws from its own RNG stream keyed by its
    /// stable corpus position, and chunk results concatenate in input
    /// order, so the output is byte-identical for a given seed regardless
    /// of the worker count.
    pub fn augment(&self, corpus: &TrainingCorpus) -> Vec<TrainingPair> {
        const CHUNK: usize = 32;
        let chunks: Vec<&[TrainingPair]> = corpus.pairs().chunks(CHUNK).collect();
        let par = &self.config.par;
        let shards = par.map_indexed(&chunks, self.config.effective_threads(), |ci, chunk| {
            let mut additions = Vec::new();
            for (j, pair) in chunk.iter().enumerate() {
                let mut rng =
                    Rng::for_stream(self.config.seed ^ 0xA0A0_A0A0, (ci * CHUNK + j) as u64);
                additions.extend(self.paraphrase_with(pair, &mut rng));
                additions.extend(self.drop_words_with(pair, &mut rng));
                additions.extend(self.comparative_variants_with(pair, &mut rng));
            }
            additions
        });
        shards.into_iter().flatten().collect()
    }

    /// Automatic paraphrasing (§3.2.1): replace random subclauses of size
    /// up to `size_para` with up to `num_para` paraphrases from the store.
    fn paraphrase_with(&self, pair: &TrainingPair, rng: &mut Rng) -> Vec<TrainingPair> {
        if self.config.num_para == 0 {
            return Vec::new();
        }
        let tokens = tokenize(&pair.nl);
        let mut out = Vec::new();
        // Collect candidate spans (start, len) whose phrase is in the store.
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for n in 1..=self.config.size_para.max(1) {
            if n > tokens.len() {
                break;
            }
            for start in 0..=tokens.len() - n {
                if tokens[start..start + n].iter().any(|t| t.starts_with('@')) {
                    continue;
                }
                let phrase = tokens[start..start + n].join(" ");
                if self.store.contains(&phrase) {
                    spans.push((start, n));
                }
            }
        }
        spans.shuffle(rng);
        for (start, n) in spans {
            let phrase = tokens[start..start + n].join(" ");
            let mut alternatives = self.store.top(
                &phrase,
                self.config.num_para,
                self.config.paraphrase_min_quality,
            );
            // POS-aware filtering (§3.2.3 extension): the replacement's
            // leading word must belong to the same coarse word class as
            // the phrase it replaces, rejecting category-crossing swaps
            // such as verb → preposition.
            if self.config.pos_aware_paraphrasing {
                let original_tag = self.tagger.tag(&tokens[start]);
                alternatives.retain(|alt| {
                    let first = alt.phrase.split(' ').next().unwrap_or(alt.phrase);
                    self.tagger.tag(first) == original_tag
                });
            }
            for alt in alternatives {
                let mut new_tokens = Vec::with_capacity(tokens.len());
                new_tokens.extend_from_slice(&tokens[..start]);
                new_tokens.extend(alt.phrase.split(' ').map(str::to_string));
                new_tokens.extend_from_slice(&tokens[start + n..]);
                out.push(TrainingPair::new(
                    new_tokens.join(" "),
                    Arc::clone(&pair.sql),
                    pair.template_id.clone(),
                    Provenance::Paraphrased,
                ));
            }
        }
        out
    }

    /// Missing-information dropout (§3.2.2): with probability
    /// `rand_drop_p`, emit up to `num_missing` duplicates with one or two
    /// random words removed. Placeholders are never dropped, and when
    /// `pos_gated_dropout` is set only function-word classes are eligible
    /// (the §3.2.3 extension).
    fn drop_words_with(&self, pair: &TrainingPair, rng: &mut Rng) -> Vec<TrainingPair> {
        if self.config.num_missing == 0 || !rng.gen_bool(self.config.rand_drop_p) {
            return Vec::new();
        }
        let tokens = tokenize(&pair.nl);
        if tokens.len() < 3 {
            return Vec::new();
        }
        let eligible: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.starts_with('@'))
            .filter(|(_, t)| !self.config.pos_gated_dropout || self.tagger.tag(t).is_droppable())
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for _ in 0..self.config.num_missing {
            let n_drop = if eligible.len() > 3 && rng.gen_bool(0.3) {
                2
            } else {
                1
            };
            let mut drop: Vec<usize> = eligible.choose_multiple(rng, n_drop).copied().collect();
            drop.sort_unstable();
            let new_tokens: Vec<String> = tokens
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, t)| t.clone())
                .collect();
            if new_tokens.len() == tokens.len() {
                continue;
            }
            out.push(TrainingPair::new(
                new_tokens.join(" "),
                Arc::clone(&pair.sql),
                pair.template_id.clone(),
                Provenance::Dropped,
            ));
        }
        out
    }

    /// Comparative/superlative substitution (§3.2.3): replace generic
    /// comparative phrases with domain-specific ones when the filtered
    /// column's domain is known, and additionally elide the attribute
    /// name before a domain phrase ("age older than @AGE" → "older than
    /// @AGE"), modelling implicit attribute references.
    fn comparative_variants_with(&self, pair: &TrainingPair, rng: &mut Rng) -> Vec<TrainingPair> {
        let Some(domain) = self.single_comparison_domain(pair) else {
            return Vec::new();
        };
        if domain == SemanticDomain::Generic {
            return Vec::new();
        }
        let mut out = Vec::new();
        let nl = pair.nl.to_lowercase();
        // Word-boundary containment: "over" must not match inside
        // "aged over"-style phrases that are already domain-specific.
        let has_phrase = |text: &str, phrase: &str| {
            text.split(' ')
                .collect::<Vec<_>>()
                .windows(phrase.split(' ').count())
                .any(|w| w.join(" ") == phrase)
        };
        for sense in [ComparativeSense::Greater, ComparativeSense::Less] {
            let domain_phrases_all: Vec<&str> =
                self.comparatives.domain_phrases(domain, sense).to_vec();
            for generic in self.comparatives.generic_phrases(sense) {
                if !has_phrase(&nl, generic) {
                    continue;
                }
                // Skip when the generic phrase only occurs inside an
                // already-domain-specific phrase.
                if domain_phrases_all
                    .iter()
                    .any(|dp| dp.contains(generic) && has_phrase(&nl, dp))
                {
                    continue;
                }
                let domain_phrases = self.comparatives.domain_phrases(domain, sense);
                if let Some(dp) = domain_phrases.choose(rng) {
                    let swapped = nl.replacen(generic, dp, 1);
                    out.push(TrainingPair::new(
                        swapped.clone(),
                        Arc::clone(&pair.sql),
                        pair.template_id.clone(),
                        Provenance::Comparative,
                    ));
                    // Attribute elision: drop the word immediately before
                    // the domain phrase when it is a plain word.
                    let tokens = tokenize(&swapped);
                    let first_dp = dp.split(' ').next().unwrap_or(dp);
                    if let Some(pos) = tokens.iter().position(|t| t == first_dp) {
                        if pos > 0 && !tokens[pos - 1].starts_with('@') {
                            let mut elided = tokens.clone();
                            elided.remove(pos - 1);
                            out.push(TrainingPair::new(
                                elided.join(" "),
                                Arc::clone(&pair.sql),
                                pair.template_id.clone(),
                                Provenance::Comparative,
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// The domain of the column in the pair's (single) inequality
    /// comparison, if there is exactly one.
    fn single_comparison_domain(&self, pair: &TrainingPair) -> Option<SemanticDomain> {
        let mut found: Vec<SemanticDomain> = Vec::new();
        if let Some(p) = &pair.sql.where_pred {
            self.collect_inequality_domains(p, pair.sql.from.tables(), &mut found);
        }
        if found.len() == 1 {
            Some(found[0])
        } else {
            None
        }
    }

    fn collect_inequality_domains(
        &self,
        p: &Pred,
        tables: &[String],
        out: &mut Vec<SemanticDomain>,
    ) {
        match p {
            Pred::And(ps) | Pred::Or(ps) => {
                ps.iter()
                    .for_each(|p| self.collect_inequality_domains(p, tables, out));
            }
            Pred::Not(p) => self.collect_inequality_domains(p, tables, out),
            Pred::Compare {
                left: Scalar::Column(c),
                op: CmpOp::Gt | CmpOp::Lt | CmpOp::GtEq | CmpOp::LtEq,
                ..
            } => {
                // Resolve the column in the FROM tables (or its qualifier).
                let table_names: Vec<&str> = match &c.table {
                    Some(t) => vec![t.as_str()],
                    None => tables.iter().map(String::as_str).collect(),
                };
                for t in table_names {
                    if let Ok(cid) = self.schema.column_id(t, &c.column) {
                        out.push(self.schema.column(cid).domain());
                        return;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_schema::{SchemaBuilder, SqlType};
    use dbpal_sql::parse_query;

    fn schema() -> Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column("disease", SqlType::Text)
            })
            .build()
            .unwrap()
    }

    fn pair(nl: &str, sql: &str) -> TrainingPair {
        TrainingPair::new(nl, parse_query(sql).unwrap(), "t", Provenance::Seed)
    }

    /// A fresh RNG for one direct call of an augmentation step, seeded
    /// from `config` the way `augment` seeds its per-pair streams.
    fn rng(config: &GenerationConfig) -> Rng {
        Rng::seed_from_u64(config.seed ^ 0xA0A0_A0A0)
    }

    #[test]
    fn paraphrases_known_unigrams() {
        let schema = schema();
        let config = GenerationConfig::default();
        let aug = Augmenter::new(&schema, &config);
        let p = pair(
            "show the name of all patients with age @AGE",
            "SELECT name FROM patients WHERE age = @AGE",
        );
        let out = aug.paraphrase_with(&p, &mut rng(&config));
        assert!(!out.is_empty());
        // The paper's example: "Show the names..." -> "Display the names...".
        assert!(
            out.iter().any(|q| q.nl.starts_with("display")),
            "no display paraphrase in {:?}",
            out.iter().map(|p| &p.nl).collect::<Vec<_>>()
        );
        for q in &out {
            assert_eq!(q.provenance, Provenance::Paraphrased);
            assert_eq!(q.sql, p.sql, "paraphrasing must not change the SQL");
            assert!(q.nl.contains("@AGE"), "placeholder lost in `{}`", q.nl);
        }
    }

    #[test]
    fn num_para_zero_disables_paraphrasing() {
        let schema = schema();
        let config = GenerationConfig {
            num_para: 0,
            ..Default::default()
        };
        let aug = Augmenter::new(&schema, &config);
        let p = pair("show the name", "SELECT name FROM patients");
        assert!(aug.paraphrase_with(&p, &mut rng(&config)).is_empty());
    }

    #[test]
    fn quality_floor_filters_noise() {
        let schema = schema();
        let strict = GenerationConfig {
            paraphrase_min_quality: 0.9,
            num_para: 10,
            ..Default::default()
        };
        let loose = GenerationConfig {
            paraphrase_min_quality: 0.0,
            ..strict.clone()
        };
        let p = pair("show the name of all patients", "SELECT name FROM patients");
        let n_strict = Augmenter::new(&schema, &strict)
            .paraphrase_with(&p, &mut rng(&strict))
            .len();
        let n_loose = Augmenter::new(&schema, &loose)
            .paraphrase_with(&p, &mut rng(&loose))
            .len();
        assert!(n_loose > n_strict);
    }

    #[test]
    fn bigram_paraphrases_respect_size_para() {
        let schema = schema();
        let uni = GenerationConfig {
            size_para: 1,
            num_para: 10,
            paraphrase_min_quality: 0.0,
            ..Default::default()
        };
        let bi = GenerationConfig {
            size_para: 2,
            ..uni.clone()
        };
        // "how many" is only in the store as a bigram.
        let p = pair(
            "how many patients are there",
            "SELECT COUNT(*) FROM patients",
        );
        let uni_out = Augmenter::new(&schema, &uni).paraphrase_with(&p, &mut rng(&uni));
        let bi_out = Augmenter::new(&schema, &bi).paraphrase_with(&p, &mut rng(&bi));
        let has_bigram_swap =
            |v: &[TrainingPair]| v.iter().any(|q| q.nl.contains("what number of"));
        assert!(!has_bigram_swap(&uni_out));
        assert!(has_bigram_swap(&bi_out));
    }

    #[test]
    fn pos_aware_paraphrasing_rejects_class_crossing_swaps() {
        let schema = schema();
        let plain = GenerationConfig {
            num_para: 10,
            paraphrase_min_quality: 0.0,
            ..Default::default()
        };
        let pos_aware = GenerationConfig {
            pos_aware_paraphrasing: true,
            ..plain.clone()
        };
        // "show" has verb paraphrases (display, list) and the noisy
        // multi-word "count off"-style entries; POS filtering must never
        // *add* alternatives, and the surviving ones must stay verbs.
        let p = pair("show the name of all patients", "SELECT name FROM patients");
        let plain_out = Augmenter::new(&schema, &plain).paraphrase_with(&p, &mut rng(&plain));
        let pos_out = Augmenter::new(&schema, &pos_aware).paraphrase_with(&p, &mut rng(&pos_aware));
        assert!(pos_out.len() <= plain_out.len());
        assert!(pos_out.iter().any(|q| q.nl.starts_with("display")));
    }

    #[test]
    fn dropout_never_removes_placeholders() {
        let schema = schema();
        let config = GenerationConfig {
            rand_drop_p: 1.0,
            num_missing: 4,
            ..Default::default()
        };
        let aug = Augmenter::new(&schema, &config);
        let p = pair(
            "show the name of patients with age @AGE",
            "SELECT name FROM patients WHERE age = @AGE",
        );
        let out = aug.drop_words_with(&p, &mut rng(&config));
        assert!(!out.is_empty());
        for q in &out {
            assert!(q.nl.contains("@AGE"), "placeholder dropped in `{}`", q.nl);
            assert!(tokenize(&q.nl).len() < tokenize(&p.nl).len());
            assert_eq!(q.provenance, Provenance::Dropped);
        }
    }

    #[test]
    fn dropout_probability_zero_is_silent() {
        let schema = schema();
        let config = GenerationConfig {
            rand_drop_p: 0.0,
            ..Default::default()
        };
        let aug = Augmenter::new(&schema, &config);
        let p = pair("show the name of patients", "SELECT name FROM patients");
        assert!(aug.drop_words_with(&p, &mut rng(&config)).is_empty());
    }

    #[test]
    fn pos_gated_dropout_only_drops_function_words() {
        let schema = schema();
        let config = GenerationConfig {
            rand_drop_p: 1.0,
            num_missing: 8,
            pos_gated_dropout: true,
            ..Default::default()
        };
        let aug = Augmenter::new(&schema, &config);
        let p = pair(
            "show the name of all patients with age @AGE",
            "SELECT name FROM patients WHERE age = @AGE",
        );
        for q in aug.drop_words_with(&p, &mut rng(&config)) {
            // Content words must survive.
            for w in ["name", "patients", "age"] {
                assert!(q.nl.contains(w), "content word {w} dropped in `{}`", q.nl);
            }
        }
    }

    #[test]
    fn comparative_substitution_uses_domain() {
        let schema = schema();
        let config = GenerationConfig::default();
        let aug = Augmenter::new(&schema, &config);
        let p = pair(
            "show the name of patients with age greater than @AGE",
            "SELECT name FROM patients WHERE age > @AGE",
        );
        let out = aug.comparative_variants_with(&p, &mut rng(&config));
        assert!(
            out.iter().any(|q| {
                q.nl.contains("older than")
                    || q.nl.contains("above the age of")
                    || q.nl.contains("aged over")
            }),
            "no domain comparative in {:?}",
            out.iter().map(|p| &p.nl).collect::<Vec<_>>()
        );
        // Elision variant drops the attribute word: some output no
        // longer has "age" immediately before the inserted phrase.
        assert!(
            out.iter().any(|q| {
                let toks = tokenize(&q.nl);
                toks.windows(2).all(|w| {
                    !(w[0] == "age" && ["older", "above", "aged", "over"].contains(&w[1].as_str()))
                })
            }),
            "no elided variant in {:?}",
            out.iter().map(|p| &p.nl).collect::<Vec<_>>()
        );
    }

    #[test]
    fn comparative_substitution_skips_generic_domains() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| {
                t.column("a", SqlType::Text).column("n", SqlType::Integer)
            })
            .build()
            .unwrap();
        let config = GenerationConfig::default();
        let aug = Augmenter::new(&schema, &config);
        let p = pair(
            "show a of t with n greater than @N",
            "SELECT a FROM t WHERE n > @N",
        );
        assert!(aug
            .comparative_variants_with(&p, &mut rng(&config))
            .is_empty());
    }

    #[test]
    fn augmented_pairs_share_their_seed_query() {
        let schema = schema();
        let config = GenerationConfig {
            rand_drop_p: 1.0,
            ..GenerationConfig::small()
        };
        let seeds = crate::Generator::new(&schema, &config).generate(&crate::catalog());
        let additions = Augmenter::new(&schema, &config).augment(&seeds);
        assert!(additions.len() > seeds.len(), "too few additions to check");
        // Additions come out in seed order, so one forward walk over the
        // seeds finds each addition's source.
        let mut sources = seeds.pairs().iter();
        let mut source = sources.next();
        for added in &additions {
            while source.is_some_and(|s| !Arc::ptr_eq(&s.sql, &added.sql)) {
                source = sources.next();
            }
            let seed = source.unwrap_or_else(|| panic!("no seed shares the query of {added}"));
            assert_eq!(added.template_id, seed.template_id);
        }
    }

    #[test]
    fn full_augment_marks_provenance() {
        let schema = schema();
        let config = GenerationConfig {
            rand_drop_p: 1.0,
            ..Default::default()
        };
        let aug = Augmenter::new(&schema, &config);
        let corpus = TrainingCorpus::from_pairs(vec![pair(
            "show the name of all patients with age greater than @AGE",
            "SELECT name FROM patients WHERE age > @AGE",
        )]);
        let out = aug.augment(&corpus);
        let provs: std::collections::HashSet<_> = out.iter().map(|p| p.provenance).collect();
        assert!(provs.contains(&Provenance::Paraphrased));
        assert!(provs.contains(&Provenance::Dropped));
        assert!(provs.contains(&Provenance::Comparative));
    }
}
