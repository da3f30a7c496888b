//! The Spider-shaped benchmark (DESIGN.md substitution #2).
//!
//! Mirrors the properties of Spider the paper's evaluation relies on
//! (§6.1.1): many schemas across distinct domains; *exclusive* train/test
//! schema split ("a database schema is used exclusively for either
//! training or testing, but not both"); gold pairs tiered by SQL
//! component count; and crowd-style NL phrasings, with additional
//! held-out styles appearing only in the test split.

use crate::crowd;
use crate::domains::SchemaGenerator;
use dbpal_core::{
    GenerationConfig, Generator, Provenance, SeedTemplate, TrainingCorpus, TrainingPair,
};
use dbpal_nlp::Lemmatizer;
use dbpal_schema::Schema;
use dbpal_sql::{Query, QueryPattern};
use dbpal_util::Rng;
use std::collections::HashSet;

/// Spider-benchmark generation parameters.
#[derive(Debug, Clone)]
pub struct SpiderConfig {
    /// Number of training schemas (distinct domains).
    pub train_schemas: usize,
    /// Number of test schemas (distinct domains, disjoint from training).
    pub test_schemas: usize,
    /// Crowd-pair instances per template per training schema.
    pub train_instances: usize,
    /// Test-example instances per template per test schema.
    pub test_instances: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpiderConfig {
    fn default() -> Self {
        SpiderConfig {
            train_schemas: 8,
            test_schemas: 4,
            train_instances: 4,
            test_instances: 2,
            seed: 2020,
        }
    }
}

impl SpiderConfig {
    /// A reduced configuration for unit tests.
    pub fn quick() -> Self {
        SpiderConfig {
            train_schemas: 3,
            test_schemas: 2,
            train_instances: 2,
            test_instances: 1,
            seed: 7,
        }
    }
}

/// One test example.
#[derive(Debug, Clone)]
pub struct SpiderExample {
    /// Index into [`SpiderBench::test_schemas`].
    pub schema_idx: usize,
    /// The (pre-anonymized) NL question.
    pub nl: String,
    /// Gold SQL with placeholders.
    pub gold: Query,
    /// Spider hardness tier.
    pub difficulty: dbpal_sql::Difficulty,
}

/// The generated benchmark.
#[derive(Debug, Clone)]
pub struct SpiderBench {
    /// Training-split schemas.
    pub train_schemas: Vec<Schema>,
    /// Test-split schemas (domains disjoint from the training split).
    pub test_schemas: Vec<Schema>,
    /// Crowd-annotated training pairs (lemmatized), provenance `Manual`.
    pub train_pairs: TrainingCorpus,
    /// Test examples across the test schemas.
    pub test_examples: Vec<SpiderExample>,
}

impl SpiderBench {
    /// Generate the benchmark.
    pub fn generate(cfg: &SpiderConfig) -> SpiderBench {
        let mut schema_gen = SchemaGenerator::new(cfg.seed);
        let total = cfg.train_schemas + cfg.test_schemas;
        assert!(
            total <= schema_gen.domain_count(),
            "requested {total} schemas but only {} disjoint domains exist",
            schema_gen.domain_count()
        );
        let mut all = schema_gen.generate(total);
        let test_schemas = all.split_off(cfg.train_schemas);
        let train_schemas = all;

        let lemmatizer = Lemmatizer::new();
        // Crowd training pairs: crowd style A on the training schemas.
        let train_templates = crowd::train_catalog();
        let mut train_pairs = TrainingCorpus::new();
        for (i, schema) in train_schemas.iter().enumerate() {
            let pairs = instantiate_catalog(
                schema,
                &train_templates,
                cfg.train_instances,
                cfg.seed ^ (0x51D3 + i as u64),
            );
            for (nl, sql, tmpl) in pairs {
                let mut pair = TrainingPair::new(nl, sql, tmpl, Provenance::Manual);
                pair.nl_lemmas = lemmatizer.lemmatize_sentence(&pair.nl);
                train_pairs.push(pair);
            }
        }
        train_pairs.dedup();

        // Test examples: crowd style A + held-out style B + uncovered
        // classes, on the test schemas.
        let mut test_templates = crowd::train_catalog();
        test_templates.extend(crowd::test_extra_catalog());
        let mut test_examples = Vec::new();
        let mut seen = HashSet::new();
        for (schema_idx, schema) in test_schemas.iter().enumerate() {
            let pairs = instantiate_catalog(
                schema,
                &test_templates,
                cfg.test_instances,
                cfg.seed ^ (0x7E57 + schema_idx as u64),
            );
            for (nl, gold, _) in pairs {
                if !seen.insert(format!("{nl}\u{1}{gold}")) {
                    continue;
                }
                let difficulty = QueryPattern::of(&gold).difficulty();
                test_examples.push(SpiderExample {
                    schema_idx,
                    nl,
                    gold,
                    difficulty,
                });
            }
        }

        SpiderBench {
            train_schemas,
            test_schemas,
            train_pairs,
            test_examples,
        }
    }

    /// All schemas (train then test), for model construction.
    pub fn all_schemas(&self) -> Vec<Schema> {
        let mut out = self.train_schemas.clone();
        out.extend(self.test_schemas.clone());
        out
    }

    /// Pattern signatures present in the crowd training pairs (the
    /// "Spider training set" side of Table 4).
    pub fn train_pattern_set(&self) -> HashSet<String> {
        self.train_pairs
            .pairs()
            .iter()
            .map(|p| QueryPattern::of(&p.sql).signature().to_string())
            .collect()
    }
}

/// Instantiate each template up to `instances` times against a schema.
fn instantiate_catalog(
    schema: &Schema,
    templates: &[SeedTemplate],
    instances: usize,
    seed: u64,
) -> Vec<(String, Query, String)> {
    let config = GenerationConfig {
        size_slot_fills: instances,
        join_boost: 1.0,
        agg_boost: 1.0,
        nest_boost: 1.0,
        group_by_p: 0.0,
        num_para: 0,
        num_missing: 0,
        rand_drop_p: 0.0,
        seed,
        ..GenerationConfig::default()
    };
    let generator = Generator::new(schema, &config);
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for tmpl in templates {
        let mut produced = 0;
        let mut attempts = instances * 6 + 6;
        while produced < instances && attempts > 0 {
            attempts -= 1;
            let Some((nl, sql)) = generator.instantiate_with(tmpl, &mut rng) else {
                continue;
            };
            if seen.insert(format!("{nl}\u{1}{sql}")) {
                out.push((nl, sql, tmpl.id.clone()));
                produced += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_sql::QueryPattern;

    #[test]
    fn generates_disjoint_schema_splits() {
        let bench = SpiderBench::generate(&SpiderConfig::quick());
        let train: HashSet<&str> = bench.train_schemas.iter().map(|s| s.name()).collect();
        let test: HashSet<&str> = bench.test_schemas.iter().map(|s| s.name()).collect();
        assert!(train.is_disjoint(&test));
        // Domains disjoint too (names are `domain_i`).
        let dom = |n: &str| n.rsplit_once('_').map(|(d, _)| d.to_string()).unwrap();
        let train_d: HashSet<String> = train.iter().map(|n| dom(n)).collect();
        let test_d: HashSet<String> = test.iter().map(|n| dom(n)).collect();
        assert!(train_d.is_disjoint(&test_d));
    }

    #[test]
    fn train_pairs_are_lemmatized_manual() {
        let bench = SpiderBench::generate(&SpiderConfig::quick());
        assert!(bench.train_pairs.len() > 50);
        for p in bench.train_pairs.pairs() {
            assert_eq!(p.provenance, Provenance::Manual);
            assert!(!p.nl_lemmas.is_empty());
        }
    }

    #[test]
    fn test_examples_cover_all_difficulties() {
        let bench = SpiderBench::generate(&SpiderConfig::default());
        let difficulties: HashSet<_> = bench.test_examples.iter().map(|e| e.difficulty).collect();
        assert!(difficulties.len() >= 3, "only {difficulties:?}");
    }

    #[test]
    fn test_split_contains_unseen_patterns() {
        let bench = SpiderBench::generate(&SpiderConfig::default());
        let train_patterns = bench.train_pattern_set();
        let unseen = bench
            .test_examples
            .iter()
            .filter(|e| !train_patterns.contains(QueryPattern::of(&e.gold).signature()))
            .count();
        assert!(unseen > 0, "no held-out patterns in the test split");
    }

    #[test]
    fn generation_is_deterministic() {
        use std::fmt::Write;
        let a = SpiderBench::generate(&SpiderConfig::quick());
        let b = SpiderBench::generate(&SpiderConfig::quick());
        assert_eq!(a.test_examples.len(), b.test_examples.len());
        for (x, y) in a.test_examples.iter().zip(&b.test_examples) {
            assert_eq!(x.nl, y.nl);
            assert_eq!(x.gold, y.gold);
        }
        // The test examples and the crowd training pairs are pinned, not
        // only reproducible: a change to how the generator draws moves
        // these digests.
        let mut examples = dbpal_util::Fnv1a::new();
        for e in &a.test_examples {
            let _ = writeln!(examples, "{}\u{1}{}\u{1}{}", e.schema_idx, e.nl, e.gold);
        }
        let mut train = dbpal_util::Fnv1a::new();
        for p in a.train_pairs.pairs() {
            let lemmas = p.nl_lemmas.join(" ");
            let _ = writeln!(
                train,
                "{}\u{1}{}\u{1}{}\u{1}{lemmas}",
                p.nl, p.sql, p.template_id
            );
        }
        let digests = (examples.finish(), train.finish());
        assert_eq!(
            digests,
            (0xde90_8a2b_6350_7489, 0x4326_296f_4e18_80bd),
            "examples or train pairs moved: ({:#018x}, {:#018x})",
            digests.0,
            digests.1
        );
    }

    #[test]
    fn gold_queries_parse_and_have_placeholder_consistency() {
        let bench = SpiderBench::generate(&SpiderConfig::quick());
        for e in &bench.test_examples {
            for ph in e.gold.placeholders() {
                assert!(
                    e.nl.to_uppercase().contains(&format!("@{ph}")),
                    "placeholder @{ph} missing from `{}`",
                    e.nl
                );
            }
        }
    }
}
