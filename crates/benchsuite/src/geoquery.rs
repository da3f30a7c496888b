//! The GeoQuery-like tuning workload (DESIGN.md substitution #4).
//!
//! The paper tunes the generator's hyperparameters against "the full
//! GeoQuery query test set of 280 pairs" (§6.3.3). The original GeoQuery
//! data is not available offline, so this module builds a geography
//! workload of the same size and role: 280 NL–SQL pairs over a
//! US-geography schema, phrased with the crowd catalogs (i.e. *not*
//! DBPal's own seed phrasings, so tuning against it is meaningful).

use crate::crowd;
use dbpal_core::{EvalExample, GenerationConfig, Generator};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::Rng;
use std::collections::HashSet;

/// The GeoQuery-like tuning workload.
pub struct GeoQueryBench {
    schema: Schema,
    examples: Vec<EvalExample>,
}

/// Number of pairs in the workload, matching the paper.
pub const GEOQUERY_SIZE: usize = 280;

impl GeoQueryBench {
    /// Build the workload.
    pub fn new() -> Self {
        let schema = geo_schema();
        let mut templates = crowd::train_catalog();
        templates.extend(crowd::test_extra_catalog());
        let config = GenerationConfig {
            size_slot_fills: 8,
            join_boost: 1.0,
            agg_boost: 1.0,
            nest_boost: 1.0,
            group_by_p: 0.0,
            num_para: 0,
            num_missing: 0,
            rand_drop_p: 0.0,
            seed: 0x6E0,
            ..GenerationConfig::default()
        };
        let generator = Generator::new(&schema, &config);
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut examples = Vec::with_capacity(GEOQUERY_SIZE);
        let mut seen = HashSet::new();
        // Round-robin over templates until 280 distinct pairs exist.
        'outer: loop {
            let mut progressed = false;
            for tmpl in &templates {
                if examples.len() >= GEOQUERY_SIZE {
                    break 'outer;
                }
                for _ in 0..4 {
                    if let Some((nl, sql)) = generator.instantiate_with(tmpl, &mut rng) {
                        if seen.insert(format!("{nl}\u{1}{sql}")) {
                            examples.push(EvalExample::new(nl, sql));
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        GeoQueryBench { schema, examples }
    }

    /// The geography schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuning examples.
    pub fn examples(&self) -> &[EvalExample] {
        &self.examples
    }
}

impl Default for GeoQueryBench {
    fn default() -> Self {
        Self::new()
    }
}

/// The US-geography schema.
pub fn geo_schema() -> Schema {
    SchemaBuilder::new("geoquery")
        .table("states", |t| {
            t.synonym("provinces")
                .column("name", SqlType::Text)
                .column_with("area", SqlType::Float, |c| {
                    c.domain(SemanticDomain::Area).synonym("size")
                })
                .column_with("population", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Population)
                        .synonym("inhabitants")
                        .synonym("residents")
                })
                .column("capital", SqlType::Text)
        })
        .table("cities", |t| {
            t.synonym("towns")
                .column("name", SqlType::Text)
                .column_with("population", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Population)
                })
                .column("state_id", SqlType::Integer)
        })
        .table("mountains", |t| {
            t.synonym("peaks")
                .column("name", SqlType::Text)
                .column_with("height", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Height).synonym("elevation")
                })
                .column("state_id", SqlType::Integer)
        })
        .table("state_info", |t| {
            t.column("id", SqlType::Integer)
                .column("abbreviation", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("cities", "state_id", "state_info", "id")
        .foreign_key("mountains", "state_id", "state_info", "id")
        .build()
        .expect("geo schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_280_pairs() {
        let bench = GeoQueryBench::new();
        assert_eq!(bench.examples().len(), GEOQUERY_SIZE);
    }

    #[test]
    fn pairs_are_distinct() {
        let bench = GeoQueryBench::new();
        let distinct: HashSet<String> = bench
            .examples()
            .iter()
            .map(|e| format!("{}\u{1}{}", e.nl, e.gold))
            .collect();
        assert_eq!(distinct.len(), GEOQUERY_SIZE);
    }

    #[test]
    fn workload_is_deterministic() {
        use std::fmt::Write;
        let a = GeoQueryBench::new();
        let b = GeoQueryBench::new();
        for (x, y) in a.examples().iter().zip(b.examples()) {
            assert_eq!(x.nl, y.nl);
        }
        // The examples are pinned, not only reproducible: a change to
        // how the generator draws moves this digest.
        let mut digest = dbpal_util::Fnv1a::new();
        for e in a.examples() {
            let _ = writeln!(digest, "{}\u{1}{}", e.nl, e.gold);
        }
        let digest = digest.finish();
        assert_eq!(
            digest, 0x4a1e_8b41_e613_9a05,
            "examples moved: {digest:#018x}"
        );
    }

    #[test]
    fn covers_multiple_query_shapes() {
        let bench = GeoQueryBench::new();
        let with_agg = bench
            .examples()
            .iter()
            .filter(|e| e.gold.has_aggregate())
            .count();
        let with_where = bench
            .examples()
            .iter()
            .filter(|e| e.gold.where_pred.is_some())
            .count();
        assert!(with_agg > 20);
        assert!(with_where > 50);
    }
}
