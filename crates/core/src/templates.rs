//! The seed-template catalog.
//!
//! "The main idea is that each seed template covers a typical class of SQL
//! queries (e.g., a SELECT-FROM-WHERE query with a simple predicate).
//! Composing the seed templates is only a minimal, one-time overhead, and
//! all templates are independent of the target database. ... Currently,
//! DBPal contains approximately 100 seed templates." (paper §2.2.1)
//!
//! A seed template pairs a [`QueryClass`] (the SQL side, instantiated
//! structurally by the generator) with one NL pattern string. Slots in the
//! pattern (`{select}`, `{table}`, `{filter}`, ...) are filled from the
//! schema and the slot-fill lexicons. For each SQL class the catalog
//! provides several NL patterns, including "manually curated paraphrased
//! NL templates that follow particular paraphrasing techniques ...
//! covering categories such as syntactical, lexical, and morphological
//! paraphrasing" (§3.1).

use dbpal_sql::AggFunc;
use dbpal_util::{Rng, SliceRandom};

/// The SQL query class a template instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// `SELECT * FROM t`.
    SelectAll,
    /// `SELECT * FROM t WHERE f`.
    SelectAllWhere,
    /// `SELECT a FROM t`.
    SelectCol,
    /// `SELECT a FROM t WHERE f`.
    SelectColWhere,
    /// `SELECT a, b FROM t WHERE f`.
    SelectColsWhere,
    /// `SELECT a FROM t WHERE f1 AND f2`.
    SelectColWhere2,
    /// `SELECT DISTINCT a FROM t`.
    Distinct,
    /// `SELECT AGG(n) FROM t` (AGG ∈ {SUM, AVG, MIN, MAX}).
    Agg,
    /// `SELECT AGG(n) FROM t WHERE f`.
    AggWhere,
    /// `SELECT COUNT(*) FROM t`.
    CountAll,
    /// `SELECT COUNT(*) FROM t WHERE f`.
    CountWhere,
    /// `SELECT g, AGG(n) FROM t GROUP BY g`.
    GroupBy,
    /// `SELECT g, COUNT(*) FROM t GROUP BY g`.
    GroupByCount,
    /// `SELECT g FROM t GROUP BY g HAVING COUNT(*) > @CNT`.
    GroupByHaving,
    /// `SELECT * FROM t ORDER BY n DESC LIMIT 1` (superlative max).
    TopOne,
    /// `SELECT * FROM t ORDER BY n ASC LIMIT 1` (superlative min).
    BottomOne,
    /// `SELECT a FROM t ORDER BY n [DESC]`.
    OrderBy {
        /// Descending order when true.
        desc: bool,
    },
    /// `SELECT a FROM t WHERE n BETWEEN @LOW AND @HIGH`.
    Between,
    /// `SELECT a FROM t WHERE a IN (@V1, @V2)`.
    InList,
    /// `SELECT a FROM t WHERE s LIKE @PAT`.
    Like,
    /// `SELECT a FROM t WHERE s IS NULL`.
    IsNull,
    /// `SELECT a FROM t WHERE b <> @V`.
    Neq,
    /// `SELECT a FROM t WHERE f1 OR f2`.
    Disjunction,
    /// `SELECT t1.a FROM @JOIN WHERE t2.b = @T2.B` (join via placeholder,
    /// paper §5.1).
    JoinSelect,
    /// `SELECT AGG(t1.n) FROM @JOIN WHERE t2.b = @T2.B`.
    JoinAgg,
    /// `SELECT t2.g, AGG(t1.n) FROM @JOIN GROUP BY t2.g`.
    JoinGroupBy,
    /// `SELECT a FROM t WHERE n = (SELECT MAX(n) FROM t WHERE f)`
    /// (paper §5.2's mountain example).
    NestedScalar {
        /// `MAX` when true, `MIN` otherwise.
        max: bool,
    },
    /// `SELECT a FROM t1 WHERE a IN (SELECT b FROM t2 WHERE f)`.
    NestedIn,
    /// `SELECT a FROM t1 WHERE EXISTS (SELECT * FROM t2 WHERE f)`.
    NestedExists,
    /// `SELECT a FROM t WHERE s NOT LIKE @PAT`.
    ///
    /// Not covered by the seed catalog; exercised by the Spider-like
    /// benchmark to populate Table 4's "Spider-only"/"Unseen" buckets.
    NotLike,
    /// `SELECT COUNT(DISTINCT a) FROM t` — not in the seed catalog.
    CountDistinct,
    /// `SELECT * FROM t ORDER BY n DESC LIMIT k` (k > 1) — not in the
    /// seed catalog.
    TopN {
        /// The LIMIT row count.
        limit: u64,
    },
    /// `SELECT a FROM t WHERE n NOT BETWEEN @LOW AND @HIGH` — not in the
    /// seed catalog.
    NotBetween,
}

impl QueryClass {
    /// Whether the class produces a join query (`@JOIN` placeholder).
    pub fn is_join(self) -> bool {
        matches!(
            self,
            QueryClass::JoinSelect | QueryClass::JoinAgg | QueryClass::JoinGroupBy
        )
    }

    /// Whether the class produces an aggregate query.
    pub fn is_agg(self) -> bool {
        matches!(
            self,
            QueryClass::Agg
                | QueryClass::AggWhere
                | QueryClass::CountAll
                | QueryClass::CountWhere
                | QueryClass::GroupBy
                | QueryClass::GroupByCount
                | QueryClass::GroupByHaving
                | QueryClass::JoinAgg
                | QueryClass::JoinGroupBy
        )
    }

    /// Whether the class produces a nested subquery.
    pub fn is_nested(self) -> bool {
        matches!(
            self,
            QueryClass::NestedScalar { .. } | QueryClass::NestedIn | QueryClass::NestedExists
        )
    }

    /// The aggregate functions this class may instantiate.
    pub fn agg_choices(self) -> &'static [AggFunc] {
        match self {
            QueryClass::Agg
            | QueryClass::AggWhere
            | QueryClass::GroupBy
            | QueryClass::JoinAgg
            | QueryClass::JoinGroupBy => &[AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max],
            QueryClass::CountAll
            | QueryClass::CountWhere
            | QueryClass::GroupByCount
            | QueryClass::CountDistinct => &[AggFunc::Count],
            _ => &[],
        }
    }
}

/// Paraphrase technique category of a manually curated NL pattern
/// (paper §3.1 / §6.2.1 typology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternCategory {
    /// Direct verbalization of the SQL.
    Direct,
    /// Structural rearrangement (clause fronting, cleft sentences).
    Syntactic,
    /// Synonym-level rephrasing baked into the pattern.
    Lexical,
    /// Inflection-heavy phrasing exercising the lemmatizer.
    Morphological,
}

/// A seed template: one SQL class paired with one NL pattern.
#[derive(Debug, Clone)]
pub struct SeedTemplate {
    /// Stable identifier, e.g. `select_col_where.syntactic.1`.
    pub id: String,
    /// The SQL class instantiated by the generator.
    pub class: QueryClass,
    /// NL pattern with `{slot}` markers.
    pub pattern: &'static str,
    /// Paraphrase category of the pattern.
    pub category: PatternCategory,
}

macro_rules! templates {
    ($out:ident; $class:expr, $name:literal => [ $(($cat:ident, $pat:literal)),* $(,)? ]) => {
        {
            let mut i = 0usize;
            $(
                $out.push(SeedTemplate {
                    id: format!(concat!($name, ".{}.{}"), stringify!($cat), i),
                    class: $class,
                    pattern: $pat,
                    category: PatternCategory::$cat,
                });
                i += 1;
            )*
            let _ = i;
        }
    };
}

/// Build the full seed-template catalog (~100 templates).
pub fn catalog() -> Vec<SeedTemplate> {
    use QueryClass::*;
    let mut t: Vec<SeedTemplate> = Vec::with_capacity(128);

    templates!(t; SelectAll, "select_all" => [
        (Direct, "{select} all {table}"),
        (Direct, "{select} the {table}"),
        (Lexical, "{select} every {table}"),
        (Syntactic, "what {table} are there"),
        (Lexical, "{select} all information about the {table}"),
    ]);
    templates!(t; SelectAllWhere, "select_all_where" => [
        (Direct, "{select} all {table} {where} {filter}"),
        (Direct, "{select} the {table} {where} {filter}"),
        (Lexical, "which {table} have {filter}"),
        (Syntactic, "{where} {filter} , {select} all {table}"),
        (Morphological, "which of the {table} are having {filter}"),
    ]);
    templates!(t; SelectCol, "select_col" => [
        (Direct, "{select} the {att} {from} {table}"),
        (Syntactic, "what is the {att} of the {table}"),
        (Lexical, "{select} each {table} {att}"),
        (Morphological, "{select} the {att}s of the {table}"),
    ]);
    templates!(t; SelectColWhere, "select_col_where" => [
        (Direct, "{select} the {att} {from} {table} {where} {filter}"),
        (Direct, "what is the {att} of {table} {where} {filter}"),
        (Syntactic, "for {table} with {filter} , what is their {att}"),
        (Syntactic, "{where} {filter} , what is the {att} of the {table}"),
        (Lexical, "{select} the {att} of every {table} that has {filter}"),
        (Morphological, "{select} the {att} of {table} having had {filter}"),
    ]);
    templates!(t; SelectColsWhere, "select_cols_where" => [
        (Direct, "{select} the {att} and {att2} {from} {table} {where} {filter}"),
        (Syntactic, "for {table} {where} {filter} , {select} both their {att} and {att2}"),
        (Lexical, "{select} {att} together with {att2} of {table} {where} {filter}"),
    ]);
    templates!(t; SelectColWhere2, "select_col_where2" => [
        (Direct, "{select} the {att} {from} {table} {where} {filter} and {filter2}"),
        (Syntactic, "{where} {filter} and {filter2} , {select} the {att} of the {table}"),
        (Lexical, "which {table} have {filter} as well as {filter2} ; show their {att}"),
    ]);
    templates!(t; Distinct, "distinct" => [
        (Direct, "{select} {distinct} {att} {from} {table}"),
        (Lexical, "what different {att} do the {table} have"),
        (Syntactic, "among all {table} , what are the {distinct} {att}"),
        (Morphological, "{select} the {att}s of {table} deduplicated"),
    ]);
    templates!(t; Agg, "agg" => [
        (Direct, "{select} {agg} {att} {from} {table}"),
        (Syntactic, "what is {agg} {att} of the {table}"),
        (Lexical, "compute {agg} {att} over all {table}"),
        (Morphological, "what is the {att} of the {table} averaged"),
    ]);
    templates!(t; AggWhere, "agg_where" => [
        (Direct, "{select} {agg} {att} {from} {table} {where} {filter}"),
        (Syntactic, "for {table} {where} {filter} , what is {agg} {att}"),
        (Lexical, "considering only {table} with {filter} , give {agg} {att}"),
    ]);
    templates!(t; CountAll, "count_all" => [
        (Direct, "how many {table} are there"),
        (Lexical, "count the {table}"),
        (Direct, "what is the number of {table}"),
        (Morphological, "how many {table} exist"),
    ]);
    templates!(t; CountWhere, "count_where" => [
        (Direct, "how many {table} have {filter}"),
        (Lexical, "count the {table} {where} {filter}"),
        (Syntactic, "{where} {filter} , how many {table} are there"),
        (Direct, "what is the number of {table} {where} {filter}"),
        (Morphological, "how many of the {table} are having {filter}"),
    ]);
    templates!(t; GroupBy, "group_by" => [
        (Direct, "{select} {agg} {att} of {table} {grpphrase} {group}"),
        (Syntactic, "{grpphrase} {group} , {select} {agg} {att} of the {table}"),
        (Lexical, "break down {agg} {att} of {table} {grpphrase} {group}"),
        (Morphological, "{select} {agg} {att} of {table} grouped {grpphrase} {group}"),
    ]);
    templates!(t; GroupByCount, "group_by_count" => [
        (Direct, "how many {table} are there {grpphrase} {group}"),
        (Lexical, "count the {table} {grpphrase} {group}"),
        (Syntactic, "{grpphrase} {group} , how many {table} are there"),
    ]);
    templates!(t; GroupByHaving, "group_by_having" => [
        (Direct, "which {group} have more than @CNT {table}"),
        (Lexical, "{select} the {group} with over @CNT {table}"),
        (Syntactic, "for which {group} are there more than @CNT {table}"),
    ]);
    templates!(t; TopOne, "top_one" => [
        (Direct, "{select} the {table} with {supmax} {natt}"),
        (Direct, "which {table} has {supmax} {natt}"),
        (Syntactic, "of all {table} , which one has {supmax} {natt}"),
        (Lexical, "{select} the top {table} by {natt}"),
        (Morphological, "which of the {table} is maximizing the {natt}"),
    ]);
    templates!(t; BottomOne, "bottom_one" => [
        (Direct, "{select} the {table} with {supmin} {natt}"),
        (Direct, "which {table} has {supmin} {natt}"),
        (Lexical, "{select} the bottom {table} by {natt}"),
    ]);
    templates!(t; OrderBy { desc: false }, "order_asc" => [
        (Direct, "{select} the {att} {from} {table} {ordasc} {natt}"),
        (Lexical, "{select} the {att} of all {table} from lowest to highest {natt}"),
    ]);
    templates!(t; OrderBy { desc: true }, "order_desc" => [
        (Direct, "{select} the {att} {from} {table} {orddesc} {natt}"),
        (Lexical, "{select} the {att} of all {table} from highest to lowest {natt}"),
    ]);
    templates!(t; Between, "between" => [
        (Direct, "{select} the {att} {from} {table} with {natt} between @LOW and @HIGH"),
        (Lexical, "which {table} have a {natt} ranging from @LOW to @HIGH ; show their {att}"),
        (Syntactic, "with {natt} between @LOW and @HIGH , {select} the {att} of the {table}"),
        (Morphological, "{select} the {att} of {table} whose {natt} ranged between @LOW and @HIGH"),
    ]);
    templates!(t; InList, "in_list" => [
        (Direct, "{select} the {att} {from} {table} whose {catt} is @V1 or @V2"),
        (Lexical, "{select} the {att} of {table} with {catt} being either @V1 or @V2"),
    ]);
    templates!(t; Like, "like" => [
        (Direct, "{select} the {att} {from} {table} with {tatt} {like} @PAT"),
        (Lexical, "which {table} have a {tatt} {like} @PAT"),
    ]);
    templates!(t; IsNull, "is_null" => [
        (Direct, "{select} the {att} {from} {table} {nullphrase} {tatt}"),
        (Lexical, "which {table} are {nullphrase} {tatt}"),
    ]);
    templates!(t; Neq, "neq" => [
        (Direct, "{select} the {att} {from} {table} whose {catt} is not @V1"),
        (Lexical, "{select} the {att} of {table} with {catt} other than @V1"),
    ]);
    templates!(t; Disjunction, "disjunction" => [
        (Direct, "{select} the {att} {from} {table} {where} {filter} or {filter2}"),
        (Syntactic, "{where} {filter} or {filter2} , {select} the {att} of the {table}"),
    ]);
    templates!(t; JoinSelect, "join_select" => [
        (Direct, "{select} the {attq} of {table} whose {table2} has {filter2q}"),
        (Direct, "{select} the {attq} of {table} of the {table2} with {filter2q}"),
        (Syntactic, "for the {table2} with {filter2q} , {select} the {attq} of their {table}"),
        (Lexical, "which {table} belong to the {table2} with {filter2q} ; show their {attq}"),
        (Morphological, "{select} the {attq}s of {table} belonging to the {table2} having {filter2q}"),
    ]);
    templates!(t; JoinAgg, "join_agg" => [
        (Direct, "what is {agg} {attq} of {table} whose {table2} has {filter2q}"),
        (Syntactic, "for the {table2} with {filter2q} , what is {agg} {attq} of their {table}"),
        (Lexical, "give {agg} {attq} over all {table} of the {table2} with {filter2q}"),
    ]);
    templates!(t; JoinGroupBy, "join_group_by" => [
        (Direct, "{select} {agg} {attq} of {table} {grpphrase} {groupq} of the {table2}"),
        (Syntactic, "{grpphrase} {groupq} of the {table2} , {select} {agg} {attq} of the {table}"),
    ]);
    templates!(t; NestedScalar { max: true }, "nested_max" => [
        (Direct, "{select} the {att} of the {table} with the highest {natt} among those {where} {filter}"),
        (Direct, "what is the {att} of the {table} with maximum {natt} {where} {filter}"),
        (Syntactic, "among {table} {where} {filter} , which one has the highest {natt} ; show its {att}"),
    ]);
    templates!(t; NestedScalar { max: false }, "nested_min" => [
        (Direct, "{select} the {att} of the {table} with the lowest {natt} among those {where} {filter}"),
        (Direct, "what is the {att} of the {table} with minimum {natt} {where} {filter}"),
        (Syntactic, "among {table} {where} {filter} , which one has the lowest {natt} ; show its {att}"),
    ]);
    templates!(t; NestedIn, "nested_in" => [
        (Direct, "{select} the {att} of {table} whose {att} appears in {table2} {where} {filter2q}"),
        (Lexical, "{select} the {att} of {table} that also occurs in {table2} with {filter2q}"),
    ]);
    templates!(t; NestedExists, "nested_exists" => [
        (Direct, "{select} the {att} of all {table} if any {table2} has {filter2q}"),
        (Lexical, "provided some {table2} has {filter2q} , {select} the {att} of every {table}"),
    ]);

    t
}

/// A deterministic random subset of the catalog, selected *prior to
/// instantiation* as in the seed-template experiment (paper §6.3.2,
/// Figure 3): "the random subsets are selected prior to instantiation,
/// which means templates covering certain patterns are excluded."
pub fn catalog_subset(fraction: f64, seed: u64) -> Vec<SeedTemplate> {
    let mut all = catalog();
    let keep = ((all.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    let mut rng = Rng::seed_from_u64(seed);
    all.shuffle(&mut rng);
    all.truncate(keep);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_has_about_100_templates() {
        let n = catalog().len();
        assert!(n >= 100, "only {n} seed templates");
    }

    #[test]
    fn template_ids_are_unique() {
        let ids: HashSet<String> = catalog().into_iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), catalog().len());
    }

    #[test]
    fn every_class_has_a_direct_pattern() {
        let cat = catalog();
        let classes: HashSet<_> = cat.iter().map(|t| t.class).collect();
        for class in &classes {
            assert!(
                cat.iter()
                    .any(|t| t.class == *class && t.category == PatternCategory::Direct),
                "{class:?} lacks a Direct pattern"
            );
        }
    }

    #[test]
    fn catalog_covers_nested_and_join_classes() {
        let classes: HashSet<_> = catalog().iter().map(|t| t.class).collect();
        assert!(classes.iter().any(|c| c.is_join()));
        assert!(classes.iter().any(|c| c.is_nested()));
        assert!(classes.iter().any(|c| c.is_agg()));
    }

    #[test]
    fn paraphrase_categories_all_present() {
        let cats: HashSet<_> = catalog().iter().map(|t| t.category).collect();
        assert!(cats.contains(&PatternCategory::Direct));
        assert!(cats.contains(&PatternCategory::Syntactic));
        assert!(cats.contains(&PatternCategory::Lexical));
        assert!(cats.contains(&PatternCategory::Morphological));
    }

    #[test]
    fn subset_is_deterministic_and_sized() {
        let a = catalog_subset(0.1, 42);
        let b = catalog_subset(0.1, 42);
        assert_eq!(
            a.iter().map(|t| &t.id).collect::<Vec<_>>(),
            b.iter().map(|t| &t.id).collect::<Vec<_>>()
        );
        let full = catalog().len();
        assert_eq!(a.len(), ((full as f64) * 0.1).round() as usize);
    }

    #[test]
    fn subset_full_fraction_is_whole_catalog() {
        assert_eq!(catalog_subset(1.0, 7).len(), catalog().len());
        assert!(catalog_subset(0.0, 7).is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a: HashSet<String> = catalog_subset(0.2, 1).into_iter().map(|t| t.id).collect();
        let b: HashSet<String> = catalog_subset(0.2, 2).into_iter().map(|t| t.id).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn patterns_only_use_known_slots() {
        // Every {slot} marker must be one the generator knows how to fill.
        const KNOWN: &[&str] = &[
            "select",
            "from",
            "where",
            "table",
            "table2",
            "att",
            "att2",
            "attq",
            "att2q",
            "natt",
            "tatt",
            "catt",
            "group",
            "groupq",
            "agg",
            "grpphrase",
            "distinct",
            "filter",
            "filter2",
            "filter2q",
            "supmax",
            "supmin",
            "ordasc",
            "orddesc",
            "like",
            "nullphrase",
        ];
        for t in catalog() {
            let mut rest = t.pattern;
            while let Some(start) = rest.find('{') {
                let end = rest[start..]
                    .find('}')
                    .map(|e| start + e)
                    .unwrap_or_else(|| panic!("unclosed slot in {}: {}", t.id, t.pattern));
                let slot = &rest[start + 1..end];
                assert!(KNOWN.contains(&slot), "unknown slot {{{slot}}} in {}", t.id);
                rest = &rest[end + 1..];
            }
        }
    }
}
