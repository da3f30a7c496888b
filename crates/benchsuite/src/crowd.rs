//! "Crowd" phrasing templates: the human-annotation substitute.
//!
//! The real Spider corpus is crowd-sourced; its questions use phrasings
//! DBPal's seed templates never produce. This module defines two template
//! catalogs with deliberately different sentence frames:
//!
//! * [`train_catalog`] — the phrasing styles of the (simulated) Spider
//!   *training* annotations. It also covers query classes DBPal's seed
//!   catalog lacks (`NOT LIKE`, `COUNT(DISTINCT)`) so Table 4's
//!   "Spider-only" bucket is populated.
//! * [`test_extra_catalog`] — *held-out* phrasing styles plus query
//!   classes no training corpus covers (`TopN`, `NOT BETWEEN` → the
//!   "Unseen" bucket) and classes only DBPal covers (`IS NULL`,
//!   `EXISTS` → the "DBPal-only" bucket).
//!
//! Both catalogs are instantiated by the ordinary
//! [`dbpal_core::Generator`], which guarantees well-formed SQL.

use dbpal_core::{PatternCategory, QueryClass, SeedTemplate};

fn t(id: &str, class: QueryClass, pattern: &'static str) -> SeedTemplate {
    SeedTemplate {
        id: format!("crowd.{id}"),
        class,
        pattern,
        category: PatternCategory::Direct,
    }
}

/// Phrasing styles of the simulated Spider training annotations.
pub fn train_catalog() -> Vec<SeedTemplate> {
    use QueryClass::*;
    vec![
        // -- common classes, crowd style A --
        t("sa0", SelectAll, "could you list all the {table} please"),
        t("sa1", SelectAll, "i would like to see every {table}"),
        t("saw0", SelectAllWhere, "could you show the {table} that have {filter}"),
        t("saw1", SelectAllWhere, "please find the {table} with {filter}"),
        t("sc0", SelectCol, "could you tell me the {att} of each {table}"),
        t("sc1", SelectCol, "i need the {att} of the {table}"),
        t("scw0", SelectColWhere, "could you tell me the {att} of the {table} with {filter}"),
        t("scw1", SelectColWhere, "please give the {att} of those {table} that have {filter}"),
        t("scw2", SelectColWhere, "i would like to know the {att} of {table} with {filter}"),
        t("scw3", SelectColWhere, "what would be the {att} of a {table} with {filter}"),
        t("scw2f", SelectColWhere2, "could you find the {att} of {table} with {filter} and also {filter2}"),
        t("scols", SelectColsWhere, "please list the {att} plus the {att2} of {table} with {filter}"),
        t("dst0", Distinct, "could you list the {distinct} {att} among the {table}"),
        t("agg0", Agg, "could you work out {agg} {att} across the {table}"),
        t("agg1", Agg, "i want to know {agg} {att} of the {table}"),
        t("aggw0", AggWhere, "could you work out {agg} {att} of the {table} with {filter}"),
        t("aggw1", AggWhere, "what would be {agg} {att} for {table} that have {filter}"),
        t("cnt0", CountAll, "could you count how many {table} there are"),
        t("cnt1", CountAll, "what would be the total number of {table}"),
        t("cntw0", CountWhere, "could you count the {table} that have {filter}"),
        t("cntw1", CountWhere, "how many of the {table} have {filter}"),
        t("grp0", GroupBy, "could you report {agg} {att} of the {table} {grpphrase} {group}"),
        t("grp1", GroupBy, "i want {agg} {att} broken out {grpphrase} {group} of the {table}"),
        t("grpc0", GroupByCount, "could you count the {table} {grpphrase} {group}"),
        t("hav0", GroupByHaving, "could you find the {group} that have more than @CNT {table}"),
        t("top0", TopOne, "could you find the {table} that has {supmax} {natt}"),
        t("top1", TopOne, "which single {table} has {supmax} {natt}"),
        t("bot0", BottomOne, "could you find the {table} that has {supmin} {natt}"),
        t("ord0", OrderBy { desc: false }, "could you list the {att} of the {table} {ordasc} {natt}"),
        t("ord1", OrderBy { desc: true }, "could you list the {att} of the {table} {orddesc} {natt}"),
        t("btw0", Between, "could you show the {att} of {table} whose {natt} lies between @LOW and @HIGH"),
        t("inl0", InList, "could you show the {att} of {table} whose {catt} is either @V1 or @V2"),
        t("neq0", Neq, "could you show the {att} of {table} whose {catt} is not @V1"),
        t("dis0", Disjunction, "could you show the {att} of {table} that have {filter} or instead {filter2}"),
        t("lik0", Like, "could you show the {att} of {table} whose {tatt} is {like} @PAT"),
        t("js0", JoinSelect, "could you give the {attq} of the {table} belonging to the {table2} with {filter2q}"),
        t("js1", JoinSelect, "i want the {attq} of every {table} whose {table2} has {filter2q}"),
        t("ja0", JoinAgg, "could you work out {agg} {attq} of the {table} of the {table2} with {filter2q}"),
        t("jg0", JoinGroupBy, "could you report {agg} {attq} of the {table} {grpphrase} {groupq} of the {table2}"),
        t("nmax0", NestedScalar { max: true }, "among {table} with {filter} , could you find the one with the very highest {natt} and give its {att}"),
        t("nmin0", NestedScalar { max: false }, "among {table} with {filter} , could you find the one with the very lowest {natt} and give its {att}"),
        t("nin0", NestedIn, "could you show the {att} of {table} that also shows up in {table2} with {filter2q}"),
        // -- Spider-only classes (no DBPal seed template) --
        t("nlik0", NotLike, "could you show the {att} of {table} whose {tatt} is not {like} @PAT"),
        t("nlik1", NotLike, "please list the {att} of {table} where the {tatt} does not look like @PAT"),
        t("cdst0", CountDistinct, "could you count the {distinct} {att} of the {table}"),
        t("cdst1", CountDistinct, "how many different {att} do the {table} have in total"),
    ]
}

/// Held-out phrasing styles plus uncovered classes for the test split.
pub fn test_extra_catalog() -> Vec<SeedTemplate> {
    use QueryClass::*;
    vec![
        // -- common classes, held-out crowd style B --
        t("xsa0", SelectAll, "pull up the complete list of {table}"),
        t(
            "xsaw0",
            SelectAllWhere,
            "out of all {table} , pull up those with {filter}",
        ),
        t(
            "xscw0",
            SelectColWhere,
            "regarding {table} with {filter} , report the {att}",
        ),
        t(
            "xscw1",
            SelectColWhere,
            "the {att} is needed for any {table} showing {filter}",
        ),
        t("xagg0", Agg, "report {agg} {att} taken over every {table}"),
        t(
            "xaggw0",
            AggWhere,
            "restricted to {table} with {filter} , report {agg} {att}",
        ),
        t("xcnt0", CountAll, "report the headcount of {table}"),
        t(
            "xcntw0",
            CountWhere,
            "report the tally of {table} showing {filter}",
        ),
        t(
            "xgrp0",
            GroupBy,
            "report {agg} {att} of {table} , one figure {grpphrase} {group}",
        ),
        t(
            "xtop0",
            TopOne,
            "report the {table} holding {supmax} {natt}",
        ),
        t(
            "xbtw0",
            Between,
            "report the {att} of {table} whose {natt} falls in the @LOW to @HIGH range",
        ),
        t(
            "xjs0",
            JoinSelect,
            "report the {attq} of {table} attached to the {table2} with {filter2q}",
        ),
        t(
            "xja0",
            JoinAgg,
            "report {agg} {attq} of the {table} attached to the {table2} with {filter2q}",
        ),
        t(
            "xnmax0",
            NestedScalar { max: true },
            "restricted to {table} with {filter} , report the {att} of the one with peak {natt}",
        ),
        // -- Spider-only classes in held-out style --
        t(
            "xnlik0",
            NotLike,
            "report the {att} of {table} whose {tatt} fails to match @PAT",
        ),
        t(
            "xcdst0",
            CountDistinct,
            "report how many distinct {att} appear among the {table}",
        ),
        // -- DBPal-only classes (covered by seed templates, absent from
        //    the crowd training annotations) --
        t(
            "xnull0",
            IsNull,
            "report the {att} of {table} {nullphrase} {tatt}",
        ),
        t(
            "xexi0",
            NestedExists,
            "report the {att} of all {table} whenever some {table2} has {filter2q}",
        ),
        // -- Unseen classes (in no training corpus) --
        t(
            "xtopn0",
            TopN { limit: 3 },
            "report the @N {table} holding {supmax} {natt}",
        ),
        t(
            "xnbtw0",
            NotBetween,
            "report the {att} of {table} whose {natt} falls outside the @LOW to @HIGH range",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogs_have_unique_ids() {
        let mut ids = HashSet::new();
        for tmpl in train_catalog().iter().chain(test_extra_catalog().iter()) {
            assert!(ids.insert(tmpl.id.clone()), "duplicate id {}", tmpl.id);
        }
    }

    #[test]
    fn train_catalog_covers_spider_only_classes() {
        let classes: HashSet<_> = train_catalog().iter().map(|t| t.class).collect();
        assert!(classes.contains(&QueryClass::NotLike));
        assert!(classes.contains(&QueryClass::CountDistinct));
        // But not the DBPal-only classes.
        assert!(!classes.contains(&QueryClass::IsNull));
        assert!(!classes.contains(&QueryClass::NestedExists));
    }

    #[test]
    fn test_extra_covers_unseen_classes() {
        let classes: HashSet<_> = test_extra_catalog().iter().map(|t| t.class).collect();
        assert!(classes.contains(&QueryClass::TopN { limit: 3 }));
        assert!(classes.contains(&QueryClass::NotBetween));
        assert!(classes.contains(&QueryClass::IsNull));
    }

    #[test]
    fn crowd_phrasings_disjoint_from_seed_patterns() {
        let seed: HashSet<&str> = dbpal_core::catalog().iter().map(|t| t.pattern).collect();
        for tmpl in train_catalog().iter().chain(test_extra_catalog().iter()) {
            assert!(
                !seed.contains(tmpl.pattern),
                "crowd pattern duplicates a seed template: {}",
                tmpl.pattern
            );
        }
    }

    #[test]
    fn crowd_patterns_instantiate() {
        use dbpal_core::{GenerationConfig, Generator};
        use dbpal_schema::{SchemaBuilder, SemanticDomain, SqlType};
        let schema = SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column("disease", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("specialty", SqlType::Text)
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let mut rng = dbpal_util::Rng::seed_from_u64(config.seed);
        for tmpl in train_catalog().iter().chain(test_extra_catalog().iter()) {
            let mut ok = false;
            for _ in 0..12 {
                if let Some((nl, sql)) = g.instantiate_with(tmpl, &mut rng) {
                    assert!(!nl.contains('{'), "unfilled slot in {nl} ({})", tmpl.id);
                    assert!(dbpal_sql::parse_query(&sql.to_string()).is_ok());
                    ok = true;
                    break;
                }
            }
            assert!(ok, "template {} never instantiated", tmpl.id);
        }
    }
}
