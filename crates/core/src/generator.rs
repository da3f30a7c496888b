//! Data instantiation: turning seed templates + a schema into NL–SQL pairs.
//!
//! "The schema information is then used to instantiate these templates
//! using table and attribute names. ... We therefore randomly sample from
//! the possible instances to get a good coverage of different queries and
//! to keep the number of instances per query template balanced." (paper
//! §3.1). Constants never appear: filters use `@PLACEHOLDER` tokens, and
//! join queries use the `@JOIN` FROM-clause placeholder (§5.1).

use crate::templates::{QueryClass, SeedTemplate};
use crate::{lexicons, GenerationConfig, Provenance, TrainingCorpus, TrainingPair};
use dbpal_nlp::{ComparativeDictionary, ComparativeSense};
use dbpal_schema::{Column, ColumnId, Schema, SemanticDomain, Table, TableId};
use dbpal_sql::{
    AggArg, AggFunc, CmpOp, ColumnRef, FromClause, OrderDir, OrderKey, Pred, Query, Scalar,
    SelectItem,
};
use dbpal_util::{Rng, SliceRandom, WorkerPool};
use std::collections::{HashMap, HashSet};

/// The template-instantiation engine.
pub struct Generator<'a> {
    schema: &'a Schema,
    config: &'a GenerationConfig,
    comparatives: ComparativeDictionary,
}

/// Instantiation counters for one generation run (surfaced through
/// [`crate::PipelineReport`]): pairs produced against the summed
/// per-template instance budgets, and where the sampling loop spent its
/// retries. A non-zero [`GeneratorStats::shortfall`] means some template
/// ran out of attempts (`budget * 4 + 8`) before filling its budget —
/// under-production is reported, never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneratorStats {
    /// Pairs emitted, including GROUP BY variants.
    pub produced: usize,
    /// Summed per-template instance budgets (GROUP BY variants are a
    /// bonus on top and do not count against a budget).
    pub budgeted: usize,
    /// Draws that could not instantiate because the schema lacked the
    /// required structure (e.g. no numeric column for an aggregate).
    pub failed_draws: u64,
    /// Draws rejected because the exact instance was already produced.
    pub duplicate_draws: u64,
    /// Templates whose attempt budget ran out before the instance
    /// budget was filled.
    pub exhausted_templates: usize,
    /// Total instances short of the summed budgets.
    pub shortfall: usize,
}

impl GeneratorStats {
    /// Total retried draws (failed + duplicate).
    pub fn retries(&self) -> u64 {
        self.failed_draws + self.duplicate_draws
    }

    /// Accumulate another shard's counters.
    fn absorb(&mut self, other: &GeneratorStats) {
        self.produced += other.produced;
        self.budgeted += other.budgeted;
        self.failed_draws += other.failed_draws;
        self.duplicate_draws += other.duplicate_draws;
        self.exhausted_templates += other.exhausted_templates;
        self.shortfall += other.shortfall;
    }
}

/// A rendered filter: its SQL predicate and NL phrase.
struct FilterParts {
    pred: Pred,
    nl: String,
}

impl<'a> Generator<'a> {
    /// Create a generator for a schema and configuration.
    pub fn new(schema: &'a Schema, config: &'a GenerationConfig) -> Self {
        Generator {
            schema,
            config,
            comparatives: ComparativeDictionary::new(),
        }
    }

    /// Generate the balanced seed corpus for a set of templates.
    ///
    /// Each template receives a per-template instance budget
    /// (`size_slot_fills`, multiplied by the class boosts of Table 1), and
    /// duplicate instances are rejected so no template can dominate.
    pub fn generate(&self, templates: &[SeedTemplate]) -> TrainingCorpus {
        self.generate_with_stats(templates).0
    }

    /// As [`Generator::generate`], also returning the instantiation
    /// counters.
    ///
    /// Templates fan out across `config.threads` workers; each template
    /// draws from its own [`dbpal_util::stream_seed`]-derived RNG stream
    /// keyed by `(config.seed, template index)`, and the per-template
    /// shards merge in template order — so the corpus is byte-identical
    /// for a given seed at any thread count.
    pub fn generate_with_stats(
        &self,
        templates: &[SeedTemplate],
    ) -> (TrainingCorpus, GeneratorStats) {
        let threads = self.config.effective_threads();
        let shards = WorkerPool::global()
            .map_indexed(templates, threads, |i, t| self.generate_template(i, t));
        let mut corpus = TrainingCorpus::new();
        let mut stats = GeneratorStats::default();
        for (pairs, shard_stats) in shards {
            for pair in pairs {
                corpus.push(pair);
            }
            stats.absorb(&shard_stats);
        }
        (corpus, stats)
    }

    /// Instantiate one template's full instance budget on the template's
    /// own derived RNG stream.
    fn generate_template(
        &self,
        index: usize,
        template: &SeedTemplate,
    ) -> (Vec<TrainingPair>, GeneratorStats) {
        let mut rng = Rng::for_stream(self.config.seed, index as u64);
        let mut budget = self.config.size_slot_fills as f64;
        if template.class.is_join() {
            budget *= self.config.join_boost;
        }
        if template.class.is_agg() {
            budget *= self.config.agg_boost;
        }
        if template.class.is_nested() {
            budget *= self.config.nest_boost;
        }
        let budget = budget.round().max(1.0) as usize;
        let mut stats = GeneratorStats {
            budgeted: budget,
            ..GeneratorStats::default()
        };
        let mut pairs = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut produced = 0usize;
        // Sampling may repeat instances on small schemas; cap retries.
        let mut attempts = budget * 4 + 8;
        while produced < budget && attempts > 0 {
            attempts -= 1;
            let Some((nl, sql)) = self.instantiate_with(template, &mut rng) else {
                // This draw could not be instantiated (e.g. the chosen
                // table lacks a numeric column); try another draw
                // until the attempt budget runs out.
                stats.failed_draws += 1;
                continue;
            };
            if !seen.insert(format!("{nl}\u{1}{sql}")) {
                stats.duplicate_draws += 1;
                continue;
            }
            // Optionally emit a GROUP BY version of aggregate pairs
            // (the `groupby_p` parameter of Table 1).
            if matches!(template.class, QueryClass::Agg | QueryClass::AggWhere)
                && rng.gen_bool(self.config.group_by_p)
            {
                if let Some(pair) = self.groupby_version(&mut rng, &nl, &sql, template) {
                    pairs.push(pair);
                }
            }
            pairs.push(TrainingPair::new(
                nl,
                sql,
                template.id.clone(),
                Provenance::Seed,
            ));
            produced += 1;
        }
        if produced < budget {
            stats.exhausted_templates = 1;
            stats.shortfall = budget - produced;
        }
        stats.produced = pairs.len();
        (pairs, stats)
    }

    /// Instantiate one template, drawing randomness from `rng`; `None`
    /// when the schema lacks the required structure (e.g. no numeric
    /// column for an aggregate).
    pub fn instantiate_with(
        &self,
        template: &SeedTemplate,
        rng: &mut Rng,
    ) -> Option<(String, Query)> {
        let mut b = Bindings::new();
        let sql = self.build_sql(rng, template.class, &mut b)?;
        let nl = b.render(template.pattern)?;
        Some((nl, sql))
    }

    // ----- SQL construction per class -------------------------------

    fn build_sql(&self, rng: &mut Rng, class: QueryClass, b: &mut Bindings) -> Option<Query> {
        use QueryClass::*;
        match class {
            SelectAll => {
                let t = self.pick_table(rng, |_| true)?;
                self.bind_table(rng, b, t);
                Some(Query::simple(vec![SelectItem::Star], self.table_name(t)))
            }
            SelectAllWhere => {
                let t = self.pick_table(rng, |t| !t.columns().is_empty())?;
                self.bind_table(rng, b, t);
                let f = self.make_filter(rng, t, &mut HashSet::new(), false)?;
                b.set("filter", f.nl.clone());
                let mut q = Query::simple(vec![SelectItem::Star], self.table_name(t));
                q.where_pred = Some(f.pred);
                Some(q)
            }
            SelectCol => {
                let t = self.pick_table(rng, |_| true)?;
                self.bind_table(rng, b, t);
                let (att, col) = self.pick_column(rng, t, |_| true, &HashSet::new())?;
                b.set("att", self.col_surface(rng, col));
                Some(Query::simple(
                    vec![SelectItem::Column(att)],
                    self.table_name(t),
                ))
            }
            SelectColWhere => {
                let t = self.pick_table(rng, |t| t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                b.set("att", self.col_surface(rng, col));
                let f = self.make_filter(rng, t, &mut used, false)?;
                b.set("filter", f.nl.clone());
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(f.pred);
                Some(q)
            }
            SelectColsWhere => {
                let t = self.pick_table(rng, |t| t.column_count() >= 3)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (a1, c1) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(c1);
                let (a2, c2) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(c2);
                b.set("att", self.col_surface(rng, c1));
                b.set("att2", self.col_surface(rng, c2));
                let f = self.make_filter(rng, t, &mut used, false)?;
                b.set("filter", f.nl.clone());
                let mut q = Query::simple(
                    vec![SelectItem::Column(a1), SelectItem::Column(a2)],
                    self.table_name(t),
                );
                q.where_pred = Some(f.pred);
                Some(q)
            }
            SelectColWhere2 => {
                let t = self.pick_table(rng, |t| t.column_count() >= 3)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                b.set("att", self.col_surface(rng, col));
                let f1 = self.make_filter(rng, t, &mut used, false)?;
                let f2 = self.make_filter(rng, t, &mut used, false)?;
                b.set("filter", f1.nl.clone());
                b.set("filter2", f2.nl.clone());
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::and(vec![f1.pred, f2.pred]));
                Some(q)
            }
            Distinct => {
                let t = self.pick_table(rng, |_| true)?;
                self.bind_table(rng, b, t);
                let (att, col) = self.pick_column(rng, t, |_| true, &HashSet::new())?;
                b.set("att", self.col_surface(rng, col));
                b.set("distinct", lexicons::pick(rng, lexicons::DISTINCT_PHRASES));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.distinct = true;
                Some(q)
            }
            Agg | AggWhere => {
                let t = self.pick_table(rng, has_numeric)?;
                self.bind_table(rng, b, t);
                let func = *class.agg_choices().choose(rng)?;
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &used)?;
                used.insert(col);
                b.set("att", self.col_surface(rng, col));
                b.set("agg", lexicons::pick(rng, lexicons::agg_phrases(func)));
                let mut q = Query::simple(
                    vec![SelectItem::Aggregate(func, agg_col(att))],
                    self.table_name(t),
                );
                if class == AggWhere {
                    let f = self.make_filter(rng, t, &mut used, false)?;
                    b.set("filter", f.nl.clone());
                    q.where_pred = Some(f.pred);
                }
                Some(q)
            }
            CountAll | CountWhere => {
                let t = self.pick_table(rng, |_| true)?;
                self.bind_table(rng, b, t);
                let mut q = Query::simple(
                    vec![SelectItem::Aggregate(AggFunc::Count, AggArg::Star)],
                    self.table_name(t),
                );
                if class == CountWhere {
                    let f = self.make_filter(rng, t, &mut HashSet::new(), false)?;
                    b.set("filter", f.nl.clone());
                    q.where_pred = Some(f.pred);
                }
                Some(q)
            }
            GroupBy => {
                let t = self.pick_table(rng, |t| has_numeric(t) && has_text(t))?;
                self.bind_table(rng, b, t);
                let func = *class.agg_choices().choose(rng)?;
                let mut used = HashSet::new();
                let (att, acol) = self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &used)?;
                used.insert(acol);
                let (gatt, gcol) = self.pick_column(rng, t, |c| c.sql_type().is_text(), &used)?;
                b.set("att", self.col_surface(rng, acol));
                b.set("group", self.col_surface(rng, gcol));
                b.set("agg", lexicons::pick(rng, lexicons::agg_phrases(func)));
                b.set("grpphrase", lexicons::pick(rng, lexicons::GROUP_PHRASES));
                let mut q = Query::simple(
                    vec![
                        SelectItem::Column(gatt.clone()),
                        SelectItem::Aggregate(func, agg_col(att)),
                    ],
                    self.table_name(t),
                );
                q.group_by = vec![gatt];
                Some(q)
            }
            GroupByCount => {
                let t = self.pick_table(rng, has_text)?;
                self.bind_table(rng, b, t);
                let (gatt, gcol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_text(), &HashSet::new())?;
                b.set("group", self.col_surface(rng, gcol));
                b.set("grpphrase", lexicons::pick(rng, lexicons::GROUP_PHRASES));
                let mut q = Query::simple(
                    vec![
                        SelectItem::Column(gatt.clone()),
                        SelectItem::Aggregate(AggFunc::Count, AggArg::Star),
                    ],
                    self.table_name(t),
                );
                q.group_by = vec![gatt];
                Some(q)
            }
            GroupByHaving => {
                let t = self.pick_table(rng, has_text)?;
                self.bind_table(rng, b, t);
                let (gatt, gcol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_text(), &HashSet::new())?;
                b.set("group", self.col_surface(rng, gcol));
                let mut q =
                    Query::simple(vec![SelectItem::Column(gatt.clone())], self.table_name(t));
                q.group_by = vec![gatt];
                q.having = Some(Pred::Compare {
                    left: Scalar::Aggregate(AggFunc::Count, AggArg::Star),
                    op: CmpOp::Gt,
                    right: Scalar::placeholder("CNT"),
                });
                Some(q)
            }
            TopOne | BottomOne => {
                let t = self.pick_table(rng, has_numeric)?;
                self.bind_table(rng, b, t);
                let (natt, ncol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &HashSet::new())?;
                b.set("natt", self.col_surface(rng, ncol));
                let max = class == TopOne;
                let sense = if max {
                    ComparativeSense::Max
                } else {
                    ComparativeSense::Min
                };
                let phrase = self.comparative_phrase(rng, ncol, sense);
                b.set(if max { "supmax" } else { "supmin" }, phrase);
                let mut q = Query::simple(vec![SelectItem::Star], self.table_name(t));
                q.order_by = vec![(
                    OrderKey::Column(natt),
                    if max { OrderDir::Desc } else { OrderDir::Asc },
                )];
                q.limit = Some(1);
                Some(q)
            }
            OrderBy { desc } => {
                let t = self.pick_table(rng, |t| has_numeric(t) && t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (natt, ncol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("natt", self.col_surface(rng, ncol));
                b.set("ordasc", lexicons::pick(rng, lexicons::ORDER_ASC_PHRASES));
                b.set("orddesc", lexicons::pick(rng, lexicons::ORDER_DESC_PHRASES));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.order_by = vec![(
                    OrderKey::Column(natt),
                    if desc { OrderDir::Desc } else { OrderDir::Asc },
                )];
                Some(q)
            }
            Between => {
                let t = self.pick_table(rng, |t| has_numeric(t) && t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (ncolref, ncol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("natt", self.col_surface(rng, ncol));
                let base = self.placeholder_name(ncol, false);
                b.set_raw("@LOW", format!("@{base}_LOW"));
                b.set_raw("@HIGH", format!("@{base}_HIGH"));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::Between {
                    col: ncolref,
                    low: Scalar::placeholder(format!("{base}_LOW")),
                    high: Scalar::placeholder(format!("{base}_HIGH")),
                });
                Some(q)
            }
            InList => {
                let t = self.pick_table(rng, |t| t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (ccolref, ccol) = self.pick_column(rng, t, |_| true, &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("catt", self.col_surface(rng, ccol));
                let base = self.placeholder_name(ccol, false);
                b.set_raw("@V1", format!("@{base}_1"));
                b.set_raw("@V2", format!("@{base}_2"));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::InList {
                    col: ccolref,
                    values: vec![
                        Scalar::placeholder(format!("{base}_1")),
                        Scalar::placeholder(format!("{base}_2")),
                    ],
                    negated: false,
                });
                Some(q)
            }
            Like => {
                let t = self.pick_table(rng, |t| has_text(t) && t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (tcolref, tcol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_text(), &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("tatt", self.col_surface(rng, tcol));
                b.set("like", lexicons::pick(rng, lexicons::LIKE_PHRASES));
                let base = self.placeholder_name(tcol, false);
                b.set_raw("@PAT", format!("@{base}"));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::Like {
                    col: tcolref,
                    pattern: Scalar::placeholder(base),
                    negated: false,
                });
                Some(q)
            }
            IsNull => {
                let t = self.pick_table(rng, |t| has_text(t) && t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (tcolref, tcol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_text(), &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("tatt", self.col_surface(rng, tcol));
                b.set("nullphrase", lexicons::pick(rng, lexicons::NULL_PHRASES));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::IsNull {
                    col: tcolref,
                    negated: false,
                });
                Some(q)
            }
            Neq => {
                let t = self.pick_table(rng, |t| t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (ccolref, ccol) = self.pick_column(rng, t, |_| true, &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("catt", self.col_surface(rng, ccol));
                let base = self.placeholder_name(ccol, false);
                b.set_raw("@V1", format!("@{base}"));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::Compare {
                    left: Scalar::Column(ccolref),
                    op: CmpOp::NotEq,
                    right: Scalar::placeholder(base),
                });
                Some(q)
            }
            Disjunction => {
                let t = self.pick_table(rng, |t| t.column_count() >= 3)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                b.set("att", self.col_surface(rng, col));
                let f1 = self.make_filter(rng, t, &mut used, false)?;
                let f2 = self.make_filter(rng, t, &mut used, false)?;
                b.set("filter", f1.nl.clone());
                b.set("filter2", f2.nl.clone());
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::Or(vec![f1.pred, f2.pred]));
                Some(q)
            }
            JoinSelect | JoinAgg => {
                let (t1, t2) = self.pick_join_pair(rng)?;
                self.bind_join_tables(rng, b, t1, t2);
                let numeric_needed = class == JoinAgg;
                let (att, col) = self.pick_column(
                    rng,
                    t1,
                    |c| !numeric_needed || c.sql_type().is_numeric(),
                    &HashSet::new(),
                )?;
                let att = qualify(att, self.table_name(t1));
                b.set("attq", self.col_surface(rng, col));
                let f2 = self.make_filter(rng, t2, &mut HashSet::new(), true)?;
                b.set("filter2q", f2.nl.clone());
                let select = if class == JoinAgg {
                    let func = *class.agg_choices().choose(rng)?;
                    b.set("agg", lexicons::pick(rng, lexicons::agg_phrases(func)));
                    vec![SelectItem::Aggregate(func, agg_col(att))]
                } else {
                    vec![SelectItem::Column(att)]
                };
                Some(Query {
                    distinct: false,
                    select,
                    from: FromClause::JoinPlaceholder,
                    where_pred: Some(f2.pred),
                    group_by: vec![],
                    having: None,
                    order_by: vec![],
                    limit: None,
                })
            }
            JoinGroupBy => {
                let (t1, t2) = self.pick_join_pair(rng)?;
                self.bind_join_tables(rng, b, t1, t2);
                if !has_numeric(self.schema.table(t1)) || !has_text(self.schema.table(t2)) {
                    return None;
                }
                let func = *class.agg_choices().choose(rng)?;
                let (att, acol) =
                    self.pick_column(rng, t1, |c| c.sql_type().is_numeric(), &HashSet::new())?;
                let att = qualify(att, self.table_name(t1));
                let (gatt, gcol) =
                    self.pick_column(rng, t2, |c| c.sql_type().is_text(), &HashSet::new())?;
                let gatt = qualify(gatt, self.table_name(t2));
                b.set("attq", self.col_surface(rng, acol));
                b.set("groupq", self.col_surface(rng, gcol));
                b.set("agg", lexicons::pick(rng, lexicons::agg_phrases(func)));
                b.set("grpphrase", lexicons::pick(rng, lexicons::GROUP_PHRASES));
                Some(Query {
                    distinct: false,
                    select: vec![
                        SelectItem::Column(gatt.clone()),
                        SelectItem::Aggregate(func, agg_col(att)),
                    ],
                    from: FromClause::JoinPlaceholder,
                    where_pred: None,
                    group_by: vec![gatt],
                    having: None,
                    order_by: vec![],
                    limit: None,
                })
            }
            NestedScalar { max } => {
                let t = self.pick_table(rng, |t| has_numeric(t) && t.column_count() >= 3)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (natt, ncol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &used)?;
                used.insert(ncol);
                b.set("att", self.col_surface(rng, col));
                b.set("natt", self.col_surface(rng, ncol));
                let f = self.make_filter(rng, t, &mut used, false)?;
                b.set("filter", f.nl.clone());
                let func = if max { AggFunc::Max } else { AggFunc::Min };
                let mut inner = Query::simple(
                    vec![SelectItem::Aggregate(func, agg_col(natt.clone()))],
                    self.table_name(t),
                );
                inner.where_pred = Some(f.pred.clone());
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::and(vec![
                    Pred::Compare {
                        left: Scalar::Column(natt),
                        op: CmpOp::Eq,
                        right: Scalar::Subquery(Box::new(inner)),
                    },
                    f.pred,
                ]));
                Some(q)
            }
            NestedIn => {
                let (t1, c1, t2, c2) = self.pick_compatible_columns(rng)?;
                self.bind_join_tables(rng, b, t1, t2);
                b.set("att", self.col_surface(rng, c1));
                let f2 = self.make_filter(rng, t2, &mut [c2].into_iter().collect(), true)?;
                b.set("filter2q", f2.nl.clone());
                let inner_col = ColumnRef::unqualified(self.schema.column(c2).name());
                let mut inner =
                    Query::simple(vec![SelectItem::Column(inner_col)], self.table_name(t2));
                inner.where_pred = Some(f2.pred);
                let outer_col = ColumnRef::unqualified(self.schema.column(c1).name());
                let mut q = Query::simple(
                    vec![SelectItem::Column(outer_col.clone())],
                    self.table_name(t1),
                );
                q.where_pred = Some(Pred::InSubquery {
                    col: outer_col,
                    query: Box::new(inner),
                    negated: false,
                });
                Some(q)
            }
            NotLike => {
                let t = self.pick_table(rng, |t| has_text(t) && t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (tcolref, tcol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_text(), &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("tatt", self.col_surface(rng, tcol));
                b.set("like", lexicons::pick(rng, lexicons::LIKE_PHRASES));
                let base = self.placeholder_name(tcol, false);
                b.set_raw("@PAT", format!("@{base}"));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::Like {
                    col: tcolref,
                    pattern: Scalar::placeholder(base),
                    negated: true,
                });
                Some(q)
            }
            CountDistinct => {
                let t = self.pick_table(rng, |_| true)?;
                self.bind_table(rng, b, t);
                let (att, col) = self.pick_column(rng, t, |_| true, &HashSet::new())?;
                b.set("att", self.col_surface(rng, col));
                b.set("distinct", lexicons::pick(rng, lexicons::DISTINCT_PHRASES));
                let q = Query::simple(
                    vec![SelectItem::Aggregate(AggFunc::Count, agg_col(att))],
                    self.table_name(t),
                );
                Some(q)
            }
            TopN { limit } => {
                let t = self.pick_table(rng, has_numeric)?;
                self.bind_table(rng, b, t);
                let (natt, ncol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &HashSet::new())?;
                b.set("natt", self.col_surface(rng, ncol));
                b.set(
                    "supmax",
                    self.comparative_phrase(rng, ncol, ComparativeSense::Max),
                );
                b.set_raw("@N", limit.to_string());
                let mut q = Query::simple(vec![SelectItem::Star], self.table_name(t));
                q.order_by = vec![(OrderKey::Column(natt), OrderDir::Desc)];
                q.limit = Some(limit);
                Some(q)
            }
            NotBetween => {
                let t = self.pick_table(rng, |t| has_numeric(t) && t.column_count() >= 2)?;
                self.bind_table(rng, b, t);
                let mut used = HashSet::new();
                let (att, col) = self.pick_column(rng, t, |_| true, &used)?;
                used.insert(col);
                let (ncolref, ncol) =
                    self.pick_column(rng, t, |c| c.sql_type().is_numeric(), &used)?;
                b.set("att", self.col_surface(rng, col));
                b.set("natt", self.col_surface(rng, ncol));
                let base = self.placeholder_name(ncol, false);
                b.set_raw("@LOW", format!("@{base}_LOW"));
                b.set_raw("@HIGH", format!("@{base}_HIGH"));
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t));
                q.where_pred = Some(Pred::Not(Box::new(Pred::Between {
                    col: ncolref,
                    low: Scalar::placeholder(format!("{base}_LOW")),
                    high: Scalar::placeholder(format!("{base}_HIGH")),
                })));
                Some(q)
            }
            NestedExists => {
                if self.schema.table_count() < 2 {
                    return None;
                }
                let t1 = self.pick_table(rng, |_| true)?;
                let t2 = self.pick_table_excluding(rng, t1)?;
                self.bind_join_tables(rng, b, t1, t2);
                let (att, col) = self.pick_column(rng, t1, |_| true, &HashSet::new())?;
                b.set("att", self.col_surface(rng, col));
                let f2 = self.make_filter(rng, t2, &mut HashSet::new(), true)?;
                b.set("filter2q", f2.nl.clone());
                let mut inner = Query::simple(vec![SelectItem::Star], self.table_name(t2));
                inner.where_pred = Some(f2.pred);
                let mut q = Query::simple(vec![SelectItem::Column(att)], self.table_name(t1));
                q.where_pred = Some(Pred::Exists {
                    query: Box::new(inner),
                    negated: false,
                });
                Some(q)
            }
        }
    }

    /// Emit the GROUP BY variant of an aggregate pair (the `groupby_p`
    /// parameter of Table 1). The NL gets a group suffix; the SQL gets a
    /// GROUP BY over a text column.
    fn groupby_version(
        &self,
        rng: &mut Rng,
        nl: &str,
        sql: &Query,
        template: &SeedTemplate,
    ) -> Option<TrainingPair> {
        let table_name = sql.from.tables().first()?.clone();
        let tid = self.schema.table_id(&table_name)?;
        let t = self.schema.table(tid);
        let used: HashSet<ColumnId> = sql
            .columns_mentioned()
            .iter()
            .filter_map(|c| self.schema.column_id(&table_name, &c.column).ok())
            .collect();
        let (gatt, gcol) = self.pick_column(rng, tid, |c| c.sql_type().is_text(), &used)?;
        let _ = t;
        let grp = lexicons::pick(rng, lexicons::GROUP_PHRASES);
        let nl = format!("{nl} {grp} {}", self.col_surface(rng, gcol));
        let mut q = sql.clone();
        q.select.insert(0, SelectItem::Column(gatt.clone()));
        q.group_by = vec![gatt];
        Some(TrainingPair::new(
            nl,
            q,
            format!("{}+group", template.id),
            Provenance::Seed,
        ))
    }

    // ----- slot-filling helpers --------------------------------------

    fn table_name(&self, t: TableId) -> String {
        self.schema.table(t).name().to_lowercase()
    }

    fn pick_table(&self, rng: &mut Rng, accept: impl Fn(&Table) -> bool) -> Option<TableId> {
        let candidates: Vec<TableId> = self
            .schema
            .tables_with_ids()
            .filter(|(_, t)| accept(t))
            .map(|(id, _)| id)
            .collect();
        candidates.choose(rng).copied()
    }

    fn pick_table_excluding(&self, rng: &mut Rng, exclude: TableId) -> Option<TableId> {
        let candidates: Vec<TableId> = self
            .schema
            .tables_with_ids()
            .filter(|(id, _)| *id != exclude)
            .map(|(id, _)| id)
            .collect();
        candidates.choose(rng).copied()
    }

    /// Pick a column of `t` satisfying `accept`, excluding `used`.
    /// Returns the (unqualified) AST reference and the column id.
    fn pick_column(
        &self,
        rng: &mut Rng,
        t: TableId,
        accept: impl Fn(&Column) -> bool,
        used: &HashSet<ColumnId>,
    ) -> Option<(ColumnRef, ColumnId)> {
        let table = self.schema.table(t);
        let candidates: Vec<(u32, &Column)> = table
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, c))
            .filter(|(i, c)| accept(c) && !used.contains(&ColumnId::new(t, *i)))
            .collect();
        let &(idx, col) = candidates.choose(rng)?;
        Some((ColumnRef::unqualified(col.name()), ColumnId::new(t, idx)))
    }

    /// A random NL surface form of a column (readable name or synonym).
    fn col_surface(&self, rng: &mut Rng, col: ColumnId) -> String {
        let phrases = self.schema.column(col).nl_phrases();
        phrases[rng.gen_range(0..phrases.len())].clone()
    }

    /// A random NL surface form of a table.
    fn table_surface(&self, rng: &mut Rng, t: TableId) -> String {
        let phrases = self.schema.table(t).nl_phrases();
        phrases[rng.gen_range(0..phrases.len())].clone()
    }

    fn bind_table(&self, rng: &mut Rng, b: &mut Bindings, t: TableId) {
        let surface = self.table_surface(rng, t);
        b.set("table", surface);
        b.set("select", lexicons::pick(rng, lexicons::SELECT_PHRASES));
        b.set("from", lexicons::pick(rng, lexicons::FROM_PHRASES));
        b.set("where", lexicons::pick(rng, lexicons::WHERE_PHRASES));
    }

    fn bind_join_tables(&self, rng: &mut Rng, b: &mut Bindings, t1: TableId, t2: TableId) {
        self.bind_table(rng, b, t1);
        let surface2 = self.table_surface(rng, t2);
        b.set("table2", surface2);
    }

    /// The placeholder base name for a column: `AGE` for single-table
    /// contexts, `DOCTORS.NAME` when qualification is required (join and
    /// cross-table contexts, paper §5.1's `@DOCTOR.NAME`).
    fn placeholder_name(&self, col: ColumnId, qualified: bool) -> String {
        let c = self.schema.column(col);
        if qualified {
            format!(
                "{}.{}",
                self.schema.table(col.table).name().to_uppercase(),
                c.name().to_uppercase()
            )
        } else {
            c.name().to_uppercase()
        }
    }

    /// Build a random filter on a column of `t` not in `used`.
    fn make_filter(
        &self,
        rng: &mut Rng,
        t: TableId,
        used: &mut HashSet<ColumnId>,
        qualified: bool,
    ) -> Option<FilterParts> {
        let (colref, col) = self.pick_column(rng, t, |_| true, used)?;
        used.insert(col);
        let column = self.schema.column(col);
        let surface = self.col_surface(rng, col);
        let ph = self.placeholder_name(col, qualified);
        let colref = if qualified {
            qualify(colref, self.table_name(t))
        } else {
            colref
        };
        let (op, nl) = if column.sql_type().is_numeric() {
            // Weighted operator choice: equality is most common.
            let roll: f64 = rng.next_f64();
            if roll < 0.5 {
                let eq = lexicons::pick(rng, lexicons::EQ_PHRASES);
                (CmpOp::Eq, format!("{surface} {eq} @{ph}"))
            } else if roll < 0.75 {
                let phrase = self.comparative_phrase(rng, col, ComparativeSense::Greater);
                (CmpOp::Gt, format!("{surface} {phrase} @{ph}"))
            } else {
                let phrase = self.comparative_phrase(rng, col, ComparativeSense::Less);
                (CmpOp::Lt, format!("{surface} {phrase} @{ph}"))
            }
        } else {
            let eq = lexicons::pick(rng, lexicons::EQ_PHRASES);
            (CmpOp::Eq, format!("{surface} {eq} @{ph}"))
        };
        Some(FilterParts {
            pred: Pred::Compare {
                left: Scalar::Column(colref),
                op,
                right: Scalar::placeholder(ph),
            },
            nl,
        })
    }

    /// A comparative phrase for a column, preferring a domain-specific
    /// phrase when the column has a non-generic domain (paper §3.2.3).
    fn comparative_phrase(&self, rng: &mut Rng, col: ColumnId, sense: ComparativeSense) -> String {
        let domain = self.schema.column(col).domain();
        let phrases = if domain != SemanticDomain::Generic && rng.gen_bool(0.5) {
            self.comparatives.domain_phrases(domain, sense).to_vec()
        } else {
            self.comparatives.generic_phrases(sense).to_vec()
        };
        let pick = phrases[rng.gen_range(0..phrases.len())];
        pick.to_string()
    }

    /// Find two tables with type-compatible columns for NestedIn.
    fn pick_compatible_columns(
        &self,
        rng: &mut Rng,
    ) -> Option<(TableId, ColumnId, TableId, ColumnId)> {
        let mut candidates = Vec::new();
        for (t1, table1) in self.schema.tables_with_ids() {
            for (t2, table2) in self.schema.tables_with_ids() {
                if t1 == t2 || table2.column_count() < 2 {
                    continue;
                }
                for (i1, c1) in table1.columns().iter().enumerate() {
                    for (i2, c2) in table2.columns().iter().enumerate() {
                        let compatible = c1.sql_type() == c2.sql_type()
                            && c1.sql_type().is_text()
                            && (c1.name() == c2.name() || c1.domain() == c2.domain());
                        if compatible {
                            candidates.push((
                                t1,
                                ColumnId::new(t1, i1 as u32),
                                t2,
                                ColumnId::new(t2, i2 as u32),
                            ));
                        }
                    }
                }
            }
        }
        candidates.choose(rng).copied()
    }

    /// Pick a foreign-key-connected pair of tables (child, parent),
    /// honoring `size_tables >= 2`.
    fn pick_join_pair(&self, rng: &mut Rng) -> Option<(TableId, TableId)> {
        if self.config.size_tables < 2 {
            return None;
        }
        let fks = self.schema.foreign_keys();
        let fk = fks.choose(rng)?;
        Some((fk.from.table, fk.to.table))
    }
}

fn has_numeric(t: &Table) -> bool {
    t.columns().iter().any(|c| c.sql_type().is_numeric())
}

fn has_text(t: &Table) -> bool {
    t.columns().iter().any(|c| c.sql_type().is_text())
}

fn agg_col(c: ColumnRef) -> AggArg {
    AggArg::Column(c)
}

fn qualify(c: ColumnRef, table: String) -> ColumnRef {
    ColumnRef {
        table: Some(table),
        column: c.column,
    }
}

/// Slot bindings for one instantiation.
struct Bindings {
    slots: HashMap<&'static str, String>,
    raw: Vec<(&'static str, String)>,
}

impl Bindings {
    fn new() -> Self {
        Bindings {
            slots: HashMap::new(),
            raw: Vec::new(),
        }
    }

    fn set(&mut self, slot: &'static str, value: impl Into<String>) {
        self.slots.insert(slot, value.into());
    }

    /// Raw textual replacement applied before slot filling (used for the
    /// pseudo-placeholders `@LOW`, `@V1`, `@PAT`, ... in patterns).
    fn set_raw(&mut self, from: &'static str, to: String) {
        self.raw.push((from, to));
    }

    /// Render a pattern; `None` if it references an unbound slot.
    fn render(&self, pattern: &str) -> Option<String> {
        let mut text = pattern.to_string();
        for (from, to) in &self.raw {
            text = text.replace(from, to);
        }
        let mut out = String::with_capacity(text.len() * 2);
        let mut rest = text.as_str();
        while let Some(start) = rest.find('{') {
            out.push_str(&rest[..start]);
            let end = start + rest[start..].find('}')?;
            let slot = &rest[start + 1..end];
            out.push_str(self.slots.get(slot)?);
            rest = &rest[end + 1..];
        }
        out.push_str(rest);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::catalog;
    use dbpal_schema::{SchemaBuilder, SqlType};

    fn hospital_schema() -> Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.synonym("people")
                    .column("name", SqlType::Text)
                    .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                    .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                    .column_with("length_of_stay", SqlType::Integer, |c| {
                        c.domain(SemanticDomain::Duration)
                            .readable("length of stay")
                    })
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("specialty", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap()
    }

    #[test]
    fn generates_pairs_for_every_class() {
        let schema = hospital_schema();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        let templates_hit: std::collections::HashSet<&str> = corpus
            .pairs()
            .iter()
            .map(|p| p.template_id.split('.').next().unwrap())
            .collect();
        // Every class family should instantiate on this schema.
        for family in [
            "select_all",
            "select_col_where",
            "agg",
            "count_all",
            "group_by",
            "top_one",
            "between",
            "join_select",
            "join_agg",
            "nested_max",
            "nested_in",
        ] {
            assert!(
                templates_hit.contains(family),
                "family {family} produced no pairs; hit = {templates_hit:?}"
            );
        }
    }

    #[test]
    fn generated_sql_is_parseable_and_printable() {
        let schema = hospital_schema();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        assert!(corpus.len() > 100);
        for p in corpus.pairs() {
            let text = p.sql_text();
            let reparsed = dbpal_sql::parse_query(&text)
                .unwrap_or_else(|e| panic!("unparseable generated SQL `{text}`: {e}"));
            assert_eq!(&reparsed, &*p.sql, "round trip mismatch for `{text}`");
        }
    }

    #[test]
    fn nl_side_has_no_unfilled_slots() {
        let schema = hospital_schema();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        for p in corpus.pairs() {
            assert!(
                !p.nl.contains('{') && !p.nl.contains('}'),
                "unfilled slot in `{}` ({})",
                p.nl,
                p.template_id
            );
        }
    }

    #[test]
    fn placeholders_match_between_nl_and_sql() {
        let schema = hospital_schema();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        for p in corpus.pairs() {
            for ph in p.sql.placeholders() {
                if ph == "CNT" {
                    // GROUP BY HAVING uses @CNT in both sides.
                }
                assert!(
                    p.nl.to_uppercase().contains(&format!("@{ph}")),
                    "SQL placeholder @{ph} missing from NL `{}` (sql: {})",
                    p.nl,
                    p.sql
                );
            }
        }
    }

    #[test]
    fn respects_slot_fill_budget() {
        let schema = hospital_schema();
        let mut config = GenerationConfig::small();
        config.size_slot_fills = 3;
        config.join_boost = 1.0;
        config.agg_boost = 1.0;
        config.nest_boost = 1.0;
        config.group_by_p = 0.0;
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        for (tmpl, count) in corpus.template_counts() {
            assert!(
                count <= 3,
                "template {tmpl} produced {count} pairs, budget was 3"
            );
        }
    }

    #[test]
    fn boosts_scale_instance_counts() {
        let schema = hospital_schema();
        let mut low = GenerationConfig::small();
        low.nest_boost = 0.5;
        low.group_by_p = 0.0;
        let mut high = low.clone();
        high.nest_boost = 3.0;
        let count = |cfg: &GenerationConfig| {
            let g = Generator::new(&schema, cfg);
            g.generate(&catalog())
                .pairs()
                .iter()
                .filter(|p| p.template_id.starts_with("nested"))
                .count()
        };
        assert!(count(&high) > count(&low));
    }

    #[test]
    fn group_by_p_zero_suppresses_groupby_variants() {
        let schema = hospital_schema();
        let mut config = GenerationConfig::small();
        config.group_by_p = 0.0;
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        assert!(corpus
            .pairs()
            .iter()
            .all(|p| !p.template_id.ends_with("+group")));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let schema = hospital_schema();
        let config = GenerationConfig::small();
        let run = || {
            let g = Generator::new(&schema, &config);
            g.generate(&catalog())
                .pairs()
                .iter()
                .map(|p| p.nl.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn join_queries_use_join_placeholder() {
        let schema = hospital_schema();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        let join_pairs: Vec<_> = corpus
            .pairs()
            .iter()
            .filter(|p| p.template_id.starts_with("join"))
            .collect();
        assert!(!join_pairs.is_empty());
        for p in join_pairs {
            assert_eq!(p.sql.from, FromClause::JoinPlaceholder, "{}", p.sql);
        }
    }

    #[test]
    fn single_table_schema_skips_join_classes() {
        let schema = SchemaBuilder::new("solo")
            .table("t", |t| {
                t.column("a", SqlType::Text)
                    .column("b", SqlType::Integer)
                    .column("c", SqlType::Text)
            })
            .build()
            .unwrap();
        let config = GenerationConfig::small();
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        assert!(corpus.len() > 50);
        assert!(corpus
            .pairs()
            .iter()
            .all(|p| !p.template_id.starts_with("join")));
    }

    #[test]
    fn domain_comparatives_appear() {
        let schema = hospital_schema();
        let config = GenerationConfig {
            size_slot_fills: 60,
            ..GenerationConfig::default()
        };
        let g = Generator::new(&schema, &config);
        let corpus = g.generate(&catalog());
        let has_domain_phrase = corpus
            .pairs()
            .iter()
            .any(|p| p.nl.contains("older than") || p.nl.contains("younger than"));
        assert!(has_domain_phrase, "no age-domain comparative generated");
    }
}
