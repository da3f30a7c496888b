//! Post-processing: constant restitution, `@JOIN` expansion, and FROM
//! repair (paper §4.2, §5.1).

use crate::{Binding, RuntimeError};
use dbpal_schema::{JoinGraph, JoinPath, Schema, TableId, Value};
use dbpal_sql::{CmpOp, ColumnRef, FromClause, Pred, Query, Scalar};

/// The complete post-processor: binds constants, expands `@JOIN`, and
/// repairs the FROM clause in one call.
pub struct PostProcessor<'a> {
    schema: &'a Schema,
}

impl<'a> PostProcessor<'a> {
    /// Create a post-processor for a schema.
    pub fn new(schema: &'a Schema) -> Self {
        PostProcessor { schema }
    }

    /// Run all post-processing steps on a translated query: one copy
    /// of it goes through the four steps, which build the schema's join
    /// graph at most once between them.
    pub fn process(&self, query: &Query, bindings: &[Binding]) -> Result<Query, RuntimeError> {
        let mut q = query.clone();
        let mut graph = None;
        requalify(&mut q, bindings, self.schema);
        bind(&mut q, bindings)?;
        expand_join(&mut q, self.schema, &mut graph)?;
        repair_from(&mut q, self.schema, &mut graph)?;
        Ok(q)
    }
}

/// Re-qualify columns compared against captured constants: the parameter
/// handler knows *which* column a constant came from (§4.1's value
/// index), so a predicate `name = @NAME` whose binding points at
/// `doctors.name` is rewritten to `doctors.name = @NAME`. The subsequent
/// FROM repair (§4.2) then pulls the owning table into the join.
pub fn requalify_with_bindings(query: &Query, bindings: &[Binding], schema: &Schema) -> Query {
    let mut q = query.clone();
    requalify(&mut q, bindings, schema);
    q
}

/// [`requalify_with_bindings`] in place.
fn requalify(q: &mut Query, bindings: &[Binding], schema: &Schema) {
    fn fix_col(col: &mut ColumnRef, ph: &str, bindings: &[Binding], schema: &Schema) {
        if col.table.is_some() {
            return;
        }
        let base = ph.rsplit('.').next().unwrap_or(ph);
        let candidate = bindings
            .iter()
            .find(|b| b.placeholder == ph || b.placeholder == base);
        if let Some(b) = candidate {
            let column = schema.column(b.column);
            if column.name().eq_ignore_ascii_case(&col.column) {
                // Only qualify when the column name is ambiguous across
                // tables; unambiguous names resolve without help.
                let owners = schema
                    .tables_with_ids()
                    .filter(|(_, t)| t.column_by_name(&col.column).is_some())
                    .count();
                if owners > 1 {
                    col.table = Some(schema.table(b.column.table).name().to_lowercase());
                }
            }
        }
    }
    fn walk(p: &mut Pred, bindings: &[Binding], schema: &Schema) {
        match p {
            Pred::And(ps) | Pred::Or(ps) => ps.iter_mut().for_each(|p| walk(p, bindings, schema)),
            Pred::Not(p) => walk(p, bindings, schema),
            Pred::Compare { left, op: _, right } => {
                if let (Scalar::Column(col), Scalar::Placeholder(ph)) = (&mut *left, &*right) {
                    fix_col(col, ph, bindings, schema);
                } else if let (Scalar::Placeholder(ph), Scalar::Column(col)) = (&*left, &mut *right)
                {
                    let ph = ph.clone();
                    fix_col(col, &ph, bindings, schema);
                }
            }
            Pred::Like {
                col,
                pattern: Scalar::Placeholder(ph),
                ..
            } => {
                let ph = ph.clone();
                fix_col(col, &ph, bindings, schema);
            }
            _ => {}
        }
    }
    if let Some(p) = &mut q.where_pred {
        walk(p, bindings, schema);
    }
}

/// Replace `@PLACEHOLDER` scalars with the captured constants.
///
/// Matching is by exact placeholder name, then by unqualified name (the
/// model may emit `@DOCTORS.NAME` for a captured `NAME`), then — when
/// exactly one unused binding remains for a lone unresolved placeholder —
/// by position. LIKE patterns get `%` wildcards wrapped around text
/// constants.
pub fn bind_constants(query: &Query, bindings: &[Binding]) -> Result<Query, RuntimeError> {
    let mut q = query.clone();
    bind(&mut q, bindings)?;
    Ok(q)
}

/// [`bind_constants`] in place.
fn bind(q: &mut Query, bindings: &[Binding]) -> Result<(), RuntimeError> {
    bind_query(q, bindings, &mut vec![false; bindings.len()])
}

fn lookup<'b>(
    name: &str,
    bindings: &'b [Binding],
    used: &mut [bool],
) -> Option<(usize, &'b Binding)> {
    // Exact match first.
    if let Some(i) = bindings
        .iter()
        .enumerate()
        .position(|(i, b)| !used[i] && b.placeholder == name)
    {
        return Some((i, &bindings[i]));
    }
    // Already-used exact match (the same constant may be referenced twice,
    // e.g. in a nested query).
    if let Some(b) = bindings.iter().find(|b| b.placeholder == name) {
        return Some((usize::MAX, b));
    }
    // Unqualified match: strip a TABLE. prefix from the query's name.
    let unqualified = name.rsplit('.').next().unwrap_or(name);
    if let Some(i) = bindings
        .iter()
        .enumerate()
        .position(|(i, b)| !used[i] && b.placeholder == unqualified)
    {
        return Some((i, &bindings[i]));
    }
    if let Some(b) = bindings.iter().find(|b| b.placeholder == unqualified) {
        return Some((usize::MAX, b));
    }
    // Positional fallback: single remaining binding.
    let remaining: Vec<usize> = used
        .iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(i, _)| i)
        .collect();
    if remaining.len() == 1 {
        let i = remaining[0];
        return Some((i, &bindings[i]));
    }
    None
}

fn bind_query(q: &mut Query, bindings: &[Binding], used: &mut [bool]) -> Result<(), RuntimeError> {
    if let Some(p) = q.where_pred.take() {
        q.where_pred = Some(bind_pred(p, bindings, used, false)?);
    }
    if let Some(p) = q.having.take() {
        q.having = Some(bind_pred(p, bindings, used, false)?);
    }
    Ok(())
}

fn bind_scalar(
    s: Scalar,
    bindings: &[Binding],
    used: &mut [bool],
    like_context: bool,
) -> Result<Scalar, RuntimeError> {
    match s {
        Scalar::Placeholder(name) => {
            let (i, binding) =
                lookup(&name, bindings, used).ok_or(RuntimeError::UnboundPlaceholder(name))?;
            if i != usize::MAX {
                used[i] = true;
            }
            let value = match (&binding.value, like_context) {
                (Value::Text(t), true) => Value::Text(format!("%{t}%")),
                (v, _) => v.clone(),
            };
            Ok(Scalar::Literal(value))
        }
        Scalar::Subquery(mut q) => {
            bind_query(&mut q, bindings, used)?;
            Ok(Scalar::Subquery(q))
        }
        other => Ok(other),
    }
}

fn bind_pred(
    p: Pred,
    bindings: &[Binding],
    used: &mut [bool],
    _like: bool,
) -> Result<Pred, RuntimeError> {
    Ok(match p {
        Pred::And(ps) => Pred::And(
            ps.into_iter()
                .map(|p| bind_pred(p, bindings, used, false))
                .collect::<Result<_, _>>()?,
        ),
        Pred::Or(ps) => Pred::Or(
            ps.into_iter()
                .map(|p| bind_pred(p, bindings, used, false))
                .collect::<Result<_, _>>()?,
        ),
        Pred::Not(p) => Pred::Not(Box::new(bind_pred(*p, bindings, used, false)?)),
        Pred::Compare { left, op, right } => Pred::Compare {
            left: bind_scalar(left, bindings, used, false)?,
            op,
            right: bind_scalar(right, bindings, used, false)?,
        },
        Pred::Between { col, low, high } => Pred::Between {
            col,
            low: bind_scalar(low, bindings, used, false)?,
            high: bind_scalar(high, bindings, used, false)?,
        },
        Pred::InList {
            col,
            values,
            negated,
        } => Pred::InList {
            col,
            values: values
                .into_iter()
                .map(|v| bind_scalar(v, bindings, used, false))
                .collect::<Result<_, _>>()?,
            negated,
        },
        Pred::InSubquery {
            col,
            mut query,
            negated,
        } => {
            bind_query(&mut query, bindings, used)?;
            Pred::InSubquery {
                col,
                query,
                negated,
            }
        }
        Pred::Exists { mut query, negated } => {
            bind_query(&mut query, bindings, used)?;
            Pred::Exists { query, negated }
        }
        Pred::Like {
            col,
            pattern,
            negated,
        } => Pred::Like {
            col,
            pattern: bind_scalar(pattern, bindings, used, true)?,
            negated,
        },
        other @ Pred::IsNull { .. } => other,
    })
}

/// Expand the `@JOIN` FROM placeholder into a concrete join path (§5.1):
/// the required tables are collected from qualified column references,
/// connected via the minimal join path, and the join conditions are
/// appended to the WHERE clause.
pub fn expand_join_placeholder(query: &Query, schema: &Schema) -> Result<Query, RuntimeError> {
    let mut q = query.clone();
    expand_join(&mut q, schema, &mut None)?;
    Ok(q)
}

/// [`expand_join_placeholder`] in place, over a join graph built on
/// first use.
fn expand_join(
    q: &mut Query,
    schema: &Schema,
    graph: &mut Option<JoinGraph>,
) -> Result<(), RuntimeError> {
    if q.from != FromClause::JoinPlaceholder {
        return Ok(());
    }
    // Required tables: the same collection pass the static analyzer uses
    // for its join-connectivity check, so the runtime repairs exactly
    // what the analyzer gates on.
    let required = dbpal_analyze::join_required_tables(q, schema);
    if required.is_empty() {
        return Err(RuntimeError::JoinExpansionFailed(
            "no tables referenced by the query".into(),
        ));
    }
    let path = graph
        .get_or_insert_with(|| schema.join_graph())
        .connect(&required)
        .map_err(|e| RuntimeError::JoinExpansionFailed(e.to_string()))?;
    join_along(q, &path, schema);
    Ok(())
}

/// Repair FROM clauses where "the attributes used in the output SQL query
/// and the table names do not match" (§4.2): missing owner tables are
/// added via the shortest join path.
pub fn repair_from_clause(query: &Query, schema: &Schema) -> Result<Query, RuntimeError> {
    let mut q = query.clone();
    repair_from(&mut q, schema, &mut None)?;
    Ok(q)
}

/// [`repair_from_clause`] in place, over a join graph built on first
/// use.
fn repair_from(
    q: &mut Query,
    schema: &Schema,
    graph: &mut Option<JoinGraph>,
) -> Result<(), RuntimeError> {
    let FromClause::Tables(tables) = &q.from else {
        return Ok(());
    };
    let mut from_ids: Vec<TableId> = Vec::new();
    for t in tables {
        let tid = schema
            .table_id(t)
            .ok_or_else(|| RuntimeError::RepairFailed(format!("unknown table `{t}`")))?;
        if !from_ids.contains(&tid) {
            from_ids.push(tid);
        }
    }
    // Tables required by column references but missing from FROM,
    // collected by the analyzer's shared connectivity pass.
    let required = dbpal_analyze::from_required_tables(q, schema, &from_ids);
    if required.len() == from_ids.len() {
        return Ok(());
    }
    // Connect everything with the minimal join path and rebuild FROM.
    let path = graph
        .get_or_insert_with(|| schema.join_graph())
        .connect(&required)
        .map_err(|e| RuntimeError::RepairFailed(e.to_string()))?;
    join_along(q, &path, schema);
    Ok(())
}

/// Make `path`'s tables the FROM clause of `q` and put its join
/// conditions in front of the WHERE clause.
fn join_along(q: &mut Query, path: &JoinPath, schema: &Schema) {
    q.from = FromClause::Tables(
        path.tables
            .iter()
            .map(|t| schema.table(*t).name().to_lowercase())
            .collect(),
    );
    let mut preds: Vec<Pred> = path
        .edges
        .iter()
        .map(|e| Pred::Compare {
            left: Scalar::Column(ColumnRef::qualified(
                schema.table(e.left.table).name(),
                schema.column(e.left).name(),
            )),
            op: CmpOp::Eq,
            right: Scalar::Column(ColumnRef::qualified(
                schema.table(e.right.table).name(),
                schema.column(e.right).name(),
            )),
        })
        .collect();
    if let Some(w) = q.where_pred.take() {
        preds.push(w);
    }
    if !preds.is_empty() {
        q.where_pred = Some(Pred::and(preds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_schema::{ColumnId, SchemaBuilder, SqlType, TableId};
    use dbpal_sql::parse_query;

    fn schema() -> Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("id", SqlType::Integer)
                    .column("pname", SqlType::Text)
                    .column("age", SqlType::Integer)
                    .column("doctor_id", SqlType::Integer)
                    .primary_key("id")
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("dname", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap()
    }

    fn binding(ph: &str, v: Value) -> Binding {
        Binding {
            placeholder: ph.to_string(),
            value: v,
            column: ColumnId::new(TableId(0), 0),
        }
    }

    #[test]
    fn binds_exact_placeholder() {
        let q = parse_query("SELECT pname FROM patients WHERE age = @AGE").unwrap();
        let out = bind_constants(&q, &[binding("AGE", Value::Int(80))]).unwrap();
        assert_eq!(
            out,
            parse_query("SELECT pname FROM patients WHERE age = 80").unwrap()
        );
    }

    #[test]
    fn binds_qualified_to_unqualified() {
        let q = parse_query("SELECT pname FROM patients WHERE age = @PATIENTS.AGE").unwrap();
        let out = bind_constants(&q, &[binding("AGE", Value::Int(80))]).unwrap();
        assert!(out.to_string().contains("= 80"));
    }

    #[test]
    fn positional_fallback_for_single_binding() {
        let q = parse_query("SELECT pname FROM patients WHERE age = @YEARS").unwrap();
        let out = bind_constants(&q, &[binding("AGE", Value::Int(70))]).unwrap();
        assert!(out.to_string().contains("= 70"));
    }

    #[test]
    fn missing_binding_errors() {
        let q = parse_query("SELECT pname FROM patients WHERE age = @AGE AND id = @ID").unwrap();
        let err = bind_constants(&q, &[binding("AGE", Value::Int(70))]).unwrap_err();
        assert!(matches!(err, RuntimeError::UnboundPlaceholder(_)));
    }

    #[test]
    fn like_wraps_wildcards() {
        let q = parse_query("SELECT pname FROM patients WHERE pname LIKE @PNAME").unwrap();
        let out = bind_constants(&q, &[binding("PNAME", Value::Text("ann".into()))]).unwrap();
        assert!(out.to_string().contains("'%ann%'"), "got {out}");
    }

    #[test]
    fn binds_inside_subquery() {
        let q = parse_query(
            "SELECT pname FROM patients WHERE age = (SELECT MAX(age) FROM patients WHERE pname = @PNAME)",
        )
        .unwrap();
        let out = bind_constants(&q, &[binding("PNAME", Value::Text("Ann".into()))]).unwrap();
        assert!(out.to_string().contains("'Ann'"));
    }

    #[test]
    fn same_placeholder_twice_reuses_value() {
        let q = parse_query("SELECT pname FROM patients WHERE age = @AGE AND id > @AGE").unwrap();
        let out = bind_constants(&q, &[binding("AGE", Value::Int(5))]).unwrap();
        let text = out.to_string();
        assert_eq!(text.matches('5').count(), 2, "got {text}");
    }

    #[test]
    fn expands_join_placeholder() {
        // Paper §5.1's example shape.
        let s = schema();
        let q = parse_query("SELECT AVG(patients.age) FROM @JOIN WHERE doctors.dname = 'House'")
            .unwrap();
        let out = expand_join_placeholder(&q, &s).unwrap();
        let text = out.to_string();
        assert!(
            text.contains("FROM patients, doctors") || text.contains("FROM doctors, patients"),
            "got {text}"
        );
        assert!(
            text.contains("patients.doctor_id = doctors.id")
                || text.contains("doctors.id = patients.doctor_id"),
            "got {text}"
        );
    }

    #[test]
    fn join_expansion_without_tables_fails() {
        let s = schema();
        let q = parse_query("SELECT COUNT(*) FROM @JOIN").unwrap();
        assert!(matches!(
            expand_join_placeholder(&q, &s).unwrap_err(),
            RuntimeError::JoinExpansionFailed(_)
        ));
    }

    #[test]
    fn non_join_query_unchanged_by_expansion() {
        let s = schema();
        let q = parse_query("SELECT pname FROM patients").unwrap();
        assert_eq!(expand_join_placeholder(&q, &s).unwrap(), q);
    }

    #[test]
    fn repairs_wrong_from_table() {
        // §4.2: "the query asks for patient names but the table patient is
        // not used in the FROM clause".
        let s = schema();
        let q = parse_query("SELECT pname FROM doctors").unwrap();
        let out = repair_from_clause(&q, &s).unwrap();
        let text = out.to_string();
        assert!(text.contains("patients"), "got {text}");
        assert!(
            text.contains("doctor_id = doctors.id") || text.contains("doctors.id"),
            "join path missing: {text}"
        );
    }

    #[test]
    fn repair_leaves_correct_query_alone() {
        let s = schema();
        let q = parse_query("SELECT pname FROM patients WHERE age = 80").unwrap();
        assert_eq!(repair_from_clause(&q, &s).unwrap(), q);
    }

    #[test]
    fn repair_adds_missing_join_table() {
        let s = schema();
        let q = parse_query("SELECT patients.pname FROM patients WHERE doctors.dname = 'House'")
            .unwrap();
        let out = repair_from_clause(&q, &s).unwrap();
        assert!(out.from.tables().contains(&"doctors".to_string()));
        assert!(out.to_string().contains("patients.doctor_id = doctors.id"));
    }

    #[test]
    fn repair_ignores_subquery_columns() {
        let s = schema();
        let q = parse_query(
            "SELECT pname FROM patients WHERE id IN (SELECT id FROM doctors WHERE dname = 'x')",
        )
        .unwrap();
        let out = repair_from_clause(&q, &s).unwrap();
        assert_eq!(out.from.tables(), ["patients"]);
    }

    #[test]
    fn full_postprocessor_pipeline() {
        let s = schema();
        let pp = PostProcessor::new(&s);
        let q =
            parse_query("SELECT AVG(patients.age) FROM @JOIN WHERE doctors.dname = @DOCTORS.DNAME")
                .unwrap();
        let bindings = vec![binding("DNAME", Value::Text("House".into()))];
        let out = pp.process(&q, &bindings).unwrap();
        let text = out.to_string();
        assert!(text.contains("'House'"), "got {text}");
        assert!(!text.contains("@JOIN"));
        assert!(text.contains("patients.doctor_id = doctors.id"));
    }
}

#[cfg(test)]
mod requalify_tests {
    use super::*;
    use dbpal_schema::{SchemaBuilder, SqlType};
    use dbpal_sql::parse_query;

    fn schema() -> Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column("age", SqlType::Integer)
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap()
    }

    fn doctors_name_binding(s: &Schema) -> Binding {
        Binding {
            placeholder: "NAME".into(),
            value: Value::Text("House".into()),
            column: s.column_id("doctors", "name").unwrap(),
        }
    }

    #[test]
    fn ambiguous_column_requalified_to_binding_table() {
        let s = schema();
        let q = parse_query("SELECT AVG(age) FROM patients WHERE name = @NAME").unwrap();
        let out = requalify_with_bindings(&q, &[doctors_name_binding(&s)], &s);
        assert!(
            out.to_string().contains("doctors.name = @NAME"),
            "got {out}"
        );
    }

    #[test]
    fn unambiguous_column_left_alone() {
        let s = schema();
        let q = parse_query("SELECT name FROM patients WHERE age = @AGE").unwrap();
        let binding = Binding {
            placeholder: "AGE".into(),
            value: Value::Int(80),
            column: s.column_id("patients", "age").unwrap(),
        };
        let out = requalify_with_bindings(&q, &[binding], &s);
        assert_eq!(out, q);
    }

    #[test]
    fn already_qualified_column_untouched() {
        let s = schema();
        let q = parse_query("SELECT age FROM patients WHERE patients.name = @NAME").unwrap();
        let out = requalify_with_bindings(&q, &[doctors_name_binding(&s)], &s);
        assert_eq!(out, q);
    }

    #[test]
    fn full_pipeline_repairs_cross_table_constant() {
        // The REPL scenario: "average age of patients of doctor House".
        let s = schema();
        let pp = PostProcessor::new(&s);
        let q = parse_query("SELECT AVG(age) FROM patients WHERE name = @NAME").unwrap();
        let out = pp.process(&q, &[doctors_name_binding(&s)]).unwrap();
        let text = out.to_string();
        assert!(text.contains("doctors"), "got {text}");
        assert!(
            text.contains("patients.doctor_id = doctors.id"),
            "got {text}"
        );
        assert!(text.contains("'House'"), "got {text}");
    }
}
