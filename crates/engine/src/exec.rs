//! The query executor: join, filter, group, sort, project.

use crate::eval::{compile_pred, compute_aggregate, eval_pred, AggMode, ColumnResolver, EAggArg};
use crate::{Database, EngineError, ResultSet};
use dbpal_schema::{TableId, Value};
use dbpal_sql::{
    AggArg, CmpOp, ColumnRef, FromClause, OrderDir, OrderKey, Pred, Query, Scalar, SelectItem,
};
use std::collections::HashMap;

/// The FROM-clause scope: which tables are in play and where each column
/// lands in the combined row.
struct Scope {
    /// `(table name, table id, offset of first column, column names)`.
    entries: Vec<(String, TableId, usize, Vec<String>)>,
    width: usize,
}

impl Scope {
    fn build(db: &Database, tables: &[String]) -> Result<Scope, EngineError> {
        let mut entries = Vec::with_capacity(tables.len());
        let mut offset = 0;
        for name in tables {
            let tid = db
                .schema()
                .table_id(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let t = db.schema().table(tid);
            let cols: Vec<String> = t.column_names().map(|c| c.to_lowercase()).collect();
            let n = cols.len();
            entries.push((name.to_lowercase(), tid, offset, cols));
            offset += n;
        }
        Ok(Scope {
            entries,
            width: offset,
        })
    }

    fn multi_table(&self) -> bool {
        self.entries.len() > 1
    }

    /// Headers for `SELECT *`.
    fn star_headers(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.width);
        for (name, _, _, cols) in &self.entries {
            for c in cols {
                if self.multi_table() {
                    out.push(format!("{name}.{c}"));
                } else {
                    out.push(c.clone());
                }
            }
        }
        out
    }
}

impl ColumnResolver for Scope {
    fn resolve(&self, col: &ColumnRef) -> Result<usize, EngineError> {
        let mut found = None;
        for (name, _, offset, cols) in &self.entries {
            if let Some(t) = &col.table {
                if t != name {
                    continue;
                }
            }
            if let Some(i) = cols.iter().position(|c| c == &col.column) {
                if found.is_some() {
                    return Err(EngineError::AmbiguousColumn(col.to_string()));
                }
                found = Some(offset + i);
            }
        }
        found.ok_or_else(|| EngineError::UnknownColumn(col.to_string()))
    }
}

pub(crate) fn execute(db: &Database, query: &Query) -> Result<ResultSet, EngineError> {
    let tables = match &query.from {
        FromClause::Tables(t) => t.clone(),
        FromClause::JoinPlaceholder => return Err(EngineError::UnexpandedJoinPlaceholder),
    };
    let scope = Scope::build(db, &tables)?;

    // Materialize the joined row set.
    let rows = join_tables(db, &scope, query)?;

    // Filter with WHERE.
    let rows = match &query.where_pred {
        Some(p) => {
            let compiled = compile_pred(p, &scope, db, AggMode::Forbidden)?;
            rows.into_iter()
                .filter(|r| eval_pred(&compiled, r, None) == Some(true))
                .collect()
        }
        None => rows,
    };

    let grouped = !query.group_by.is_empty() || query.has_aggregate();
    let (headers, mut out_rows) = if grouped {
        execute_grouped(db, &scope, query, &rows)?
    } else {
        execute_plain(db, &scope, query, rows)?
    };

    if query.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r: &Vec<Value>| seen.insert(r.clone()));
    }
    if let Some(limit) = query.limit {
        out_rows.truncate(limit as usize);
    }
    Ok(ResultSet::new(headers, out_rows))
}

/// Build the combined rows for the FROM clause, using hash equi-joins when
/// the WHERE clause provides join conditions and falling back to cross
/// products otherwise.
fn join_tables(
    db: &Database,
    scope: &Scope,
    query: &Query,
) -> Result<Vec<Vec<Value>>, EngineError> {
    // Extract top-level AND'ed column = column predicates as join
    // candidates.
    let mut join_preds: Vec<(ColumnRef, ColumnRef)> = Vec::new();
    if let Some(p) = &query.where_pred {
        collect_equijoins(p, &mut join_preds);
    }

    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (i, (_, tid, _, _)) in scope.entries.iter().enumerate() {
        let data = db.table_data(*tid);
        let table_rows: Vec<Vec<Value>> = (0..data.row_count)
            .map(|r| data.columns.iter().map(|c| c[r].clone()).collect())
            .collect();
        if i == 0 {
            rows = table_rows;
            continue;
        }
        // Look for a join predicate connecting the new table (entries[i])
        // to the already-joined prefix.
        let prefix_scope_width = scope.entries[i].2;
        let new_cols = &scope.entries[i].3;
        let new_name = &scope.entries[i].0;
        let mut join_on: Option<(usize, usize)> = None; // (prefix offset, new-table col idx)
        for (a, b) in &join_preds {
            for (left, right) in [(a, b), (b, a)] {
                // `right` must be a column of the new table; `left` must
                // resolve within the prefix.
                let right_local = match (
                    &right.table,
                    new_cols.iter().position(|c| c == &right.column),
                ) {
                    (Some(t), Some(idx)) if t == new_name => Some(idx),
                    (None, Some(idx)) => Some(idx),
                    _ => None,
                };
                let Some(right_idx) = right_local else {
                    continue;
                };
                if let Ok(left_idx) = scope.resolve(left) {
                    if left_idx < prefix_scope_width {
                        join_on = Some((left_idx, right_idx));
                        break;
                    }
                }
            }
            if join_on.is_some() {
                break;
            }
        }
        rows = match join_on {
            Some((left_idx, right_idx)) => {
                // Hash join: build on the new table.
                let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
                for (r, row) in table_rows.iter().enumerate() {
                    if !row[right_idx].is_null() {
                        index.entry(row[right_idx].clone()).or_default().push(r);
                    }
                }
                let mut out = Vec::new();
                for prefix in rows {
                    if let Some(matches) = index.get(&prefix[left_idx]) {
                        for &r in matches {
                            let mut combined = prefix.clone();
                            combined.extend(table_rows[r].iter().cloned());
                            out.push(combined);
                        }
                    }
                }
                out
            }
            None => {
                // Cross product.
                let mut out = Vec::with_capacity(rows.len() * table_rows.len());
                for prefix in &rows {
                    for tr in &table_rows {
                        let mut combined = prefix.clone();
                        combined.extend(tr.iter().cloned());
                        out.push(combined);
                    }
                }
                out
            }
        };
    }
    Ok(rows)
}

/// Produce a human-readable plan description without executing.
pub(crate) fn explain(db: &Database, query: &Query) -> Result<String, EngineError> {
    let tables = match &query.from {
        FromClause::Tables(t) => t.clone(),
        FromClause::JoinPlaceholder => return Err(EngineError::UnexpandedJoinPlaceholder),
    };
    let scope = Scope::build(db, &tables)?;
    let mut join_preds: Vec<(ColumnRef, ColumnRef)> = Vec::new();
    if let Some(p) = &query.where_pred {
        collect_equijoins(p, &mut join_preds);
    }
    let mut out = String::new();
    for (i, (name, tid, _, _)) in scope.entries.iter().enumerate() {
        let rows = db.table_data(*tid).row_count;
        if i == 0 {
            out.push_str(&format!(
                "scan {name} ({rows} rows)
"
            ));
        } else {
            let joined = join_preds
                .iter()
                .find(|(a, b)| {
                    let belongs = |c: &ColumnRef| c.table.as_deref() == Some(name.as_str());
                    belongs(a) || belongs(b)
                })
                .map(|(a, b)| format!("hash join on {a} = {b}"))
                .unwrap_or_else(|| "cross product".to_string());
            out.push_str(&format!(
                "{joined} with {name} ({rows} rows)
"
            ));
        }
    }
    if let Some(p) = &query.where_pred {
        out.push_str(&format!(
            "filter: {p}
"
        ));
    }
    if !query.group_by.is_empty() || query.has_aggregate() {
        if query.group_by.is_empty() {
            out.push_str(
                "aggregate: single group
",
            );
        } else {
            let keys: Vec<String> = query.group_by.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "aggregate: group by {}
",
                keys.join(", ")
            ));
        }
        if let Some(h) = &query.having {
            out.push_str(&format!(
                "having: {h}
"
            ));
        }
    }
    if !query.order_by.is_empty() {
        out.push_str(
            "sort
",
        );
    }
    if let Some(n) = query.limit {
        out.push_str(&format!(
            "limit {n}
"
        ));
    }
    if query.distinct {
        out.push_str(
            "distinct
",
        );
    }
    Ok(out)
}

fn collect_equijoins(p: &Pred, out: &mut Vec<(ColumnRef, ColumnRef)>) {
    match p {
        Pred::And(ps) => ps.iter().for_each(|p| collect_equijoins(p, out)),
        Pred::Compare {
            left: Scalar::Column(a),
            op: CmpOp::Eq,
            right: Scalar::Column(b),
        } => out.push((a.clone(), b.clone())),
        _ => {}
    }
}

/// Non-grouped execution: project each row, sort, return.
fn execute_plain(
    _db: &Database,
    scope: &Scope,
    query: &Query,
    rows: Vec<Vec<Value>>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), EngineError> {
    // Compile select items.
    let mut headers = Vec::new();
    let mut projections: Vec<ProjItem> = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                headers.extend(scope.star_headers());
                projections.push(ProjItem::Star);
            }
            SelectItem::Column(c) => {
                headers.push(header_for(c));
                projections.push(ProjItem::Col(scope.resolve(c)?));
            }
            SelectItem::Aggregate(..) => unreachable!("grouped path handles aggregates"),
        }
    }
    // Compile order keys against the scope (pre-projection values).
    let mut order: Vec<(usize, OrderDir)> = Vec::new();
    for (k, d) in &query.order_by {
        match k {
            OrderKey::Column(c) => order.push((scope.resolve(c)?, *d)),
            OrderKey::Aggregate(..) => {
                return Err(EngineError::InvalidOrderKey(
                    "aggregate ORDER BY requires GROUP BY".into(),
                ))
            }
        }
    }
    let mut rows = rows;
    if !order.is_empty() {
        rows.sort_by(|a, b| compare_by_keys(a, b, &order));
    }
    let out = rows.iter().map(|r| project_row(r, &projections)).collect();
    Ok((headers, out))
}

enum ProjItem {
    Star,
    Col(usize),
}

fn project_row(row: &[Value], projections: &[ProjItem]) -> Vec<Value> {
    let mut out = Vec::new();
    for p in projections {
        match p {
            ProjItem::Star => out.extend(row.iter().cloned()),
            ProjItem::Col(i) => out.push(row[*i].clone()),
        }
    }
    out
}

fn header_for(c: &ColumnRef) -> String {
    c.to_string()
}

/// Grouped execution: group rows, compute aggregates, filter with HAVING,
/// sort groups, project.
fn execute_grouped(
    db: &Database,
    scope: &Scope,
    query: &Query,
    rows: &[Vec<Value>],
) -> Result<(Vec<String>, Vec<Vec<Value>>), EngineError> {
    // Resolve group keys.
    let mut key_cols = Vec::with_capacity(query.group_by.len());
    for c in &query.group_by {
        key_cols.push(scope.resolve(c)?);
    }

    // Compile select items.
    enum GSel {
        Key(usize), // index into key_cols
        Agg(dbpal_sql::AggFunc, EAggArg),
    }
    let mut headers = Vec::new();
    let mut gsel = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                return Err(EngineError::InvalidGroupSelect("*".into()));
            }
            SelectItem::Column(c) => {
                let idx = scope.resolve(c)?;
                let key_pos = key_cols
                    .iter()
                    .position(|&k| k == idx)
                    .ok_or_else(|| EngineError::InvalidGroupSelect(c.to_string()))?;
                headers.push(header_for(c));
                gsel.push(GSel::Key(key_pos));
            }
            SelectItem::Aggregate(f, arg) => {
                let earg = match arg {
                    AggArg::Star => EAggArg::Star,
                    AggArg::Column(c) => EAggArg::Col(scope.resolve(c)?),
                };
                headers.push(item.to_string());
                gsel.push(GSel::Agg(*f, earg));
            }
        }
    }

    // Group.
    let mut groups: Vec<(Vec<Value>, Vec<&[Value]>)> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
        match index.get(&key) {
            Some(&g) => groups[g].1.push(row.as_slice()),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![row.as_slice()]));
            }
        }
    }
    // A global aggregate over zero rows still produces one group.
    if groups.is_empty() && key_cols.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    // HAVING.
    let having = match &query.having {
        Some(p) => Some(compile_pred(p, scope, db, AggMode::Allowed)?),
        None => None,
    };

    // ORDER BY keys per group.
    enum GOrder {
        Key(usize),
        Agg(dbpal_sql::AggFunc, EAggArg),
    }
    let mut gorder = Vec::new();
    for (k, d) in &query.order_by {
        match k {
            OrderKey::Column(c) => {
                let idx = scope.resolve(c)?;
                let pos = key_cols
                    .iter()
                    .position(|&kc| kc == idx)
                    .ok_or_else(|| EngineError::InvalidOrderKey(c.to_string()))?;
                gorder.push((GOrder::Key(pos), *d));
            }
            OrderKey::Aggregate(f, arg) => {
                let earg = match arg {
                    AggArg::Star => EAggArg::Star,
                    AggArg::Column(c) => EAggArg::Col(scope.resolve(c)?),
                };
                gorder.push((GOrder::Agg(*f, earg), *d));
            }
        }
    }

    struct GroupOut {
        row: Vec<Value>,
        sort_keys: Vec<Value>,
    }
    let mut out_groups: Vec<GroupOut> = Vec::new();
    for (key, grows) in &groups {
        // HAVING filter. The row passed to eval is the first group row
        // (for key column references); aggregates read `grows`.
        if let Some(h) = &having {
            let representative: &[Value] = grows.first().copied().unwrap_or(&[]);
            if eval_pred(h, representative, Some(grows)) != Some(true) {
                continue;
            }
        }
        let row: Vec<Value> = gsel
            .iter()
            .map(|s| match s {
                GSel::Key(pos) => key[*pos].clone(),
                GSel::Agg(f, arg) => compute_aggregate(*f, *arg, grows),
            })
            .collect();
        let sort_keys: Vec<Value> = gorder
            .iter()
            .map(|(k, _)| match k {
                GOrder::Key(pos) => key[*pos].clone(),
                GOrder::Agg(f, arg) => compute_aggregate(*f, *arg, grows),
            })
            .collect();
        out_groups.push(GroupOut { row, sort_keys });
    }

    if !gorder.is_empty() {
        let dirs: Vec<OrderDir> = gorder.iter().map(|(_, d)| *d).collect();
        out_groups.sort_by(|a, b| {
            for (i, d) in dirs.iter().enumerate() {
                let ord = a.sort_keys[i].total_cmp(&b.sort_keys[i]);
                let ord = match d {
                    OrderDir::Asc => ord,
                    OrderDir::Desc => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    Ok((headers, out_groups.into_iter().map(|g| g.row).collect()))
}

fn compare_by_keys(a: &[Value], b: &[Value], keys: &[(usize, OrderDir)]) -> std::cmp::Ordering {
    for (i, d) in keys {
        let ord = a[*i].total_cmp(&b[*i]);
        let ord = match d {
            OrderDir::Asc => ord,
            OrderDir::Desc => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use crate::{Database, EngineError};
    use dbpal_schema::{SchemaBuilder, SqlType, Value};
    use dbpal_sql::parse_query;

    fn hospital() -> Database {
        let schema = SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("age", SqlType::Integer)
                    .column("disease", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
                    .primary_key("id")
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("specialty", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let patients: Vec<(i64, &str, i64, &str, i64)> = vec![
            (1, "Ann", 80, "influenza", 1),
            (2, "Bob", 35, "asthma", 1),
            (3, "Cat", 64, "influenza", 2),
            (4, "Dan", 80, "diabetes", 2),
            (5, "Eve", 12, "asthma", 1),
        ];
        for (id, name, age, disease, doc) in patients {
            db.insert(
                "patients",
                vec![
                    Value::Int(id),
                    name.into(),
                    Value::Int(age),
                    disease.into(),
                    Value::Int(doc),
                ],
            )
            .unwrap();
        }
        for (id, name, spec) in [(1, "House", "diagnostics"), (2, "Grey", "surgery")] {
            db.insert("doctors", vec![Value::Int(id), name.into(), spec.into()])
                .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> crate::ResultSet {
        db.execute(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_filter() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age = 80");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn star_projection() {
        let db = hospital();
        let r = run(&db, "SELECT * FROM doctors");
        assert_eq!(r.column_count(), 3);
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn count_star() {
        let db = hospital();
        let r = run(&db, "SELECT COUNT(*) FROM patients");
        assert_eq!(r.rows()[0][0], Value::Int(5));
    }

    #[test]
    fn avg_age() {
        let db = hospital();
        let r = run(&db, "SELECT AVG(age) FROM patients");
        assert_eq!(
            r.rows()[0][0],
            Value::Float((80 + 35 + 64 + 80 + 12) as f64 / 5.0)
        );
    }

    #[test]
    fn group_by_disease() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT disease, COUNT(*) FROM patients GROUP BY disease ORDER BY COUNT(*) DESC, disease",
        );
        assert_eq!(r.row_count(), 3);
        // influenza and asthma both have 2; diabetes has 1. Ties broken by name.
        assert_eq!(r.rows()[0][0], Value::Text("asthma".into()));
        assert_eq!(r.rows()[2][0], Value::Text("diabetes".into()));
        assert_eq!(r.rows()[2][1], Value::Int(1));
    }

    #[test]
    fn having_filters_groups() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT disease FROM patients GROUP BY disease HAVING COUNT(*) > 1 ORDER BY disease",
        );
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn join_via_where() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT patients.name FROM patients, doctors \
             WHERE patients.doctor_id = doctors.id AND doctors.name = 'House' \
             ORDER BY patients.name",
        );
        assert_eq!(r.row_count(), 3);
        assert_eq!(r.rows()[0][0], Value::Text("Ann".into()));
    }

    #[test]
    fn join_aggregate() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT AVG(patients.age) FROM patients, doctors \
             WHERE patients.doctor_id = doctors.id AND doctors.name = 'Grey'",
        );
        assert_eq!(r.rows()[0][0], Value::Float(72.0));
    }

    #[test]
    fn cross_product_without_join_pred() {
        let db = hospital();
        let r = run(&db, "SELECT COUNT(*) FROM patients, doctors");
        assert_eq!(r.rows()[0][0], Value::Int(10));
    }

    #[test]
    fn scalar_subquery_max() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT name FROM patients WHERE age = (SELECT MAX(age) FROM patients) ORDER BY name",
        );
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.rows()[0][0], Value::Text("Ann".into()));
    }

    #[test]
    fn in_subquery() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT name FROM patients WHERE doctor_id IN \
             (SELECT id FROM doctors WHERE specialty = 'surgery') ORDER BY name",
        );
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn exists_subquery() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT name FROM doctors WHERE EXISTS (SELECT * FROM patients WHERE age > 100)",
        );
        assert_eq!(r.row_count(), 0);
        let r = run(
            &db,
            "SELECT name FROM doctors WHERE EXISTS (SELECT * FROM patients WHERE age > 70)",
        );
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn order_by_limit() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients ORDER BY age DESC LIMIT 2");
        assert_eq!(r.row_count(), 2);
        let names: Vec<_> = r.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(names.contains(&"Ann".to_string()) || names.contains(&"Dan".to_string()));
    }

    #[test]
    fn distinct() {
        let db = hospital();
        let r = run(&db, "SELECT DISTINCT disease FROM patients");
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn like_predicate() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE disease LIKE '%flu%'");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn between() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age BETWEEN 30 AND 70");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn in_list() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age IN (12, 35)");
        assert_eq!(r.row_count(), 2);
        let r = run(&db, "SELECT name FROM patients WHERE age NOT IN (12, 35)");
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn or_and_not() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age = 12 OR age = 35");
        assert_eq!(r.row_count(), 2);
        let r = run(&db, "SELECT name FROM patients WHERE NOT (age = 80)");
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn null_semantics() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| t.column("x", SqlType::Integer))
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("t", vec![Value::Int(1)]).unwrap();
        db.insert("t", vec![Value::Null]).unwrap();
        // NULL never satisfies comparisons...
        let r = run(&db, "SELECT x FROM t WHERE x = 1");
        assert_eq!(r.row_count(), 1);
        let r = run(&db, "SELECT x FROM t WHERE x <> 1");
        assert_eq!(r.row_count(), 0);
        // ...but IS NULL sees it.
        let r = run(&db, "SELECT x FROM t WHERE x IS NULL");
        assert_eq!(r.row_count(), 1);
        let r = run(&db, "SELECT x FROM t WHERE x IS NOT NULL");
        assert_eq!(r.row_count(), 1);
    }

    #[test]
    fn aggregate_over_empty_table() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| t.column("x", SqlType::Integer))
            .build()
            .unwrap();
        let db = Database::new(schema);
        let r = run(&db, "SELECT COUNT(*) FROM t");
        assert_eq!(r.rows()[0][0], Value::Int(0));
        let r = run(&db, "SELECT SUM(x) FROM t");
        assert_eq!(r.rows()[0][0], Value::Null);
    }

    #[test]
    fn group_by_empty_table_has_no_groups() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| {
                t.column("x", SqlType::Integer)
                    .column("y", SqlType::Integer)
            })
            .build()
            .unwrap();
        let db = Database::new(schema);
        let r = run(&db, "SELECT x, COUNT(*) FROM t GROUP BY x");
        assert_eq!(r.row_count(), 0);
    }

    #[test]
    fn join_placeholder_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT COUNT(*) FROM @JOIN WHERE a.x = b.y").unwrap())
            .unwrap_err();
        assert_eq!(err, EngineError::UnexpandedJoinPlaceholder);
    }

    #[test]
    fn unbound_placeholder_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT name FROM patients WHERE age = @AGE").unwrap())
            .unwrap_err();
        assert_eq!(err, EngineError::UnboundPlaceholder("AGE".into()));
    }

    #[test]
    fn unknown_column_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT salary FROM patients").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownColumn(_)));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let db = hospital();
        // `name` and `id` exist in both tables.
        let err = db
            .execute(
                &parse_query(
                    "SELECT name FROM patients, doctors WHERE patients.doctor_id = doctors.id",
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::AmbiguousColumn(_)));
    }

    #[test]
    fn non_group_select_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT name, COUNT(*) FROM patients GROUP BY disease").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidGroupSelect(_)));
    }

    #[test]
    fn nested_query_from_paper() {
        // "What is the name of the mountain with maximum height in ...".
        let schema = SchemaBuilder::new("geo")
            .table("mountain", |t| {
                t.column("name", SqlType::Text)
                    .column("height", SqlType::Integer)
                    .column("state", SqlType::Text)
            })
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (n, h, s) in [
            ("Denali", 6190, "Alaska"),
            ("Foraker", 5304, "Alaska"),
            ("Whitney", 4421, "California"),
        ] {
            db.insert("mountain", vec![n.into(), Value::Int(h), s.into()])
                .unwrap();
        }
        let r = run(
            &db,
            "SELECT name FROM mountain WHERE height = \
             (SELECT MAX(height) FROM mountain WHERE state = 'Alaska')",
        );
        assert_eq!(r.rows()[0][0], Value::Text("Denali".into()));
    }
}
