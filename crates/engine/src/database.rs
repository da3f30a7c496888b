//! Database storage: a schema plus column-major table data.

use crate::{EngineError, ResultSet};
use dbpal_schema::{Schema, SqlType, TableId, Value};
use dbpal_sql::Query;

/// Column-major storage for one table.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableData {
    /// One `Vec<Value>` per column; all the same length.
    pub columns: Vec<Vec<Value>>,
    pub row_count: usize,
}

/// An in-memory database: schema + data.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    tables: Vec<TableData>,
}

impl Database {
    /// Create an empty database for the given schema.
    pub fn new(schema: Schema) -> Self {
        let tables = schema
            .tables()
            .iter()
            .map(|t| TableData {
                columns: vec![Vec::new(); t.column_count()],
                row_count: 0,
            })
            .collect();
        Database { schema, tables }
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Insert a row into a table, checking arity and types.
    ///
    /// NULLs are accepted in any column; non-NULL values must match the
    /// declared type exactly except that integers are accepted in float
    /// columns (widened on insert).
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), EngineError> {
        let tid = self
            .schema
            .table_id(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        let t = self.schema.table(tid);
        if row.len() != t.column_count() {
            return Err(EngineError::ArityMismatch {
                table: table.to_string(),
                expected: t.column_count(),
                got: row.len(),
            });
        }
        // Validate before mutating so a failed insert leaves the table
        // unchanged.
        let mut coerced = Vec::with_capacity(row.len());
        for (value, column) in row.into_iter().zip(t.columns()) {
            let value = match (&value, column.sql_type()) {
                (Value::Null, _) => value,
                (Value::Int(i), SqlType::Float) => Value::Float(*i as f64),
                (v, declared) if v.sql_type() == Some(declared) => value,
                (v, declared) => {
                    return Err(EngineError::TypeMismatch {
                        table: table.to_string(),
                        column: column.name().to_string(),
                        detail: format!("expected {declared}, got {v:?}"),
                    })
                }
            };
            coerced.push(value);
        }
        let data = &mut self.tables[tid.0 as usize];
        for (col, value) in data.columns.iter_mut().zip(coerced) {
            col.push(value);
        }
        data.row_count += 1;
        Ok(())
    }

    /// Number of rows currently stored in a table.
    pub fn row_count(&self, table: &str) -> Result<usize, EngineError> {
        let tid = self
            .schema
            .table_id(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        Ok(self.tables[tid.0 as usize].row_count)
    }

    pub(crate) fn table_data(&self, id: TableId) -> &TableData {
        &self.tables[id.0 as usize]
    }

    /// Execute a query and return its result set.
    ///
    /// The query must be fully concrete: no `@JOIN` placeholder and no
    /// constant placeholders (both are expanded by the DBPal runtime's
    /// post-processor before execution).
    pub fn execute(&self, query: &Query) -> Result<ResultSet, EngineError> {
        crate::exec::execute(self, query)
    }

    /// Describe the execution plan for a query without running it — the
    /// scan/join order, filters, aggregation, and post-processing steps.
    pub fn explain(&self, query: &Query) -> Result<String, EngineError> {
        crate::exec::explain(self, query)
    }

    /// Iterate over the distinct non-NULL values of a column, used to
    /// build the runtime's constant-anonymization index (paper §4.1).
    pub fn distinct_values(&self, table: &str, column: &str) -> Result<Vec<Value>, EngineError> {
        let cid = self
            .schema
            .column_id(table, column)
            .map_err(|_| EngineError::UnknownColumn(format!("{table}.{column}")))?;
        let data = &self.tables[cid.table.0 as usize].columns[cid.index as usize];
        let mut out: Vec<Value> = data.iter().filter(|v| !v.is_null()).cloned().collect();
        out.sort();
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_schema::SchemaBuilder;

    fn db() -> Database {
        let schema = SchemaBuilder::new("demo")
            .table("t", |t| {
                t.column("a", SqlType::Integer)
                    .column("b", SqlType::Text)
                    .column("c", SqlType::Float)
            })
            .build()
            .unwrap();
        Database::new(schema)
    }

    #[test]
    fn insert_and_count() {
        let mut d = db();
        d.insert("t", vec![Value::Int(1), "x".into(), Value::Float(1.5)])
            .unwrap();
        assert_eq!(d.row_count("t").unwrap(), 1);
    }

    #[test]
    fn insert_widens_int_to_float() {
        let mut d = db();
        d.insert("t", vec![Value::Int(1), "x".into(), Value::Int(2)])
            .unwrap();
        assert_eq!(
            d.distinct_values("t", "c").unwrap(),
            vec![Value::Float(2.0)]
        );
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut d = db();
        let err = d.insert("t", vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
        assert_eq!(d.row_count("t").unwrap(), 0);
    }

    #[test]
    fn insert_rejects_wrong_type() {
        let mut d = db();
        let err = d
            .insert("t", vec!["oops".into(), "x".into(), Value::Float(0.0)])
            .unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }));
    }

    #[test]
    fn insert_accepts_null_anywhere() {
        let mut d = db();
        d.insert("t", vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(d.row_count("t").unwrap(), 1);
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db();
        assert!(matches!(
            d.insert("nope", vec![]).unwrap_err(),
            EngineError::UnknownTable(_)
        ));
        assert!(d.row_count("nope").is_err());
    }

    #[test]
    fn distinct_values_sorted_non_null() {
        let mut d = db();
        for (a, b) in [(3, "z"), (1, "z"), (2, "y")] {
            d.insert("t", vec![Value::Int(a), b.into(), Value::Null])
                .unwrap();
        }
        assert_eq!(
            d.distinct_values("t", "a").unwrap(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(d.distinct_values("t", "b").unwrap().len(), 2);
        assert!(d.distinct_values("t", "c").unwrap().is_empty());
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use dbpal_schema::SchemaBuilder;
    use dbpal_sql::parse_query;

    fn db() -> Database {
        let schema = SchemaBuilder::new("s")
            .table("a", |t| {
                t.column("id", SqlType::Integer)
                    .column("x", SqlType::Integer)
            })
            .table("b", |t| {
                t.column("id", SqlType::Integer).column("y", SqlType::Text)
            })
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("a", vec![Value::Int(1), Value::Int(10)]).unwrap();
        db.insert("b", vec![Value::Int(1), "q".into()]).unwrap();
        db
    }

    #[test]
    fn explain_describes_hash_join() {
        let d = db();
        let q = parse_query("SELECT a.x FROM a, b WHERE a.id = b.id AND a.x > 5").unwrap();
        let plan = d.explain(&q).unwrap();
        assert!(plan.contains("scan a (1 rows)"), "{plan}");
        assert!(plan.contains("hash join"), "{plan}");
        assert!(plan.contains("filter:"), "{plan}");
    }

    #[test]
    fn explain_describes_cross_product() {
        let d = db();
        let q = parse_query("SELECT COUNT(*) FROM a, b").unwrap();
        let plan = d.explain(&q).unwrap();
        assert!(plan.contains("cross product"), "{plan}");
        assert!(plan.contains("aggregate: single group"), "{plan}");
    }

    #[test]
    fn explain_describes_grouping_sort_limit() {
        let d = db();
        let q = parse_query("SELECT y, COUNT(*) FROM b GROUP BY y ORDER BY COUNT(*) DESC LIMIT 3")
            .unwrap();
        let plan = d.explain(&q).unwrap();
        assert!(plan.contains("group by y"), "{plan}");
        assert!(plan.contains("sort"), "{plan}");
        assert!(plan.contains("limit 3"), "{plan}");
    }

    #[test]
    fn explain_rejects_join_placeholder() {
        let d = db();
        let q = parse_query("SELECT COUNT(*) FROM @JOIN WHERE a.x = b.y").unwrap();
        assert!(matches!(
            d.explain(&q).unwrap_err(),
            EngineError::UnexpandedJoinPlaceholder
        ));
    }
}
