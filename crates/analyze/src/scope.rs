//! Name resolution: mapping table/column references to schema ids.
//!
//! A [`Scope`] is the set of tables a query level may draw columns from:
//! the FROM tables for an explicit FROM clause, or the whole schema for
//! the `@JOIN` placeholder (whose table set is only pinned at runtime
//! expansion, paper §5.1). Resolution falls back to the schema's NL
//! annotation synonyms so a reference like `illness` still resolves to
//! `disease` — with a [`Code::IdentifierViaSynonym`] warning, since the
//! canonical name was expected in SQL.

use crate::diagnostic::{Clause, Code, Diagnostic, Span};
use dbpal_schema::{ColumnId, Schema, TableId};
use dbpal_sql::ColumnRef;

/// All tables owning a column with this name (case-insensitive), in
/// declaration order.
pub fn owners_of(schema: &Schema, column: &str) -> Vec<TableId> {
    schema
        .tables_with_ids()
        .filter(|(_, t)| t.column_by_name(column).is_some())
        .map(|(id, _)| id)
        .collect()
}

/// Normalize a SQL identifier for synonym matching against
/// `Annotations::all_phrases` output (which is lowercased, `_` → space).
fn phrase_key(identifier: &str) -> String {
    identifier.to_lowercase().replace('_', " ")
}

/// Whether a schema object's NL phrases include the given identifier.
fn matches_phrase(phrases: &[String], identifier: &str) -> bool {
    let key = phrase_key(identifier);
    phrases.contains(&key)
}

/// The table set one query level resolves against.
pub struct Scope<'a> {
    schema: &'a Schema,
    /// `None` means the whole schema is in scope (`FROM @JOIN`).
    tables: Option<Vec<TableId>>,
    /// Subquery nesting depth, used for spans.
    depth: usize,
}

impl<'a> Scope<'a> {
    /// Build the scope for a query's FROM clause, emitting diagnostics
    /// for unknown FROM tables.
    pub fn for_query(
        schema: &'a Schema,
        query: &dbpal_sql::Query,
        depth: usize,
        out: &mut Vec<Diagnostic>,
    ) -> Self {
        use dbpal_sql::FromClause;
        let tables = match &query.from {
            FromClause::JoinPlaceholder => None,
            FromClause::Tables(names) => {
                let mut ids = Vec::with_capacity(names.len());
                for name in names {
                    if let Some(tid) = Self::resolve_table_name(schema, name, depth, out) {
                        if !ids.contains(&tid) {
                            ids.push(tid);
                        }
                    }
                }
                Some(ids)
            }
        };
        Scope {
            schema,
            tables,
            depth,
        }
    }

    /// Resolve a FROM-clause table name, falling back to table synonyms.
    fn resolve_table_name(
        schema: &Schema,
        name: &str,
        depth: usize,
        out: &mut Vec<Diagnostic>,
    ) -> Option<TableId> {
        if let Some(tid) = schema.table_id(name) {
            return Some(tid);
        }
        let candidates: Vec<TableId> = schema
            .tables_with_ids()
            .filter(|(_, t)| matches_phrase(&t.nl_phrases(), name))
            .map(|(id, _)| id)
            .collect();
        match candidates.as_slice() {
            [tid] => {
                out.push(
                    Diagnostic::new(
                        Code::IdentifierViaSynonym,
                        Span::new(Clause::From, depth),
                        format!("table reference `{name}` resolves only via a synonym"),
                    )
                    .with_note(format!("canonical name is `{}`", schema.table(*tid).name())),
                );
                Some(*tid)
            }
            _ => {
                out.push(Diagnostic::new(
                    Code::UnknownTable,
                    Span::new(Clause::From, depth),
                    format!("schema `{}` has no table `{name}`", schema.name()),
                ));
                None
            }
        }
    }

    /// The schema this scope resolves against.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// Tables in scope: the FROM tables, or every table for `@JOIN`.
    pub fn table_ids(&self) -> Vec<TableId> {
        match &self.tables {
            Some(ids) => ids.clone(),
            None => self.schema.tables_with_ids().map(|(id, _)| id).collect(),
        }
    }

    /// Whether the scope was built from an explicit FROM table list.
    pub fn is_explicit(&self) -> bool {
        self.tables.is_some()
    }

    /// Resolve a column reference within this scope, emitting resolution
    /// diagnostics into `out`. Returns the column id on success (including
    /// best-effort successes that carried a warning or an `E0104`).
    pub fn resolve(
        &self,
        col: &ColumnRef,
        clause: Clause,
        out: &mut Vec<Diagnostic>,
    ) -> Option<ColumnId> {
        let span = Span::new(clause, self.depth);
        match &col.table {
            Some(table_name) => self.resolve_qualified(table_name, &col.column, span, out),
            None => self.resolve_unqualified(&col.column, span, out),
        }
    }

    fn resolve_qualified(
        &self,
        table_name: &str,
        column: &str,
        span: Span,
        out: &mut Vec<Diagnostic>,
    ) -> Option<ColumnId> {
        let Some(tid) = self.schema.table_id(table_name) else {
            out.push(Diagnostic::new(
                Code::UnknownTable,
                span,
                format!("column qualifier `{table_name}` names no table in the schema"),
            ));
            return None;
        };
        // Known table, but absent from the FROM clause: flag it, then
        // keep resolving so downstream checks still run (best effort —
        // this is exactly the case the runtime's FROM repair fixes).
        if let Some(in_scope) = &self.tables {
            if !in_scope.contains(&tid) {
                out.push(
                    Diagnostic::new(
                        Code::TableNotInScope,
                        span,
                        format!("table `{table_name}` is referenced but not listed in FROM"),
                    )
                    .with_note("the runtime FROM repair (§4.2) joins such tables in"),
                );
            }
        }
        let table = self.schema.table(tid);
        if let Some((idx, _)) = table.column_by_name(column) {
            return Some(ColumnId::new(tid, idx));
        }
        // Synonym fallback within the named table.
        let synonym: Vec<u32> = table
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, c)| matches_phrase(&c.nl_phrases(), column))
            .map(|(i, _)| i as u32)
            .collect();
        if let [idx] = synonym.as_slice() {
            let canonical = table.columns()[*idx as usize].name().to_string();
            out.push(
                Diagnostic::new(
                    Code::IdentifierViaSynonym,
                    span,
                    format!("column reference `{table_name}.{column}` resolves only via a synonym"),
                )
                .with_note(format!("canonical name is `{canonical}`")),
            );
            return Some(ColumnId::new(tid, *idx));
        }
        out.push(Diagnostic::new(
            Code::UnresolvedColumn,
            span,
            format!("table `{table_name}` has no column `{column}`"),
        ));
        None
    }

    fn resolve_unqualified(
        &self,
        column: &str,
        span: Span,
        out: &mut Vec<Diagnostic>,
    ) -> Option<ColumnId> {
        let in_scope = self.table_ids();
        let owners: Vec<ColumnId> = in_scope
            .iter()
            .filter_map(|&tid| {
                self.schema
                    .table(tid)
                    .column_by_name(column)
                    .map(|(idx, _)| ColumnId::new(tid, idx))
            })
            .collect();
        match owners.as_slice() {
            [id] => return Some(*id),
            [] => {}
            many => {
                let tables: Vec<&str> = many
                    .iter()
                    .map(|id| self.schema.table(id.table).name())
                    .collect();
                out.push(Diagnostic::new(
                    Code::AmbiguousColumn,
                    span,
                    format!(
                        "column `{column}` is ambiguous: owned by tables {}",
                        tables.join(", ")
                    ),
                ));
                return None;
            }
        }
        // No exact owner in scope: synonym fallback across in-scope tables.
        let synonym: Vec<ColumnId> = in_scope
            .iter()
            .flat_map(|&tid| {
                self.schema
                    .table(tid)
                    .columns()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| matches_phrase(&c.nl_phrases(), column))
                    .map(move |(i, _)| ColumnId::new(tid, i as u32))
                    .collect::<Vec<_>>()
            })
            .collect();
        match synonym.as_slice() {
            [id] => {
                out.push(
                    Diagnostic::new(
                        Code::IdentifierViaSynonym,
                        span,
                        format!("column reference `{column}` resolves only via a synonym"),
                    )
                    .with_note(format!(
                        "canonical name is `{}`",
                        self.schema.qualified_column_name(*id)
                    )),
                );
                Some(*id)
            }
            [] => {
                out.push(Diagnostic::new(
                    Code::UnresolvedColumn,
                    span,
                    format!("no table in scope has a column `{column}`"),
                ));
                None
            }
            _ => {
                out.push(Diagnostic::new(
                    Code::AmbiguousColumn,
                    span,
                    format!("column `{column}` matches synonyms in multiple tables"),
                ));
                None
            }
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
                    .column("age", SqlType::Integer)
                    .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.synonym("physicians")
                    .column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap()
    }

    fn scope_for<'a>(
        schema: &'a Schema,
        sql: &str,
        out: &mut Vec<Diagnostic>,
    ) -> (Scope<'a>, dbpal_sql::Query) {
        let q = parse_query(sql).unwrap();
        let scope = Scope::for_query(schema, &q, 0, out);
        (scope, q)
    }

    #[test]
    fn unqualified_unique_column_resolves() {
        let s = schema();
        let mut out = Vec::new();
        let (scope, _) = scope_for(&s, "SELECT age FROM patients", &mut out);
        let id = scope
            .resolve(&ColumnRef::unqualified("age"), Clause::Select, &mut out)
            .unwrap();
        assert_eq!(s.qualified_column_name(id), "patients.age");
        assert!(out.is_empty());
    }

    #[test]
    fn ambiguous_across_from_tables() {
        let s = schema();
        let mut out = Vec::new();
        let (scope, _) = scope_for(&s, "SELECT age FROM patients, doctors", &mut out);
        let res = scope.resolve(&ColumnRef::unqualified("name"), Clause::Select, &mut out);
        assert!(res.is_none());
        assert_eq!(out.last().unwrap().code, Code::AmbiguousColumn);
    }

    #[test]
    fn synonym_resolution_warns() {
        let s = schema();
        let mut out = Vec::new();
        let (scope, _) = scope_for(&s, "SELECT age FROM patients", &mut out);
        let id = scope
            .resolve(&ColumnRef::unqualified("illness"), Clause::Where, &mut out)
            .unwrap();
        assert_eq!(s.qualified_column_name(id), "patients.disease");
        assert_eq!(out.last().unwrap().code, Code::IdentifierViaSynonym);
    }

    #[test]
    fn table_synonym_in_from_warns() {
        let s = schema();
        let mut out = Vec::new();
        let (scope, _) = scope_for(&s, "SELECT id FROM physicians", &mut out);
        assert_eq!(out.last().unwrap().code, Code::IdentifierViaSynonym);
        assert_eq!(scope.table_ids(), vec![s.table_id("doctors").unwrap()]);
    }

    #[test]
    fn qualifier_not_in_from_still_resolves() {
        let s = schema();
        let mut out = Vec::new();
        let (scope, _) = scope_for(&s, "SELECT name FROM patients", &mut out);
        let id = scope.resolve(
            &ColumnRef::qualified("doctors", "name"),
            Clause::Where,
            &mut out,
        );
        assert!(id.is_some());
        assert_eq!(out.last().unwrap().code, Code::TableNotInScope);
    }

    #[test]
    fn join_placeholder_scope_is_whole_schema() {
        let s = schema();
        let mut out = Vec::new();
        let (scope, _) = scope_for(&s, "SELECT COUNT(*) FROM @JOIN", &mut out);
        assert!(!scope.is_explicit());
        assert_eq!(scope.table_ids().len(), 2);
    }
}
