//! The relational catalog: schemas, tables, columns, and keys.

use crate::{Annotations, JoinGraph, SchemaError, SemanticDomain, SqlType};
use std::collections::HashMap;

/// Index of a table within its [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// A column identified by its table and position within that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId {
    /// The owning table.
    pub table: TableId,
    /// Zero-based position within the table.
    pub index: u32,
}

impl ColumnId {
    /// Construct a column id from raw parts.
    pub fn new(table: TableId, index: u32) -> Self {
        ColumnId { table, index }
    }
}

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    sql_type: SqlType,
    domain: SemanticDomain,
    annotations: Annotations,
}

impl Column {
    pub(crate) fn new(
        name: String,
        sql_type: SqlType,
        domain: SemanticDomain,
        annotations: Annotations,
    ) -> Self {
        Column {
            name,
            sql_type,
            domain,
            annotations,
        }
    }

    /// The SQL identifier of the column.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared data type.
    pub fn sql_type(&self) -> SqlType {
        self.sql_type
    }

    /// The semantic domain driving comparative/superlative augmentation.
    pub fn domain(&self) -> SemanticDomain {
        self.domain
    }

    /// NL annotations (readable name, synonyms).
    pub fn annotations(&self) -> &Annotations {
        &self.annotations
    }

    /// The readable surface form used in generated NL.
    pub fn surface_form(&self) -> String {
        self.annotations.surface_form(&self.name)
    }

    /// Every NL phrase that may denote this column.
    pub fn nl_phrases(&self) -> Vec<String> {
        self.annotations.all_phrases(&self.name)
    }
}

/// A table definition.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    primary_key: Option<u32>,
    annotations: Annotations,
}

impl Table {
    pub(crate) fn new(
        name: String,
        columns: Vec<Column>,
        primary_key: Option<u32>,
        annotations: Annotations,
    ) -> Self {
        Table {
            name,
            columns,
            primary_key,
            annotations,
        }
    }

    /// The SQL identifier of the table.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Iterator over column names.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name())
    }

    /// Look up a column by name (case-insensitive).
    pub fn column_by_name(&self, name: &str) -> Option<(u32, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name.eq_ignore_ascii_case(name))
            .map(|(i, c)| (i as u32, c))
    }

    /// The primary-key column position, if declared.
    pub fn primary_key(&self) -> Option<u32> {
        self.primary_key
    }

    /// NL annotations for the table itself.
    pub fn annotations(&self) -> &Annotations {
        &self.annotations
    }

    /// The readable surface form used in generated NL.
    pub fn surface_form(&self) -> String {
        self.annotations.surface_form(&self.name)
    }

    /// Every NL phrase that may denote this table.
    pub fn nl_phrases(&self) -> Vec<String> {
        self.annotations.all_phrases(&self.name)
    }
}

/// A foreign-key edge between two columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing column.
    pub from: ColumnId,
    /// Referenced column.
    pub to: ColumnId,
}

/// A complete database schema: the sole mandatory input to DBPal's
/// training pipeline (paper §1: "only the database schema is required as
/// input to generate a large collection of pairs").
#[derive(Debug, Clone)]
pub struct Schema {
    name: String,
    tables: Vec<Table>,
    foreign_keys: Vec<ForeignKey>,
    table_index: HashMap<String, TableId>,
}

impl Schema {
    pub(crate) fn from_parts(
        name: String,
        tables: Vec<Table>,
        foreign_keys: Vec<ForeignKey>,
    ) -> Result<Self, SchemaError> {
        if tables.is_empty() {
            return Err(SchemaError::EmptySchema);
        }
        let mut table_index = HashMap::with_capacity(tables.len());
        for (i, t) in tables.iter().enumerate() {
            if t.columns.is_empty() {
                return Err(SchemaError::EmptyTable(t.name.clone()));
            }
            if table_index
                .insert(t.name.to_lowercase(), TableId(i as u32))
                .is_some()
            {
                return Err(SchemaError::DuplicateTable(t.name.clone()));
            }
        }
        let schema = Schema {
            name,
            tables,
            foreign_keys,
            table_index,
        };
        for fk in &schema.foreign_keys {
            let from = schema.column(fk.from);
            let to = schema.column(fk.to);
            if from.sql_type() != to.sql_type() {
                return Err(SchemaError::ForeignKeyTypeMismatch {
                    from: schema.qualified_column_name(fk.from),
                    to: schema.qualified_column_name(fk.to),
                });
            }
        }
        Ok(schema)
    }

    /// The schema's name (usually the database/domain name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// All tables in declaration order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Iterator over `(TableId, &Table)` pairs.
    pub fn tables_with_ids(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// The table with the given id. Panics on out-of-range ids, which can
    /// only be produced by mixing ids across schemas.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Look up a table by name (case-insensitive).
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.table_id(name).map(|id| self.table(id))
    }

    /// Look up a table id by name (case-insensitive).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.table_index.get(&name.to_lowercase()).copied()
    }

    /// The column with the given id.
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.table(id.table).columns[id.index as usize]
    }

    /// Resolve `table.column` names to a [`ColumnId`].
    pub fn column_id(&self, table: &str, column: &str) -> Result<ColumnId, SchemaError> {
        let tid = self
            .table_id(table)
            .ok_or_else(|| SchemaError::UnknownTable(table.to_string()))?;
        let (idx, _) =
            self.table(tid)
                .column_by_name(column)
                .ok_or_else(|| SchemaError::UnknownColumn {
                    table: table.to_string(),
                    column: column.to_string(),
                })?;
        Ok(ColumnId::new(tid, idx))
    }

    /// `table.column` rendering of a column id.
    pub fn qualified_column_name(&self, id: ColumnId) -> String {
        format!("{}.{}", self.table(id.table).name(), self.column(id).name())
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Iterator over all column ids in the schema.
    pub fn all_column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.tables_with_ids()
            .flat_map(|(tid, t)| (0..t.column_count() as u32).map(move |i| ColumnId::new(tid, i)))
    }

    /// Total number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.column_count()).sum()
    }

    /// Build the foreign-key join graph over this schema.
    pub fn join_graph(&self) -> JoinGraph {
        JoinGraph::new(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::{SchemaBuilder, SqlType};

    fn two_table_schema() -> crate::Schema {
        SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
                    .primary_key("id")
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

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        let s = two_table_schema();
        assert!(s.table_by_name("PATIENTS").is_some());
        assert!(s.column_id("Patients", "NAME").is_ok());
    }

    #[test]
    fn qualified_names() {
        let s = two_table_schema();
        let cid = s.column_id("patients", "doctor_id").unwrap();
        assert_eq!(s.qualified_column_name(cid), "patients.doctor_id");
    }

    #[test]
    fn column_iteration_covers_all() {
        let s = two_table_schema();
        assert_eq!(s.all_column_ids().count(), 5);
        assert_eq!(s.column_count(), 5);
    }

    #[test]
    fn unknown_lookups_error() {
        let s = two_table_schema();
        assert!(s.table_by_name("nurses").is_none());
        assert!(s.column_id("patients", "salary").is_err());
        assert!(s.column_id("nurses", "id").is_err());
    }

    #[test]
    fn foreign_keys_preserved() {
        let s = two_table_schema();
        assert_eq!(s.foreign_keys().len(), 1);
        let fk = s.foreign_keys()[0];
        assert_eq!(s.qualified_column_name(fk.from), "patients.doctor_id");
        assert_eq!(s.qualified_column_name(fk.to), "doctors.id");
    }
}
