//! Foreign-key join graph and shortest join-path search.
//!
//! The DBPal runtime replaces the `@JOIN` placeholder "with the actual
//! table names and the join path that contains all tables required by the
//! query. In case multiple join paths are possible to connect all the
//! required tables, we select the join path that is minimal in its length"
//! (paper §5.1). The same machinery repairs FROM clauses whose table does
//! not match the attributes used (§4.2).

use crate::{ColumnId, Schema, SchemaError, TableId};
use std::collections::{HashSet, VecDeque};

/// A single join step: equate `left` and `right` columns of two tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    /// Column on the already-connected side.
    pub left: ColumnId,
    /// Column on the newly-connected side.
    pub right: ColumnId,
}

/// An ordered list of join edges connecting a set of tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinPath {
    /// Tables in the order they are introduced into the FROM clause.
    pub tables: Vec<TableId>,
    /// Join conditions, one per table after the first.
    pub edges: Vec<JoinEdge>,
}

impl JoinPath {
    /// A path containing a single table and no joins.
    pub fn single(table: TableId) -> Self {
        JoinPath {
            tables: vec![table],
            edges: Vec::new(),
        }
    }

    /// Number of join edges (0 for a single table).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path involves no joins.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether the path connects (at least) all the given tables.
    pub fn covers(&self, tables: &[TableId]) -> bool {
        tables.iter().all(|t| self.tables.contains(t))
    }
}

/// Adjacency-list view of the schema's foreign-key graph.
///
/// Edges are undirected: a foreign key `a.x -> b.y` permits joining in
/// either direction.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// `adjacency[t]` lists `(neighbor, left column in t, right column in neighbor)`.
    adjacency: Vec<Vec<(TableId, ColumnId, ColumnId)>>,
    table_names: Vec<String>,
}

impl JoinGraph {
    /// Build the join graph for a schema.
    pub fn new(schema: &Schema) -> Self {
        let n = schema.table_count();
        let mut adjacency = vec![Vec::new(); n];
        for fk in schema.foreign_keys() {
            adjacency[fk.from.table.0 as usize].push((fk.to.table, fk.from, fk.to));
            adjacency[fk.to.table.0 as usize].push((fk.from.table, fk.to, fk.from));
        }
        JoinGraph {
            adjacency,
            table_names: schema
                .tables()
                .iter()
                .map(|t| t.name().to_string())
                .collect(),
        }
    }

    /// Number of tables in the graph.
    pub fn table_count(&self) -> usize {
        self.adjacency.len()
    }

    /// BFS shortest path between two tables.
    ///
    /// Returns the edges along the path, in order from `from` to `to`.
    /// An empty edge list means `from == to`.
    pub fn shortest_path(&self, from: TableId, to: TableId) -> Result<Vec<JoinEdge>, SchemaError> {
        if from == to {
            return Ok(Vec::new());
        }
        let n = self.adjacency.len();
        let mut prev: Vec<Option<(TableId, JoinEdge)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[from.0 as usize] = true;
        queue.push_back(from);
        while let Some(t) = queue.pop_front() {
            for &(next, left, right) in &self.adjacency[t.0 as usize] {
                if visited[next.0 as usize] {
                    continue;
                }
                visited[next.0 as usize] = true;
                prev[next.0 as usize] = Some((t, JoinEdge { left, right }));
                if next == to {
                    // Reconstruct path.
                    let mut edges = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, e) = prev[cur.0 as usize].expect("path recorded");
                        edges.push(e);
                        cur = p;
                    }
                    edges.reverse();
                    return Ok(edges);
                }
                queue.push_back(next);
            }
        }
        Err(SchemaError::NoJoinPath {
            from: self.table_names[from.0 as usize].clone(),
            to: self.table_names[to.0 as usize].clone(),
        })
    }

    /// Connect a set of required tables with a minimal-length join path
    /// (greedy Steiner-tree approximation: repeatedly attach the closest
    /// uncovered table via its shortest path to the covered set).
    ///
    /// The result covers all `required` tables plus any intermediate tables
    /// on the connecting paths.
    pub fn connect(&self, required: &[TableId]) -> Result<JoinPath, SchemaError> {
        let mut required: Vec<TableId> = {
            let mut seen = HashSet::new();
            required
                .iter()
                .copied()
                .filter(|t| seen.insert(*t))
                .collect()
        };
        let Some(first) = required.first().copied() else {
            return Ok(JoinPath::default());
        };
        let mut path = JoinPath::single(first);
        required.remove(0);
        let mut covered: HashSet<TableId> = [first].into_iter().collect();

        while !required.is_empty() {
            // Find the uncovered required table with the shortest path to
            // any covered table.
            let mut best: Option<(usize, Vec<JoinEdge>, TableId)> = None;
            for (i, &target) in required.iter().enumerate() {
                for &src in &covered {
                    if let Ok(edges) = self.shortest_path(src, target) {
                        if best.as_ref().is_none_or(|(_, b, _)| edges.len() < b.len()) {
                            best = Some((i, edges, target));
                        }
                    }
                }
            }
            let Some((idx, edges, target)) = best else {
                return Err(SchemaError::NoJoinPath {
                    from: self.table_names[first.0 as usize].clone(),
                    to: self.table_names[required[0].0 as usize].clone(),
                });
            };
            for e in edges {
                let new_table = e.right.table;
                if covered.insert(new_table) {
                    path.tables.push(new_table);
                    path.edges.push(e);
                }
            }
            debug_assert!(covered.contains(&target));
            required.remove(idx);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchemaBuilder, SqlType};

    /// Chain: a -> b -> c -> d, plus shortcut a -> e -> d.
    fn chain_schema() -> Schema {
        let mut b = SchemaBuilder::new("chain");
        for name in ["a", "b", "c", "d", "e"] {
            b = b.table(name, |t| {
                t.column("id", SqlType::Integer)
                    .column("ref", SqlType::Integer)
            });
        }
        b.foreign_key("a", "ref", "b", "id")
            .foreign_key("b", "ref", "c", "id")
            .foreign_key("c", "ref", "d", "id")
            .foreign_key("a", "id", "e", "ref")
            .foreign_key("e", "id", "d", "ref")
            .build()
            .unwrap()
    }

    #[test]
    fn shortest_path_prefers_shortcut() {
        let s = chain_schema();
        let g = s.join_graph();
        let a = s.table_id("a").unwrap();
        let d = s.table_id("d").unwrap();
        let path = g.shortest_path(a, d).unwrap();
        // Via e: 2 edges, not 3 via b, c.
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn shortest_path_same_table_is_empty() {
        let s = chain_schema();
        let g = s.join_graph();
        let a = s.table_id("a").unwrap();
        assert!(g.shortest_path(a, a).unwrap().is_empty());
    }

    #[test]
    fn disconnected_tables_error() {
        let s = SchemaBuilder::new("disc")
            .table("x", |t| t.column("id", SqlType::Integer))
            .table("y", |t| t.column("id", SqlType::Integer))
            .build()
            .unwrap();
        let g = s.join_graph();
        let err = g
            .shortest_path(s.table_id("x").unwrap(), s.table_id("y").unwrap())
            .unwrap_err();
        assert!(matches!(err, SchemaError::NoJoinPath { .. }));
    }

    #[test]
    fn connect_single_table() {
        let s = chain_schema();
        let g = s.join_graph();
        let a = s.table_id("a").unwrap();
        let p = g.connect(&[a]).unwrap();
        assert_eq!(p.tables, vec![a]);
        assert!(p.is_empty());
    }

    #[test]
    fn connect_covers_all_required() {
        let s = chain_schema();
        let g = s.join_graph();
        let ids: Vec<_> = ["a", "c", "d"]
            .iter()
            .map(|n| s.table_id(n).unwrap())
            .collect();
        let p = g.connect(&ids).unwrap();
        assert!(p.covers(&ids));
        // One edge per table beyond the first.
        assert_eq!(p.edges.len(), p.tables.len() - 1);
    }

    #[test]
    fn connect_deduplicates_required() {
        let s = chain_schema();
        let g = s.join_graph();
        let a = s.table_id("a").unwrap();
        let b_ = s.table_id("b").unwrap();
        let p = g.connect(&[a, b_, a, b_]).unwrap();
        assert_eq!(p.tables.len(), 2);
        assert_eq!(p.edges.len(), 1);
    }

    #[test]
    fn connect_empty_is_empty() {
        let s = chain_schema();
        let g = s.join_graph();
        let p = g.connect(&[]).unwrap();
        assert!(p.tables.is_empty());
    }
}
