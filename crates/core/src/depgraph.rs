//! The dependency graph (Figure 2 of the paper).
//!
//! "Blaeu generates a dependency graph, a weighted undirected graph in
//! which each vertex represents a column and each edge the statistical
//! dependency between two columns." This module wraps the pairwise
//! dependency matrix from `blaeu-stats` with graph-flavored accessors,
//! a Graphviz export and a terminal rendering.

use blaeu_stats::{dependency_matrix, DependencyMatrix, DependencyOptions};
use blaeu_store::TableView;

use crate::error::Result;

/// A weighted, undirected column-dependency graph.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    matrix: DependencyMatrix,
}

impl DependencyGraph {
    /// Builds the graph over the given columns of a view.
    ///
    /// # Errors
    /// Propagates unknown-column errors.
    pub fn build(view: &TableView, columns: &[&str], opts: &DependencyOptions) -> Result<Self> {
        Ok(DependencyGraph {
            matrix: dependency_matrix(view, columns, opts)?,
        })
    }

    /// Vertex names.
    pub fn vertices(&self) -> &[String] {
        self.matrix.names()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Edge weight between vertices `i` and `j`.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }

    /// The underlying matrix (for clustering into themes).
    pub fn matrix(&self) -> &DependencyMatrix {
        &self.matrix
    }

    /// Edges with weight ≥ `threshold`, as `(i, j, weight)`, strongest first.
    fn edges_above(&self, threshold: f64) -> Vec<(usize, usize, f64)> {
        let n = self.matrix.len();
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, self.matrix.get(i, j)))
            .filter(|&(_, _, w)| w >= threshold)
            .collect();
        edges.sort_by(|a, b| b.2.total_cmp(&a.2));
        edges
    }

    /// Graphviz DOT rendering (edges above `threshold`, weight as label).
    pub fn to_dot(&self, threshold: f64) -> String {
        let mut out = String::from("graph dependencies {\n");
        for name in self.vertices() {
            out.push_str(&format!("  \"{name}\";\n"));
        }
        for (i, j, w) in self.edges_above(threshold) {
            out.push_str(&format!(
                "  \"{}\" -- \"{}\" [label=\"{:.2}\", penwidth={:.1}];\n",
                self.vertices()[i],
                self.vertices()[j],
                w,
                1.0 + 4.0 * w
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Terminal rendering: strongest edges as an adjacency list.
    pub fn render_text(&self, threshold: f64, max_edges: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Dependency graph: {} columns, threshold {threshold:.2}\n",
            self.len()
        ));
        for (i, j, w) in self.edges_above(threshold).into_iter().take(max_edges) {
            let bar = "─".repeat(1 + (w * 20.0) as usize);
            out.push_str(&format!(
                "  {:<28} {bar} {:.2} ─ {}\n",
                self.vertices()[i],
                w,
                self.vertices()[j]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::{Column, TableBuilder};

    fn table() -> TableView {
        // Two dependent pairs: (a, b) and (c, d); e independent.
        let a: Vec<f64> = (0..400).map(|i| i as f64 / 40.0).collect();
        let b: Vec<f64> = a.iter().map(|v| 3.0 * v - 1.0).collect();
        let c: Vec<f64> = (0..400).map(|i| ((i * 13 + 7) % 400) as f64).collect();
        let d: Vec<f64> = c.iter().map(|v| v * 0.5).collect();
        let e: Vec<f64> = (0..400).map(|i| ((i * 29 + 3) % 101) as f64).collect();
        TableBuilder::new("t")
            .column("a", Column::dense_f64(a))
            .unwrap()
            .column("b", Column::dense_f64(b))
            .unwrap()
            .column("c", Column::dense_f64(c))
            .unwrap()
            .column("d", Column::dense_f64(d))
            .unwrap()
            .column("e", Column::dense_f64(e))
            .unwrap()
            .build()
            .unwrap()
            .into()
    }

    #[test]
    fn builds_and_exposes_weights() {
        let t = table();
        let g = DependencyGraph::build(
            &t,
            &["a", "b", "c", "d", "e"],
            &DependencyOptions::default(),
        )
        .unwrap();
        assert_eq!(g.len(), 5);
        assert!(g.weight(0, 1) > 0.8, "a~b strong: {}", g.weight(0, 1));
        assert!(g.weight(2, 3) > 0.8, "c~d strong: {}", g.weight(2, 3));
        assert!(g.weight(0, 4) < 0.4, "a~e weak: {}", g.weight(0, 4));
    }

    #[test]
    fn edges_above_sorted_and_filtered() {
        let t = table();
        let g = DependencyGraph::build(
            &t,
            &["a", "b", "c", "d", "e"],
            &DependencyOptions::default(),
        )
        .unwrap();
        let edges = g.edges_above(0.7);
        assert!(edges.len() >= 2);
        assert!(edges.windows(2).all(|w| w[0].2 >= w[1].2));
        let pairs: Vec<(usize, usize)> = edges.iter().map(|&(i, j, _)| (i, j)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(2, 3)));
    }

    #[test]
    fn dot_export_contains_vertices_and_edges() {
        let t = table();
        let g =
            DependencyGraph::build(&t, &["a", "b", "e"], &DependencyOptions::default()).unwrap();
        let dot = g.to_dot(0.5);
        assert!(dot.starts_with("graph dependencies {"));
        assert!(dot.contains("\"a\";"));
        assert!(dot.contains("\"a\" -- \"b\""));
        assert!(!dot.contains("\"a\" -- \"e\""), "weak edge filtered");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn text_render_lists_strong_edges() {
        let t = table();
        let g = DependencyGraph::build(
            &t,
            &["a", "b", "c", "d", "e"],
            &DependencyOptions::default(),
        )
        .unwrap();
        let text = g.render_text(0.7, 10);
        assert!(text.contains('a') && text.contains('b'));
        assert!(text.contains("columns"));
    }
}
