//! Structural graph metrics used to calibrate and sanity-check the
//! synthetic datasets against the statistics the paper reports
//! (average node degree, density, etc.).

#![expect(
    clippy::indexing_slicing,
    reason = "degree histograms are indexed by degrees, which are bounded by node_count"
)]
use crate::DiGraph;

/// Average out-degree, `m / n` (0 for the empty graph).
///
/// For symmetrized undirected graphs this equals the undirected
/// average degree, which is the quantity the paper reports ("average
/// node degree of 10.0" for Enron, 7.73 for Hep).
#[must_use]
pub fn average_out_degree(g: &DiGraph) -> f64 {
    if g.node_count() == 0 {
        0.0
    } else {
        g.edge_count() as f64 / g.node_count() as f64
    }
}

/// Directed density: `m / (n * (n - 1))` (0 for graphs with < 2
/// nodes).
#[must_use]
pub fn density(g: &DiGraph) -> f64 {
    let n = g.node_count();
    if n < 2 {
        0.0
    } else {
        g.edge_count() as f64 / (n * (n - 1)) as f64
    }
}

/// Histogram of out-degrees: entry `k` counts nodes with out-degree
/// `k`.
#[must_use]
pub fn out_degree_histogram(g: &DiGraph) -> Vec<usize> {
    let max = g.nodes().map(|v| g.out_degree(v)).max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for v in g.nodes() {
        hist[g.out_degree(v)] += 1;
    }
    hist
}

/// Fraction of edges `(u, v)` whose reciprocal `(v, u)` also exists
/// (1.0 for symmetrized graphs, 0 for graphs without edges).
#[must_use]
pub fn reciprocity(g: &DiGraph) -> f64 {
    if g.edge_count() == 0 {
        return 0.0;
    }
    let mutual = g.edges().filter(|&(u, v)| g.has_edge(v, u)).count();
    mutual as f64 / g.edge_count() as f64
}

/// Global clustering coefficient (transitivity) of the symmetrized
/// graph: `3 * triangles / connected triples`.
///
/// Exact triangle counting costs `O(sum of d^2)`; intended for the
/// small-to-medium graphs used in tests and calibration, not for
/// per-step simulation loops.
#[must_use]
pub fn global_clustering_coefficient(g: &DiGraph) -> f64 {
    let s = g.symmetrized();
    let mut closed = 0usize; // ordered paths u-v-w with edge u-w
    let mut triples = 0usize; // ordered paths u-v-w, u != w
    for v in s.nodes() {
        let nbrs = s.out_neighbors(v);
        let d = nbrs.len();
        if d < 2 {
            continue;
        }
        triples += d * (d - 1);
        for (i, &u) in nbrs.iter().enumerate() {
            for &w in &nbrs[i + 1..] {
                if s.has_edge(u, w) {
                    closed += 2; // both orderings of the path
                }
            }
        }
    }
    if triples == 0 {
        0.0
    } else {
        closed as f64 / triples as f64
    }
}

/// A one-struct summary of the metrics above, convenient for logging
/// dataset calibration.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSummary {
    /// Node count.
    pub nodes: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Average out-degree.
    pub average_out_degree: f64,
    /// Directed density.
    pub density: f64,
    /// Edge reciprocity.
    pub reciprocity: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
}

impl GraphSummary {
    /// Computes the summary for `g`.
    #[must_use]
    pub fn of(g: &DiGraph) -> Self {
        GraphSummary {
            nodes: g.node_count(),
            edges: g.edge_count(),
            average_out_degree: average_out_degree(g),
            density: density(g),
            reciprocity: reciprocity(g),
            max_out_degree: g.nodes().map(|v| g.out_degree(v)).max().unwrap_or(0),
        }
    }
}

impl core::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, avg out-degree {:.2}, density {:.6}, reciprocity {:.2}, max out-degree {}",
            self.nodes,
            self.edges,
            self.average_out_degree,
            self.density,
            self.reciprocity,
            self.max_out_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn average_degree_and_density() {
        let g = complete_graph(5);
        assert!((average_out_degree(&g) - 4.0).abs() < 1e-12);
        assert!((density(&g) - 1.0).abs() < 1e-12);
        let p = path_graph(4);
        assert!((average_out_degree(&p) - 0.75).abs() < 1e-12);
        assert!((density(&p) - 3.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics() {
        let g = DiGraph::new();
        assert_eq!(average_out_degree(&g), 0.0);
        assert_eq!(density(&g), 0.0);
        assert_eq!(reciprocity(&g), 0.0);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
        assert_eq!(out_degree_histogram(&g), vec![0]);
    }

    #[test]
    fn histogram_counts_nodes() {
        let g = star_graph(4); // hub out-degree 3, leaves out-degree 1
        let h = out_degree_histogram(&g);
        assert_eq!(h, vec![0, 3, 0, 1]);
        assert_eq!(h.iter().sum::<usize>(), 4);
    }

    #[test]
    fn reciprocity_of_cycle_and_star() {
        assert_eq!(reciprocity(&cycle_graph(5)), 0.0);
        assert_eq!(reciprocity(&star_graph(5)), 1.0);
        // A 2-cycle is fully reciprocal.
        let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]).unwrap();
        assert_eq!(reciprocity(&g), 1.0);
    }

    #[test]
    fn clustering_of_triangle_and_star() {
        let tri = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!((global_clustering_coefficient(&tri) - 1.0).abs() < 1e-12);
        assert_eq!(global_clustering_coefficient(&star_graph(5)), 0.0);
    }

    #[test]
    fn clustering_of_square_with_diagonal() {
        // Square 0-1-2-3 plus diagonal 0-2: 2 triangles, 8 + 2*... compute:
        // degrees: 0:3, 1:2, 2:3, 3:2 -> triples = 3*2+2*1+3*2+2*1 = 16
        // triangles = 2, closed ordered paths = 2 * 3! = ... formula: 3*2*2=12? Use
        // transitivity = 3*T*2 / triples = 6*2/16 = 0.75.
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let c = global_clustering_coefficient(&g);
        assert!((c - 0.75).abs() < 1e-12, "got {c}");
    }

    #[test]
    fn summary_display_and_fields() {
        let g = star_graph(4);
        let s = GraphSummary::of(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 6);
        assert_eq!(s.max_out_degree, 3);
        assert_eq!(s.reciprocity, 1.0);
        let text = s.to_string();
        assert!(text.contains("4 nodes"));
        assert!(text.contains("6 edges"));
    }
}
