//! Directed modularity (Leicht–Newman), the objective optimized by
//! Louvain.

#![expect(
    clippy::indexing_slicing,
    reason = "degree and community arrays are node_count-sized after the up-front cover check"
)]
use lcrb_graph::DiGraph;

use crate::Partition;

/// Directed modularity of `partition` on `g`:
///
/// `Q = Σ_c [ e_c / m − (out_c · in_c) / m² ]`
///
/// where `e_c` is the number of intra-community edges of community
/// `c`, `out_c`/`in_c` the summed out-/in-degrees of its members, and
/// `m` the total edge count. Equals classic Newman modularity on
/// symmetrized graphs. Returns 0 for graphs without edges.
///
/// # Panics
///
/// Panics if the partition does not cover exactly the graph's nodes.
///
/// # Examples
///
/// ```
/// use lcrb_community::{modularity, Partition};
/// use lcrb_graph::DiGraph;
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// // Two 2-cycles: the natural partition has high modularity.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])?;
/// let q = modularity(&g, &Partition::from_labels(vec![0, 0, 1, 1]));
/// assert!((q - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn modularity(g: &DiGraph, partition: &Partition) -> f64 {
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` precondition: the partition must cover the graph"
    )]
    partition
        .check_node_count(g.node_count())
        .expect("partition must cover the graph");
    let m = g.edge_count() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let k = partition.community_count();
    let mut intra = vec![0usize; k];
    let mut out_deg = vec![0usize; k];
    let mut in_deg = vec![0usize; k];
    for v in g.nodes() {
        let c = partition.community_of(v);
        out_deg[c] += g.out_degree(v);
        in_deg[c] += g.in_degree(v);
    }
    for (u, v) in g.edges() {
        let cu = partition.community_of(u);
        if cu == partition.community_of(v) {
            intra[cu] += 1;
        }
    }
    (0..k)
        .map(|c| intra[c] as f64 / m - (out_deg[c] as f64 * in_deg[c] as f64) / (m * m))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::generators::complete_graph;

    #[test]
    fn one_community_modularity_is_zero() {
        // With all nodes in one community, e_c = m and out_c = in_c = m.
        let g = complete_graph(5);
        let q = modularity(&g, &Partition::one_community(5));
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn singletons_on_complete_graph_are_negative() {
        let g = complete_graph(4);
        let q = modularity(&g, &Partition::singletons(4));
        assert!(q < 0.0);
    }

    #[test]
    fn empty_graph_modularity_is_zero() {
        let g = DiGraph::with_nodes(3);
        assert_eq!(modularity(&g, &Partition::singletons(3)), 0.0);
    }

    #[test]
    fn planted_partition_beats_random_split() {
        use lcrb_graph::generators::planted_partition;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let (g, labels) = planted_partition(&[30, 30, 30], 0.4, 0.01, false, &mut rng).unwrap();
        let planted = Partition::from_labels(labels);
        let q_planted = modularity(&g, &planted);
        // A deliberately wrong split of the same shape.
        let wrong = Partition::from_labels((0..90).map(|i| i % 3).collect());
        let q_wrong = modularity(&g, &wrong);
        assert!(q_planted > 0.4, "planted q = {q_planted}");
        assert!(q_planted > q_wrong + 0.3);
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn mismatched_partition_panics() {
        let g = complete_graph(3);
        let _ = modularity(&g, &Partition::singletons(5));
    }

    #[test]
    fn two_cliques_sharp_partition() {
        // Two directed triangles joined by one edge.
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .unwrap();
        let good = modularity(&g, &Partition::from_labels(vec![0, 0, 0, 1, 1, 1]));
        let bad = modularity(&g, &Partition::from_labels(vec![0, 0, 1, 1, 0, 1]));
        assert!(good > bad);
        assert!(good > 0.35);
    }
}
