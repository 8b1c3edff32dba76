//! Betweenness centrality (Brandes' algorithm).
//!
//! The last of the classic centralities used to characterize the
//! synthetic datasets and to reason about protector placement:
//! bridge ends with high betweenness sit on many escape paths.

#![expect(
    clippy::indexing_slicing,
    reason = "the Brandes buffers are node-indexed arrays sized together before each source's pass"
)]
use std::collections::VecDeque;

use crate::{DiGraph, NodeId};

/// Computes directed, unweighted betweenness centrality for every
/// node with Brandes' algorithm (`O(n·m)` time, `O(n + m)` space).
///
/// `scores[v] = Σ_{s != v != t} σ_st(v) / σ_st`, where `σ_st` counts
/// shortest `s → t` paths and `σ_st(v)` those passing through `v`.
/// Endpoints are excluded, unreachable pairs contribute 0, and no
/// normalization is applied (divide by `(n-1)(n-2)` yourself if you
/// need it).
///
/// # Examples
///
/// ```
/// use lcrb_graph::betweenness::betweenness_centrality;
/// use lcrb_graph::generators::path_graph;
///
/// // On a directed path 0 -> 1 -> 2, only the middle node carries
/// // flow (the single 0 -> 2 path).
/// let g = path_graph(3);
/// let b = betweenness_centrality(&g);
/// assert_eq!(b, vec![0.0, 1.0, 0.0]);
/// ```
#[must_use]
pub fn betweenness_centrality(g: &DiGraph) -> Vec<f64> {
    let n = g.node_count();
    let mut centrality = vec![0.0f64; n];
    // Reused per-source scratch.
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i64; n];
    let mut delta = vec![0.0f64; n];
    let mut stack: Vec<NodeId> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut queue = VecDeque::new();

    for s in g.nodes() {
        // Single-source shortest-path counting.
        for i in 0..n {
            sigma[i] = 0.0;
            dist[i] = -1;
            delta[i] = 0.0;
            preds[i].clear();
        }
        stack.clear();
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in g.out_neighbors(v) {
                if dist[w.index()] < 0 {
                    dist[w.index()] = dist[v.index()] + 1;
                    queue.push_back(w);
                }
                if dist[w.index()] == dist[v.index()] + 1 {
                    sigma[w.index()] += sigma[v.index()];
                    preds[w.index()].push(v);
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        while let Some(w) = stack.pop() {
            for &v in &preds[w.index()] {
                delta[v.index()] += sigma[v.index()] / sigma[w.index()] * (1.0 + delta[w.index()]);
            }
            if w != s {
                centrality[w.index()] += delta[w.index()];
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn empty_and_singleton() {
        assert!(betweenness_centrality(&DiGraph::new()).is_empty());
        assert_eq!(betweenness_centrality(&DiGraph::with_nodes(1)), vec![0.0]);
    }

    #[test]
    fn directed_path_interior_counts() {
        // 0 -> 1 -> 2 -> 3: node v at position i carries all pairs
        // (s < i, t > i): node 1 -> 1*2 = 2 pairs, node 2 -> 2*1 = 2.
        let g = path_graph(4);
        let b = betweenness_centrality(&g);
        assert_eq!(b, vec![0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn star_hub_carries_all_leaf_pairs() {
        // Symmetric star on 5 nodes: 4 leaves, each ordered leaf pair
        // (4*3 = 12) routes through the hub.
        let g = star_graph(5);
        let b = betweenness_centrality(&g);
        assert_eq!(b[0], 12.0);
        for &leaf in &b[1..5] {
            assert_eq!(leaf, 0.0);
        }
    }

    #[test]
    fn complete_graph_has_zero_betweenness() {
        let g = complete_graph(5);
        let b = betweenness_centrality(&g);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn directed_cycle_is_uniform() {
        // Every node lies on the unique path between the pairs that
        // wrap around it; by symmetry all scores are equal.
        let g = cycle_graph(6);
        let b = betweenness_centrality(&g);
        for &x in &b {
            assert!((x - b[0]).abs() < 1e-12);
        }
        assert!(b[0] > 0.0);
        // Total betweenness = sum over pairs of (path length - 1):
        // pairs at distance d contribute d - 1; 6 nodes × distances
        // 1..5 -> 6 * (0+1+2+3+4) = 60.
        let total: f64 = b.iter().sum();
        assert!((total - 60.0).abs() < 1e-9);
    }

    #[test]
    fn split_paths_share_credit() {
        // Two equal-length 0 -> 3 routes (via 1 and via 2): each
        // interior node carries half of the single (0, 3) pair.
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let b = betweenness_centrality(&g);
        assert!((b[1] - 0.5).abs() < 1e-12);
        assert!((b[2] - 0.5).abs() < 1e-12);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[3], 0.0);
    }

    #[test]
    fn matches_naive_counting_on_random_graphs() {
        use crate::traversal::bfs_distances;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let g = crate::generators::gnm_directed(24, 72, &mut rng).unwrap();
        let fast = betweenness_centrality(&g);
        // Naive: enumerate shortest paths by DP over the BFS DAG.
        let n = g.node_count();
        let mut naive = vec![0.0f64; n];
        for s in g.nodes() {
            let dist = bfs_distances(&g, &[s]);
            // σ from s.
            let mut order: Vec<NodeId> = g.nodes().filter(|v| dist[v.index()].is_some()).collect();
            order.sort_by_key(|v| dist[v.index()].unwrap());
            let mut sigma = vec![0.0f64; n];
            sigma[s.index()] = 1.0;
            for &v in &order {
                for &w in g.out_neighbors(v) {
                    if dist[w.index()] == Some(dist[v.index()].unwrap() + 1) {
                        sigma[w.index()] += sigma[v.index()];
                    }
                }
            }
            for t in g.nodes() {
                if t == s || dist[t.index()].is_none() || sigma[t.index()] == 0.0 {
                    continue;
                }
                // σ_st(v): paths through v = σ_sv * σ_vt where
                // distances add up; compute σ_vt by reverse DP.
                let dt = dist[t.index()].unwrap();
                let mut sigma_to_t = vec![0.0f64; n];
                sigma_to_t[t.index()] = 1.0;
                for &v in order.iter().rev() {
                    for &w in g.out_neighbors(v) {
                        if dist[w.index()] == Some(dist[v.index()].unwrap() + 1) {
                            sigma_to_t[v.index()] += sigma_to_t[w.index()];
                        }
                    }
                }
                for v in g.nodes() {
                    if v == s || v == t {
                        continue;
                    }
                    if let Some(dv) = dist[v.index()] {
                        if dv < dt && sigma_to_t[v.index()] > 0.0 {
                            naive[v.index()] +=
                                sigma[v.index()] * sigma_to_t[v.index()] / sigma[t.index()];
                        }
                    }
                }
            }
        }
        for v in 0..n {
            assert!(
                (fast[v] - naive[v]).abs() < 1e-9,
                "node {v}: {} vs {}",
                fast[v],
                naive[v]
            );
        }
    }
}
