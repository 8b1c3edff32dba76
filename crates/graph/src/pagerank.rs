//! PageRank by power iteration.
//!
//! A classic influence proxy, provided both as a network-science
//! helper for dataset characterization and as the basis of the
//! PageRank protector-selection baseline in the `lcrb` crate (an
//! extension beyond the paper's MaxDegree/Proximity heuristics).

#![expect(
    clippy::indexing_slicing,
    reason = "rank vectors are node_count-sized and swapped wholesale each iteration"
)]
use crate::DiGraph;

/// Configuration for [`pagerank`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor `d` (teleport probability `1 - d`).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the L1 change between iterations.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// The result of [`pagerank`].
#[derive(Clone, Debug, PartialEq)]
pub struct PageRank {
    /// Scores, indexed by node; they sum to 1 (for non-empty graphs).
    pub scores: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// `true` if the L1 change dropped below the tolerance before the
    /// iteration cap.
    pub converged: bool,
}

/// Computes PageRank with uniform teleportation; dangling nodes
/// (out-degree 0) redistribute their mass uniformly.
///
/// # Panics
///
/// Panics if `config.damping` is not in `[0, 1)`.
///
/// # Examples
///
/// ```
/// use lcrb_graph::pagerank::{pagerank, PageRankConfig};
/// use lcrb_graph::generators::star_graph;
/// use lcrb_graph::NodeId;
///
/// // The hub of a star collects the most rank.
/// let g = star_graph(6);
/// let pr = pagerank(&g, &PageRankConfig::default());
/// let hub = pr.scores[0];
/// assert!(pr.scores[1..].iter().all(|&s| s < hub));
/// ```
#[must_use]
pub fn pagerank(g: &DiGraph, config: &PageRankConfig) -> PageRank {
    assert!(
        (0.0..1.0).contains(&config.damping),
        "damping must be in [0, 1), got {}",
        config.damping
    );
    let n = g.node_count();
    if n == 0 {
        return PageRank {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
        };
    }
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..config.max_iterations {
        iterations += 1;
        let mut dangling = 0.0;
        for v in g.nodes() {
            let out = g.out_degree(v);
            if out == 0 {
                dangling += rank[v.index()];
            }
        }
        let base = (1.0 - config.damping) / nf + config.damping * dangling / nf;
        next.iter_mut().for_each(|x| *x = base);
        for v in g.nodes() {
            let out = g.out_degree(v);
            if out > 0 {
                let share = config.damping * rank[v.index()] / out as f64;
                for &w in g.out_neighbors(v) {
                    next[w.index()] += share;
                }
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        core::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    PageRank {
        scores: rank,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, cycle_graph};
    use crate::NodeId;

    #[test]
    fn empty_graph() {
        let pr = pagerank(&DiGraph::new(), &PageRankConfig::default());
        assert!(pr.scores.is_empty());
        assert!(pr.converged);
    }

    #[test]
    fn scores_sum_to_one() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 2), (2, 4)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!(pr.converged);
        assert!(pr.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn symmetric_graphs_have_uniform_rank() {
        for g in [cycle_graph(7), complete_graph(5)] {
            let pr = pagerank(&g, &PageRankConfig::default());
            let expected = 1.0 / g.node_count() as f64;
            for &s in &pr.scores {
                assert!((s - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn authority_attracts_rank() {
        // 0, 1, 2 all point to 3.
        let g = DiGraph::from_edges(4, [(0, 3), (1, 3), (2, 3)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::default());
        assert!(pr.scores[3] > pr.scores[0] * 2.0);
    }

    #[test]
    fn dangling_mass_is_preserved() {
        // Node 1 is a sink; mass must not leak.
        let g = DiGraph::from_edges(3, [(0, 1), (2, 1)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = cycle_graph(10);
        let pr = pagerank(
            &g,
            &PageRankConfig {
                max_iterations: 2,
                tolerance: 0.0,
                ..PageRankConfig::default()
            },
        );
        assert_eq!(pr.iterations, 2);
        assert!(!pr.converged);
    }

    #[test]
    #[should_panic(expected = "damping must be in [0, 1)")]
    fn rejects_bad_damping() {
        let _ = pagerank(
            &DiGraph::with_nodes(1),
            &PageRankConfig {
                damping: 1.0,
                ..PageRankConfig::default()
            },
        );
    }

    #[test]
    fn zero_damping_is_uniform() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let pr = pagerank(
            &g,
            &PageRankConfig {
                damping: 0.0,
                ..PageRankConfig::default()
            },
        );
        for &s in &pr.scores {
            assert!((s - 1.0 / 3.0).abs() < 1e-12);
        }
        let _ = NodeId::new(0);
    }
}
