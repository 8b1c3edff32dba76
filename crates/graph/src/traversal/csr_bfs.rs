//! Reusable BFS scratch space over [`CsrGraph`] snapshots.
//!
//! The candidate pools run backward searches from the bridge ends and
//! the coverage-mode heuristics re-relax distances once per added
//! protector; allocating fresh distance and queue buffers for each of
//! those traversals dominates their runtime on small graphs. A
//! [`CsrBfsScratch`] is allocated once and reused: distance validity is
//! tracked with an epoch stamp, so starting a new traversal is O(1)
//! instead of an O(n) clear.

#![expect(clippy::indexing_slicing, reason = "`begin` sizes stamp and dist")]
use std::collections::VecDeque;

use super::Direction;
use crate::{CsrGraph, NodeId};

/// Reusable state for repeated BFS runs over a [`CsrGraph`].
///
/// A traversal is started with [`CsrBfsScratch::run`] (or
/// [`CsrBfsScratch::begin`] + [`CsrBfsScratch::relax_forward`] for
/// incremental multi-source relaxation); results stay readable via
/// [`CsrBfsScratch::distance`] and [`CsrBfsScratch::order`] until the
/// next traversal starts.
///
/// # Examples
///
/// ```
/// use lcrb_graph::traversal::{CsrBfsScratch, Direction};
/// use lcrb_graph::{CsrGraph, DiGraph, NodeId};
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let csr = CsrGraph::from(&g);
/// let mut scratch = CsrBfsScratch::new();
/// scratch.run(&csr, &[NodeId::new(0)], Direction::Forward, u32::MAX);
/// assert_eq!(scratch.distance(NodeId::new(3)), Some(3));
/// // Reuse for a bounded backward pass: no reallocation, no O(n) clear.
/// scratch.run(&csr, &[NodeId::new(3)], Direction::Backward, 2);
/// assert_eq!(scratch.distance(NodeId::new(0)), None);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsrBfsScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    /// Visit order of the last `run`; doubles as the BFS queue.
    order: Vec<NodeId>,
    /// Separate queue for `relax_forward`, which can revisit nodes.
    relax_queue: VecDeque<NodeId>,
}

impl CsrBfsScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        CsrBfsScratch::default()
    }

    /// Starts a new traversal epoch sized for `n` nodes, invalidating
    /// all previous distances in O(1).
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.order.clear();
        self.relax_queue.clear();
    }

    /// Multi-source BFS from `sources`, traversing `direction`, never
    /// deeper than `max_depth`. Same semantics as
    /// [`bfs_distances_where`](super::bfs_distances_where) with an
    /// always-true expansion predicate.
    ///
    /// # Panics
    ///
    /// Panics if any source id is not in the graph.
    pub fn run(&mut self, g: &CsrGraph, sources: &[NodeId], direction: Direction, max_depth: u32) {
        let n = g.node_count();
        self.begin(n);
        for &s in sources {
            assert!(s.index() < n, "bfs source {s} out of bounds");
            if self.stamp[s.index()] != self.epoch {
                self.stamp[s.index()] = self.epoch;
                self.dist[s.index()] = 0;
                self.order.push(s);
            }
        }
        let mut head = 0;
        while head < self.order.len() {
            let v = self.order[head];
            head += 1;
            let d = self.dist[v.index()];
            if d >= max_depth {
                continue;
            }
            let neighbors = match direction {
                Direction::Forward => g.out_neighbors(v),
                Direction::Backward => g.in_neighbors(v),
            };
            for &w in neighbors {
                if self.stamp[w.index()] != self.epoch {
                    self.stamp[w.index()] = self.epoch;
                    self.dist[w.index()] = d + 1;
                    self.order.push(w);
                }
            }
        }
    }

    /// Relaxes the current distance map with an additional source,
    /// following out-edges: afterwards `distance(v)` is
    /// `min(old distance(v), hops from source)`. Only improved nodes
    /// are re-explored, mirroring
    /// [`relax_with_source`](super::relax_with_source).
    ///
    /// Call [`CsrBfsScratch::begin`] (or [`CsrBfsScratch::run`]) first
    /// to open the epoch; [`CsrBfsScratch::order`] is *not* maintained
    /// by relaxation.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not in the graph.
    pub fn relax_forward(&mut self, g: &CsrGraph, source: NodeId) {
        let n = g.node_count();
        assert!(source.index() < n, "bfs source {source} out of bounds");
        assert!(
            self.stamp.len() >= n && self.epoch > 0,
            "call begin() or run() before relax_forward()"
        );
        if self.stamp[source.index()] == self.epoch && self.dist[source.index()] == 0 {
            return;
        }
        self.stamp[source.index()] = self.epoch;
        self.dist[source.index()] = 0;
        self.relax_queue.clear();
        self.relax_queue.push_back(source);
        while let Some(v) = self.relax_queue.pop_front() {
            let d = self.dist[v.index()];
            for &w in g.out_neighbors(v) {
                let i = w.index();
                let improves = self.stamp[i] != self.epoch || d + 1 < self.dist[i];
                if improves {
                    self.stamp[i] = self.epoch;
                    self.dist[i] = d + 1;
                    self.relax_queue.push_back(w);
                }
            }
        }
    }

    /// Hop distance of `v` from the sources of the current epoch, or
    /// `None` if unreached.
    #[inline]
    #[must_use]
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch && self.epoch > 0 {
            Some(self.dist[i])
        } else {
            None
        }
    }

    /// Whether `v` was reached in the current epoch.
    #[inline]
    #[must_use]
    pub fn is_reached(&self, v: NodeId) -> bool {
        self.distance(v).is_some()
    }

    /// Nodes reached by the last [`CsrBfsScratch::run`] in level
    /// (dequeue) order, sources first.
    #[inline]
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_distances, bfs_distances_where, relax_with_source};
    use crate::{generators, DiGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_pair(seed: u64) -> (DiGraph, CsrGraph) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnm_directed(60, 240, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        (g, csr)
    }

    #[test]
    fn scratch_matches_fresh_bfs_across_reuses() {
        let (g, csr) = random_pair(3);
        let mut scratch = CsrBfsScratch::new();
        for src in 0..20 {
            let sources = [NodeId::new(src), NodeId::new((src * 7 + 1) % 60)];
            scratch.run(&csr, &sources, Direction::Forward, u32::MAX);
            let fresh = bfs_distances(&g, &sources);
            for v in g.nodes() {
                assert_eq!(scratch.distance(v), fresh[v.index()], "src {src} node {v}");
            }
        }
    }

    #[test]
    fn backward_and_depth_bounded_runs_match_reference() {
        let (g, csr) = random_pair(11);
        let mut scratch = CsrBfsScratch::new();
        for (src, depth) in [(0usize, 1u32), (5, 2), (9, 0), (13, 3)] {
            scratch.run(&csr, &[NodeId::new(src)], Direction::Backward, depth);
            let fresh =
                bfs_distances_where(&g, &[NodeId::new(src)], Direction::Backward, depth, |_| {
                    true
                });
            for v in g.nodes() {
                assert_eq!(scratch.distance(v), fresh[v.index()]);
            }
        }
    }

    #[test]
    fn order_is_level_order_and_complete() {
        let (_, csr) = random_pair(5);
        let mut scratch = CsrBfsScratch::new();
        scratch.run(&csr, &[NodeId::new(0)], Direction::Forward, u32::MAX);
        let depths: Vec<u32> = scratch
            .order()
            .iter()
            .map(|&v| scratch.distance(v).unwrap())
            .collect();
        let mut sorted = depths.clone();
        sorted.sort_unstable();
        assert_eq!(depths, sorted);
        let reached = csr.nodes().filter(|&v| scratch.is_reached(v)).count();
        assert_eq!(reached, scratch.order().len());
    }

    #[test]
    fn relax_matches_incremental_reference() {
        let (g, csr) = random_pair(21);
        let mut scratch = CsrBfsScratch::new();
        scratch.run(&csr, &[NodeId::new(2)], Direction::Forward, u32::MAX);
        let mut reference = bfs_distances(&g, &[NodeId::new(2)]);
        for extra in [17usize, 33, 48] {
            scratch.relax_forward(&csr, NodeId::new(extra));
            relax_with_source(&g, &mut reference, NodeId::new(extra));
            for v in g.nodes() {
                assert_eq!(scratch.distance(v), reference[v.index()], "after {extra}");
            }
        }
    }

    #[test]
    fn relax_from_empty_epoch_behaves_like_single_source_bfs() {
        let (g, csr) = random_pair(8);
        let mut scratch = CsrBfsScratch::new();
        scratch.begin(csr.node_count());
        scratch.relax_forward(&csr, NodeId::new(4));
        let fresh = bfs_distances(&g, &[NodeId::new(4)]);
        for v in g.nodes() {
            assert_eq!(scratch.distance(v), fresh[v.index()]);
        }
    }

    #[test]
    fn new_epoch_invalidates_previous_distances() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from(&g);
        let mut scratch = CsrBfsScratch::new();
        scratch.run(&csr, &[NodeId::new(0)], Direction::Forward, u32::MAX);
        assert!(scratch.is_reached(NodeId::new(2)));
        scratch.run(&csr, &[NodeId::new(2)], Direction::Forward, u32::MAX);
        assert_eq!(scratch.distance(NodeId::new(0)), None);
        assert_eq!(scratch.distance(NodeId::new(2)), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn run_panics_on_bad_source() {
        let g = DiGraph::with_nodes(2);
        let csr = CsrGraph::from(&g);
        let mut scratch = CsrBfsScratch::new();
        scratch.run(&csr, &[NodeId::new(7)], Direction::Forward, u32::MAX);
    }
}
