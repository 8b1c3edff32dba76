//! Depth-first search, reachability, and topological sorting.

#![expect(
    clippy::indexing_slicing,
    reason = "state and indegree arrays are node_count-sized and indexed by the graph's own NodeIds"
)]
use crate::{DiGraph, NodeId};

/// Visits all nodes reachable from `source` in depth-first preorder.
///
/// The traversal is iterative (explicit stack), so deep graphs cannot
/// overflow the call stack.
///
/// # Panics
///
/// Panics if `source` is not in the graph.
///
/// # Examples
///
/// ```
/// use lcrb_graph::{DiGraph, NodeId};
/// use lcrb_graph::traversal::dfs_preorder;
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let g = DiGraph::from_edges(3, [(0, 1), (1, 2)])?;
/// let order = dfs_preorder(&g, NodeId::new(0));
/// assert_eq!(order.len(), 3);
/// assert_eq!(order[0], NodeId::new(0));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn dfs_preorder(g: &DiGraph, source: NodeId) -> Vec<NodeId> {
    assert!(
        source.index() < g.node_count(),
        "dfs source {source} out of bounds"
    );
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut stack = vec![source];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        // Push in reverse so that neighbors are visited in adjacency
        // order, matching the recursive formulation.
        for &w in g.out_neighbors(v).iter().rev() {
            if !seen[w.index()] {
                stack.push(w);
            }
        }
    }
    order
}

/// Returns `true` if `target` is reachable from `source` along
/// directed edges (every node reaches itself).
///
/// # Panics
///
/// Panics if either endpoint is not in the graph.
#[must_use]
pub fn is_reachable(g: &DiGraph, source: NodeId, target: NodeId) -> bool {
    assert!(
        target.index() < g.node_count(),
        "reachability target {target} out of bounds"
    );
    if source == target {
        assert!(
            source.index() < g.node_count(),
            "reachability source {source} out of bounds"
        );
        return true;
    }
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![source];
    seen[source.index()] = true;
    while let Some(v) = stack.pop() {
        for &w in g.out_neighbors(v) {
            if w == target {
                return true;
            }
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    false
}

/// The error returned by [`topological_sort`] when the graph has a
/// directed cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A node known to lie on a cycle.
    pub node: NodeId,
}

impl core::fmt::Display for CycleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "graph contains a directed cycle through node {}",
            self.node
        )
    }
}

impl std::error::Error for CycleError {}

/// Orders the nodes so that every edge points forward in the order
/// (Kahn's algorithm).
///
/// # Errors
///
/// Returns [`CycleError`] if the graph contains a directed cycle.
pub fn topological_sort(g: &DiGraph) -> Result<Vec<NodeId>, CycleError> {
    let mut indegree: Vec<usize> = g.nodes().map(|v| g.in_degree(v)).collect();
    let mut queue: Vec<NodeId> = g.nodes().filter(|&v| indegree[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(g.node_count());
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in g.out_neighbors(v) {
            indegree[w.index()] -= 1;
            if indegree[w.index()] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == g.node_count() {
        Ok(order)
    } else {
        #[expect(
            clippy::expect_used,
            reason = "a cycle detected by Kahn's algorithm leaves at least one node with residual indegree"
        )]
        let node = g
            .nodes()
            .find(|&v| indegree[v.index()] > 0)
            .expect("a cyclic graph has a node with positive residual indegree");
        Err(CycleError { node })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preorder_visits_reachable_set() {
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (2, 3)]).unwrap();
        let order = dfs_preorder(&g, NodeId::new(0));
        assert_eq!(order.len(), 4); // node 4 unreachable
        assert_eq!(order[0], NodeId::new(0));
        assert!(!order.contains(&NodeId::new(4)));
    }

    #[test]
    fn preorder_handles_cycles() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let order = dfs_preorder(&g, NodeId::new(1));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn reachability_is_directional() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(is_reachable(&g, NodeId::new(0), NodeId::new(2)));
        assert!(!is_reachable(&g, NodeId::new(2), NodeId::new(0)));
        assert!(is_reachable(&g, NodeId::new(1), NodeId::new(1)));
    }

    #[test]
    fn topological_sort_respects_edges() {
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let order = topological_sort(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u.index()] < pos[v.index()], "edge {u}->{v} violated");
        }
    }

    #[test]
    fn topological_sort_detects_cycle() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 1), (2, 3)]).unwrap();
        let err = topological_sort(&g).unwrap_err();
        assert!(err.node == NodeId::new(1) || err.node == NodeId::new(2));
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let n = 200_000;
        let g = DiGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let order = dfs_preorder(&g, NodeId::new(0));
        assert_eq!(order.len(), n);
    }
}
