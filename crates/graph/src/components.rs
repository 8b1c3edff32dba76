//! Connected components: weak (undirected sense) and strong (Tarjan).

#![expect(
    clippy::indexing_slicing,
    reason = "Tarjan/Kosaraju index and lowlink arrays are node_count-sized and indexed by the graph's own NodeIds"
)]
use crate::{DiGraph, NodeId, UnionFind};

/// Labels every node with the index of its weakly connected component
/// (edges treated as undirected). Labels are dense in
/// `0..component count`, assigned in order of first appearance.
///
/// # Examples
///
/// ```
/// use lcrb_graph::DiGraph;
/// use lcrb_graph::components::weakly_connected_labels;
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let g = DiGraph::from_edges(4, [(0, 1), (2, 3)])?;
/// let labels = weakly_connected_labels(&g);
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[1], labels[2]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn weakly_connected_labels(g: &DiGraph) -> Vec<usize> {
    let mut uf = UnionFind::new(g.node_count());
    for (u, v) in g.edges() {
        uf.union(u.index(), v.index());
    }
    uf.labels()
}

/// Groups nodes by weakly connected component.
///
/// Components appear in order of their smallest node id; nodes within
/// a component are sorted by id.
#[must_use]
pub fn weakly_connected_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    let labels = weakly_connected_labels(g);
    let count = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut comps: Vec<Vec<NodeId>> = vec![Vec::new(); count];
    for v in g.nodes() {
        comps[labels[v.index()]].push(v);
    }
    comps
}

/// Returns the nodes of the largest weakly connected component
/// (ties broken by smallest label). Empty for an empty graph.
#[must_use]
pub fn largest_weakly_connected_component(g: &DiGraph) -> Vec<NodeId> {
    weakly_connected_components(g)
        .into_iter()
        .max_by_key(|c| c.len())
        .unwrap_or_default()
}

/// Computes strongly connected components with Tarjan's algorithm
/// (iterative, so recursion depth is not a concern).
///
/// Components are emitted in reverse topological order of the
/// condensation, which is the natural Tarjan output order.
#[must_use]
pub fn strongly_connected_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    const UNVISITED: u32 = u32::MAX;
    let n = g.node_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut components = Vec::new();

    // Explicit DFS frames: (node, next out-neighbor offset).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();

    for root in g.nodes() {
        if index[root.index()] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root.index()] = next_index;
        lowlink[root.index()] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root.index()] = true;

        while let Some(&mut (v, ref mut offset)) = frames.last_mut() {
            let nbrs = g.out_neighbors(v);
            if *offset < nbrs.len() {
                let w = nbrs[*offset];
                *offset += 1;
                if index[w.index()] == UNVISITED {
                    index[w.index()] = next_index;
                    lowlink[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                    frames.push((w, 0));
                } else if on_stack[w.index()] {
                    lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
                }
                if lowlink[v.index()] == index[v.index()] {
                    let mut component = Vec::new();
                    loop {
                        #[expect(
                            clippy::expect_used,
                            reason = "Tarjan invariant: v is on the stack when its SCC is popped"
                        )]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w.index()] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(component);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_components_of_disconnected_graph() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let comps = weakly_connected_components(&g);
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
    }

    #[test]
    fn weak_components_ignore_direction() {
        let g = DiGraph::from_edges(3, [(1, 0), (1, 2)]).unwrap();
        let labels = weakly_connected_labels(&g);
        assert_eq!(labels[0], labels[2]);
    }

    #[test]
    fn largest_component_selected() {
        let g = DiGraph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 5)]).unwrap();
        let big = largest_weakly_connected_component(&g);
        assert_eq!(big.len(), 4);
        assert!(big.contains(&NodeId::new(2)));
    }

    #[test]
    fn empty_graph_components() {
        let g = DiGraph::new();
        assert!(weakly_connected_components(&g).is_empty());
        assert!(largest_weakly_connected_component(&g).is_empty());
        assert!(strongly_connected_components(&g).is_empty());
    }

    #[test]
    fn scc_of_cycle_is_single_component() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 4);
    }

    #[test]
    fn scc_of_dag_is_all_singletons() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
        // Tarjan emits reverse topological order: sinks first.
        assert_eq!(sccs[0], vec![NodeId::new(3)]);
    }

    #[test]
    fn scc_mixed_structure() {
        // Two 2-cycles joined by a one-way edge plus an isolated node.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]).unwrap();
        let mut sccs = strongly_connected_components(&g);
        for c in &mut sccs {
            c.sort_unstable();
        }
        assert_eq!(sccs.len(), 3);
        assert!(sccs.contains(&vec![NodeId::new(0), NodeId::new(1)]));
        assert!(sccs.contains(&vec![NodeId::new(2), NodeId::new(3)]));
        assert!(sccs.contains(&vec![NodeId::new(4)]));
    }

    #[test]
    fn scc_components_partition_nodes() {
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (6, 7),
            ],
        )
        .unwrap();
        let sccs = strongly_connected_components(&g);
        let total: usize = sccs.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
        let mut all: Vec<usize> = sccs.iter().flatten().map(|v| v.index()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }
}
