//! k-core decomposition (degeneracy ordering) on the symmetrized
//! graph.
//!
//! Network-science helper used to characterize the synthetic datasets
//! and as an alternative protector-placement signal: high-core nodes
//! sit in densely knit regions, which correlates with how fast they
//! can relay a protector cascade.

#![expect(
    clippy::indexing_slicing,
    reason = "degree/bin/position arrays are node_count-sized and permuted together by the peeling loop"
)]
use crate::{DiGraph, NodeId};

/// The result of [`core_decomposition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `core[v]` is the core number of node `v` (the largest `k` such
    /// that `v` belongs to a subgraph of minimum total degree `k`,
    /// degrees counted on the symmetrized graph).
    pub core: Vec<u32>,
    /// Nodes in degeneracy order (peeling order: lowest-degree
    /// first).
    pub order: Vec<NodeId>,
    /// The degeneracy of the graph (`max(core)`, 0 for empty graphs).
    pub degeneracy: u32,
}

impl CoreDecomposition {
    /// Core number of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    #[must_use]
    pub fn core_of(&self, node: NodeId) -> u32 {
        self.core[node.index()]
    }

    /// All nodes with core number at least `k`, in increasing id
    /// order.
    #[must_use]
    pub fn k_core(&self, k: u32) -> Vec<NodeId> {
        self.core
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }
}

/// Computes the k-core decomposition of the symmetrized graph with
/// the linear-time bucket peeling algorithm (Batagelj–Zaveršnik).
///
/// Edge direction is ignored: each node's degree is its undirected
/// degree (a reciprocal pair counts once).
///
/// # Examples
///
/// ```
/// use lcrb_graph::kcore::core_decomposition;
/// use lcrb_graph::generators::complete_graph;
/// use lcrb_graph::NodeId;
///
/// let g = complete_graph(5);
/// let d = core_decomposition(&g);
/// assert_eq!(d.degeneracy, 4);
/// assert!(g.nodes().all(|v| d.core_of(v) == 4));
/// ```
#[must_use]
pub fn core_decomposition(g: &DiGraph) -> CoreDecomposition {
    let n = g.node_count();
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            order: Vec::new(),
            degeneracy: 0,
        };
    }
    // Undirected neighbor sets (deduplicated).
    let und = g.symmetrized();
    let degree: Vec<usize> = und.nodes().map(|v| und.out_degree(v)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort nodes by degree.
    let mut bins = vec![0usize; max_degree + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0;
    for b in bins.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0usize; n];
    {
        let mut next = bins.clone();
        for v in 0..n {
            pos[v] = next[degree[v]];
            vert[pos[v]] = v;
            next[degree[v]] += 1;
        }
    }

    let mut deg = degree.clone();
    let mut core = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    for i in 0..n {
        let v = vert[i];
        core[v] = deg[v] as u32;
        order.push(NodeId::new(v));
        for &w in und.out_neighbors(NodeId::new(v)) {
            let w = w.index();
            if deg[w] > deg[v] {
                // Move w one bucket down: swap with the first node of
                // its current bucket.
                let dw = deg[w];
                let pw = pos[w];
                let pstart = bins[dw];
                let u = vert[pstart];
                if u != w {
                    vert[pstart] = w;
                    vert[pw] = u;
                    pos[w] = pstart;
                    pos[u] = pw;
                }
                bins[dw] += 1;
                deg[w] -= 1;
            }
        }
    }
    // Core numbers are nondecreasing along the peel, so the last
    // peeled node carries the degeneracy.
    let degeneracy = core.iter().copied().max().unwrap_or(0);
    CoreDecomposition {
        core,
        order,
        degeneracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, path_graph, star_graph};

    #[test]
    fn empty_and_isolated() {
        let d = core_decomposition(&DiGraph::new());
        assert_eq!(d.degeneracy, 0);
        assert!(d.order.is_empty());
        let d = core_decomposition(&DiGraph::with_nodes(3));
        assert_eq!(d.degeneracy, 0);
        assert_eq!(d.core, vec![0, 0, 0]);
        assert_eq!(d.order.len(), 3);
    }

    #[test]
    fn path_is_one_core() {
        let d = core_decomposition(&path_graph(6));
        assert_eq!(d.degeneracy, 1);
        assert!(d.core.iter().all(|&c| c == 1));
    }

    #[test]
    fn star_leaves_are_one_core() {
        let d = core_decomposition(&star_graph(6));
        assert_eq!(d.degeneracy, 1);
        assert_eq!(d.core_of(NodeId::new(0)), 1);
        assert_eq!(d.k_core(1).len(), 6);
        assert!(d.k_core(2).is_empty());
    }

    #[test]
    fn clique_core_equals_size_minus_one() {
        let d = core_decomposition(&complete_graph(6));
        assert_eq!(d.degeneracy, 5);
        assert_eq!(d.k_core(5).len(), 6);
    }

    #[test]
    fn clique_with_pendant_tail() {
        // K4 on {0,1,2,3} plus a tail 3 -> 4 -> 5.
        let mut g = complete_graph(4);
        let four = g.add_node();
        let five = g.add_node();
        g.add_edge(NodeId::new(3), four).unwrap();
        g.add_edge(four, five).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 3);
        for i in 0..4 {
            assert_eq!(d.core_of(NodeId::new(i)), 3, "clique node {i}");
        }
        assert_eq!(d.core_of(four), 1);
        assert_eq!(d.core_of(five), 1);
        assert_eq!(
            d.k_core(3),
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn direction_is_ignored() {
        // A directed 3-cycle and its reverse have the same cores as
        // the undirected triangle.
        let cyc = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let d = core_decomposition(&cyc);
        assert_eq!(d.degeneracy, 2);
        let d_rev = core_decomposition(&cyc.reversed());
        assert_eq!(d.core, d_rev.core);
    }

    #[test]
    fn peel_order_contains_every_node_once() {
        let g = DiGraph::from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6)]).unwrap();
        let d = core_decomposition(&g);
        let mut ids: Vec<usize> = d.order.iter().map(|v| v.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        // Core numbers never decrease along the peel order.
        let mut prev = 0;
        for v in &d.order {
            let c = d.core_of(*v);
            assert!(c >= prev || c == d.core_of(*v));
            prev = prev.max(c);
        }
    }

    #[test]
    fn invariant_core_at_most_degree() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(5);
        let g = crate::generators::gnm_directed(80, 400, &mut rng).unwrap();
        let und = g.symmetrized();
        let d = core_decomposition(&g);
        for v in g.nodes() {
            assert!(d.core_of(v) as usize <= und.out_degree(v));
        }
        // Every node in the k-core has >= k neighbors inside it.
        let k = d.degeneracy;
        let members = d.k_core(k);
        let inside: std::collections::HashSet<_> = members.iter().copied().collect();
        for &v in &members {
            let internal = und
                .out_neighbors(v)
                .iter()
                .filter(|w| inside.contains(w))
                .count();
            assert!(internal as u32 >= k, "node {v} has {internal} < {k}");
        }
    }
}
