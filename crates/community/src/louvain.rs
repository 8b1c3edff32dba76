//! The Louvain method (Blondel et al. 2008), reference [25] of the
//! paper — the algorithm the authors used to obtain the community
//! structures for their experiments.
//!
//! This is the directed variant: local moves optimize the directed
//! (Leicht–Newman) modularity, and levels aggregate communities into
//! weighted super-nodes.

#![expect(
    clippy::indexing_slicing,
    reason = "all buffers are node- or community-indexed arrays sized together at the start of each level"
)]
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use lcrb_graph::DiGraph;

use crate::{modularity, Partition};

/// Tuning knobs for [`louvain`].
#[derive(Clone, Debug)]
pub struct LouvainConfig {
    /// RNG seed controlling node visit order; runs are deterministic
    /// for a fixed seed.
    pub seed: u64,
    /// Maximum local-move sweeps per level before forcing
    /// aggregation.
    pub max_sweeps_per_level: usize,
    /// Maximum number of aggregation levels.
    pub max_levels: usize,
    /// Minimum modularity gain for a move to be considered an
    /// improvement.
    pub min_gain: f64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        LouvainConfig {
            seed: 0,
            max_sweeps_per_level: 64,
            max_levels: 32,
            min_gain: 1e-9,
        }
    }
}

/// The outcome of a [`louvain`] run.
#[derive(Clone, Debug)]
pub struct LouvainResult {
    /// Final community assignment of the original nodes.
    pub partition: Partition,
    /// Directed modularity of `partition` on the input graph.
    pub modularity: f64,
    /// Number of aggregation levels performed (1 for a single local
    /// phase without aggregation).
    pub levels: usize,
}

/// Weighted directed multigraph used internally between levels.
struct WeightedLevel {
    out: Vec<Vec<(u32, f64)>>,
    ins: Vec<Vec<(u32, f64)>>,
    /// Self-loop weight per node (intra-community weight folded in by
    /// aggregation).
    self_loop: Vec<f64>,
    /// Weighted out-degree including self-loops.
    w_out: Vec<f64>,
    /// Weighted in-degree including self-loops.
    w_in: Vec<f64>,
    /// Total edge weight.
    total: f64,
}

impl WeightedLevel {
    fn from_graph(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut level = WeightedLevel {
            out: vec![Vec::new(); n],
            ins: vec![Vec::new(); n],
            self_loop: vec![0.0; n],
            w_out: vec![0.0; n],
            w_in: vec![0.0; n],
            total: g.edge_count() as f64,
        };
        for v in g.nodes() {
            level.out[v.index()] = g.out_neighbors(v).iter().map(|&w| (w.raw(), 1.0)).collect();
            level.ins[v.index()] = g.in_neighbors(v).iter().map(|&w| (w.raw(), 1.0)).collect();
            level.w_out[v.index()] = g.out_degree(v) as f64;
            level.w_in[v.index()] = g.in_degree(v) as f64;
        }
        level
    }

    fn node_count(&self) -> usize {
        self.out.len()
    }

    /// One full pass of local moves. Returns (moves made, community
    /// assignment).
    fn local_phase(&self, rng: &mut SmallRng, max_sweeps: usize, min_gain: f64) -> Vec<usize> {
        let n = self.node_count();
        let m = self.total.max(f64::MIN_POSITIVE);
        let mut comm: Vec<usize> = (0..n).collect();
        let mut tot_out: Vec<f64> = self.w_out.clone();
        let mut tot_in: Vec<f64> = self.w_in.clone();

        let mut order: Vec<usize> = (0..n).collect();
        // Scratch: community -> accumulated edge weight between v and
        // that community (both directions).
        let mut weight_to: Vec<f64> = vec![0.0; n];
        let mut touched: Vec<usize> = Vec::new();

        for _sweep in 0..max_sweeps {
            order.shuffle(rng);
            let mut moves = 0usize;
            for &v in &order {
                let cv = comm[v];
                // Gather weights between v and neighboring communities.
                touched.clear();
                for &(w, wt) in &self.out[v] {
                    let c = comm[w as usize];
                    if weight_to[c] == 0.0 {
                        touched.push(c);
                    }
                    weight_to[c] += wt;
                }
                for &(w, wt) in &self.ins[v] {
                    let c = comm[w as usize];
                    if weight_to[c] == 0.0 {
                        touched.push(c);
                    }
                    weight_to[c] += wt;
                }
                // Remove v from its community.
                tot_out[cv] -= self.w_out[v];
                tot_in[cv] -= self.w_in[v];

                // Gain of joining community c (relative to staying
                // isolated): d_vc/m − (w_out[v]·tot_in[c] + w_in[v]·tot_out[c])/m².
                let gain = |_c: usize, d_vc: f64, tot_in_c: f64, tot_out_c: f64| {
                    d_vc / m - (self.w_out[v] * tot_in_c + self.w_in[v] * tot_out_c) / (m * m)
                };
                let mut best_c = cv;
                let mut best_gain = gain(cv, weight_to[cv], tot_in[cv], tot_out[cv]);
                for &c in &touched {
                    if c == cv {
                        continue;
                    }
                    let g = gain(c, weight_to[c], tot_in[c], tot_out[c]);
                    if g > best_gain + min_gain {
                        best_gain = g;
                        best_c = c;
                    }
                }
                // Insert v into the chosen community.
                tot_out[best_c] += self.w_out[v];
                tot_in[best_c] += self.w_in[v];
                if best_c != cv {
                    comm[v] = best_c;
                    moves += 1;
                }
                for &c in &touched {
                    weight_to[c] = 0.0;
                }
            }
            if moves == 0 {
                break;
            }
        }
        comm
    }

    /// Aggregates communities into super-nodes.
    fn aggregate(&self, labels: &[usize], count: usize) -> WeightedLevel {
        let mut out_maps: Vec<std::collections::HashMap<u32, f64>> =
            vec![std::collections::HashMap::new(); count];
        let mut self_loop = vec![0.0; count];
        for v in 0..self.node_count() {
            let cv = labels[v];
            self_loop[cv] += self.self_loop[v];
            for &(w, wt) in &self.out[v] {
                let cw = labels[w as usize];
                if cw == cv {
                    self_loop[cv] += wt;
                } else {
                    *out_maps[cv].entry(cw as u32).or_insert(0.0) += wt;
                }
            }
        }
        let mut out = vec![Vec::new(); count];
        let mut ins: Vec<Vec<(u32, f64)>> = vec![Vec::new(); count];
        let mut w_out = vec![0.0; count];
        let mut w_in = vec![0.0; count];
        let mut total = 0.0;
        for (c, map) in out_maps.into_iter().enumerate() {
            for (t, wt) in map {
                out[c].push((t, wt));
                ins[t as usize].push((c as u32, wt));
                w_out[c] += wt;
                w_in[t as usize] += wt;
                total += wt;
            }
        }
        for c in 0..count {
            w_out[c] += self_loop[c];
            w_in[c] += self_loop[c];
            total += self_loop[c];
        }
        WeightedLevel {
            out,
            ins,
            self_loop,
            w_out,
            w_in,
            total,
        }
    }
}

/// Runs the Louvain method on `g` and returns the detected community
/// structure.
///
/// Deterministic for a fixed [`LouvainConfig::seed`]. Never returns a
/// partition with lower directed modularity than the singleton
/// partition (Louvain only accepts improving moves).
///
/// # Examples
///
/// ```
/// use lcrb_community::{louvain, LouvainConfig};
/// use lcrb_graph::generators::planted_partition;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let (g, _) = planted_partition(&[40, 40], 0.3, 0.01, false, &mut rng).unwrap();
/// let result = louvain(&g, &LouvainConfig::default());
/// assert!(result.modularity > 0.3);
/// assert!(result.partition.community_count() >= 2);
/// ```
#[must_use]
pub fn louvain(g: &DiGraph, config: &LouvainConfig) -> LouvainResult {
    let n = g.node_count();
    if n == 0 {
        return LouvainResult {
            partition: Partition::from_labels(Vec::new()),
            modularity: 0.0,
            levels: 0,
        };
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut level = WeightedLevel::from_graph(g);
    // node -> current community of its super-node, threaded through
    // levels.
    let mut assignment: Vec<usize> = (0..n).collect();
    let mut levels = 0usize;

    for _ in 0..config.max_levels {
        levels += 1;
        let raw = level.local_phase(&mut rng, config.max_sweeps_per_level, config.min_gain);
        // Renumber densely.
        let local = Partition::from_labels(raw);
        let count = local.community_count();
        for a in assignment.iter_mut() {
            *a = local.labels()[*a];
        }
        if count == level.node_count() {
            break; // no merge happened; converged
        }
        level = level.aggregate(local.labels(), count);
        if count <= 1 {
            break;
        }
    }
    let partition = Partition::from_labels(assignment);
    let q = modularity(g, &partition);
    LouvainResult {
        partition,
        modularity: q,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::generators::{complete_graph, planted_partition};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.partition.node_count(), 0);
        assert_eq!(r.modularity, 0.0);
    }

    #[test]
    fn isolated_nodes_stay_singletons() {
        let g = DiGraph::with_nodes(5);
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.partition.community_count(), 5);
    }

    #[test]
    fn two_triangles_are_separated() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .unwrap();
        let r = louvain(&g, &LouvainConfig::default());
        let p = &r.partition;
        assert_eq!(p.community_count(), 2);
        assert_eq!(
            p.community_of(lcrb_graph::NodeId::new(0)),
            p.community_of(lcrb_graph::NodeId::new(2))
        );
        assert_eq!(
            p.community_of(lcrb_graph::NodeId::new(3)),
            p.community_of(lcrb_graph::NodeId::new(5))
        );
        assert_ne!(
            p.community_of(lcrb_graph::NodeId::new(0)),
            p.community_of(lcrb_graph::NodeId::new(3))
        );
    }

    #[test]
    fn recovers_planted_partition() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (g, truth) = planted_partition(&[50, 50, 50], 0.3, 0.005, false, &mut rng).unwrap();
        let r = louvain(&g, &LouvainConfig::default());
        // Expect near-perfect recovery at this separation.
        let nmi = crate::metrics::normalized_mutual_information(
            &r.partition,
            &Partition::from_labels(truth),
        );
        assert!(nmi > 0.9, "nmi = {nmi}");
        assert!(r.modularity > 0.5, "q = {}", r.modularity);
    }

    #[test]
    fn complete_graph_collapses_to_one_community() {
        let g = complete_graph(8);
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.partition.community_count(), 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (g, _) = planted_partition(&[30, 30], 0.3, 0.02, false, &mut rng).unwrap();
        let a = louvain(&g, &LouvainConfig::default());
        let b = louvain(&g, &LouvainConfig::default());
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn modularity_not_worse_than_singletons() {
        let mut rng = SmallRng::seed_from_u64(17);
        let (g, _) = planted_partition(&[20, 25, 15], 0.25, 0.03, false, &mut rng).unwrap();
        let r = louvain(&g, &LouvainConfig::default());
        let singleton_q = modularity(&g, &Partition::singletons(g.node_count()));
        assert!(r.modularity >= singleton_q);
    }
}
