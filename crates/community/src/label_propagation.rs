//! Asynchronous label propagation (Raghavan et al.), provided as a
//! fast alternative community detector and as an independent
//! cross-check for the Louvain implementation.

#![expect(
    clippy::indexing_slicing,
    reason = "label/count buffers are node-indexed arrays sized to node_count; NodeIds are validated at graph construction"
)]
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use lcrb_graph::DiGraph;

use crate::Partition;

/// Tuning knobs for [`label_propagation`].
#[derive(Clone, Debug)]
pub struct LabelPropagationConfig {
    /// RNG seed for visit order and tie breaking.
    pub seed: u64,
    /// Maximum full sweeps before giving up on convergence.
    pub max_sweeps: usize,
}

impl Default for LabelPropagationConfig {
    fn default() -> Self {
        LabelPropagationConfig {
            seed: 0,
            max_sweeps: 100,
        }
    }
}

/// Runs asynchronous label propagation on the symmetrized
/// neighborhood of `g` (in- and out-neighbors both count, which is
/// the standard treatment of directed social graphs for LPA).
///
/// Every node starts with a unique label; nodes repeatedly adopt the
/// most frequent label among their neighbors (ties broken uniformly
/// at random) until a sweep makes no change or
/// [`LabelPropagationConfig::max_sweeps`] is hit.
///
/// # Examples
///
/// ```
/// use lcrb_community::{label_propagation, LabelPropagationConfig};
/// use lcrb_graph::DiGraph;
///
/// # fn main() -> Result<(), lcrb_graph::GraphError> {
/// let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])?;
/// let p = label_propagation(&g, &LabelPropagationConfig::default());
/// assert_eq!(p.community_count(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn label_propagation(g: &DiGraph, config: &LabelPropagationConfig) -> Partition {
    let n = g.node_count();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut counts: Vec<usize> = vec![0; n];
    let mut touched: Vec<usize> = Vec::new();

    for _ in 0..config.max_sweeps {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &v in &order {
            touched.clear();
            let node = lcrb_graph::NodeId::new(v);
            for &w in g.out_neighbors(node).iter().chain(g.in_neighbors(node)) {
                let l = labels[w.index()];
                if counts[l] == 0 {
                    touched.push(l);
                }
                counts[l] += 1;
            }
            if touched.is_empty() {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "`touched` receives every label counted this round, so max_by_key sees a non-empty slice"
            )]
            let best = *touched
                .iter()
                .max_by_key(|&&l| counts[l])
                .expect("touched is non-empty");
            // Collect ties and break uniformly.
            let ties: Vec<usize> = touched
                .iter()
                .copied()
                .filter(|&l| counts[l] == counts[best])
                .collect();
            let new = ties[rng.gen_range(0..ties.len())];
            if new != labels[v] {
                labels[v] = new;
                changed = true;
            }
            for &l in &touched {
                counts[l] = 0;
            }
        }
        if !changed {
            break;
        }
    }
    Partition::from_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::generators::planted_partition;
    use lcrb_graph::NodeId;

    #[test]
    fn empty_and_isolated() {
        let g = DiGraph::new();
        assert_eq!(
            label_propagation(&g, &LabelPropagationConfig::default()).node_count(),
            0
        );
        let g = DiGraph::with_nodes(4);
        let p = label_propagation(&g, &LabelPropagationConfig::default());
        assert_eq!(p.community_count(), 4);
    }

    #[test]
    fn connected_clique_converges_to_one_label() {
        let g = lcrb_graph::generators::complete_graph(6);
        let p = label_propagation(&g, &LabelPropagationConfig::default());
        assert_eq!(p.community_count(), 1);
    }

    #[test]
    fn separates_disconnected_cliques() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let (g, truth) = planted_partition(&[25, 25], 0.8, 0.0, false, &mut rng).unwrap();
        let p = label_propagation(&g, &LabelPropagationConfig::default());
        assert_eq!(p.community_count(), 2);
        let truth = Partition::from_labels(truth);
        let nmi = crate::metrics::normalized_mutual_information(&p, &truth);
        assert!((nmi - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        let (g, _) = planted_partition(&[20, 20], 0.5, 0.02, false, &mut rng).unwrap();
        let a = label_propagation(&g, &LabelPropagationConfig::default());
        let b = label_propagation(&g, &LabelPropagationConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_dense() {
        let g = DiGraph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let p = label_propagation(&g, &LabelPropagationConfig::default());
        let max = p.labels().iter().copied().max().unwrap();
        assert_eq!(max + 1, p.community_count());
        // Node 4 is isolated: its own community.
        let c4 = p.community_of(NodeId::new(4));
        assert_eq!(p.members(c4), vec![NodeId::new(4)]);
    }
}
