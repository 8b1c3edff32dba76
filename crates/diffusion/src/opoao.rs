//! The Opportunistic One-Activate-One (OPOAO) model of §III-A.
//!
//! At every step, every active node picks exactly one of its
//! out-neighbors uniformly at random (probability `1/d_out(u)`) as
//! its activation target; targets that are still inactive activate at
//! the next step, with the protector cascade winning simultaneous
//! claims. Nodes re-select every step ("repeat activation", cf. the
//! paper's Fig. 1 where `x` re-selects `u` at step 2), so hitting an
//! already-active neighbor wastes the step and diffusion is slow —
//! the person-to-person contact regime the paper describes.

#![expect(clippy::indexing_slicing, reason = "buffers sized to the snapshot")]
use rand::Rng;

// xtask-allow: hotpath -- DiGraph is imported only for the documented one-off convenience wrapper
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

use crate::{DiffusionOutcome, OpoaoRealization, SeedSets, SimWorkspace, Status, TwoCascadeModel};

/// Number of hops the paper simulates in Figures 4–6.
pub const PAPER_OPOAO_HOPS: u32 = 31;

/// The OPOAO model configured with a hop budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpoaoModel {
    /// Maximum number of diffusion hops to simulate. The run also
    /// stops early when no active node has an inactive out-neighbor.
    pub max_hops: u32,
}

impl Default for OpoaoModel {
    /// Defaults to the paper's 31-hop budget.
    fn default() -> Self {
        OpoaoModel {
            max_hops: PAPER_OPOAO_HOPS,
        }
    }
}

impl OpoaoModel {
    /// Creates a model with the given hop budget.
    #[must_use]
    pub fn new(max_hops: u32) -> Self {
        OpoaoModel { max_hops }
    }

    /// Runs the model deterministically against a pre-sampled
    /// [`OpoaoRealization`] (common-random-numbers coupling; see
    /// DESIGN.md §2). Two calls with the same realization and seeds
    /// produce identical outcomes, and calls with different protector
    /// sets share all rumor-side randomness.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside `graph`.
    #[must_use]
    pub fn run_realized(
        &self,
        // xtask-allow: hotpath -- documented cold-path convenience wrapper; snapshots then delegates to run_realized_into
        graph: &DiGraph,
        seeds: &SeedSets,
        realization: &OpoaoRealization,
    ) -> DiffusionOutcome {
        let csr = CsrGraph::from(graph);
        let mut ws = SimWorkspace::new();
        self.run_realized_into(&csr, seeds, &mut ws, realization);
        ws.to_outcome()
    }

    /// Allocation-free variant of [`OpoaoModel::run_realized`]: runs
    /// against a frozen snapshot, writing the result into `ws`. This
    /// is the inner loop of the greedy objective, which evaluates
    /// thousands of protector sets against the same realizations.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside the snapshot.
    pub fn run_realized_into(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        realization: &OpoaoRealization,
    ) {
        run_csr_with_choices(graph, seeds, self.max_hops, ws, |node, hop, degree| {
            realization.choice(node, hop, degree)
        });
    }
}

impl TwoCascadeModel for OpoaoModel {
    fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        rng: &mut R,
    ) {
        run_csr_with_choices(graph, seeds, self.max_hops, ws, |_, _, degree| {
            rng.gen_range(0..degree)
        });
    }

    fn name(&self) -> &'static str {
        "opoao"
    }
}

/// The shared OPOAO engine: `choose(node, hop, out_degree)` returns
/// the index of the out-neighbor targeted by `node` at `hop`.
///
/// Workspace buffer roles: `frontier` is the live set (active nodes
/// that can still activate someone), `counters[u]` the number of
/// inactive out-neighbors of `u`, `claimed` the staging list of nodes
/// claimed this hop.
fn run_csr_with_choices<F>(
    graph: &CsrGraph,
    seeds: &SeedSets,
    max_hops: u32,
    ws: &mut SimWorkspace,
    mut choose: F,
) where
    F: FnMut(NodeId, u32, usize) -> usize,
{
    let n = graph.node_count();
    ws.begin(n, seeds);

    // counters[u] = number of inactive out-neighbors of u. A node
    // with zero can never cause another activation and retires from
    // the live set.
    ws.counters.clear();
    ws.counters.extend_from_slice(graph.out_degrees());
    for &s in seeds.rumors().iter().chain(seeds.protectors()) {
        for &u in graph.in_neighbors(s) {
            ws.counters[u.index()] -= 1;
        }
    }

    ws.frontier.clear();
    ws.frontier.extend(
        seeds
            .rumors()
            .iter()
            .chain(seeds.protectors())
            .copied()
            .filter(|&v| graph.out_degree(v) > 0),
    );

    let mut quiescent = false;
    for hop in 1..=max_hops {
        let counters = &ws.counters;
        ws.frontier.retain(|&u| counters[u.index()] > 0);
        if ws.frontier.is_empty() {
            quiescent = true;
            break;
        }
        ws.claimed.clear();
        for i in 0..ws.frontier.len() {
            let u = ws.frontier[i];
            let degree = graph.out_degree(u);
            let idx = choose(u, hop, degree);
            debug_assert!(idx < degree, "choice index out of range");
            let target = graph.out_neighbors(u)[idx];
            if !ws.is_inactive(target) {
                continue;
            }
            let cascade = if ws.status(u) == Status::Protected {
                2
            } else {
                1
            };
            let slot = &mut ws.claim[target.index()];
            if *slot == 0 {
                ws.claimed.push(target);
            }
            // Protector priority: P (2) overrides R (1).
            *slot = (*slot).max(cascade);
        }
        ws.new_protected.clear();
        ws.new_infected.clear();
        for i in 0..ws.claimed.len() {
            let w = ws.claimed[i];
            let slot = ws.claim[w.index()];
            ws.claim[w.index()] = 0;
            if slot == 2 {
                ws.new_protected.push(w);
            } else {
                ws.new_infected.push(w);
            }
            for &u in graph.in_neighbors(w) {
                ws.counters[u.index()] -= 1;
            }
            if graph.out_degree(w) > 0 {
                ws.frontier.push(w);
            }
        }
        ws.commit_hop(hop);
    }
    ws.set_quiescent(quiescent);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn single_out_neighbor_chain_is_deterministic() {
        // On a path, each node has exactly one out-neighbor, so the
        // "random" choice is forced and the rumor walks the path.
        let g = lcrb_graph::generators::path_graph(5);
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::new(10).run_into(&CsrGraph::from(&g), &seeds, &mut ws, &mut rng(0));
        assert_eq!(ws.infected_count(), 5);
        for i in 0..5 {
            assert_eq!(ws.activation_hop(NodeId::new(i)), Some(i as u32));
        }
        assert!(ws.is_quiescent());
    }

    #[test]
    fn protector_priority_on_simultaneous_claim() {
        // 0 (rumor) -> 2 <- 1 (protector): both claim node 2 at hop 1.
        let g = lcrb_graph::DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let (csr, mut ws) = (CsrGraph::from(&g), SimWorkspace::new());
        for seed in 0..20 {
            OpoaoModel::new(5).run_into(&csr, &seeds, &mut ws, &mut rng(seed));
            assert_eq!(ws.status(NodeId::new(2)), Status::Protected);
            assert_eq!(ws.activation_hop(NodeId::new(2)), Some(1));
        }
    }

    #[test]
    fn protector_blocks_downstream_chain() {
        // rumor 0 -> 1 -> 2 -> 3, protector at 2 already: 3 should be
        // protected... no wait, 2 is a *seed*, so only 1 can be
        // infected and 3 stays for P to claim.
        let g = lcrb_graph::generators::path_graph(4);
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(2)]).unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::new(10).run_into(&CsrGraph::from(&g), &seeds, &mut ws, &mut rng(1));
        assert_eq!(ws.status(NodeId::new(1)), Status::Infected);
        assert_eq!(ws.status(NodeId::new(3)), Status::Protected);
        assert!(ws.is_quiescent());
    }

    #[test]
    fn hop_budget_truncates() {
        let g = lcrb_graph::generators::path_graph(10);
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::new(3).run_into(&CsrGraph::from(&g), &seeds, &mut ws, &mut rng(2));
        assert_eq!(ws.infected_count(), 4); // seed + 3 hops
        assert!(!ws.is_quiescent());
    }

    #[test]
    fn no_seeds_is_immediately_quiescent() {
        let g = lcrb_graph::generators::path_graph(4);
        let seeds = SeedSets::new(&g, vec![], vec![]).unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::default().run_into(&CsrGraph::from(&g), &seeds, &mut ws, &mut rng(3));
        assert_eq!(ws.infected_count(), 0);
        assert_eq!(ws.protected_count(), 0);
        assert!(ws.is_quiescent());
        assert_eq!(ws.trace().len(), 1);
    }

    #[test]
    fn sink_seed_cannot_spread() {
        let g = lcrb_graph::DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(2)]).unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::default().run_into(&CsrGraph::from(&g), &seeds, &mut ws, &mut rng(4));
        assert_eq!(ws.infected_count(), 1);
        assert!(ws.is_quiescent());
    }

    #[test]
    fn statuses_are_progressive_and_consistent_with_hops() {
        let mut r = rng(5);
        let g = lcrb_graph::generators::gnm_directed(60, 240, &mut r).unwrap();
        let seeds = SeedSets::new(
            &g,
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(2)],
        )
        .unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::default().run_into(&CsrGraph::from(&g), &seeds, &mut ws, &mut r);
        for v in g.nodes() {
            match ws.status(v) {
                Status::Inactive => assert_eq!(ws.activation_hop(v), None),
                _ => assert!(ws.activation_hop(v).is_some()),
            }
        }
        // Trace totals are monotone.
        let t = ws.trace();
        for w in t.windows(2) {
            assert!(w[1].total_infected >= w[0].total_infected);
            assert!(w[1].total_protected >= w[0].total_protected);
        }
    }

    #[test]
    fn realized_runs_are_reproducible() {
        let mut r = rng(6);
        let g = lcrb_graph::generators::gnm_directed(40, 160, &mut r).unwrap();
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let real = OpoaoRealization::new(77);
        let model = OpoaoModel::default();
        let a = model.run_realized(&g, &seeds, &real);
        let b = model.run_realized(&g, &seeds, &real);
        assert_eq!(a.statuses(), b.statuses());
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn realized_into_reuses_workspace_and_matches_wrapper() {
        let mut r = rng(9);
        let g = lcrb_graph::generators::gnm_directed(40, 160, &mut r).unwrap();
        let csr = CsrGraph::from(&g);
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let model = OpoaoModel::default();
        let mut ws = SimWorkspace::new();
        for s in 0..8 {
            let real = OpoaoRealization::new(s);
            model.run_realized_into(&csr, &seeds, &mut ws, &real);
            let fresh = model.run_realized(&g, &seeds, &real);
            assert_eq!(ws.to_outcome(), fresh, "realization {s}");
        }
    }

    #[test]
    fn different_realizations_usually_differ() {
        let mut r = rng(7);
        let g = lcrb_graph::generators::gnm_directed(40, 200, &mut r).unwrap();
        let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)]).unwrap();
        let model = OpoaoModel::new(8);
        let outcomes: Vec<usize> = (0..10)
            .map(|s| {
                model
                    .run_realized(&g, &seeds, &OpoaoRealization::new(s))
                    .infected_count()
            })
            .collect();
        assert!(
            outcomes.iter().any(|&c| c != outcomes[0]),
            "all 10 realizations gave {outcomes:?}"
        );
    }

    #[test]
    fn model_name() {
        assert_eq!(OpoaoModel::default().name(), "opoao");
        assert_eq!(OpoaoModel::default().max_hops, 31);
    }
}
