//! Competitive Linear Threshold — an extension model.
//!
//! Modeled after the competitive LT (CLT) model of He et al. [16]
//! discussed in the paper's related work: each node `v` draws a
//! threshold `θ_v ~ U(0, 1]`; every in-edge carries weight
//! `1/d_in(v)`. A node activates when the accumulated weight of its
//! active in-neighbors reaches `θ_v`. Following the blocking-cascade
//! priority of [16] (and the paper's property 2), the node becomes
//! *protected* when the protector weight alone reaches the threshold,
//! and infected otherwise.

#![expect(clippy::indexing_slicing, reason = "buffers sized to the snapshot")]
use rand::Rng;

use lcrb_graph::{CsrGraph, NodeId};

use crate::{SeedSets, SimWorkspace, TwoCascadeModel};

/// The competitive LT model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompetitiveLtModel {
    /// Maximum number of diffusion hops.
    pub max_hops: u32,
}

impl Default for CompetitiveLtModel {
    fn default() -> Self {
        CompetitiveLtModel { max_hops: u32::MAX }
    }
}

impl CompetitiveLtModel {
    /// Creates a model with a hop budget.
    #[must_use]
    pub fn new(max_hops: u32) -> Self {
        CompetitiveLtModel { max_hops }
    }
}

/// Adds `u`'s influence to its inactive out-neighbors, registering
/// newly touched nodes in the candidate list (`ws.frontier`,
/// deduplicated via the `ws.flags` dirty bits).
fn push_influence(graph: &CsrGraph, ws: &mut SimWorkspace, u: NodeId, protected: bool) {
    for &w in graph.out_neighbors(u) {
        if !ws.is_inactive(w) {
            continue;
        }
        let share = 1.0 / graph.in_degree(w) as f64;
        if protected {
            ws.weight_p[w.index()] += share;
        } else {
            ws.weight_r[w.index()] += share;
        }
        if !ws.flags[w.index()] {
            ws.flags[w.index()] = true;
            ws.frontier.push(w);
        }
    }
}

impl TwoCascadeModel for CompetitiveLtModel {
    fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        rng: &mut R,
    ) {
        let n = graph.node_count();
        ws.begin(n, seeds);
        // θ_v ∈ (0, 1]: a zero threshold would activate nodes with no
        // active in-neighbors. Drawn in node order so the RNG stream
        // is independent of seed placement.
        ws.thresholds.clear();
        ws.thresholds.extend((0..n).map(|_| 1.0 - rng.gen::<f64>()));
        ws.weight_p.clear();
        ws.weight_p.resize(n, 0.0);
        ws.weight_r.clear();
        ws.weight_r.resize(n, 0.0);
        ws.flags.clear();
        ws.flags.resize(n, false);
        // `frontier` holds the candidates: inactive nodes whose
        // accumulated weight changed.
        ws.frontier.clear();

        for i in 0..seeds.protectors().len() {
            let p = seeds.protectors()[i];
            push_influence(graph, ws, p, true);
        }
        for i in 0..seeds.rumors().len() {
            let r = seeds.rumors()[i];
            push_influence(graph, ws, r, false);
        }

        let mut quiescent = false;
        for hop in 1..=self.max_hops {
            if ws.frontier.is_empty() {
                quiescent = true;
                break;
            }
            ws.new_protected.clear();
            ws.new_infected.clear();
            // `next_frontier` collects the still-waiting candidates.
            ws.next_frontier.clear();
            for i in 0..ws.frontier.len() {
                let v = ws.frontier[i];
                ws.flags[v.index()] = false;
                if !ws.is_inactive(v) {
                    continue;
                }
                let (wp, wr) = (ws.weight_p[v.index()], ws.weight_r[v.index()]);
                if wp >= ws.thresholds[v.index()] {
                    ws.new_protected.push(v);
                } else if wp + wr >= ws.thresholds[v.index()] {
                    ws.new_infected.push(v);
                } else {
                    ws.next_frontier.push(v);
                }
            }
            if ws.new_protected.is_empty() && ws.new_infected.is_empty() {
                ws.commit_hop(hop);
                quiescent = true;
                break;
            }
            ws.commit_hop(hop);
            ws.frontier.clear();
            for i in 0..ws.next_frontier.len() {
                let v = ws.next_frontier[i];
                ws.flags[v.index()] = true;
                ws.frontier.push(v);
            }
            for i in 0..ws.new_protected.len() {
                let v = ws.new_protected[i];
                push_influence(graph, ws, v, true);
            }
            for i in 0..ws.new_infected.len() {
                let v = ws.new_infected[i];
                push_influence(graph, ws, v, false);
            }
        }
        if ws.frontier.is_empty() {
            quiescent = true;
        }
        ws.set_quiescent(quiescent);
    }

    fn name(&self) -> &'static str {
        "competitive-lt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Status;
    use lcrb_graph::{generators, DiGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seeds(g: &DiGraph, r: &[usize], p: &[usize]) -> SeedSets {
        SeedSets::new(
            g,
            r.iter().map(|&i| NodeId::new(i)).collect(),
            p.iter().map(|&i| NodeId::new(i)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn full_in_weight_always_activates() {
        // On a path every node has in-degree 1: once the predecessor
        // is active, weight = 1 >= θ for any θ in (0, 1].
        let g = generators::path_graph(5);
        let (mut ws, mut rng) = (SimWorkspace::new(), SmallRng::seed_from_u64(0));
        let s = seeds(&g, &[0], &[]);
        CompetitiveLtModel::default().run_into(&CsrGraph::from(&g), &s, &mut ws, &mut rng);
        assert_eq!(ws.infected_count(), 5);
        assert_eq!(ws.activation_hop(NodeId::new(4)), Some(4));
        assert!(ws.is_quiescent());
    }

    #[test]
    fn protector_weight_alone_takes_priority() {
        // Node 2 has in-degree 2 (from rumor 0 and protector 1); with
        // both active its total weight is 1 so it activates, and it
        // is protected iff w_p = 0.5 >= θ.
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let (csr, s) = (CsrGraph::from(&g), seeds(&g, &[0], &[1]));
        let mut ws = SimWorkspace::new();
        let (mut protected, mut infected) = (0, 0);
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            CompetitiveLtModel::default().run_into(&csr, &s, &mut ws, &mut rng);
            match ws.status(NodeId::new(2)) {
                Status::Protected => protected += 1,
                Status::Infected => infected += 1,
                Status::Inactive => panic!("node 2 must activate"),
            }
        }
        // θ <= 0.5 about half the time.
        assert!((60..140).contains(&protected), "protected = {protected}");
        assert!(protected + infected == 200);
    }

    #[test]
    fn high_in_degree_nodes_resist_single_neighbor() {
        // Star leaves point at the hub: hub in-degree = 5, one active
        // leaf contributes weight 0.2, so the hub activates only when
        // θ <= 0.2 (about 20% of runs).
        let mut g = DiGraph::with_nodes(6);
        for leaf in 1..6 {
            g.add_edge(NodeId::new(leaf), NodeId::new(0)).unwrap();
        }
        let (csr, s) = (CsrGraph::from(&g), seeds(&g, &[1], &[]));
        let mut ws = SimWorkspace::new();
        let mut hits = 0;
        for seed in 0..500 {
            let mut rng = SmallRng::seed_from_u64(seed);
            CompetitiveLtModel::default().run_into(&csr, &s, &mut ws, &mut rng);
            if ws.status(NodeId::new(0)).is_infected() {
                hits += 1;
            }
        }
        assert!((50..160).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn no_seeds_is_quiescent() {
        let g = generators::complete_graph(4);
        let (mut ws, mut rng) = (SimWorkspace::new(), SmallRng::seed_from_u64(1));
        let s = seeds(&g, &[], &[]);
        CompetitiveLtModel::default().run_into(&CsrGraph::from(&g), &s, &mut ws, &mut rng);
        assert_eq!(ws.infected_count(), 0);
        assert!(ws.is_quiescent());
    }

    #[test]
    fn hop_budget_truncates() {
        let g = generators::path_graph(10);
        let (mut ws, mut rng) = (SimWorkspace::new(), SmallRng::seed_from_u64(2));
        let s = seeds(&g, &[0], &[]);
        CompetitiveLtModel::new(3).run_into(&CsrGraph::from(&g), &s, &mut ws, &mut rng);
        assert_eq!(ws.infected_count(), 4);
        assert!(!ws.is_quiescent());
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let mut r = SmallRng::seed_from_u64(7);
        let g = generators::gnm_directed(40, 160, &mut r).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0, 1], &[2]);
        let model = CompetitiveLtModel::default();
        let mut ws = SimWorkspace::new();
        for seed in 0..6u64 {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            model.run_into(&csr, &s, &mut ws, &mut a);
            let mut fresh = SimWorkspace::new();
            model.run_into(&CsrGraph::from(&g), &s, &mut fresh, &mut b);
            assert_eq!(ws.to_outcome(), fresh.to_outcome(), "seed {seed}");
        }
    }

    #[test]
    fn model_name() {
        assert_eq!(CompetitiveLtModel::default().name(), "competitive-lt");
    }
}
