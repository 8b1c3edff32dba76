//! The DOAM analytic oracle and `DiGraph` convenience layer.
//!
//! Under DOAM the outcome has a closed form: with `d_R(v)`/`d_P(v)`
//! the plain multi-source BFS distances from the rumor/protector
//! seeds, node `v` activates at hop `min(d_P(v), d_R(v))` and is
//! protected iff `d_P(v) <= d_R(v)`. (Induction along a shortest
//! cascade path: a blocked intermediate node would imply a strictly
//! shorter opposing distance to `v`, contradicting the path being
//! shortest.) [`doam_analytic`] computes this directly with two BFS
//! passes and is the fast protection oracle used by the Table I
//! coverage experiments; its agreement with the step simulator
//! [`DoamModel::run_deterministic`] is enforced by unit and property
//! tests. [`doam_analytic_csr`] / [`doam_safe_targets_csr`] are the
//! snapshot variants with reusable BFS scratch, for callers that
//! sweep many seed sets on one graph.
//!
//! This module is deliberately *outside* the declared hot-module
//! list (see `cargo xtask lint`): every function here allocates its
//! owned outcome, and the `DiGraph`-taking entry points snapshot per
//! call. The zero-allocation kernel lives in [`crate::DoamModel`]'s
//! `run_deterministic_into`.

#![expect(
    clippy::indexing_slicing,
    reason = "bfs_distances returns node_count-sized maps and SeedSets validates every seed against the same graph"
)]
use lcrb_graph::traversal::{bfs_distances, CsrBfsScratch, Direction};
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

use crate::{DiffusionOutcome, DoamModel, HopRecord, SeedSets, SimWorkspace, Status};

impl DoamModel {
    /// Runs the deterministic step simulation, snapshotting the graph
    /// and allocating a fresh workspace. Batch callers should use
    /// [`DoamModel::run_deterministic_into`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside `graph`.
    #[must_use]
    pub fn run_deterministic(&self, graph: &DiGraph, seeds: &SeedSets) -> DiffusionOutcome {
        let csr = CsrGraph::from(graph);
        let mut ws = SimWorkspace::new();
        self.run_deterministic_into(&csr, seeds, &mut ws);
        ws.to_outcome()
    }
}

/// Shared trace/status assembly for the analytic oracle, given the
/// two distance maps as lookups.
fn assemble_analytic(
    n: usize,
    d_r: impl Fn(usize) -> Option<u32>,
    d_p: impl Fn(usize) -> Option<u32>,
) -> DiffusionOutcome {
    let mut status = vec![Status::Inactive; n];
    let mut activation = vec![None; n];
    let mut max_hop = 0u32;
    for (i, (s_slot, a_slot)) in status.iter_mut().zip(activation.iter_mut()).enumerate() {
        let (s, h) = match (d_p(i), d_r(i)) {
            (Some(p), Some(r)) if p <= r => (Status::Protected, p),
            (Some(p), None) => (Status::Protected, p),
            (_, Some(r)) => (Status::Infected, r),
            (None, None) => continue,
        };
        *s_slot = s;
        *a_slot = Some(h);
        max_hop = max_hop.max(h);
    }
    // Rebuild the hop trace from activation times.
    let mut new_infected = vec![0usize; max_hop as usize + 1];
    let mut new_protected = vec![0usize; max_hop as usize + 1];
    for i in 0..n {
        if let Some(h) = activation[i] {
            match status[i] {
                Status::Infected => new_infected[h as usize] += 1,
                Status::Protected => new_protected[h as usize] += 1,
                Status::Inactive => unreachable!("activated node has a status"),
            }
        }
    }
    let mut trace = Vec::with_capacity(max_hop as usize + 2);
    let (mut ti, mut tp) = (0usize, 0usize);
    for hop in 0..=max_hop {
        ti += new_infected[hop as usize];
        tp += new_protected[hop as usize];
        trace.push(HopRecord {
            hop,
            new_infected: new_infected[hop as usize],
            new_protected: new_protected[hop as usize],
            total_infected: ti,
            total_protected: tp,
        });
    }
    // The step simulator records one final hop with no activity
    // before detecting quiescence — only when some seed existed.
    if n > 0 && (ti > 0 || tp > 0) {
        trace.push(HopRecord {
            hop: max_hop + 1,
            new_infected: 0,
            new_protected: 0,
            total_infected: ti,
            total_protected: tp,
        });
    }
    DiffusionOutcome::new(status, activation, trace, true)
}

/// Computes the DOAM outcome analytically from two multi-source BFS
/// passes (see the module docs for the correctness argument).
/// Produces exactly the same statuses, activation hops, and trace as
/// [`DoamModel::run_deterministic`] with an unlimited hop budget.
///
/// # Panics
///
/// Panics if `seeds` refers to nodes outside `graph`.
#[must_use]
pub fn doam_analytic(graph: &DiGraph, seeds: &SeedSets) -> DiffusionOutcome {
    let d_r = bfs_distances(graph, seeds.rumors());
    let d_p = bfs_distances(graph, seeds.protectors());
    assemble_analytic(graph.node_count(), |i| d_r[i], |i| d_p[i])
}

/// Snapshot variant of [`doam_analytic`]: runs the two BFS passes in
/// caller-owned scratches, so sweeping many seed sets on one graph
/// performs no per-call distance-map allocation.
///
/// # Panics
///
/// Panics if `seeds` refers to nodes outside the snapshot.
#[must_use]
pub fn doam_analytic_csr(
    graph: &CsrGraph,
    seeds: &SeedSets,
    d_r: &mut CsrBfsScratch,
    d_p: &mut CsrBfsScratch,
) -> DiffusionOutcome {
    d_r.run(graph, seeds.rumors(), Direction::Forward, u32::MAX);
    d_p.run(graph, seeds.protectors(), Direction::Forward, u32::MAX);
    assemble_analytic(
        graph.node_count(),
        |i| d_r.distance(NodeId::new(i)),
        |i| d_p.distance(NodeId::new(i)),
    )
}

/// Reports whether each node of `targets` would be protected (not
/// infected) under DOAM with the given seeds — the coverage check
/// used by the LCRB-D experiments. A target is "safe" when it is
/// protected or never reached.
///
/// # Panics
///
/// Panics if `seeds` or `targets` refer to nodes outside `graph`.
#[must_use]
pub fn doam_safe_targets(graph: &DiGraph, seeds: &SeedSets, targets: &[NodeId]) -> Vec<bool> {
    let d_r = bfs_distances(graph, seeds.rumors());
    let d_p = bfs_distances(graph, seeds.protectors());
    targets
        .iter()
        .map(|&v| match (d_p[v.index()], d_r[v.index()]) {
            (_, None) => true,
            (Some(p), Some(r)) => p <= r,
            (None, Some(_)) => false,
        })
        .collect()
}

/// Snapshot variant of [`doam_safe_targets`] with caller-owned BFS
/// scratches.
///
/// # Panics
///
/// Panics if `seeds` or `targets` refer to nodes outside the
/// snapshot.
#[must_use]
pub fn doam_safe_targets_csr(
    graph: &CsrGraph,
    seeds: &SeedSets,
    targets: &[NodeId],
    d_r: &mut CsrBfsScratch,
    d_p: &mut CsrBfsScratch,
) -> Vec<bool> {
    d_r.run(graph, seeds.rumors(), Direction::Forward, u32::MAX);
    d_p.run(graph, seeds.protectors(), Direction::Forward, u32::MAX);
    targets
        .iter()
        .map(|&v| match (d_p.distance(v), d_r.distance(v)) {
            (_, None) => true,
            (Some(p), Some(r)) => p <= r,
            (None, Some(_)) => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrb_graph::generators;
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
    fn analytic_matches_simulation_on_fixtures() {
        let cases: Vec<(DiGraph, SeedSets)> = vec![
            {
                let g = generators::path_graph(6);
                let s = seeds(&g, &[0], &[3]);
                (g, s)
            },
            {
                let g = generators::star_graph(8);
                let s = seeds(&g, &[1], &[2]);
                (g, s)
            },
            {
                let g = generators::cycle_graph(9);
                let s = seeds(&g, &[0], &[4]);
                (g, s)
            },
            {
                let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
                let s = seeds(&g, &[0], &[1]);
                (g, s)
            },
        ];
        for (g, s) in cases {
            let sim = DoamModel::default().run_deterministic(&g, &s);
            let ana = doam_analytic(&g, &s);
            assert_eq!(sim.statuses(), ana.statuses());
            for v in g.nodes() {
                assert_eq!(sim.activation_hop(v), ana.activation_hop(v), "node {v}");
            }
            assert_eq!(sim.trace(), ana.trace());
        }
    }

    #[test]
    fn analytic_matches_simulation_on_random_graphs() {
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = generators::gnm_directed(50, 170, &mut rng).unwrap();
            let s = seeds(&g, &[0, 1], &[2, 3]);
            let sim = DoamModel::default().run_deterministic(&g, &s);
            let ana = doam_analytic(&g, &s);
            assert_eq!(sim.statuses(), ana.statuses(), "seed {seed}");
            assert_eq!(sim.trace(), ana.trace(), "seed {seed}");
        }
    }

    #[test]
    fn csr_oracle_matches_digraph_oracle() {
        let mut rng = SmallRng::seed_from_u64(12);
        let g = generators::gnm_directed(50, 170, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let mut d_r = CsrBfsScratch::new();
        let mut d_p = CsrBfsScratch::new();
        // Reuse the scratches across several seed sets.
        for (r, p) in [(0usize, 1usize), (5, 9), (13, 2)] {
            let s = seeds(&g, &[r], &[p]);
            let reference = doam_analytic(&g, &s);
            let fast = doam_analytic_csr(&csr, &s, &mut d_r, &mut d_p);
            assert_eq!(reference, fast, "seeds ({r}, {p})");
            let targets: Vec<NodeId> = g.nodes().collect();
            assert_eq!(
                doam_safe_targets(&g, &s, &targets),
                doam_safe_targets_csr(&csr, &s, &targets, &mut d_r, &mut d_p),
            );
        }
    }

    #[test]
    fn safe_targets_match_outcome() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnm_directed(40, 160, &mut rng).unwrap();
        let s = seeds(&g, &[0], &[1, 2]);
        let outcome = DoamModel::default().run_deterministic(&g, &s);
        let targets: Vec<NodeId> = g.nodes().collect();
        let safe = doam_safe_targets(&g, &s, &targets);
        for (v, &is_safe) in targets.iter().zip(&safe) {
            assert_eq!(is_safe, !outcome.status(*v).is_infected(), "node {v}");
        }
    }

    #[test]
    fn empty_seeds_trace() {
        let g = generators::path_graph(3);
        let s = seeds(&g, &[], &[]);
        let sim = DoamModel::default().run_deterministic(&g, &s);
        let ana = doam_analytic(&g, &s);
        assert_eq!(sim.infected_count(), 0);
        assert_eq!(sim.trace(), ana.trace());
    }
}
