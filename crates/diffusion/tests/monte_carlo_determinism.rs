//! Regression: `monte_carlo_csr` must be bitwise deterministic in the
//! thread count. Per-run seeds are derived from the base seed and the
//! run index (never from the worker), and the per-hop accumulators sum
//! integer-valued counts, so any partition of the runs over workers
//! must reduce to the identical [`AveragedOutcome`] — including the
//! standard deviation. The run counts below are deliberately not
//! divisible by the thread counts so the partitions are uneven.

#![allow(clippy::expect_used, reason = "test code")]
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lcrb_diffusion::{
    monte_carlo_csr, DoamModel, MonteCarloConfig, OpoaoModel, SeedSets, TwoCascadeModel,
};
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

/// A 60-node random digraph with 4 rumor and 3 protector seeds.
fn fixture(seed: u64) -> (CsrGraph, SeedSets) {
    let n = 60;
    let mut g = DiGraph::with_nodes(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..4 * n {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
        }
    }
    let rumors: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let protectors: Vec<NodeId> = (10..13).map(NodeId::new).collect();
    let seeds = SeedSets::new(&g, rumors, protectors).expect("seeds are valid and disjoint");
    (CsrGraph::from(&g), seeds)
}

fn run<M: TwoCascadeModel + Sync>(
    model: &M,
    csr: &CsrGraph,
    seeds: &SeedSets,
    runs: usize,
    threads: usize,
) -> lcrb_diffusion::AveragedOutcome {
    monte_carlo_csr(
        model,
        csr,
        seeds,
        &MonteCarloConfig {
            runs,
            base_seed: 99,
            threads,
        },
    )
}

#[test]
fn opoao_monte_carlo_is_identical_across_thread_counts() {
    let (csr, seeds) = fixture(7);
    let model = OpoaoModel::default();
    // 25 runs: not divisible by 2 or 7, so workers get uneven shares.
    let reference = run(&model, &csr, &seeds, 25, 1);
    assert!(reference.std_final_infected >= 0.0);
    for threads in [2, 7] {
        let other = run(&model, &csr, &seeds, 25, threads);
        assert_eq!(
            reference, other,
            "OPOAO Monte-Carlo diverged at {threads} threads"
        );
    }
}

#[test]
fn doam_monte_carlo_is_identical_across_thread_counts() {
    let (csr, seeds) = fixture(11);
    let model = DoamModel::default();
    let reference = run(&model, &csr, &seeds, 25, 1);
    for threads in [2, 7] {
        let other = run(&model, &csr, &seeds, 25, threads);
        assert_eq!(
            reference, other,
            "DOAM Monte-Carlo diverged at {threads} threads"
        );
    }
}

#[test]
fn thread_count_zero_auto_detects_and_still_matches_serial() {
    let (csr, seeds) = fixture(13);
    let model = OpoaoModel::default();
    let serial = run(&model, &csr, &seeds, 25, 1);
    let auto = run(&model, &csr, &seeds, 25, 0);
    assert_eq!(serial, auto);
}
