//! The `engine` group: the CSR+workspace kernel on the two hot loops
//! of the solvers — a Monte-Carlo batch of OPOAO runs (the σ̂
//! estimator's workload) and a sweep of DOAM analytic-oracle
//! evaluations (SCBG / coverage-mode workload). Each arm freezes one
//! `CsrGraph` and reuses one workspace/scratch pair.

#![allow(missing_docs, clippy::unwrap_used, reason = "bench code")]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_diffusion::{doam_analytic_csr, monte_carlo_csr, MonteCarloConfig, OpoaoModel, SeedSets};
use lcrb_graph::traversal::CsrBfsScratch;
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

fn fixture(scale: f64) -> (DiGraph, SeedSets) {
    let ds = hep_like(&DatasetConfig::new(scale, 1));
    let rumors: Vec<NodeId> = (0..8).map(NodeId::new).collect();
    let protectors: Vec<NodeId> = (100..108).map(NodeId::new).collect();
    let seeds = SeedSets::new(&ds.graph, rumors, protectors).unwrap();
    (ds.graph, seeds)
}

const MC_RUNS: usize = 100;

fn bench_opoao_mc_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/opoao_mc_100");
    group.sample_size(10);
    let (g, seeds) = fixture(1.0);
    let n = g.node_count();
    let model = OpoaoModel::default();

    // One snapshot, one long-lived workspace per thread.
    group.bench_with_input(BenchmarkId::new("csr_workspace", n), &(), |b, ()| {
        let csr = CsrGraph::from(&g);
        let cfg = MonteCarloConfig {
            runs: MC_RUNS,
            base_seed: 7,
            threads: 1,
        };
        b.iter(|| black_box(monte_carlo_csr(&model, &csr, &seeds, &cfg)));
    });
    group.finish();
}

fn bench_doam_oracle_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/doam_oracle_sweep");
    group.sample_size(10);
    let (g, seeds) = fixture(1.0);
    let n = g.node_count();
    // One oracle evaluation per candidate protector set, as the
    // coverage heuristics and SCBG certification do.
    let candidate_sets: Vec<SeedSets> = (200..232)
        .map(|p| SeedSets::new(&g, seeds.rumors().to_vec(), vec![NodeId::new(p)]).unwrap())
        .collect();

    group.bench_with_input(BenchmarkId::new("csr_scratch", n), &(), |b, ()| {
        let csr = CsrGraph::from(&g);
        let mut d_r = CsrBfsScratch::new();
        let mut d_p = CsrBfsScratch::new();
        b.iter(|| {
            let mut infected = 0usize;
            for s in &candidate_sets {
                infected += doam_analytic_csr(&csr, s, &mut d_r, &mut d_p).infected_count();
            }
            black_box(infected)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_opoao_mc_batch, bench_doam_oracle_sweep);
criterion_main!(benches);
