//! Benchmarks for the graph substrate: construction, traversal, and
//! generators — the primitives every LCRB stage is built from.

#![allow(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench code"
)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_graph::generators::{gnm_directed, planted_partition};
use lcrb_graph::traversal::{bfs_distances, relax_with_source};
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

fn graph_of(n: usize, avg_degree: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    gnm_directed(n, n * avg_degree, &mut rng).expect("feasible edge count")
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/construction");
    for &n in &[1_000usize, 10_000] {
        let edges: Vec<(usize, usize)> = {
            let g = graph_of(n, 10, 1);
            g.edges().map(|(u, v)| (u.index(), v.index())).collect()
        };
        group.bench_with_input(BenchmarkId::new("from_edges", n), &edges, |b, edges| {
            b.iter(|| DiGraph::from_edges(n, edges.iter().copied()).unwrap());
        });
        let g = graph_of(n, 10, 1);
        group.bench_with_input(BenchmarkId::new("csr_freeze", n), &g, |b, g| {
            b.iter(|| CsrGraph::from(g));
        });
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/bfs");
    for &n in &[1_000usize, 10_000, 36_692] {
        let g = graph_of(n, 10, 2);
        group.bench_with_input(BenchmarkId::new("single_source", n), &g, |b, g| {
            b.iter(|| bfs_distances(g, &[NodeId::new(0)]));
        });
        let sources: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        group.bench_with_input(BenchmarkId::new("multi_source_16", n), &g, |b, g| {
            b.iter(|| bfs_distances(g, &sources));
        });
        group.bench_with_input(BenchmarkId::new("incremental_relax", n), &g, |b, g| {
            let base = bfs_distances(g, &[NodeId::new(0)]);
            b.iter(|| {
                let mut d = base.clone();
                relax_with_source(g, &mut d, NodeId::new(n as u32 as usize / 2));
                d
            });
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/generators");
    group.sample_size(20);
    group.bench_function("gnm_36k_nodes_367k_edges", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            gnm_directed(36_692, 367_662, &mut rng).unwrap()
        });
    });
    group.bench_function("planted_partition_10k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(4);
            planted_partition(&[4_000, 3_000, 3_000], 0.003, 0.0002, false, &mut rng).unwrap()
        });
    });
    group.bench_function("enron_like_full_scale", |b| {
        b.iter(|| lcrb_datasets::enron_like(&lcrb_datasets::DatasetConfig::new(1.0, 5)));
    });
    group.finish();
}

criterion_group!(benches, bench_construction, bench_bfs, bench_generators);
criterion_main!(benches);
