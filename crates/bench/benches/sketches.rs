//! The `sketches` group: RR-sketch estimator vs Monte-Carlo
//! estimator, head to head on the LCRB-P greedy's two cost centers —
//! the end-to-end budgeted greedy (CELF + initial gain sweep) and a
//! single σ̂ query for a fixed protector set. The sketch arm pays a
//! one-time sampling pass (the adaptive `(ε, δ)` schedule) and then
//! answers every σ̂ query by counting covered sketches in an inverted
//! index; the MC arm replays the protector cascade on every stored
//! realization per query. The observed ratios are recorded in
//! EXPERIMENTS.md.

#![allow(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "bench code"
)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb::{
    find_bridge_ends, BridgeEndRule, CandidatePool, CoverageScratch, Estimator,
    ProtectionObjective, RumorBlockingInstance, SketchObjective, SketchParams, SolveRequest,
    Solver, SolverConfig,
};
use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_diffusion::{SimWorkspace, PAPER_OPOAO_HOPS};
use lcrb_graph::NodeId;

/// A ~1.2k-node hep-like instance with two rumor originators — the
/// same shape as the `protection_budget` example and the fig4 cells.
fn fixture() -> RumorBlockingInstance {
    let ds = hep_like(&DatasetConfig::new(0.08, 5));
    let mut rng = SmallRng::seed_from_u64(21);
    RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        2,
        &mut rng,
    )
    .expect("pinned community is non-empty")
}

const BUDGET: usize = 4;

/// One cold budgeted greedy solve: a fresh session per call, so the
/// sketch sample and CELF state are rebuilt every iteration.
fn cold_greedy(inst: &RumorBlockingInstance, estimator: Estimator) -> Vec<NodeId> {
    let req = SolveRequest {
        realizations: 16,
        candidates: CandidatePool::BackwardRadius(2),
        estimator,
        ..SolveRequest::greedy_budget(BUDGET)
    };
    Solver::with_config(inst.clone(), SolverConfig { master_seed: 9 })
        .solve(&req)
        .unwrap()
        .protectors
}

/// End-to-end budgeted greedy: initial gain sweep over the candidate
/// pool plus the CELF refinement, under each estimator.
fn bench_greedy_end_to_end(c: &mut Criterion) {
    let inst = fixture();
    let n = inst.graph().node_count();
    let mut group = c.benchmark_group("sketches/greedy_budget4");
    group.sample_size(2);

    group.bench_with_input(BenchmarkId::new("mc", n), &(), |b, ()| {
        b.iter(|| black_box(cold_greedy(&inst, Estimator::MonteCarlo)));
    });

    group.bench_with_input(BenchmarkId::new("sketch", n), &(), |b, ()| {
        let sketch = Estimator::Sketch(SketchParams::default());
        b.iter(|| black_box(cold_greedy(&inst, sketch)));
    });
    group.finish();
}

/// A single σ̂(P) query for a fixed 4-protector set, estimator
/// structures prebuilt — the unit of work CELF performs thousands of
/// times per greedy run.
fn bench_sigma_query(c: &mut Criterion) {
    let inst = fixture();
    let n = inst.graph().node_count();
    let bridges = find_bridge_ends(&inst, BridgeEndRule::default());
    let protectors: Vec<NodeId> = bridges.nodes.iter().copied().take(BUDGET).collect();
    let mut group = c.benchmark_group("sketches/sigma_query");
    group.sample_size(30);

    group.bench_with_input(BenchmarkId::new("mc_16_realizations", n), &(), |b, ()| {
        let objective =
            ProtectionObjective::new(&inst, bridges.nodes.clone(), 16, 9, PAPER_OPOAO_HOPS)
                .expect("realization count is positive");
        let mut ws = SimWorkspace::new();
        b.iter(|| black_box(objective.sigma_with(&protectors, &mut ws).unwrap()));
    });

    group.bench_with_input(BenchmarkId::new("sketch_default", n), &(), |b, ()| {
        let objective = SketchObjective::build(
            &inst,
            bridges.nodes.clone(),
            SketchParams::default(),
            9,
            PAPER_OPOAO_HOPS,
        )
        .expect("default sketch params are valid");
        let mut scratch = CoverageScratch::new();
        b.iter(|| black_box(objective.sigma_with(&protectors, &mut scratch).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_greedy_end_to_end, bench_sigma_query);
criterion_main!(benches);
