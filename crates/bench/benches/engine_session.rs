//! The `engine_session` group: what a [`Solver`] session buys over
//! one-shot solves. The probe is the budget-changed sketch-greedy
//! query on the hep-scale instance — the workload ISSUE 6's engine
//! exists for: a session answers `budget = 4`, then the caller asks
//! for `budget = 8` at the same `(ε, δ)`.
//!
//! - `cold` pays everything per query: session construction, bridge
//!   ends, the RR-sketch sampling pass, the initial CELF gain sweep,
//!   and eight picks.
//! - `warm_budget_changed` re-solves on a session that was warmed
//!   with the budget-4 query: the bridge set and sketch index are
//!   cache hits and the stored CELF trajectory serves the larger
//!   budget (the first ask extends it by four picks, every later ask
//!   replays the cached prefix — the steady-state session cost).
//!
//! The `engine_concurrent` group measures ISSUE 7's shared-session
//! claim: a batch of sixteen sketch-greedy queries against one warm
//! session, answered by [`Solver::solve_many_threaded`] at one worker
//! vs eight. Every request carries a distinct candidate pool so its
//! CELF trajectory is a fresh build (the real greedy work), while the
//! bridge set and RR-sketch index are shared warm hits — the
//! steady-state shape of a session serving concurrent callers.
//!
//! `engine_concurrent/cold_sketch_race_t{1,2}` measure the cold
//! same-key race: two sketch-greedy requests (same sketch key,
//! different candidate pools, one in-solve thread each) on a fresh
//! session through [`Solver::solve_many_threaded`] at one worker vs
//! two. At two workers one request owns the sketch-index build and
//! the other, waiting on the same key, generates chunks of it.
//!
//! The one-time extension cost is reported separately after the
//! groups, read from the engine's own per-stage timings so the bench
//! needs no clock of its own. The measured ratios (and the session
//! cache-counter deltas) are recorded in EXPERIMENTS.md.

#![allow(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "bench code"
)]
use std::sync::atomic::{AtomicU32, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb::{
    CandidatePool, Estimator, RumorBlockingInstance, SketchParams, SolveReport, SolveRequest,
    Solver, SolverConfig,
};
use lcrb_datasets::{hep_like, DatasetConfig};

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

const WARM_BUDGET: usize = 4;
const QUERY_BUDGET: usize = 8;
const CONCURRENT_BATCH: usize = 16;

fn sketch_request(budget: usize) -> SolveRequest {
    SolveRequest {
        realizations: 16,
        candidates: CandidatePool::BackwardRadius(2),
        estimator: Estimator::Sketch(SketchParams::default()),
        ..SolveRequest::greedy_budget(budget)
    }
}

fn session(instance: &RumorBlockingInstance) -> Solver {
    Solver::with_config(instance.clone(), SolverConfig { master_seed: 9 })
}

fn bench_engine_session(c: &mut Criterion) {
    let inst = fixture();
    let mut group = c.benchmark_group("engine_session");
    group.sample_size(10);

    // Cold: a fresh session per query pays bridge + sketch + sweep.
    group.bench_function("cold", |b| {
        b.iter(|| {
            let solver = session(&inst);
            black_box(solver.solve(&sketch_request(QUERY_BUDGET)).unwrap())
        });
    });

    // Warm: the session answered budget-4 up front; every iteration
    // asks the budget-changed query and is served from the cache.
    group.bench_function("warm_budget_changed", |b| {
        let solver = session(&inst);
        solver.solve(&sketch_request(WARM_BUDGET)).unwrap();
        b.iter(|| {
            let before = solver.cache_stats();
            let report = solver.solve(&sketch_request(QUERY_BUDGET)).unwrap();
            let delta = solver.cache_stats().delta_since(&before);
            assert!(delta.hits() > 0, "warm re-solve must hit the cache");
            black_box(report)
        });
    });

    group.finish();

    // One-shot breakdown from the engine's own stage clocks: the true
    // 4→8 trajectory extension (first warm ask) vs the cold solve and
    // the pure replay, with the session cache-counter deltas
    // alongside (per-report attribution is gone under concurrency;
    // the snapshot diff is the supported accounting).
    let charged = |solver: &Solver, request: &SolveRequest| {
        let before = solver.cache_stats();
        let report = solver.solve(request).unwrap();
        (report, solver.cache_stats().delta_since(&before))
    };
    let describe = |label: &str, report: &SolveReport, delta: &lcrb::CacheStats| {
        eprintln!(
            "engine_session/{label}: {:.3} ms total (bridge {:.3} ms, estimator {:.3} ms, select {:.3} ms), {} cache hits / {} misses",
            report.total_nanos() as f64 / 1e6,
            report.stage_nanos("bridge").unwrap_or(0) as f64 / 1e6,
            report.stage_nanos("estimator").unwrap_or(0) as f64 / 1e6,
            report.stage_nanos("select").unwrap_or(0) as f64 / 1e6,
            delta.hits(),
            delta.misses(),
        );
    };
    let cold = session(&inst);
    let (cold_report, cold_delta) = charged(&cold, &sketch_request(QUERY_BUDGET));
    describe("cold_once", &cold_report, &cold_delta);

    let warm = session(&inst);
    warm.solve(&sketch_request(WARM_BUDGET)).unwrap();
    let (extend, extend_delta) = charged(&warm, &sketch_request(QUERY_BUDGET));
    describe("warm_extend_once", &extend, &extend_delta);
    let (replay, replay_delta) = charged(&warm, &sketch_request(QUERY_BUDGET));
    describe("warm_replay_once", &replay, &replay_delta);
    assert_eq!(
        cold_report.protectors, extend.protectors,
        "warm resume must match the cold selection bitwise"
    );
    assert_eq!(extend.protectors, replay.protectors);
}

fn bench_engine_concurrent(c: &mut Criterion) {
    // Thread scaling is only measurable when the host actually has
    // cores to scale onto. On a single-CPU host (the CI container)
    // the t1-vs-t8 ratio measures scheduler overhead, not speedup, so
    // print an explicit marker for EXPERIMENTS.md instead of letting
    // the numbers pass silently as a scaling result.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        eprintln!(
            "engine_concurrent: single-CPU host ({cores} core visible), scaling not \
             measurable — warm_batch16_t{{1,8}} bounds batching overhead only, not speedup"
        );
    } else {
        eprintln!("engine_concurrent: {cores} cores visible; t1-vs-t8 ratio is a scaling result");
    }
    let inst = fixture();
    let solver = session(&inst);
    // Warm the shared artifacts once: bridge ends + RR-sketch index.
    // (The sketch key is radius-independent, so every batched request
    // below hits this index.)
    solver.solve(&sketch_request(WARM_BUDGET)).unwrap();

    // Each request gets a never-before-seen backward radius. Radii
    // this large all collapse to the same full candidate pool (the
    // graph's diameter is far smaller), so the per-request work is
    // identical — but the CELF key differs, so every request builds
    // its trajectory from scratch instead of replaying a parked one.
    let next_radius = AtomicU32::new(1_000);
    let fresh_batch = || -> Vec<SolveRequest> {
        (0..CONCURRENT_BATCH)
            .map(|_| SolveRequest {
                candidates: CandidatePool::BackwardRadius(
                    next_radius.fetch_add(1, Ordering::Relaxed),
                ),
                ..sketch_request(QUERY_BUDGET)
            })
            .collect()
    };

    let mut group = c.benchmark_group("engine_concurrent");
    group.sample_size(10);
    for threads in [1_usize, 8] {
        group.bench_function(format!("warm_batch16_t{threads}"), |b| {
            b.iter(|| {
                // Batch construction is sixteen struct literals — noise
                // next to sixteen greedy solves.
                let batch = fresh_batch();
                let reports = solver.solve_many_threaded(black_box(&batch), threads);
                for report in &reports {
                    assert!(report.is_ok(), "batched sketch greedy cannot fail");
                }
                black_box(reports)
            });
        });
    }
    // Cold same-key race: a fresh session per iteration, so the
    // sketch index is built inside the timed region every time.
    let race = [1, 2].map(|radius| SolveRequest {
        candidates: CandidatePool::BackwardRadius(radius),
        threads: 1,
        ..sketch_request(QUERY_BUDGET)
    });
    for threads in [1_usize, 2] {
        group.bench_function(format!("cold_sketch_race_t{threads}"), |b| {
            b.iter(|| {
                let solver = session(&inst);
                let reports = solver.solve_many_threaded(black_box(&race), threads);
                assert_eq!(solver.cache_stats().sketch.misses, 1, "one shared build");
                for report in &reports {
                    assert!(report.is_ok(), "cold sketch greedy cannot fail");
                }
                black_box(reports)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_session, bench_engine_concurrent);
criterion_main!(benches);
