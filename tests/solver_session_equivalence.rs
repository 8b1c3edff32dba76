//! Property harness for the `Solver` session cache: a warm re-solve
//! must be *bitwise* identical to a cold solve on a fresh session —
//! and a concurrent batch must be bitwise identical to serial solves.
//!
//! The engine's contract (DESIGN.md §10–§11) is that the epoch-keyed
//! artifact cache is a pure memoization layer — the bridge set, the
//! RR-sketch index, and the resumable CELF trajectory may only change
//! *when* work happens, never *what* is selected. These properties
//! pin that across randomized instances:
//!
//! 1. asking the same request twice returns the identical report
//!    payload (pure replay);
//! 2. a budget-changed request on a warm session (sketch index and
//!    trajectory reused, trajectory extended) matches the cold solve
//!    of that budget on a fresh session;
//! 3. both hold at every inner-sweep thread count in {1, 2, 7} — the
//!    parallel gain sweep partitions work but never reorders results;
//! 4. `solve_many` over a *shuffled* batch, fanned across {1, 2, 7}
//!    workers, matches serial sorted-order solving on a fresh
//!    session — worker identity, arrival order, and cache
//!    interleaving never leak into the answers;
//! 5. a batch of *identical* CELF requests racing on one session
//!    builds the trajectory exactly once (single-builder/waiters),
//!    and every waiter gets the builder's bits;
//! 6. cold same-key sketch solves racing on one session share one
//!    sketch-index build — the owner, its `threads − 1` workers and
//!    the waiters all generate chunks of it — and the answers are the
//!    serial ones at every `SolveRequest::threads` in {0, 1, 3}.
//!
//! "Bitwise" means protector identity **and** the `f64` σ̂ history
//! compared via `to_bits` — no tolerance. Fingerprints deliberately
//! exclude evaluation counts and cache counters: those describe how
//! much work a particular interleaving did, not what was selected.

use lcrb_repro::graph::generators;
use lcrb_repro::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

const THREADS: [usize; 3] = [1, 2, 7];

/// A small two-community instance; every case draws its own topology
/// and rumor placement from `seed`.
fn instance(seed: u64) -> RumorBlockingInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (g, labels) = generators::planted_partition(&[30, 30], 0.25, 0.05, false, &mut rng)
        .expect("community sizes are positive");
    let partition = Partition::from_labels(labels);
    RumorBlockingInstance::with_random_seeds(g, partition, 0, 2, &mut rng)
        .expect("pinned community is non-empty")
}

fn request(budget: usize, threads: usize, estimator: Estimator) -> SolveRequest {
    SolveRequest {
        realizations: 8,
        candidates: CandidatePool::BackwardRadius(2),
        estimator,
        threads,
        ..SolveRequest::greedy_budget(budget)
    }
}

fn session(seed: u64) -> Solver {
    Solver::with_config(instance(seed), SolverConfig { master_seed: 5 })
}

/// Everything a greedy solve decides, with σ̂ values as raw bits.
fn fingerprint(report: &SolveReport) -> (Vec<NodeId>, Vec<u64>) {
    let SolveDetail::Greedy(sel) = &report.detail else {
        panic!("greedy requests carry greedy details");
    };
    (
        report.protectors.clone(),
        sel.sigma_history.iter().map(|s| s.to_bits()).collect(),
    )
}

/// Runs `work` and returns its output with the session cache-counter
/// delta it charged.
fn charged<R>(solver: &Solver, work: impl FnOnce() -> R) -> (R, CacheStats) {
    let before = solver.cache_stats();
    let out = work();
    (out, solver.cache_stats().delta_since(&before))
}

proptest! {
    #[test]
    fn same_request_twice_replays_bitwise(
        seed in 0u64..512,
        budget in 1usize..5,
        ti in 0usize..3,
    ) {
        let threads = THREADS[ti];
        let est = Estimator::Sketch(SketchParams::default());
        let solver = session(seed);
        let first = solver.solve(&request(budget, threads, est)).expect("valid request");
        let (second, delta) =
            charged(&solver, || solver.solve(&request(budget, threads, est)));
        let second = second.expect("valid request");
        prop_assert_eq!(fingerprint(&first), fingerprint(&second));
        // The replay touched no new artifacts: every lookup hit.
        prop_assert_eq!(delta.misses(), 0);
        prop_assert!(delta.hits() > 0);
    }

    #[test]
    fn budget_changed_warm_resolve_matches_cold(
        seed in 0u64..512,
        small in 1usize..4,
        extra in 1usize..4,
        ti in 0usize..3,
    ) {
        let threads = THREADS[ti];
        let est = Estimator::Sketch(SketchParams::default());
        let large = small + extra;

        let cold = session(seed);
        let cold_report = cold.solve(&request(large, threads, est)).expect("valid request");

        let warm = session(seed);
        warm.solve(&request(small, threads, est)).expect("valid request");
        let (warm_report, delta) =
            charged(&warm, || warm.solve(&request(large, threads, est)));
        let warm_report = warm_report.expect("valid request");

        // The sketch index and bridge set were reused, the trajectory
        // extended — and the answer is still bit-for-bit the cold one.
        prop_assert!(delta.hits() > 0);
        prop_assert_eq!(fingerprint(&cold_report), fingerprint(&warm_report));

        // Shrinking back to the small budget replays the prefix the
        // warm session already served before the extension.
        let shrunk = warm.solve(&request(small, threads, est)).expect("valid request");
        let fresh = session(seed);
        let fresh_small = fresh.solve(&request(small, threads, est)).expect("valid request");
        prop_assert_eq!(fingerprint(&shrunk), fingerprint(&fresh_small));
    }

    #[test]
    fn thread_count_never_changes_the_answer(
        seed in 0u64..512,
        budget in 1usize..5,
    ) {
        let est = Estimator::Sketch(SketchParams::default());
        let base = session(seed);
        let reference = base.solve(&request(budget, 1, est)).expect("valid request");
        for threads in [2usize, 7] {
            let solver = session(seed);
            let report = solver.solve(&request(budget, threads, est)).expect("valid request");
            prop_assert_eq!(fingerprint(&reference), fingerprint(&report));
        }
        // A warm session serves a thread-count-changed ask from the
        // cache (the CELF key excludes `threads`) — still identical.
        let (warm, delta) = charged(&base, || base.solve(&request(budget, 7, est)));
        let warm = warm.expect("valid request");
        prop_assert_eq!(fingerprint(&reference), fingerprint(&warm));
        prop_assert_eq!(delta.misses(), 0);
    }

    #[test]
    fn shuffled_batch_matches_serial_sorted_solving(
        seed in 0u64..128,
        budgets in proptest::collection::vec(1usize..6, 2..6),
        shuffle_seed in 0u64..64,
        wi in 0usize..3,
    ) {
        let workers = THREADS[wi];
        let est = Estimator::Sketch(SketchParams::default());

        // Reference: a fresh session answers every distinct budget
        // serially, smallest first (so each later ask extends the
        // trajectory the previous one left behind).
        let mut sorted = budgets.clone();
        sorted.sort_unstable();
        let serial = session(seed);
        let mut reference = BTreeMap::new();
        for &budget in &sorted {
            let report = serial.solve(&request(budget, 1, est)).expect("valid request");
            reference.insert(budget, fingerprint(&report));
        }

        // Candidate: the same budgets, shuffled, as one `solve_many`
        // batch on another fresh session. Workers race on the shared
        // cache; budgets extend / replay / shrink the one trajectory
        // in whatever order the scheduler produces.
        let mut shuffled = budgets.clone();
        shuffled.shuffle(&mut SmallRng::seed_from_u64(shuffle_seed));
        let batch: Vec<SolveRequest> =
            shuffled.iter().map(|&b| request(b, 1, est)).collect();
        let solver = session(seed);
        let reports = solver.solve_many_threaded(&batch, workers);
        prop_assert_eq!(reports.len(), batch.len());
        for (&budget, report) in shuffled.iter().zip(&reports) {
            let report = report.as_ref().expect("valid request");
            prop_assert_eq!(
                reference.get(&budget).expect("reference covers every budget"),
                &fingerprint(report)
            );
        }
    }
}

proptest! {
    #[test]
    fn concurrent_cold_sketch_builds_match_serial_at_any_thread_count(
        seed in 0u64..256,
        budgets in proptest::collection::vec(1usize..5, 2..4),
        ti in 0usize..3,
    ) {
        let threads = [0usize, 1, 3][ti];
        let est = Estimator::Sketch(SketchParams::default());
        // Distinct pools keep the CELF keys apart, so the requests
        // share only the sketch build: one owns it, the rest wait on
        // it and help.
        let batch: Vec<SolveRequest> = budgets
            .iter()
            .enumerate()
            .map(|(i, &b)| SolveRequest {
                candidates: CandidatePool::BackwardRadius(1 + i as u32),
                ..request(b, threads, est)
            })
            .collect();
        // Reference: the same requests, serial and single-threaded.
        let serial = session(seed);
        let reference: Vec<_> = batch
            .iter()
            .map(|r| {
                let report = serial.solve(&SolveRequest { threads: 1, ..r.clone() });
                fingerprint(&report.expect("valid request"))
            })
            .collect();
        let solver = session(seed);
        let (reports, delta) =
            charged(&solver, || solver.solve_many_threaded(&batch, batch.len()));
        prop_assert_eq!(delta.sketch.misses, 1, "one sketch-index build per key and epoch");
        for (report, want) in reports.iter().zip(&reference) {
            prop_assert_eq!(&fingerprint(report.as_ref().expect("valid request")), want);
        }
    }
}

/// Satellite stress: a batch of *identical* CELF requests racing on
/// one session must build each artifact exactly once. With six
/// same-key requests at six workers, the cold pass charges exactly
/// one miss per family (bridge, sketch, trajectory) — three total —
/// and every other lookup waits on the builder's gate and hits.
#[test]
fn concurrent_same_key_requests_build_each_artifact_once() {
    let est = Estimator::Sketch(SketchParams::default());
    let reference_session = session(42);
    let reference = reference_session
        .solve(&request(3, 1, est))
        .expect("valid request");

    for _round in 0..8 {
        let solver = session(42);
        let batch = vec![request(3, 1, est); 6];
        let (reports, delta) = charged(&solver, || solver.solve_many_threaded(&batch, 6));
        assert_eq!(
            delta.misses(),
            3,
            "exactly one cold build per family (bridge, sketch, celf)"
        );
        assert_eq!(delta.hits(), 15, "five waiters hit each of three families");
        for report in &reports {
            let report = report.as_ref().expect("valid request");
            assert_eq!(
                fingerprint(&reference),
                fingerprint(report),
                "waiters must see the builder's bits"
            );
        }
    }
}
