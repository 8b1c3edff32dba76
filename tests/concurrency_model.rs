//! Deterministic-schedule model checking of the Solver cache protocol.
//!
//! These tests run the *real* engine types (`lcrb::engine::Gate`,
//! `lcrb::engine::FamilyCache`, the full `Solver::solve_many` path)
//! under the `lcrb-sync` deterministic scheduler: every context switch
//! is a recorded decision, small protocols are explored exhaustively
//! (DFS), the full solve path is driven through a fixed seed corpus,
//! and injected faults exercise the drop-guard recovery paths under
//! explored schedules. Every failure prints a replay decision string
//! that reproduces it deterministically.
//!
//! Model runs require every participating thread to be a modeled
//! logical thread, so solve requests here pin the greedy's *internal*
//! sweep to `threads: 1`; the cross-request parallelism of
//! `solve_many_threaded` is what's being explored.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lcrb::engine::{Algorithm, Completion, FamilyCache, Gate, SolveRequest, Solver};
use lcrb::{
    find_bridge_ends, BridgeEndRule, CancelToken, LcrbError, RumorBlockingInstance, RunBudget,
    SketchBuild, SketchIndex, SketchParams, StopReason, WorkMeter,
};
use lcrb_community::Partition;
use lcrb_diffusion::{RrScratch, ScratchPool};
use lcrb_graph::{DiGraph, NodeId};
use lcrb_sync::sched::{self, Config};
use lcrb_sync::{thread, Mutex};

/// Two communities bridged in the middle; rumor starts at node 0.
fn tiny_instance() -> RumorBlockingInstance {
    let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (2, 4)])
        .expect("graph");
    let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
    RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).expect("instance")
}

/// A small greedy request with the internal sweep pinned serial (see
/// module docs) so every thread in a model run is a modeled one.
fn greedy_request(budget: usize) -> SolveRequest {
    SolveRequest {
        realizations: 4,
        max_hops: 6,
        threads: 1,
        ..SolveRequest::greedy_budget(budget)
    }
}

#[test]
fn dfs_gate_open_wait_has_no_lost_wakeup() {
    let exploration = sched::explore_dfs(&Config::default(), || {
        let gate = Gate::default();
        thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.wait());
            let opener = scope.spawn(|| gate.open());
            waiter.join().expect("waiter");
            opener.join().expect("opener");
        });
    })
    .expect("the Gate protocol must be wakeup-safe under every schedule");
    assert!(
        exploration.schedules > 1,
        "degenerate exploration: only {} schedule(s)",
        exploration.schedules
    );
    assert!(exploration.complete);
}

#[test]
fn dfs_family_cache_builds_exactly_once_per_key_and_epoch() {
    let exploration = sched::explore_dfs(&Config::default(), || {
        let cache: FamilyCache<u8, u64> = FamilyCache::default();
        let builds = AtomicU64::new(0);
        thread::scope(|scope| {
            let handles = [
                scope.spawn(|| {
                    cache.get_or_build(7, 0, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        42
                    })
                }),
                scope.spawn(|| {
                    cache.get_or_build(7, 0, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        42
                    })
                }),
            ];
            for h in handles {
                assert_eq!(h.join().expect("prober"), 42);
            }
        });
        // The protocol's core invariant: one build per (key, epoch)
        // no matter how the probes interleave.
        assert_eq!(builds.load(Ordering::Relaxed), 1, "duplicate build");
        let counters = cache.counter_snapshot();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.hits, 1);
    })
    .expect("single-builder discipline must hold under every schedule");
    assert!(exploration.schedules > 1);
    assert!(exploration.complete);
}

/// An intentionally broken protocol — waiting on a [`Gate`] while
/// holding the lock the opener needs — must be caught as a deadlock,
/// and the reported decision string must reproduce it.
#[test]
fn dfs_catches_gate_wait_while_holding_the_family_lock() {
    let body = || {
        let map = Mutex::new(0u32);
        let gate = Gate::default();
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // BROKEN on purpose: the map lock is held across the
                // gate wait, so the opener can never reach `open`.
                let _map = map.lock().expect("map");
                gate.wait();
            });
            let opener = scope.spawn(|| {
                let _map = map.lock().expect("map");
                gate.open();
            });
            waiter.join().expect("waiter");
            opener.join().expect("opener");
        });
    };
    let failure = sched::explore_dfs(&Config::default(), body)
        .expect_err("wait-under-lock must deadlock under some schedule");
    assert!(failure.message.contains("deadlock"), "got: {failure}");
    let replayed = sched::replay(&sched::parse_replay(&failure.replay_string()), body)
        .expect_err("the replay string must reproduce the deadlock");
    assert!(replayed.message.contains("deadlock"));
}

/// The fixed seed corpus for full-solve-path exploration; CI also runs
/// one fresh seed per build (see `fresh_seed_explores_full_solve_path`).
fn seed_corpus() -> Vec<u64> {
    (0..64).collect()
}

fn explore_solve_path(seeds: &[u64]) {
    let inst = tiny_instance();
    let batch = [
        greedy_request(1),
        SolveRequest::scbg(),
        SolveRequest::heuristic(Algorithm::MaxDegree, 2),
        greedy_request(2),
    ];
    // Reference reports from an untouched serial solver, computed
    // outside any model run.
    let reference_solver = Solver::new(inst.clone());
    let reference: Vec<_> = batch
        .iter()
        .map(|r| reference_solver.solve(r).expect("reference solve"))
        .collect();

    let exploration = sched::explore_seeds(&Config::default(), seeds, || {
        let solver = Solver::new(inst.clone());
        let reports = solver.solve_many_threaded(&batch, 3);
        // Under every explored schedule the batch is deterministic:
        // same order, same algorithms, same protector sets.
        assert_eq!(reports.len(), reference.len());
        for (got, want) in reports.iter().zip(&reference) {
            let got = got.as_ref().expect("solve");
            assert_eq!(got.algorithm, want.algorithm);
            assert_eq!(got.protectors, want.protectors);
        }
        // And the caches did their job: the duplicate-key greedy pair
        // shares one bridge build.
        assert_eq!(solver.cache_stats().bridge.misses, 1);
    })
    .unwrap_or_else(|failure| panic!("solve-path exploration failed: {failure}"));
    assert_eq!(exploration.schedules, seeds.len());
}

#[test]
fn seed_corpus_explores_full_solve_path() {
    explore_solve_path(&seed_corpus());
}

/// CI passes a per-build random seed through `LCRB_SCHED_SEED` so the
/// corpus keeps growing coverage over time; locally this runs one
/// extra fixed seed. The seed is printed so a failure in CI logs is
/// reproducible.
#[test]
fn fresh_seed_explores_full_solve_path() {
    let seed = std::env::var("LCRB_SCHED_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    println!("exploring full solve path with fresh seed {seed}");
    explore_solve_path(&[seed]);
}

/// A builder that panics mid-build (injected at the `family.build`
/// fault point) must never strand its waiter or publish a half-built
/// slot: the waiter recovers, rebuilds, and exactly one extra miss is
/// charged.
#[test]
fn injected_family_build_panic_frees_waiters_and_charges_one_extra_miss() {
    let exploration = sched::explore_dfs(&Config::default(), || {
        sched::arm_fault("family.build", 1);
        let cache: FamilyCache<u8, u64> = FamilyCache::default();
        let builds = AtomicU64::new(0);
        thread::scope(|scope| {
            let probe = || {
                cache.get_or_build(7, 0, || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    42
                })
            };
            let results = [scope.spawn(probe).join(), scope.spawn(probe).join()];
            let faulted = results.iter().filter(|r| r.is_err()).count();
            assert_eq!(faulted, 1, "exactly the armed slot claim panics");
            for r in results {
                match r {
                    Ok(v) => assert_eq!(v, 42, "survivor sees the rebuilt value"),
                    Err(payload) => {
                        let msg = sched::payload_message(payload.as_ref());
                        assert!(sched::is_fault_panic(&msg), "unexpected panic: {msg}");
                    }
                }
            }
        });
        // The failed claim charged a miss before the fault fired, the
        // recovery rebuild charged the second; the builder closure ran
        // exactly once.
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let counters = cache.counter_snapshot();
        assert_eq!(counters.misses, 2);
        // The published value survives: a fresh probe is a pure hit.
        assert_eq!(cache.get_or_build(7, 0, || unreachable!("must hit")), 42);
        assert_eq!(cache.counter_snapshot().hits, counters.hits + 1);
    })
    .expect("builder-panic recovery must hold under every schedule");
    assert!(exploration.schedules > 1);
}

/// A solve that panics between taking the CELF lease and storing the
/// advanced trajectory (injected at `celf.advance`) must vacate the
/// slot: the next same-key solve cold-builds and its answer is
/// identical to an untouched cold solve.
#[test]
fn injected_celf_advance_panic_vacates_lease_and_next_solve_is_cold_equal() {
    let inst = tiny_instance();
    let req = greedy_request(2);
    let cold = Solver::new(inst.clone())
        .solve(&req)
        .expect("cold reference solve");

    let exploration = sched::explore_seeds(&Config::default(), &[11, 29], || {
        sched::arm_fault("celf.advance", 1);
        let solver = Solver::new(inst.clone());
        thread::scope(|scope| {
            let faulted = scope.spawn(|| solver.solve(&req)).join();
            let payload = faulted.expect_err("the armed solve must panic");
            let msg = sched::payload_message(payload.as_ref());
            assert!(sched::is_fault_panic(&msg), "unexpected panic: {msg}");
        });
        // The lease was dropped without a store: the slot is vacant,
        // so this solve cold-builds the trajectory (second celf miss)
        // while reusing the already-built bridge artifact.
        let report = solver.solve(&req).expect("recovery solve");
        assert_eq!(report.protectors, cold.protectors);
        let stats = solver.cache_stats();
        assert_eq!(stats.celf.misses, 2, "vacated lease must recharge");
        assert_eq!(stats.celf.hits, 0);
        assert_eq!(stats.bridge.misses, 1);
        assert_eq!(stats.bridge.hits, 1);
    })
    .unwrap_or_else(|failure| panic!("celf fault exploration failed: {failure}"));
    assert_eq!(exploration.schedules, 2);
}

/// A lease interrupted by an injected panic (at `scratch.lease`) must
/// still park its value back in the pool during unwind.
#[test]
fn injected_scratch_lease_panic_returns_the_scratch_to_the_pool() {
    let exploration = sched::explore_dfs(&Config::default(), || {
        // nth = 2: the warm-up lease below is execution 1.
        sched::arm_fault("scratch.lease", 2);
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        {
            let mut warm = pool.lease();
            warm.push(7);
        }
        assert_eq!(pool.pooled(), 1);
        thread::scope(|scope| {
            let leaser = scope.spawn(|| {
                let _lease = pool.lease();
            });
            let payload = leaser.join().expect_err("the armed lease must panic");
            let msg = sched::payload_message(payload.as_ref());
            assert!(sched::is_fault_panic(&msg), "unexpected panic: {msg}");
        });
        // The guard's unwind parked the warm value back.
        assert_eq!(pool.pooled(), 1, "scratch lost during unwind");
        assert_eq!(*pool.lease(), vec![7]);
    })
    .expect("lease-unwind recovery must hold under every schedule");
    assert!(exploration.schedules > 1);
}

/// Cancellation is the fourth recovery-critical window: a builder
/// that observes a cancelled token returns `Err(Interrupted)` from
/// inside the `family.build` window, and under every 2-thread
/// schedule the Building slot is vacated, the waiter is released to
/// rebuild (or built first and never saw the error), and the miss
/// accounting matches whichever order the schedule chose.
#[test]
fn dfs_cancelled_family_build_frees_waiters_and_vacates_the_slot() {
    let exploration = sched::explore_dfs(&Config::default(), || {
        let cache: FamilyCache<u8, u64> = FamilyCache::default();
        let token = CancelToken::new();
        token.cancel();
        thread::scope(|scope| {
            // The cancelled request: its builder polls the token the
            // way the engine's metered builders do and bails.
            let cancelled = scope.spawn(|| {
                cache.get_or_try_build(7, 0, || {
                    if token.is_cancelled() {
                        return Err(LcrbError::Interrupted {
                            reason: StopReason::Cancelled,
                        });
                    }
                    Ok(41)
                })
            });
            // An uncancelled request racing it on the same key.
            let clean = scope.spawn(|| cache.get_or_try_build::<LcrbError>(7, 0, || Ok(42)));
            let cancelled = cancelled.join().expect("no panic");
            let clean = clean.join().expect("no panic").expect("clean build");
            match cancelled {
                // The cancelled claim won the slot: it errored, the
                // waiter was released and rebuilt.
                Err(LcrbError::Interrupted {
                    reason: StopReason::Cancelled,
                }) => {
                    assert_eq!(clean, 42);
                    assert_eq!(cache.counter_snapshot().misses, 2);
                }
                // The clean claim won: the cancelled prober hit the
                // published value and its builder never ran.
                Ok(v) => {
                    assert_eq!(v, 42);
                    assert_eq!(clean, 42);
                    assert_eq!(cache.counter_snapshot().misses, 1);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        });
        // Never a poisoned slot: a fresh probe is a pure hit.
        let counters = cache.counter_snapshot();
        assert_eq!(cache.get_or_build(7, 0, || unreachable!("must hit")), 42);
        assert_eq!(cache.counter_snapshot().hits, counters.hits + 1);
    })
    .expect("cancelled-build recovery must hold under every schedule");
    assert!(exploration.schedules > 1);
    assert!(exploration.complete);
}

/// A cancel token flipped by a concurrent thread while a solve is in
/// flight (so cancellation can land inside the `family.build` and
/// `celf.advance` windows, both scheduling points) either interrupts
/// the solve or loses the race cleanly — and either way the session
/// is left unpoisoned: an uncancelled re-solve completes exactly and
/// cold-equal.
#[test]
fn cancellation_racing_a_solve_never_poisons_the_session() {
    let inst = tiny_instance();
    let req = greedy_request(2);
    let cold = Solver::new(inst.clone())
        .solve(&req)
        .expect("cold reference solve");

    let exploration = sched::explore_seeds(&Config::default(), &[5, 13, 23, 37], || {
        let solver = Solver::new(inst.clone());
        let token = CancelToken::new();
        let cancellable = req.clone().with_cancel(token.clone());
        thread::scope(|scope| {
            let solving = scope.spawn(|| solver.solve(&cancellable));
            let canceller = scope.spawn(|| token.cancel());
            let outcome = solving.join().expect("a cancelled solve never panics");
            canceller.join().expect("canceller");
            match outcome {
                Ok(report) => {
                    // Cancellation lost the race to every checkpoint.
                    assert_eq!(report.completion, Completion::Exact);
                    assert_eq!(report.protectors, cold.protectors);
                }
                Err(LcrbError::Interrupted { reason }) => {
                    assert_eq!(reason, StopReason::Cancelled);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        });
        // Recovery-critical invariant: whatever the race did, slots
        // were vacated, gates opened, and the session still produces
        // the exact cold answer.
        let after = solver.solve(&req).expect("recovery solve");
        assert_eq!(after.completion, Completion::Exact);
        assert_eq!(after.protectors, cold.protectors);
    })
    .unwrap_or_else(|failure| panic!("cancellation race exploration failed: {failure}"));
    assert_eq!(exploration.schedules, 4);
}

/// Two concurrent work-budget solves park prefix-consistent partial
/// trajectories under every schedule. Budgets meter the work a solve
/// *performs*, not the size of its answer, so a solve that resumes
/// the other's parked one-pick trajectory may finish inside the same
/// advance budget — every outcome is either the exact answer or its
/// one-pick prefix, and the follow-up unlimited solve always resumes
/// to the exact cold answer.
/// Two five-node communities with several escape routes, sized so a
/// budget-2 greedy actually commits two picks.
fn wider_instance() -> RumorBlockingInstance {
    let g = DiGraph::from_edges(
        10,
        [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 4),
            (4, 5),
            (3, 6),
            (2, 7),
            (5, 8),
            (6, 9),
            (7, 8),
            (8, 9),
            (5, 6),
        ],
    )
    .expect("graph");
    let p = Partition::from_labels(vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
    RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).expect("instance")
}

#[test]
fn degraded_parking_under_concurrent_solves_stays_prefix_consistent() {
    let inst = wider_instance();
    let full = greedy_request(2);
    let cold = Solver::new(inst.clone())
        .solve(&full)
        .expect("cold reference solve");
    assert!(
        cold.protectors.len() >= 2,
        "fixture must have at least two picks for a meaningful prefix"
    );
    let starved = full
        .clone()
        .with_budget(RunBudget::unlimited().with_max_advances(1));

    let exploration = sched::explore_seeds(&Config::default(), &[3, 17], || {
        let solver = Solver::new(inst.clone());
        thread::scope(|scope| {
            let a = scope.spawn(|| solver.solve(&starved));
            let b = scope.spawn(|| solver.solve(&starved));
            let mut degraded = 0;
            for h in [a, b] {
                let report = h
                    .join()
                    .expect("a budget stop never panics")
                    .expect("a budget stop degrades instead of erroring");
                if report.is_degraded() {
                    // Best-so-far is the bitwise prefix of the cold run.
                    assert_eq!(report.protectors[..], cold.protectors[..1]);
                    degraded += 1;
                } else {
                    // This solve resumed the other's parked prefix and
                    // finished inside its own advance budget.
                    assert_eq!(report.protectors, cold.protectors);
                }
            }
            // A cold trajectory cannot reach two picks on one advance:
            // at least one of the pair must have degraded.
            assert!(degraded >= 1, "both solves claimed to finish cold");
        });
        // The parked one-pick trajectory resumes, never restarts.
        let resumed = solver.solve(&full).expect("resume solve");
        assert_eq!(resumed.completion, Completion::Exact);
        assert_eq!(resumed.protectors, cold.protectors);
    })
    .unwrap_or_else(|failure| panic!("degraded-parking exploration failed: {failure}"));
    assert_eq!(exploration.schedules, 2);
}

/// Two adaptive rounds on the tiny instance: `[0, 40)` in two chunks,
/// then `[40, 64)` in one — the smallest build where a helper can
/// claim a chunk and cross a round boundary, so exhaustive DFS over
/// an owner and a helper stays tractable.
const HELPED_ROUNDS: SketchParams = SketchParams {
    epsilon: 0.3,
    delta: 0.3,
    min_sketches: 40,
    max_sketches: 64,
};

/// One round of one chunk: small enough to explore the cache slot
/// protocol around the build exhaustively.
const ONE_CHUNK: SketchParams = SketchParams {
    min_sketches: 32,
    max_sketches: 32,
    ..HELPED_ROUNDS
};

fn tiny_bridge_ends(inst: &RumorBlockingInstance) -> Vec<NodeId> {
    find_bridge_ends(inst, BridgeEndRule::WithinCommunity).nodes
}

/// The serial reference build every shared build must equal.
fn serial_sketch_index(params: SketchParams) -> SketchIndex {
    let inst = tiny_instance();
    SketchIndex::build(&inst, tiny_bridge_ends(&inst), params, 3, 6).expect("valid params")
}

type SketchFamily = FamilyCache<u8, Arc<SketchIndex>, SketchBuild>;

/// One same-key probe of a shared sketch family: owner on `meter` if
/// it claims the slot, helper while `keep_going` holds otherwise.
fn probe_sketch_family(
    cache: &SketchFamily,
    inst: &RumorBlockingInstance,
    params: SketchParams,
    meter: impl FnOnce() -> WorkMeter,
    keep_going: impl FnMut() -> bool + Copy,
    builds: &AtomicU64,
) -> Result<Arc<SketchIndex>, LcrbError> {
    cache.get_or_try_build_shared(
        7,
        0,
        || SketchBuild::new(inst, tiny_bridge_ends(inst), params, 3, 6),
        |job| {
            builds.fetch_add(1, Ordering::Relaxed);
            job.run(&mut meter(), &mut RrScratch::new()).map(Arc::new)
        },
        |job| {
            job.help(&mut RrScratch::new(), keep_going);
        },
    )
}

/// Owner and helper on the real shared sketch build, under every
/// schedule: the index equals the serial build, the owner pays for
/// every sketch, and no wakeup is lost at the round boundary (a lost
/// one leaves the helper parked — a reported deadlock).
#[test]
fn dfs_shared_sketch_build_equals_the_serial_build_under_every_schedule() {
    let serial = serial_sketch_index(HELPED_ROUNDS);
    assert_eq!(serial.sketch_count(), 64, "fixture must take two rounds");
    let inst = tiny_instance();
    let helped = AtomicU64::new(0);
    let exploration = sched::explore_dfs(&Config::default(), || {
        let job = SketchBuild::new(&inst, tiny_bridge_ends(&inst), HELPED_ROUNDS, 3, 6);
        thread::scope(|scope| {
            let helper = scope.spawn(|| job.help(&mut RrScratch::new(), || true));
            let owner = scope.spawn(|| {
                let mut meter = WorkMeter::unlimited();
                let index = job.run(&mut meter, &mut RrScratch::new());
                (index, meter.spent().1)
            });
            let (index, charged) = owner.join().expect("owner");
            assert_eq!(index.expect("no error"), serial);
            assert_eq!(charged, serial.sketch_count());
            if helper.join().expect("helper") > 0 {
                helped.fetch_add(1, Ordering::Relaxed);
            }
        });
    })
    .expect("the shared build must be wakeup-safe and exact under every schedule");
    assert!(exploration.complete);
    assert!(
        helped.load(Ordering::Relaxed) > 0,
        "no schedule let the helper generate a chunk"
    );
}

/// The same build behind a real `FamilyCache` slot: two same-key
/// probes build the index once — one owns it, the other helps and
/// then hits — under every seeded schedule.
#[test]
fn shared_sketch_family_builds_once_per_key_and_epoch() {
    let serial = serial_sketch_index(HELPED_ROUNDS);
    let inst = tiny_instance();
    let exploration = sched::explore_seeds(&Config::default(), &seed_corpus(), || {
        let cache = SketchFamily::default();
        let builds = AtomicU64::new(0);
        thread::scope(|scope| {
            let probe = || {
                probe_sketch_family(
                    &cache,
                    &inst,
                    HELPED_ROUNDS,
                    WorkMeter::unlimited,
                    || true,
                    &builds,
                )
            };
            let handles = [scope.spawn(probe), scope.spawn(probe)];
            for h in handles {
                let index = h.join().expect("no panic").expect("no error");
                assert_eq!(*index, serial);
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "duplicate build");
        let counters = cache.counter_snapshot();
        assert_eq!((counters.misses, counters.hits), (1, 1));
    })
    .unwrap_or_else(|failure| panic!("shared sketch family exploration failed: {failure}"));
    assert_eq!(exploration.schedules, seed_corpus().len());
}

/// A helper that panics mid-chunk (injected at `sketch.chunk`) hands
/// its chunk back; the owner generates it and the index still equals
/// the serial build.
#[test]
fn dfs_helper_panic_at_sketch_chunk_requeues_the_chunk() {
    let serial = serial_sketch_index(HELPED_ROUNDS);
    let inst = tiny_instance();
    let fired = AtomicU64::new(0);
    let exploration = sched::explore_dfs(&Config::default(), || {
        sched::arm_fault("sketch.chunk", 1);
        let job = SketchBuild::new(&inst, tiny_bridge_ends(&inst), HELPED_ROUNDS, 3, 6);
        thread::scope(|scope| {
            let helper = scope.spawn(|| job.help(&mut RrScratch::new(), || true));
            let owner = scope.spawn(|| job.run(&mut WorkMeter::unlimited(), &mut RrScratch::new()));
            let index = owner.join().expect("the owner never panics");
            assert_eq!(index.expect("no error"), serial);
            if let Err(payload) = helper.join() {
                let msg = sched::payload_message(payload.as_ref());
                assert!(sched::is_fault_panic(&msg), "unexpected panic: {msg}");
                fired.fetch_add(1, Ordering::Relaxed);
            }
        });
    })
    .expect("a re-queued chunk must be regenerated under every schedule");
    assert!(exploration.complete);
    assert!(
        fired.load(Ordering::Relaxed) > 0,
        "no schedule let the helper claim a chunk"
    );
}

/// An owner whose request is cancelled abandons the shared build: its
/// helper is freed, the slot is vacated, and the waiter retries as
/// owner at the cost of exactly one extra miss.
#[test]
fn dfs_cancelled_sketch_owner_frees_its_helper_and_vacates_the_slot() {
    let serial = serial_sketch_index(ONE_CHUNK);
    let inst = tiny_instance();
    let exploration = sched::explore_dfs(&Config::default(), || {
        let cache = SketchFamily::default();
        let builds = AtomicU64::new(0);
        let token = CancelToken::new();
        token.cancel();
        thread::scope(|scope| {
            let cancelled = scope.spawn(|| {
                let meter = || WorkMeter::new(RunBudget::unlimited(), Some(token.clone()), None);
                // As a waiter, its own stopped meter sends it straight
                // to the plain wait.
                probe_sketch_family(&cache, &inst, ONE_CHUNK, meter, || false, &builds)
            });
            let clean = scope.spawn(|| {
                probe_sketch_family(
                    &cache,
                    &inst,
                    ONE_CHUNK,
                    WorkMeter::unlimited,
                    || true,
                    &builds,
                )
            });
            let clean = clean.join().expect("no panic").expect("clean build");
            assert_eq!(*clean, serial);
            match cancelled.join().expect("no panic") {
                Err(LcrbError::Interrupted {
                    reason: StopReason::Cancelled,
                }) => assert_eq!(cache.counter_snapshot().misses, 2),
                Ok(index) => {
                    assert_eq!(*index, serial);
                    assert_eq!(cache.counter_snapshot().misses, 1);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        });
        let counters = cache.counter_snapshot();
        assert_eq!(builds.load(Ordering::Relaxed), counters.misses);
        let hit = probe_sketch_family(
            &cache,
            &inst,
            ONE_CHUNK,
            WorkMeter::unlimited,
            || true,
            &builds,
        );
        assert_eq!(*hit.expect("hit"), serial);
        assert_eq!(cache.counter_snapshot().hits, counters.hits + 1);
    })
    .expect("cancelled-owner recovery must hold under every schedule");
    assert!(exploration.schedules > 1);
    assert!(exploration.complete);
}

/// An owner that panics after claiming the slot but before its build
/// starts (injected at `family.build`) still closes the shared build:
/// a helper already waiting on it is freed, retries as owner, and
/// exactly one extra miss is charged.
#[test]
fn injected_sketch_owner_panic_frees_its_helper_and_charges_one_extra_miss() {
    let serial = serial_sketch_index(ONE_CHUNK);
    let inst = tiny_instance();
    let exploration = sched::explore_dfs(&Config::default(), || {
        sched::arm_fault("family.build", 1);
        let cache = SketchFamily::default();
        let builds = AtomicU64::new(0);
        thread::scope(|scope| {
            let probe = || {
                probe_sketch_family(
                    &cache,
                    &inst,
                    ONE_CHUNK,
                    WorkMeter::unlimited,
                    || true,
                    &builds,
                )
            };
            let results = [scope.spawn(probe).join(), scope.spawn(probe).join()];
            let mut faulted = 0;
            for r in results {
                match r {
                    Ok(index) => assert_eq!(*index.expect("no error"), serial),
                    Err(payload) => {
                        let msg = sched::payload_message(payload.as_ref());
                        assert!(sched::is_fault_panic(&msg), "unexpected panic: {msg}");
                        faulted += 1;
                    }
                }
            }
            assert_eq!(faulted, 1, "exactly the armed slot claim panics");
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counter_snapshot().misses, 2);
    })
    .expect("owner-panic recovery must hold under every schedule");
    assert!(exploration.schedules > 1);
}
