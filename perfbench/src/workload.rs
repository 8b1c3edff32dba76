//! The three closed-loop workloads: their inputs, set-up, and the
//! timed session loop that drives one long-lived `Solver`.
//!
//! Every input comes from the workload seed: the rumor seeds of each
//! outbreak, the query mix, and the session's master seed. The graph is
//! the hep-like dataset at a fixed dataset seed, so runs with different
//! workload seeds differ in traffic, not in network.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use lcrb::engine::{
    Algorithm, CacheStats, SolveDetail, SolveRequest, Solver, SolverConfig, StopRule,
};
use lcrb::{CandidatePool, Estimator, RumorBlockingInstance, SketchParams};
use lcrb_datasets::{hep_like, DatasetConfig};
use lcrb_diffusion::{derive_stream, splitmix64};
use lcrb_graph::NodeId;

use crate::trace::Tracer;

/// The hep-like dataset seed every workload uses.
const DATASET_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// LCRB-P, Algorithm 1 with the Monte-Carlo σ̂: one client, one
    /// cold α-mode solve per outbreak.
    GreedyMc,
    /// Interactive RR-sketch session: two clients, one write then 16
    /// mixed queries per outbreak.
    SketchSession,
    /// LCRB-D at the paper's Hep size: one client, one cold SCBG solve
    /// per outbreak.
    Scbg,
}

pub const ALL: [Workload; 3] = [Workload::GreedyMc, Workload::SketchSession, Workload::Scbg];

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GreedyMc => "p-greedy-mc",
            Workload::SketchSession => "p-sketch-session",
            Workload::Scbg => "d-scbg",
        }
    }

    /// hep-like scale (1.0 is the paper's 15,233-node network).
    pub fn scale(self, tiny: bool) -> f64 {
        match (self, tiny) {
            (Workload::GreedyMc, false) => 0.05,
            (Workload::SketchSession, false) => 0.2,
            (Workload::Scbg, false) => 1.0,
            (Workload::GreedyMc, true) => 0.02,
            (_, true) => 0.05,
        }
    }

    /// Concurrent closed-loop clients sharing the session.
    pub fn clients(self) -> usize {
        match self {
            Workload::SketchSession => 2,
            _ => 1,
        }
    }

    /// Worker threads one solve uses: the MC greedy's gain sweep asks
    /// for one per core (`threads: 0`); the other solves are serial.
    pub fn solve_threads(self, cores: usize) -> usize {
        match self {
            Workload::GreedyMc => cores,
            _ => 1,
        }
    }

    /// Outbreaks whose answers feed the answer-quality metrics and the
    /// exact per-layer counts: the first `n` of the seed's sequence, so
    /// these figures repeat exactly at a fixed seed however fast the
    /// timed phase ran.
    pub fn sample_outbreaks(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 2,
            (Workload::GreedyMc, false) => 24,
            (Workload::SketchSession, false) => 18,
            (Workload::Scbg, false) => 24,
        }
    }

    /// The tail percentile reported as `request_ms_tail`: the highest of
    /// p99/p95/p90/p80 that leaves at least ten solves beyond it at the
    /// solve count a run of the benchmark's length reaches.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::GreedyMc => 80.0,
            Workload::SketchSession => 95.0,
            Workload::Scbg => 90.0,
        }
    }
}

/// A splitmix64 stream keyed by the workload seed.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, key: u64) -> Self {
        Stream(derive_stream(seed, key))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The session's master seed for a workload seed.
pub fn master_seed(seed: u64) -> u64 {
    derive_stream(seed, 0x6d61_7374_6572)
}

/// A seed-derived stream for the benchmark's own sampling decisions
/// (`key` keeps them apart from the outbreak streams).
pub fn sample_stream(seed: u64, key: u64) -> impl FnMut(usize) -> usize {
    let mut s = Stream::new(seed, 0x7361_6d70_0000 ^ key);
    move |n| s.below(n)
}

/// One rumor outbreak: the write that installs its rumor seeds and the
/// queries that follow it.
#[derive(Clone, Debug)]
pub struct Outbreak {
    pub index: usize,
    pub rumor_seeds: Vec<NodeId>,
    pub queries: Vec<SolveRequest>,
}

fn rumor_count(w: Workload, community: usize, index: usize) -> usize {
    match w {
        // Every third outbreak has two rumor seeds, the others one: one
        // greedy pick against two (or three), in a fixed 2:1 mix that
        // keeps the median and the tail each inside one mode of the
        // latency distribution.
        Workload::GreedyMc => 1 + usize::from(index % 3 == 2),
        Workload::SketchSession => 1 + index % 3,
        Workload::Scbg => {
            let fraction = [0.01, 0.05, 0.10][index % 3];
            (community as f64 * fraction).round().max(1.0) as usize
        }
    }
    .min(community)
}

/// Outbreaks draw their rumor seeds without replacement from a
/// seed-shuffled order of the community, reshuffled on every pass, so
/// each member seeds about equally many outbreaks of a run: runs under
/// different seeds see the same placements, combined differently.
fn rumor_seeds(w: Workload, members: &[NodeId], seed: u64, index: usize) -> Vec<NodeId> {
    let m = members.len();
    let count = rumor_count(w, m, index);
    let mut pos: usize = (0..index).map(|k| rumor_count(w, m, k)).sum();
    let (mut pass, mut order) = (usize::MAX, Vec::new());
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        if pos / m != pass {
            pass = pos / m;
            let mut rng = Stream::new(seed, 0x7061_7373_0000 ^ pass as u64);
            order = (0..m).collect();
            for i in (1..m).rev() {
                order.swap(i, rng.below(i + 1));
            }
        }
        let v = members[order[pos % m]];
        if !out.contains(&v) {
            out.push(v);
        }
        pos += 1;
    }
    out
}

/// The `index`-th outbreak of the seed's sequence.
pub fn outbreak(w: Workload, members: &[NodeId], seed: u64, index: usize) -> Outbreak {
    let mut rng = Stream::new(seed, index as u64);
    let queries = match w {
        Workload::GreedyMc => vec![SolveRequest {
            realizations: 16,
            candidates: CandidatePool::BackwardRadius(1),
            threads: 0,
            // α = 0.6 on every second two-seed outbreak only: with one seed
            // it would need one pick or two depending on where the seed
            // sits, blurring the two modes.
            ..SolveRequest::greedy_alpha(if index % 6 == 5 { 0.6 } else { 0.5 })
        }],
        Workload::SketchSession => {
            // A fixed multiset of stops (budgets 1–10, α 0.5–0.9) in a
            // seed-shuffled order. Pools alternate by position, so each
            // outbreak builds exactly two CELF trajectories and its first
            // two queries race for the one shared sketch index.
            let mut stops: Vec<StopRule> = (1..=10)
                .map(StopRule::Budget)
                .chain([0.5, 0.6, 0.7, 0.8, 0.9, 0.7].map(StopRule::Alpha))
                .collect();
            for i in (1..stops.len()).rev() {
                stops.swap(i, rng.below(i + 1));
            }
            stops
                .into_iter()
                .enumerate()
                .map(|(q, stop)| SolveRequest {
                    estimator: Estimator::Sketch(SketchParams::default()),
                    candidates: CandidatePool::BackwardRadius(1 + (q % 2) as u32),
                    threads: 1,
                    ..SolveRequest::greedy_budget(1).with_stop(stop)
                })
                .collect()
        }
        Workload::Scbg => vec![SolveRequest::scbg()],
    };
    Outbreak {
        index,
        rumor_seeds: rumor_seeds(w, members, seed, index),
        queries,
    }
}

/// Share of the timed phase's length spent on further set-up
/// repetitions, run between its outbreaks. The host's speed drifts over
/// seconds, so set-up is sampled across the whole run rather than in
/// one block before it.
const SETUP_SHARE: f64 = 0.05;

/// Set-up timings of one run, one entry per repetition.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub generate_ms: Vec<f64>,
    pub instance_ms: Vec<f64>,
}

impl SetupTimes {
    fn push(&mut self, [t0, t1, t2, t3]: [Instant; 4]) {
        self.total_s.push((t3 - t0).as_secs_f64());
        self.generate_ms.push(ms(t1 - t0));
        self.instance_ms.push(ms(t2 - t1));
    }
}

/// Builds the dataset, the first outbreak's instance and the session;
/// returns them with the times at the start and after each step.
fn build_session(
    w: Workload,
    tiny: bool,
    seed: u64,
) -> Result<(Solver, Vec<NodeId>, [Instant; 4]), String> {
    let t0 = Instant::now();
    let ds = hep_like(&DatasetConfig::new(w.scale(tiny), DATASET_SEED));
    let t1 = Instant::now();
    let community = ds.pinned_communities[0];
    let members = ds.planted.members(community);
    let first = outbreak(w, &members, seed, 0);
    let instance = RumorBlockingInstance::new(ds.graph, ds.planted, community, first.rumor_seeds)
        .map_err(|e| format!("instance construction failed: {e}"))?;
    let t2 = Instant::now();
    let solver = Solver::with_config(
        instance,
        SolverConfig {
            master_seed: master_seed(seed),
        },
    );
    Ok((solver, members, [t0, t1, t2, Instant::now()]))
}

/// The session the run drives, and the first set-up repetition, traced.
pub fn setup(
    w: Workload,
    tiny: bool,
    seed: u64,
    tracer: &Tracer,
) -> Result<(Solver, Vec<NodeId>, SetupTimes), String> {
    let (solver, members, at) = build_session(w, tiny, seed)?;
    let [t0, t1, t2, t3] = at;
    let id = tracer.next_id();
    tracer.record(id, "setup", None, None, t0, t3);
    tracer.record(
        tracer.next_id(),
        "datasets.generate",
        Some(id),
        None,
        t0,
        t1,
    );
    tracer.record(
        tracer.next_id(),
        "datasets.instance",
        Some(id),
        None,
        t1,
        t2,
    );
    tracer.record(tracer.next_id(), "engine.session", Some(id), None, t2, t3);
    let mut times = SetupTimes::default();
    times.push(at);
    Ok((solver, members, times))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the checks and metrics need from one answer; the full report
/// (with its bridge-end search tree) is dropped at once so the
/// benchmark's own bookkeeping stays out of `peak_rss_mb`.
#[derive(Clone, Debug)]
pub enum Detail {
    Greedy {
        target: f64,
        achieved: f64,
        target_met: bool,
        sigma_history: Vec<f64>,
        evaluations: usize,
    },
    Scbg {
        complete: bool,
        covered: usize,
        bridge_ends: usize,
        candidates: usize,
    },
}

#[derive(Clone, Debug)]
pub struct Answer {
    pub protectors: Vec<NodeId>,
    pub detail: Detail,
}

#[derive(Debug)]
pub struct SolveRecord {
    pub query: usize,
    pub nanos: u64,
    /// `Err` for a failed request: the solve returned `Err`, degraded,
    /// or carried an unexpected detail.
    pub answer: Result<Answer, String>,
}

#[derive(Debug)]
pub struct OutbreakRecord {
    pub outbreak: Outbreak,
    pub timed: bool,
    pub write_ok: bool,
    pub solves: Vec<SolveRecord>,
    /// Cache counters charged by this outbreak's write and queries.
    pub cache: CacheStats,
}

/// The span name a report stage is charged to, by layer.
fn stage_span(request: &SolveRequest, stage: &str) -> &'static str {
    match (request.algorithm, stage) {
        (Algorithm::Scbg, "select") => "scbg.select",
        (_, "bridge") => "bridge.lookup",
        (_, "estimator") => match request.estimator {
            Estimator::Sketch(_) => "sketch.estimator",
            Estimator::MonteCarlo => "objective.estimator",
        },
        (_, "select") => "greedy.select",
        _ => "engine.stage",
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One client's share of an outbreak: take the next query, solve it,
/// repeat until none are left.
fn client_loop(
    solver: &Solver,
    queries: &[SolveRequest],
    next: &AtomicUsize,
    parent: u64,
    tracer: &Tracer,
) -> Vec<SolveRecord> {
    let mut out = Vec::new();
    loop {
        let q = next.fetch_add(1, Ordering::Relaxed);
        let Some(request) = queries.get(q) else {
            break;
        };
        let start = Instant::now();
        // A panicking solve is a failed request, not a stuck benchmark.
        let result = panic::catch_unwind(AssertUnwindSafe(|| solver.solve(request)));
        let end = Instant::now();
        if tracer.enabled() {
            let (rid, sid) = (tracer.next_id(), tracer.next_id());
            tracer.record(sid, "engine.solve", Some(parent), Some(rid), start, end);
            if let Ok(Ok(report)) = &result {
                let stages: Vec<_> = report
                    .stages
                    .iter()
                    .map(|s| {
                        let d = Duration::from_nanos(u64::try_from(s.nanos).unwrap_or(u64::MAX));
                        (stage_span(request, s.stage), d)
                    })
                    .collect();
                tracer.record_children(sid, Some(rid), start, &stages);
            }
        }
        let answer = match result {
            Err(_) => Err("solve panicked".to_owned()),
            Ok(Err(e)) => Err(format!("solve returned an error: {e}")),
            Ok(Ok(report)) if report.is_degraded() => Err(format!(
                "unbudgeted solve degraded: {:?}",
                report.completion
            )),
            Ok(Ok(report)) => match report.detail {
                SolveDetail::Greedy(g) => Ok(Answer {
                    protectors: report.protectors,
                    detail: Detail::Greedy {
                        target: g.target,
                        achieved: g.achieved,
                        target_met: g.target_met,
                        sigma_history: g.sigma_history,
                        evaluations: g.evaluations,
                    },
                }),
                SolveDetail::Scbg(s) => Ok(Answer {
                    protectors: report.protectors,
                    detail: Detail::Scbg {
                        complete: s.is_complete(),
                        covered: s.covered,
                        bridge_ends: s.bridge_ends.len(),
                        candidates: s.candidate_count,
                    },
                }),
                other => Err(format!("unexpected solve detail {other:?}")),
            },
        };
        out.push(SolveRecord {
            query: q,
            nanos: nanos(end - start),
            answer,
        });
    }
    out
}

/// The outbreak the clients are working on; `None` tells them to exit.
struct Job {
    outbreak: Arc<Outbreak>,
    span: u64,
    traced: bool,
}

/// State shared between the writer (the main thread) and the
/// long-lived client threads. Writes take the session exclusively, so
/// each outbreak's queries all run against its own rumor seeds.
struct Shared<'a> {
    solver: RwLock<Solver>,
    job: Mutex<Option<Job>>,
    next: AtomicUsize,
    start: Barrier,
    end: Barrier,
    results: Mutex<Vec<SolveRecord>>,
    tracer: &'a Tracer,
    untraced: Tracer,
}

fn client(shared: &Shared<'_>) {
    loop {
        shared.start.wait();
        let (outbreak, span, traced) = {
            let job = shared.job.lock().expect("job slot poisoned");
            let Some(job) = job.as_ref() else { return };
            (Arc::clone(&job.outbreak), job.span, job.traced)
        };
        let tracer = if traced {
            shared.tracer
        } else {
            &shared.untraced
        };
        let records = {
            let solver = shared.solver.read().expect("session lock poisoned");
            client_loop(&solver, &outbreak.queries, &shared.next, span, tracer)
        };
        shared
            .results
            .lock()
            .expect("result list poisoned")
            .extend(records);
        shared.end.wait();
    }
}

/// One outbreak: the write, then its queries across the clients.
fn run_outbreak(shared: &Shared<'_>, outbreak: Outbreak, timed: bool) -> OutbreakRecord {
    let tracer = if timed {
        shared.tracer
    } else {
        &shared.untraced
    };
    let span = tracer.next_id();
    let t0 = Instant::now();
    let (before, write) = {
        let mut solver = shared.solver.write().expect("session lock poisoned");
        (
            solver.cache_stats(),
            solver.set_rumor_seeds(outbreak.rumor_seeds.clone()),
        )
    };
    let t1 = Instant::now();
    tracer.record(tracer.next_id(), "engine.write", Some(span), None, t0, t1);

    let outbreak = Arc::new(outbreak);
    shared.next.store(0, Ordering::Relaxed);
    *shared.job.lock().expect("job slot poisoned") = Some(Job {
        outbreak: Arc::clone(&outbreak),
        span,
        traced: timed,
    });
    shared.start.wait();
    shared.end.wait();
    let t2 = Instant::now();
    tracer.record(span, "workload.outbreak", None, None, t0, t2);

    let mut solves = std::mem::take(&mut *shared.results.lock().expect("result list poisoned"));
    solves.sort_by_key(|r| r.query);
    let cache = shared
        .solver
        .read()
        .expect("session lock poisoned")
        .cache_stats()
        .delta_since(&before);
    OutbreakRecord {
        outbreak: Arc::try_unwrap(outbreak).unwrap_or_else(|a| (*a).clone()),
        timed,
        write_ok: write.is_ok(),
        solves,
        cache,
    }
}

/// The whole session: a timed phase of `seconds`, then (untimed, and
/// untraced) whatever is left of the fixed answer sample.
#[derive(Debug)]
pub struct Session {
    pub records: Vec<OutbreakRecord>,
    /// Length of the timed phase: its outbreaks, without the set-up
    /// repetitions run between them.
    pub phase: Duration,
    /// Cache counters charged during the timed phase.
    pub phase_cache: CacheStats,
    /// `VmHWM` when the timed phase ended, in MiB.
    pub peak_rss_mb: Option<f64>,
    /// Nanoseconds the tracer spent recording during the timed phase.
    pub trace_cost_ns: u64,
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

/// Drives the session: a timed phase of `seconds` with set-up
/// repetitions between its outbreaks (added to `setup`), then, untimed
/// and untraced, whatever is left of the fixed answer sample.
#[allow(clippy::too_many_arguments)]
pub fn run_session(
    w: Workload,
    tiny: bool,
    solver: Solver,
    members: &[NodeId],
    seed: u64,
    seconds: f64,
    sample: usize,
    setup: &mut SetupTimes,
    tracer: &Tracer,
) -> Result<(Solver, Session), String> {
    let clients = w.clients();
    let shared = Shared {
        solver: RwLock::new(solver),
        job: Mutex::new(None),
        next: AtomicUsize::new(0),
        start: Barrier::new(clients + 1),
        end: Barrier::new(clients + 1),
        results: Mutex::new(Vec::new()),
        tracer,
        untraced: Tracer::new(false),
    };
    let session = thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| client(&shared));
        }
        let cache_at = |shared: &Shared<'_>| {
            shared
                .solver
                .read()
                .expect("session lock poisoned")
                .cache_stats()
        };
        let mut run = || -> Result<Session, String> {
            let mut records = Vec::new();
            let start_stats = cache_at(&shared);
            let start_cost = tracer.cost_ns();
            let budget = Duration::from_secs_f64(seconds);
            let (mut phase, mut setup_spent) = (Duration::ZERO, Duration::ZERO);
            while phase < budget {
                let ob = outbreak(w, members, seed, records.len());
                let t0 = Instant::now();
                records.push(run_outbreak(&shared, ob, true));
                phase += t0.elapsed();
                while setup_spent.as_secs_f64() < SETUP_SHARE * phase.as_secs_f64() {
                    let (_, _, at) = build_session(w, tiny, seed)?;
                    setup_spent += at[3] - at[0];
                    setup.push(at);
                }
            }
            let phase_cache = cache_at(&shared).delta_since(&start_stats);
            let trace_cost_ns = tracer.cost_ns() - start_cost;
            let peak_rss_mb = peak_rss_mb();
            while records.len() < sample {
                let ob = outbreak(w, members, seed, records.len());
                records.push(run_outbreak(&shared, ob, false));
            }
            Ok(Session {
                records,
                phase,
                phase_cache,
                peak_rss_mb,
                trace_cost_ns,
            })
        };
        let session = run();
        // Release the clients whether or not the run got through.
        *shared.job.lock().expect("job slot poisoned") = None;
        shared.start.wait();
        session
    })?;
    let solver = shared.solver.into_inner().expect("session lock poisoned");
    Ok((solver, session))
}
