//! Everything after the timed phase: answer checks, the determinism
//! re-solve, answer quality, and (traced runs only) direct timings of
//! the public layer functions on the workload's own instances.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcrb::engine::{SolveRequest, Solver, SolverConfig, StopRule};
use lcrb::evaluate::evaluate_protector_sets;
use lcrb::{
    find_bridge_ends, scbg, Algorithm, BridgeEndRule, BridgeEnds, CandidatePool, CoverageScratch,
    Estimator, ObjectiveModel, ProtectionObjective, RumorBlockingInstance, ScbgConfig, SketchIndex,
    SketchObjective, SketchParams, SolveDetail,
};
use lcrb_diffusion::{
    derive_stream, DoamModel, MonteCarloConfig, OpoaoModel, SimWorkspace, PAPER_OPOAO_HOPS,
};
use lcrb_graph::NodeId;

use crate::trace::Tracer;
use crate::workload::{ms, sample_stream, Answer, Detail, OutbreakRecord, Workload};

/// Monte-Carlo runs per answer when evaluating OPOAO infections.
const EVAL_RUNS: usize = 64;
/// Queries per outbreak re-solved on a fresh session.
const DETERMINISM_PICKS: usize = 2;
/// The first outbreaks of the sample also get the checks and timings
/// that cost about as much as the outbreak itself (a fresh session's
/// sketch build, direct layer timings).
const DEEP_OUTBREAKS: usize = 6;
/// Minimum wall time spent timing σ̂ queries on one instance.
const RATE_WINDOW: Duration = Duration::from_millis(50);

type Sigma<'a> = Box<dyn Fn(&[NodeId]) -> Result<f64, String> + 'a>;

/// Direct layer timings, one entry per timed call (traced runs only).
#[derive(Debug, Default)]
pub struct Direct {
    pub bridge_ms: Vec<f64>,
    pub bridge_ends: u64,
    pub objective_us: Vec<f64>,
    pub realizations: usize,
    pub sketch_build_ms: Vec<f64>,
    pub sketch_count: u64,
    pub sketch_query_ns: Vec<f64>,
    pub scbg_ms: Vec<f64>,
    pub scbg_bridge_ms: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Post {
    pub failures: Vec<String>,
    pub checked: usize,
    pub resolved: usize,
    /// |protectors| of the sample's α-mode and SCBG answers.
    pub protector_costs: Vec<f64>,
    /// Final infected count of every sample answer.
    pub infected: Vec<f64>,
    pub direct: Direct,
}

pub struct Context<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub master: u64,
    pub sample: usize,
    pub base: &'a RumorBlockingInstance,
    pub tracer: &'a Tracer,
}

pub fn run(ctx: &Context<'_>, records: &[OutbreakRecord]) -> Post {
    let mut post = Post::default();
    for rec in records {
        let ob = &rec.outbreak;
        let fail = |post: &mut Post, what: String| {
            post.failures.push(format!("outbreak {}: {what}", ob.index));
        };
        if !rec.write_ok {
            fail(&mut post, "set_rumor_seeds failed".into());
            continue;
        }
        let inst = match ctx.base.with_rumor_seeds(ob.rumor_seeds.clone()) {
            Ok(inst) => inst,
            Err(e) => {
                fail(&mut post, format!("instance rebuild failed: {e}"));
                continue;
            }
        };
        let (bridge, took) = ctx.tracer.time("direct.bridge", None, || {
            find_bridge_ends(&inst, BridgeEndRule::default())
        });
        let in_sample = ob.index < ctx.sample;
        if ctx.tracer.enabled() {
            post.direct.bridge_ms.push(ms(took));
            if in_sample {
                post.direct.bridge_ends += bridge.len() as u64;
            }
        }
        for s in &rec.solves {
            let request = &ob.queries[s.query];
            post.checked += 1;
            match &s.answer {
                Err(e) => fail(&mut post, format!("query {}: {e}", s.query)),
                Ok(a) => {
                    for e in check_answer(ctx, &inst, &bridge, request, a) {
                        fail(&mut post, format!("query {}: {e}", s.query));
                    }
                }
            }
        }
        if in_sample {
            sample_outbreak(ctx, &inst, &bridge, rec, &mut post);
        }
    }
    post
}

/// Nodes within `radius` backward hops of a bridge end, minus the
/// rumor seeds: the `BackwardRadius` candidate pool.
fn backward_pool(inst: &RumorBlockingInstance, bridge: &BridgeEnds, radius: u32) -> Vec<NodeId> {
    let g = inst.graph();
    let mut seen = vec![false; g.node_count()];
    let mut frontier = bridge.nodes.clone();
    for &b in &frontier {
        seen[b.index()] = true;
    }
    for _ in 0..radius {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.in_neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    g.nodes()
        .filter(|&v| seen[v.index()] && !inst.is_rumor_seed(v))
        .collect()
}

/// σ̂ as the request's estimator computes it, from public constructors
/// (the same master seed gives the same realizations or sketches).
fn own_sigma<'a>(
    ctx: &Context<'_>,
    inst: &'a RumorBlockingInstance,
    bridge: &BridgeEnds,
    request: &SolveRequest,
) -> Result<Sigma<'a>, String> {
    match request.estimator {
        Estimator::MonteCarlo => {
            let obj = ProtectionObjective::with_model(
                inst,
                bridge.nodes.clone(),
                ObjectiveModel::Opoao(OpoaoModel::new(request.max_hops)),
                request.realizations,
                ctx.master,
            )
            .map_err(|e| e.to_string())?;
            Ok(Box::new(move |p| obj.sigma(p).map_err(|e| e.to_string())))
        }
        Estimator::Sketch(params) => {
            let obj = SketchObjective::build(
                inst,
                bridge.nodes.clone(),
                params,
                ctx.master,
                request.max_hops,
            )
            .map_err(|e| e.to_string())?;
            Ok(Box::new(move |p| obj.sigma(p).map_err(|e| e.to_string())))
        }
    }
}

fn check_answer(
    ctx: &Context<'_>,
    inst: &RumorBlockingInstance,
    bridge: &BridgeEnds,
    request: &SolveRequest,
    a: &Answer,
) -> Vec<String> {
    let mut errs = Vec::new();
    let n = inst.graph().node_count();
    let mut seen = BTreeSet::new();
    for &p in &a.protectors {
        if p.index() >= n {
            errs.push(format!("protector {p} out of range (n = {n})"));
        }
        if !seen.insert(p) {
            errs.push(format!("protector {p} selected twice"));
        }
        if inst.is_rumor_seed(p) {
            errs.push(format!("protector {p} is a rumor seed"));
        }
    }
    let cap = match (request.algorithm, request.stop) {
        (Algorithm::Scbg, _) => bridge.len(),
        (_, StopRule::Budget(k)) => k,
        (_, StopRule::Alpha(_)) => request.max_protectors,
    };
    if a.protectors.len() > cap {
        errs.push(format!(
            "{} protectors exceed the budget {cap}",
            a.protectors.len()
        ));
    }
    match &a.detail {
        Detail::Greedy {
            target,
            achieved,
            target_met,
            sigma_history,
            ..
        } => {
            if sigma_history.len() != a.protectors.len() {
                errs.push("σ̂ history and protector list differ in length".into());
            }
            if sigma_history.windows(2).any(|w| w[1] < w[0]) {
                errs.push("σ̂ history decreases".into());
            }
            if let StopRule::Alpha(alpha) = request.stop {
                if target.to_bits() != (alpha * bridge.len() as f64).to_bits() {
                    errs.push(format!(
                        "target {target} is not α·|B| = {alpha}·{}",
                        bridge.len()
                    ));
                }
                if *target_met && achieved < target {
                    errs.push(format!("claims target met but σ̂ {achieved} < {target}"));
                }
                if !target_met {
                    if let Err(e) = check_exhausted(ctx, inst, bridge, request, &a.protectors) {
                        errs.push(format!("α target {target} missed with σ̂ {achieved}: {e}"));
                    }
                }
            }
        }
        Detail::Scbg {
            complete,
            covered,
            bridge_ends,
            ..
        } => {
            if !complete || *covered != bridge.len() || *bridge_ends != bridge.len() {
                errs.push(format!(
                    "incomplete cover: {covered} of {bridge_ends} (|B| = {})",
                    bridge.len()
                ));
            }
            match inst.seed_sets(a.protectors.clone()) {
                Err(e) => errs.push(format!("invalid protector set: {e}")),
                Ok(seeds) => {
                    let mut ws = SimWorkspace::with_capacity(n);
                    DoamModel::default().run_deterministic_into(inst.snapshot(), &seeds, &mut ws);
                    let infected = bridge
                        .nodes
                        .iter()
                        .filter(|&&b| ws.status(b).is_infected())
                        .count();
                    if infected > 0 {
                        errs.push(format!("DOAM run infects {infected} bridge ends"));
                    }
                }
            }
        }
    }
    errs
}

/// An α answer short of its target must have run out of candidates:
/// every pool node left has zero marginal gain.
fn check_exhausted(
    ctx: &Context<'_>,
    inst: &RumorBlockingInstance,
    bridge: &BridgeEnds,
    request: &SolveRequest,
    picked: &[NodeId],
) -> Result<(), String> {
    let CandidatePool::BackwardRadius(radius) = request.candidates else {
        return Err("exhaustion is checked only for BackwardRadius pools".into());
    };
    let pool = backward_pool(inst, bridge, radius);
    if picked.len() >= pool.len() {
        return Ok(());
    }
    let sigma = own_sigma(ctx, inst, bridge, request)?;
    let base = sigma(picked)?;
    let mut trial = picked.to_vec();
    for &v in pool.iter().filter(|v| !picked.contains(v)) {
        trial.push(v);
        let gain = sigma(&trial)? - base;
        trial.pop();
        if gain > 1e-12 {
            return Err(format!("candidate {v} still gains {gain}"));
        }
    }
    Ok(())
}

/// Work done only for the fixed sample: quality, exact σ̂ and
/// determinism checks, and the traced run's direct layer timings.
fn sample_outbreak(
    ctx: &Context<'_>,
    inst: &RumorBlockingInstance,
    bridge: &BridgeEnds,
    rec: &OutbreakRecord,
    post: &mut Post,
) {
    let ob = &rec.outbreak;
    let answers: Vec<(&SolveRequest, &Answer)> = rec
        .solves
        .iter()
        .filter_map(|s| Some((&ob.queries[s.query], s.answer.as_ref().ok()?)))
        .collect();
    let mut fail = |what: String| post.failures.push(format!("outbreak {}: {what}", ob.index));

    // Answer quality.
    for (request, a) in &answers {
        if request.algorithm == Algorithm::Scbg || matches!(request.stop, StopRule::Alpha(_)) {
            post.protector_costs.push(a.protectors.len() as f64);
        }
    }
    // Each distinct protector set is simulated once.
    let mut unique: Vec<&[NodeId]> = answers
        .iter()
        .map(|(_, a)| a.protectors.as_slice())
        .collect();
    unique.sort_unstable();
    unique.dedup();
    let sets: Vec<(String, Vec<NodeId>)> = unique
        .iter()
        .enumerate()
        .map(|(i, p)| (i.to_string(), p.to_vec()))
        .collect();
    let evaluated = if ctx.workload == Workload::Scbg {
        let mc = MonteCarloConfig {
            runs: 1,
            base_seed: 0,
            threads: 1,
        };
        evaluate_protector_sets(inst, &DoamModel::default(), &sets, &mc)
    } else {
        let mc = MonteCarloConfig {
            runs: EVAL_RUNS,
            base_seed: derive_stream(ctx.seed, 0x6576_616c),
            threads: 0,
        };
        evaluate_protector_sets(inst, &OpoaoModel::default(), &sets, &mc)
    };
    match evaluated {
        Ok(report) => {
            for (_, a) in &answers {
                let i = unique
                    .binary_search(&a.protectors.as_slice())
                    .expect("every answer's set was evaluated");
                post.infected
                    .push(report.runs[i].averaged.mean_final_infected());
            }
        }
        Err(e) => fail(format!("evaluation failed: {e}")),
    }

    // The MC greedy's σ̂ claims, recomputed from the public objective.
    if ctx.workload == Workload::GreedyMc {
        for (request, a) in &answers {
            let Detail::Greedy { achieved, .. } = a.detail else {
                continue;
            };
            match own_sigma(ctx, inst, bridge, request).and_then(|s| s(&a.protectors)) {
                Ok(sigma) if (sigma - achieved).abs() <= 1e-9 * (bridge.len().max(1) as f64) => {}
                Ok(sigma) => fail(format!("σ̂ recomputes to {sigma}, answer claims {achieved}")),
                Err(e) => fail(format!("σ̂ recomputation failed: {e}")),
            }
        }
    }

    // Concurrent answers must equal a serial re-solve on a fresh session.
    let deep = ob.index < DEEP_OUTBREAKS;
    if ctx.workload == Workload::SketchSession && deep {
        let mut pick = sample_stream(ctx.seed, ob.index as u64);
        let mut picks = BTreeSet::new();
        while picks.len() < DETERMINISM_PICKS.min(ob.queries.len()) {
            picks.insert(pick(ob.queries.len()));
        }
        let fresh = Solver::with_config(
            inst.clone(),
            SolverConfig {
                master_seed: ctx.master,
            },
        );
        for q in picks {
            let Some(concurrent) = rec.solves.iter().find(|s| s.query == q) else {
                fail(format!("query {q} has no record"));
                continue;
            };
            let Ok(concurrent) = &concurrent.answer else {
                continue;
            };
            match fresh.solve(&ob.queries[q]) {
                Err(e) => fail(format!("serial re-solve of query {q} failed: {e}")),
                Ok(report) => {
                    let serial = match report.detail {
                        SolveDetail::Greedy(g) => Some((g.achieved, g.sigma_history)),
                        _ => None,
                    };
                    post.resolved += 1;
                    let same = match (&concurrent.detail, serial) {
                        (
                            Detail::Greedy {
                                achieved,
                                sigma_history,
                                ..
                            },
                            Some((a2, h2)),
                        ) => {
                            report.protectors == concurrent.protectors
                                && achieved.to_bits() == a2.to_bits()
                                && sigma_history.len() == h2.len()
                                && sigma_history
                                    .iter()
                                    .zip(&h2)
                                    .all(|(x, y)| x.to_bits() == y.to_bits())
                        }
                        _ => false,
                    };
                    if !same {
                        fail(format!(
                            "query {q}: concurrent answer differs from serial re-solve"
                        ));
                    }
                }
            }
        }
    }

    if ctx.tracer.enabled() && deep {
        direct_rates(ctx, inst, bridge, &answers, &mut post.direct, &mut fail);
    }
}

/// Times the public layer functions the workload exercises, on this
/// outbreak's instance and answers.
fn direct_rates(
    ctx: &Context<'_>,
    inst: &RumorBlockingInstance,
    bridge: &BridgeEnds,
    answers: &[(&SolveRequest, &Answer)],
    direct: &mut Direct,
    fail: &mut impl FnMut(String),
) {
    let tracer = ctx.tracer;
    let sets: Vec<&[NodeId]> = std::iter::once(&[][..])
        .chain(answers.iter().map(|(_, a)| a.protectors.as_slice()))
        .collect();
    match ctx.workload {
        Workload::GreedyMc => {
            let Some((request, _)) = answers.first() else {
                return;
            };
            let obj = match ProtectionObjective::with_model(
                inst,
                bridge.nodes.clone(),
                ObjectiveModel::Opoao(OpoaoModel::new(request.max_hops)),
                request.realizations,
                ctx.master,
            ) {
                Ok(obj) => obj,
                Err(e) => return fail(format!("objective construction failed: {e}")),
            };
            direct.realizations = request.realizations;
            let mut ws = SimWorkspace::with_capacity(inst.graph().node_count());
            let start = Instant::now();
            while start.elapsed() < RATE_WINDOW {
                for set in &sets {
                    let (r, d) = tracer.time("direct.objective.sigma_with", None, || {
                        obj.sigma_with(set, &mut ws)
                    });
                    if let Err(e) = r {
                        return fail(format!("sigma_with failed: {e}"));
                    }
                    direct.objective_us.push(d.as_secs_f64() * 1e6);
                }
            }
        }
        Workload::SketchSession => {
            let (built, d) = tracer.time("direct.sketch.build", None, || {
                SketchIndex::build(
                    inst,
                    bridge.nodes.clone(),
                    SketchParams::default(),
                    ctx.master,
                    PAPER_OPOAO_HOPS,
                )
            });
            let index = match built {
                Ok(index) => Arc::new(index),
                Err(e) => return fail(format!("sketch build failed: {e}")),
            };
            direct.sketch_build_ms.push(ms(d));
            direct.sketch_count += index.sketch_count();
            let obj = SketchObjective::from_index(inst, index);
            let mut scratch = CoverageScratch::new();
            let mut calls = 0u64;
            let t0 = Instant::now();
            while t0.elapsed() < RATE_WINDOW {
                for set in &sets {
                    if let Err(e) = obj.sigma_with(std::hint::black_box(set), &mut scratch) {
                        return fail(format!("sketch sigma_with failed: {e}"));
                    }
                    calls += 1;
                }
            }
            let t1 = Instant::now();
            tracer.record(
                tracer.next_id(),
                "direct.sketch.sigma_with",
                None,
                None,
                t0,
                t1,
            );
            direct
                .sketch_query_ns
                .push((t1 - t0).as_secs_f64() * 1e9 / calls as f64);
        }
        Workload::Scbg => {
            let (_, d) = tracer.time("direct.scbg", None, || scbg(inst, &ScbgConfig::default()));
            direct.scbg_ms.push(ms(d));
            direct
                .scbg_bridge_ms
                .push(*direct.bridge_ms.last().unwrap_or(&0.0));
        }
    }
}
