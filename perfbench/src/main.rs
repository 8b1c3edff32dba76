//! End-to-end and per-layer benchmark of the `lcrb` Solver.
//!
//! ```text
//! lcrb-perfbench --workload <p-greedy-mc|p-sketch-session|d-scbg>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--tiny]
//! ```
//!
//! One run sets the session up several times, drives it closed-loop for
//! `--seconds`, checks every answer, and prints one JSON object as its
//! last stdout line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics from the span trace (`--trace 1`). The traced run
//! also writes its spans to `perfbench/out/trace-<workload>-seed<n>.json`.
//! Exit code 0 means every check passed; 1 means a check failed; 2 means
//! bad arguments. `perfbench/run.py` builds this binary and calls it.

// Wall-clock timing is this program's job; the repository-wide lint
// against `Instant::now` guards the library's replayability.
#![allow(clippy::disallowed_methods)]

mod json;
mod post;
mod trace;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

use lcrb::engine::CacheCounters;
use lcrb::Estimator;

use json::Json;
use post::Post;
use trace::{self_nanos, spans_json, Span, Tracer};
use workload::{Detail, Session, SetupTimes, Workload};

const USAGE: &str = "usage: lcrb-perfbench --workload <p-greedy-mc|p-sketch-session|d-scbg> \
--seed <n> --seconds <s> --trace <0|1> [--tiny]";

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = "perfbench/out";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = Args {
        workload: Workload::GreedyMc,
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Sum from +0.0 (`Iterator::sum` of no floats is -0.0).
fn total(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        total(values) / values.len() as f64
    }
}

/// Nearest-rank percentile of ascending `sorted`, with the number of
/// samples strictly beyond its rank.
fn percentile(sorted: &[f64], pct: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn ratio(c: CacheCounters) -> f64 {
    let total = c.hits + c.misses;
    if total == 0 {
        0.0
    } else {
        c.hits as f64 / total as f64
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> Json {
        Json::obj(self.0.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        }))
    }
}

/// Timed-phase latencies of the solves, in ms, ascending.
fn solve_latencies(session: &Session) -> Vec<f64> {
    let mut v: Vec<f64> = session
        .records
        .iter()
        .filter(|r| r.timed)
        .flat_map(|r| r.solves.iter().map(|s| s.nanos as f64 / 1e6))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(
    w: Workload,
    setup: &SetupTimes,
    session: &Session,
    post: &Post,
    attempted: usize,
    failed: usize,
) -> Metrics {
    let lat = solve_latencies(session);
    let timed = session.records.iter().filter(|r| r.timed);
    let requests: usize = timed.map(|r| 1 + r.solves.len()).sum();
    let mut m = Metrics(Vec::new());
    m.add("setup_s", median(&setup.total_s), "s");
    m.add("request_ms_p50", median(&lat), "ms");
    m.add(
        "request_ms_tail",
        percentile(&lat, w.tail_percentile()).0,
        "ms",
    );
    m.add(
        "requests_per_s",
        requests as f64 / session.phase.as_secs_f64(),
        "1/s",
    );
    m.add(
        "completed_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    m.add("protector_cost", mean(&post.protector_costs), "nodes");
    m.add("infected_mean", mean(&post.infected), "nodes");
    m
}

/// The first line `program args` prints, or "unknown". Git looks no
/// higher than the working directory, so a checkout without its own
/// repository reads "unknown" rather than some enclosing one's commit.
fn tool_output(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf));
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", dir);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_owned())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Number of spans recorded in the timed phase: its outbreaks and
/// everything below them, leaving out set-up and the direct timings.
fn timed_span_count(spans: &[Span]) -> usize {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| {
            let mut at = *s;
            while let Some(parent) = at.parent.and_then(|p| by_id.get(&p)) {
                at = parent;
            }
            at.name == "workload.outbreak"
        })
        .count()
}

fn per_layer(
    w: Workload,
    sample: usize,
    setup: &SetupTimes,
    session: &Session,
    post: &Post,
    spans: &[Span],
) -> Result<Metrics, String> {
    let selfs = self_nanos(spans);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect()
    };
    let sum = |name: &str| total(&durations(name));
    let solve_ns = sum("engine.solve");
    let share = |part: f64| if solve_ns > 0.0 { part / solve_ns } else { 0.0 };
    let d = &post.direct;

    // Exact counts over the fixed outbreak sample.
    let sample_recs: Vec<_> = session.records.iter().take(sample).collect();
    let (mut evaluations, mut mc_queries, mut sims, mut scbg_candidates) = (0u64, 0u64, 0u64, 0u64);
    // Picks per CELF trajectory: the longest answer drawn from it.
    let mut picks: BTreeMap<(usize, String), usize> = BTreeMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for rec in &sample_recs {
        hits += rec.cache.hits();
        misses += rec.cache.misses();
        for s in &rec.solves {
            let request = &rec.outbreak.queries[s.query];
            let Ok(a) = &s.answer else { continue };
            match &a.detail {
                Detail::Greedy { evaluations: e, .. } => {
                    evaluations += *e as u64;
                    if matches!(request.estimator, Estimator::MonteCarlo) {
                        mc_queries += *e as u64;
                        sims += (*e * request.realizations) as u64;
                    }
                    let pool = format!("{:?}", request.candidates);
                    let entry = picks.entry((rec.outbreak.index, pool)).or_default();
                    *entry = (*entry).max(a.protectors.len());
                }
                Detail::Scbg { candidates, .. } => scbg_candidates += *candidates as u64,
            }
        }
    }
    let total_picks: usize = picks.values().sum();

    // Tail requests of this (traced) run: sketch build and waits there.
    let solves: Vec<&Span> = spans.iter().filter(|s| s.name == "engine.solve").collect();
    let mut lat: Vec<f64> = solves.iter().map(|s| s.nanos() as f64).collect();
    lat.sort_by(f64::total_cmp);
    let (threshold, _) = percentile(&lat, w.tail_percentile());
    let tail_ids: BTreeSet<u64> = solves
        .iter()
        .filter(|s| s.nanos() as f64 >= threshold && threshold > 0.0)
        .map(|s| s.id)
        .collect();
    let tail_total = total(
        &solves
            .iter()
            .filter(|s| tail_ids.contains(&s.id))
            .map(|s| s.nanos() as f64)
            .collect::<Vec<_>>(),
    );
    let tail_sketch = total(
        &spans
            .iter()
            .filter(|s| {
                s.name == "sketch.estimator" && s.parent.is_some_and(|p| tail_ids.contains(&p))
            })
            .map(|s| s.nanos() as f64)
            .collect::<Vec<_>>(),
    );

    let overhead: Vec<f64> = solves
        .iter()
        .map(|s| selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e3)
        .collect();
    let timed_spans = timed_span_count(spans);
    let mut m = Metrics(Vec::new());
    m.add("datasets.generate_ms", median(&setup.generate_ms), "ms");
    m.add("datasets.instance_ms", median(&setup.instance_ms), "ms");
    m.add("bridge.ms", median(&d.bridge_ms), "ms");
    m.add("bridge.ends", d.bridge_ends as f64, "count");
    m.add("diffusion.sims", sims as f64, "count");
    let us_per_query = median(&d.objective_us);
    m.add(
        "diffusion.us_per_sim",
        if d.realizations > 0 {
            us_per_query / d.realizations as f64
        } else {
            0.0
        },
        "us",
    );
    m.add("objective.queries", mc_queries as f64, "count");
    m.add("objective.us_per_query", us_per_query, "us");
    m.add(
        "greedy.select_ms",
        mean(&durations("greedy.select")) / 1e6,
        "ms",
    );
    m.add("greedy.evaluations", evaluations as f64, "count");
    m.add(
        "greedy.evals_per_pick",
        if total_picks > 0 {
            evaluations as f64 / total_picks as f64
        } else {
            0.0
        },
        "ratio",
    );
    m.add("sketch.build_ms", median(&d.sketch_build_ms), "ms");
    m.add("sketch.count", d.sketch_count as f64, "count");
    m.add(
        "sketch.us_per_sketch",
        if d.sketch_count > 0 {
            total(&d.sketch_build_ms) * 1e3 / d.sketch_count as f64
        } else {
            0.0
        },
        "us",
    );
    m.add("sketch.query_ns", median(&d.sketch_query_ns), "ns");
    m.add(
        "engine.hit_ratio.bridge",
        ratio(session.phase_cache.bridge),
        "fraction",
    );
    m.add(
        "engine.hit_ratio.sketch",
        ratio(session.phase_cache.sketch),
        "fraction",
    );
    m.add(
        "engine.hit_ratio.celf",
        ratio(session.phase_cache.celf),
        "fraction",
    );
    m.add("engine.cache_hits", hits as f64, "count");
    m.add("engine.cache_misses", misses as f64, "count");
    m.add("engine.overhead_us", mean(&overhead), "us");
    m.add(
        "engine.write_ms",
        mean(&durations("engine.write")) / 1e6,
        "ms",
    );
    m.add(
        "scbg.select_ms",
        mean(&durations("scbg.select")) / 1e6,
        "ms",
    );
    m.add("scbg.candidates", scbg_candidates as f64, "count");
    let cover: Vec<f64> = d
        .scbg_ms
        .iter()
        .zip(&d.scbg_bridge_ms)
        .map(|(s, b)| s - b)
        .collect();
    m.add("scbg.cover_ms", median(&cover), "ms");
    m.add(
        "greedy.request_share",
        share(sum("greedy.select") + sum("objective.estimator")),
        "fraction",
    );
    m.add(
        "sketch.tail_share",
        if tail_total > 0.0 {
            tail_sketch / tail_total
        } else {
            0.0
        },
        "fraction",
    );
    m.add("scbg.request_share", share(sum("scbg.select")), "fraction");
    let rss = session
        .peak_rss_mb
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    m.add("engine.peak_rss_mb", rss, "MiB");
    m.add("trace.spans", timed_spans as f64, "count");
    m.add(
        "trace.overhead_pct",
        100.0 * session.trace_cost_ns as f64 / session.phase.as_nanos() as f64,
        "%",
    );
    Ok(m)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let tracer = Tracer::new(args.trace);
    let sample = w.sample_outbreaks(args.tiny);

    let (solver, members, mut setup) = workload::setup(w, args.tiny, args.seed, &tracer)?;
    let (solver, session) = workload::run_session(
        w,
        args.tiny,
        solver,
        &members,
        args.seed,
        args.seconds,
        sample,
        &mut setup,
        &tracer,
    )?;
    let ctx = post::Context {
        workload: w,
        seed: args.seed,
        master: workload::master_seed(args.seed),
        sample,
        base: solver.instance(),
        tracer: &tracer,
    };
    let mut post = post::run(&ctx, &session.records);

    let attempted: usize = session.records.iter().map(|r| 1 + r.solves.len()).sum();
    let failed: usize = session
        .records
        .iter()
        .map(|r| usize::from(!r.write_ok) + r.solves.iter().filter(|s| s.answer.is_err()).count())
        .sum();
    let lat = solve_latencies(&session);
    let (_, beyond) = percentile(&lat, w.tail_percentile());
    let total_threads = w.clients() * w.solve_threads(cores);
    let provenance = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("tiny", Json::from(args.tiny)),
        ("available_parallelism", Json::from(cores)),
        ("rustc", Json::from(tool_output("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("clients", Json::from(w.clients())),
        ("solve_threads", Json::from(w.solve_threads(cores))),
        ("total_threads", Json::from(total_threads)),
        ("within_cores", Json::from(total_threads <= cores)),
        ("outbreaks", Json::from(session.records.len())),
        (
            "timed_outbreaks",
            Json::from(session.records.iter().filter(|r| r.timed).count()),
        ),
        ("sample_outbreaks", Json::from(sample)),
        ("setup_repetitions", Json::from(setup.total_s.len())),
        ("timed_solves", Json::from(lat.len())),
        ("tail_percentile", Json::from(w.tail_percentile())),
        ("tail_samples_beyond", Json::from(beyond)),
        ("answers_checked", Json::from(post.checked)),
        ("answers_resolved_serially", Json::from(post.resolved)),
    ]);
    if total_threads > cores {
        post.failures.push(format!(
            "{} clients x {} solve threads exceed {cores} cores",
            w.clients(),
            w.solve_threads(cores)
        ));
    }
    for f in &post.failures {
        eprintln!("check failed: {f}");
    }
    let correct = post.failures.is_empty() && failed == 0;

    let metrics = if args.trace {
        let spans = tracer.into_spans();
        let m = per_layer(w, sample, &setup, &session, &post, &spans)?;
        fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
        let path = Path::new(TRACE_DIR).join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        let doc = Json::obj([
            ("provenance", provenance.clone()),
            ("metrics", m.json()),
            ("spans", spans_json(&spans)),
        ]);
        fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        m
    } else {
        end_to_end(w, &setup, &session, &post, attempted, failed)
    };

    println!("{}", Json::obj([("provenance", provenance)]));
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics.json()),
    ]);
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
