//! Deterministic schedule exploration and fault injection.
//!
//! A **model run** executes a closure (the *body*) with logical
//! threads serialized by the cooperative scheduler in [`core`]: at
//! most one thread runs at a time, and every context switch is a
//! recorded decision `(chosen, arity)`. The resulting decision list
//! fully determines the schedule, so any run — in particular any
//! *failing* run — can be replayed exactly.
//!
//! Three drivers:
//!
//! * [`explore_dfs`] — bounded exhaustive depth-first enumeration of
//!   the decision tree: run, then backtrack the deepest decision (up
//!   to `max_depth`) that still has an untried sibling, and rerun with
//!   that prefix forced.
//! * [`explore_seeds`] — one run per seed; choices beyond the (empty)
//!   prefix come from a splitmix64 stream, so large thread counts get
//!   diverse schedules without tree blowup.
//! * [`replay`] — force a full recorded decision list; used to
//!   reproduce a reported failure under a debugger or in a regression
//!   test.
//!
//! A run **fails** if the body (root logical thread) panics, if the
//! scheduler detects a deadlock (no runnable thread while some are
//! blocked — including every lost-wakeup manifestation), or if the
//! decision budget is exhausted. The returned [`ScheduleFailure`]
//! carries the seed (if any) and the decision string; its `Display`
//! form is the repro recipe.
//!
//! Fault injection: [`arm_fault`]`("name", n)` inside the body makes
//! the `n`-th execution of `lcrb_sync::fault::point("name")` panic in
//! whichever logical thread executes it, exercising drop-guard
//! recovery paths under every explored schedule.

#![expect(
    clippy::panic,
    clippy::indexing_slicing,
    reason = "model checker: panics abort a run"
)]
pub(crate) mod core;
pub mod facade;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use self::core::{Decision, Picker, Scheduler};

use crate::fault::FAULT_PANIC_PREFIX;

/// Budgets for an exploration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// DFS only: decisions beyond this depth never branch (always
    /// alternative 0), bounding the tree.
    pub max_depth: usize,
    /// Per-run cap on scheduling decisions; overflow fails the run.
    pub max_steps: usize,
    /// DFS only: cap on schedules explored; hitting it returns an
    /// incomplete (but passing) [`Exploration`].
    pub max_schedules: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_depth: 48,
            max_steps: 100_000,
            max_schedules: 200_000,
        }
    }
}

/// Summary of a passing exploration.
#[derive(Clone, Copy, Debug)]
pub struct Exploration {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// Whether the bounded DFS enumerated the whole (depth-bounded)
    /// tree; seeded exploration always reports `false`.
    pub complete: bool,
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct ScheduleFailure {
    /// Panic payload of the root thread, or the scheduler's abort
    /// reason (deadlock / step budget).
    pub message: String,
    /// PRNG seed of the failing run (seeded exploration only).
    pub seed: Option<u64>,
    /// The failing run's full decision list (chosen indices).
    pub decisions: Vec<usize>,
    /// How many schedules ran up to and including the failing one.
    pub schedules: usize,
}

impl ScheduleFailure {
    /// The decision string: chosen indices joined with `.` — the
    /// argument to [`parse_replay`] / [`replay`].
    #[must_use]
    pub fn replay_string(&self) -> String {
        let parts: Vec<String> = self.decisions.iter().map(ToString::to_string).collect();
        parts.join(".")
    }
}

impl fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule failure: {}", self.message)?;
        match self.seed {
            Some(seed) => writeln!(f, "  seed: {seed}")?,
            None => writeln!(f, "  seed: - (DFS)")?,
        }
        writeln!(f, "  schedule {} of this exploration", self.schedules)?;
        writeln!(f, "  replay decision string: {}", self.replay_string())?;
        write!(
            f,
            "  reproduce: lcrb_sync::sched::replay(&lcrb_sync::sched::parse_replay(\"{}\"), body)",
            self.replay_string()
        )
    }
}

/// Parses a decision string (`"0.2.1"`) back into chosen indices.
/// Ignores empty segments; non-numeric segments parse as 0.
#[must_use]
pub fn parse_replay(s: &str) -> Vec<usize> {
    s.split('.')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse().unwrap_or(0))
        .collect()
}

/// Arms the named [`fault::point`](crate::fault::point) to panic on
/// its `nth` (1-based) execution within the current model run.
///
/// # Panics
///
/// Panics if called outside a model run — arming a fault that can
/// never fire is a test bug.
pub fn arm_fault(name: &str, nth: u64) {
    let ctx =
        core::current().unwrap_or_else(|| panic!("arm_fault('{name}') called outside a model run"));
    ctx.sched.arm_fault(name, nth);
}

/// Backend for [`crate::fault::point`]: no-op unless a model run is
/// active on this thread; inside one it is a preemption point that
/// panics when the armed execution is reached.
pub(crate) fn fault_point(name: &str) {
    if let Some(ctx) = core::current() {
        if ctx.sched.op_fault(ctx.tid, name) {
            panic!("{FAULT_PANIC_PREFIX} at '{name}'");
        }
    }
}

/// Returns whether `payload`-style panic message `msg` is an injected
/// fault (as opposed to an assertion or a scheduler abort).
#[must_use]
pub fn is_fault_panic(msg: &str) -> bool {
    msg.starts_with(FAULT_PANIC_PREFIX)
}

/// Renders a join-error / catch_unwind payload as a string.
#[must_use]
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

struct RunRecord {
    decisions: Vec<Decision>,
    abort: Option<String>,
    panic: Option<String>,
}

impl RunRecord {
    fn failure_message(&self) -> Option<String> {
        // The abort reason is authoritative: the root's panic in an
        // aborted run is just the kill mechanism.
        if let Some(msg) = &self.abort {
            return Some(msg.clone());
        }
        self.panic.clone()
    }

    fn chosen(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }
}

/// Installs (once per process) a panic hook that stays quiet for
/// threads inside a model run: injected faults and scheduler kills are
/// expected control flow there, and their payloads are reported
/// through [`ScheduleFailure`] instead. Other threads keep the
/// previous hook behaviour.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if core::current().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

fn run_once<F: Fn()>(picker: Picker, prefix: Vec<usize>, max_steps: usize, body: &F) -> RunRecord {
    assert!(
        core::current().is_none(),
        "nested model runs are not supported"
    );
    install_quiet_hook();
    let sched = Arc::new(Scheduler::new(picker, prefix, max_steps));
    core::set_current(Some(core::Ctx {
        sched: Arc::clone(&sched),
        tid: 0,
    }));
    let result = catch_unwind(AssertUnwindSafe(body));
    core::set_current(None);
    let (decisions, abort) = sched.snapshot();
    RunRecord {
        decisions,
        abort,
        panic: result.err().map(|p| payload_message(p.as_ref())),
    }
}

/// The deepest decision (within `max_depth`) with an untried sibling,
/// advanced by one; `None` when the bounded tree is exhausted.
fn next_prefix(decisions: &[Decision], max_depth: usize) -> Option<Vec<usize>> {
    let mut idx = decisions.len().min(max_depth);
    while idx > 0 {
        idx -= 1;
        let d = decisions[idx];
        if d.chosen + 1 < d.arity {
            let mut prefix: Vec<usize> = decisions[..idx].iter().map(|d| d.chosen).collect();
            prefix.push(d.chosen + 1);
            return Some(prefix);
        }
    }
    None
}

/// Bounded exhaustive DFS over scheduling decisions.
///
/// Runs `body` under every schedule reachable by varying the first
/// `cfg.max_depth` decisions (deeper decisions always take
/// alternative 0), stopping early after `cfg.max_schedules` runs.
///
/// # Errors
///
/// The first failing schedule, with its replay decision string.
pub fn explore_dfs<F: Fn()>(cfg: &Config, body: F) -> Result<Exploration, ScheduleFailure> {
    let mut prefix = Vec::new();
    let mut schedules = 0usize;
    loop {
        let rec = run_once(Picker::Dfs, prefix, cfg.max_steps, &body);
        schedules += 1;
        if let Some(message) = rec.failure_message() {
            return Err(ScheduleFailure {
                message,
                seed: None,
                decisions: rec.chosen(),
                schedules,
            });
        }
        match next_prefix(&rec.decisions, cfg.max_depth) {
            Some(p) if schedules < cfg.max_schedules => prefix = p,
            Some(_) => {
                return Ok(Exploration {
                    schedules,
                    complete: false,
                })
            }
            None => {
                return Ok(Exploration {
                    schedules,
                    complete: true,
                })
            }
        }
    }
}

/// Seeded random exploration: one run per seed, choices drawn from a
/// splitmix64 stream.
///
/// # Errors
///
/// The first failing schedule, with its seed and replay string.
pub fn explore_seeds<F: Fn()>(
    cfg: &Config,
    seeds: &[u64],
    body: F,
) -> Result<Exploration, ScheduleFailure> {
    for (i, &seed) in seeds.iter().enumerate() {
        let rec = run_once(Picker::Seeded(seed), Vec::new(), cfg.max_steps, &body);
        if let Some(message) = rec.failure_message() {
            return Err(ScheduleFailure {
                message,
                seed: Some(seed),
                decisions: rec.chosen(),
                schedules: i + 1,
            });
        }
    }
    Ok(Exploration {
        schedules: seeds.len(),
        complete: false,
    })
}

/// Replays one schedule from a recorded decision list (see
/// [`ScheduleFailure::replay_string`] / [`parse_replay`]).
///
/// # Errors
///
/// The run's failure, if it (re)fails.
pub fn replay<F: Fn()>(decisions: &[usize], body: F) -> Result<(), ScheduleFailure> {
    let cfg = Config::default();
    let rec = run_once(
        Picker::Dfs,
        decisions.to_vec(),
        cfg.max_steps.max(decisions.len() + 1),
        &body,
    );
    match rec.failure_message() {
        Some(message) => Err(ScheduleFailure {
            message,
            seed: None,
            decisions: rec.chosen(),
            schedules: 1,
        }),
        None => Ok(()),
    }
}
