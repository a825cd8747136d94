//! The always-on engine-invariant registry.
//!
//! Modeled on Kimberlite's VOPR checker anatomy: each invariant is a small
//! checker with `record_*` entry points returning an [`InvariantResult`];
//! the [`Registry`] owns one of each, feeds them the run artifacts, and
//! accumulates violations with enough context to reproduce (`scenario`,
//! checker name, message). [`InvariantConfig`] lets a debugging session
//! switch individual checkers off; everything defaults to on, and CI runs
//! with everything on.
//!
//! Checkers come in three shapes:
//!
//! * **event checkers** replay the scheduler event log of one run
//!   (commit order, issue/commit balance);
//! * **run checkers** look at one run's artifacts (trace/Stats agreement,
//!   span laminarity, death surfacing);
//! * **pair checkers** compare two runs (fault transparency against the
//!   unfaulted reference, bit-exact replay equality, Stats additivity).

use hhoudini::sim::SchedEvent;
use hhoudini::Stats;
use std::collections::BTreeMap;

/// Outcome of one checker application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantResult {
    /// The invariant held.
    Ok,
    /// The invariant was violated; the message states what and where.
    Violation(String),
}

/// Per-checker enable switches. All on by default; CI never turns any off.
#[derive(Debug, Clone, Copy)]
pub struct InvariantConfig {
    /// Commits must be the issue-order projection: commit *i* commits job *i*.
    pub commit_order: bool,
    /// Issue/commit balance and a drained `sched.inflight` counter.
    pub inflight_balance: bool,
    /// Trace counter totals agree with the `Stats` the engine reports.
    pub trace_agreement: bool,
    /// Spans on each thread are laminar (disjoint or nested, never crossing).
    pub laminarity: bool,
    /// `Stats::merge` adds counters (maxing only the documented gauges).
    pub stats_additivity: bool,
    /// Non-poisoning faults leave invariant and solution table bit-identical.
    pub fault_transparency: bool,
    /// A worker death is surfaced (poisoned, no invariant), never absorbed.
    pub death_surfacing: bool,
    /// Same seed, same faults ⇒ bit-identical run (event-log hash equality).
    pub replay_determinism: bool,
}

impl Default for InvariantConfig {
    fn default() -> InvariantConfig {
        InvariantConfig {
            commit_order: true,
            inflight_balance: true,
            trace_agreement: true,
            laminarity: true,
            stats_additivity: true,
            fault_transparency: true,
            death_surfacing: true,
            replay_determinism: true,
        }
    }
}

/// Everything one engine run leaves behind, in comparison-friendly form.
/// Predicates are wire-serialized so equality is bit-exact and printable.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Display label, e.g. `"wide/faulted"`.
    pub label: String,
    /// The learned invariant (sorted wire form), `None` on failure.
    pub invariant: Option<Vec<String>>,
    /// The memo table as sorted `(target, premises)` wire pairs.
    pub solutions: Vec<(String, Vec<String>)>,
    /// Engine telemetry.
    pub stats: Stats,
    /// Timing-insensitive trace digest ([`hh_trace::Trace::event_log_hash`]).
    pub trace_hash: u64,
    /// Trace counter totals by name.
    pub counters: BTreeMap<&'static str, i64>,
    /// Per-thread span intervals `(tid, start_us, end_us)`.
    pub spans: Vec<(u64, u64, u64)>,
    /// The scheduler event log the driver observed.
    pub events: Vec<SchedEvent>,
}

impl RunArtifacts {
    /// Worker deaths the driver injected and observed.
    pub fn deaths(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SchedEvent::WorkerDeath { .. }))
            .count()
    }

    fn issues(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SchedEvent::Issue { .. }))
            .count()
    }

    fn commits(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SchedEvent::Commit { .. }))
            .count()
    }
}

// ---------------------------------------------------------------------------
// Event checkers
// ---------------------------------------------------------------------------

/// Commit order == issue-order projection. Jobs are issued with ascending
/// indices, and the reorder buffer must commit them in exactly that order:
/// the *i*-th commit carries `seq == i` and `job == i`. This is the
/// determinism keystone — every scheduler decision is a pure function of
/// the commit count only if the commit sequence itself is schedule-free.
#[derive(Debug, Default)]
pub struct CommitOrderChecker {
    committed: usize,
}

impl CommitOrderChecker {
    /// Feeds one scheduler event.
    pub fn record_event(&mut self, ev: &SchedEvent) -> InvariantResult {
        if let SchedEvent::Commit { seq, job } = ev {
            let want = self.committed;
            self.committed += 1;
            if *seq != want || *job != want {
                return InvariantResult::Violation(format!(
                    "commit #{want} carried seq={seq} job={job}; commits must \
                     be the issue-order projection"
                ));
            }
        }
        InvariantResult::Ok
    }
}

// ---------------------------------------------------------------------------
// Run checkers
// ---------------------------------------------------------------------------

/// Issue/commit balance: an unpoisoned run commits every issued job and
/// drains the `sched.inflight` gauge to zero; a poisoned run's residue
/// must equal exactly the jobs issued but never committed.
pub fn check_inflight_balance(run: &RunArtifacts) -> InvariantResult {
    let issues = run.issues();
    let commits = run.commits();
    let residue = *run.counters.get("sched.inflight").unwrap_or(&0);
    if residue != (issues - commits) as i64 {
        return InvariantResult::Violation(format!(
            "sched.inflight residue {residue} != issued({issues}) - \
             committed({commits})"
        ));
    }
    if !run.stats.poisoned && issues != commits {
        return InvariantResult::Violation(format!(
            "unpoisoned run left {issues} issues vs {commits} commits"
        ));
    }
    InvariantResult::Ok
}

/// Trace counters and `Stats` are two recordings of the same run; the
/// totals must agree wherever both exist. (`smt.cache.*` totals come from
/// the shared cache's own counters, so they agree even on poisoned runs
/// where uncommitted solves never reach `Stats` — `engine.query` is
/// recorded at commit, so it agrees unconditionally too.)
pub fn check_trace_agreement(run: &RunArtifacts) -> InvariantResult {
    let pairs: [(&str, u64); 3] = [
        ("engine.query", run.stats.smt_queries as u64),
        ("smt.cache.hit", run.stats.counters.encode_cache_hits),
        ("smt.cache.miss", run.stats.counters.encode_cache_misses),
    ];
    for (name, stat) in pairs {
        let traced = *run.counters.get(name).unwrap_or(&0);
        if traced != stat as i64 {
            return InvariantResult::Violation(format!(
                "trace total {name}={traced} disagrees with Stats value {stat}"
            ));
        }
    }
    InvariantResult::Ok
}

/// Span laminarity: on each thread, spans nest or are disjoint — a span
/// that *crosses* another (starts inside it, ends outside) means the
/// guard-based instrumentation itself is broken.
pub fn check_laminarity(run: &RunArtifacts) -> InvariantResult {
    let mut by_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for &(tid, start, end) in &run.spans {
        by_tid.entry(tid).or_default().push((start, end));
    }
    for (tid, mut spans) in by_tid {
        // Outer spans first at equal start, then a containment stack.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end)) = stack.last() {
                if end > top_end {
                    return InvariantResult::Violation(format!(
                        "span [{start},{end}]us on tid {tid} crosses enclosing \
                         span [{top_start},{top_end}]us"
                    ));
                }
            }
            stack.push((start, end));
        }
    }
    InvariantResult::Ok
}

/// A worker death must poison the run and suppress the invariant; absent a
/// death, the run must not be poisoned. Catches both an absorbed death
/// (the pre-fix hang, or worse, a fabricated result) and a spurious one.
pub fn check_death_surfacing(run: &RunArtifacts) -> InvariantResult {
    let deaths = run.deaths();
    if deaths > 0 {
        if !run.stats.poisoned {
            return InvariantResult::Violation(format!(
                "{deaths} worker death(s) observed but Stats::poisoned unset"
            ));
        }
        if run.invariant.is_some() {
            return InvariantResult::Violation(
                "poisoned run reported a learned invariant".to_string(),
            );
        }
    } else if run.stats.poisoned {
        return InvariantResult::Violation(
            "run poisoned with no injected worker death".to_string(),
        );
    }
    InvariantResult::Ok
}

// ---------------------------------------------------------------------------
// Pair checkers
// ---------------------------------------------------------------------------

/// `Stats::merge` must fold every counter by its table row (sums add, byte
/// gauges take the maximum), and poisoning must be sticky across merges — an
/// aggregated report must never launder a poisoned run into a clean total.
pub fn check_stats_additivity(a: &Stats, b: &Stats) -> InvariantResult {
    let mut merged = a.clone();
    merged.merge(b);
    let (ca, cb, cm) = (a.counters(), b.counters(), merged.counters());
    for (def, ((name, va), ((_, vb), (_, vm)))) in hh_trace::COUNTERS
        .iter()
        .zip(ca.iter().zip(cb.iter().zip(cm.iter())))
    {
        let want = def.fold.apply(*va, *vb);
        if *vm != want {
            return InvariantResult::Violation(format!(
                "merge broke {name}: {va} ⊕ {vb} gave {vm}, expected {want}"
            ));
        }
    }
    if merged.poisoned != (a.poisoned || b.poisoned) {
        return InvariantResult::Violation("merge dropped the poisoned flag".to_string());
    }
    InvariantResult::Ok
}

/// Whenever a faulted run reports success, its learned invariant and full
/// solution table must be bit-identical to the unfaulted reference —
/// reorderings and cache evictions may only change timing, never results.
/// (Poisoned runs report no result and are judged by
/// [`check_death_surfacing`] instead.)
pub fn check_fault_transparency(
    reference: &RunArtifacts,
    faulted: &RunArtifacts,
) -> InvariantResult {
    if faulted.stats.poisoned {
        return InvariantResult::Ok;
    }
    if faulted.invariant != reference.invariant {
        return InvariantResult::Violation(format!(
            "invariant differs from unfaulted reference: {:?} vs {:?}",
            faulted.invariant, reference.invariant
        ));
    }
    if faulted.solutions != reference.solutions {
        return InvariantResult::Violation(
            "solution table differs from unfaulted reference".to_string(),
        );
    }
    InvariantResult::Ok
}

/// Two runs of the same seed must be bit-identical: same event-log hash,
/// same scheduler event sequence, same counters, same result. This is the
/// reproducibility contract `--seed` advertises.
pub fn check_replay(first: &RunArtifacts, second: &RunArtifacts) -> InvariantResult {
    if first.trace_hash != second.trace_hash {
        return InvariantResult::Violation(format!(
            "event-log hash diverged across replays: {:016x} vs {:016x}",
            first.trace_hash, second.trace_hash
        ));
    }
    if first.events != second.events {
        return InvariantResult::Violation("scheduler event log diverged across replays".into());
    }
    if first.counters != second.counters {
        return InvariantResult::Violation("trace counter totals diverged across replays".into());
    }
    if first.invariant != second.invariant || first.solutions != second.solutions {
        return InvariantResult::Violation("learned result diverged across replays".into());
    }
    InvariantResult::Ok
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Owns every checker, routes run artifacts through them, and accumulates
/// violations. One registry lives for one seed.
#[derive(Debug)]
pub struct Registry {
    config: InvariantConfig,
    /// Human-readable violations: `scenario: checker: message`.
    pub violations: Vec<String>,
    /// Total checker applications (for "did anything actually run" smoke).
    pub checks: usize,
}

impl Registry {
    /// A registry with the given switches (CI uses `Default`: all on).
    pub fn new(config: InvariantConfig) -> Registry {
        Registry {
            config,
            violations: Vec::new(),
            checks: 0,
        }
    }

    fn apply(&mut self, scenario: &str, checker: &str, result: InvariantResult) {
        self.checks += 1;
        if let InvariantResult::Violation(msg) = result {
            self.violations
                .push(format!("{scenario}: {checker}: {msg}"));
        }
    }

    /// Runs every single-run checker over one run's artifacts.
    pub fn record_run(&mut self, scenario: &str, run: &RunArtifacts) {
        let label = format!("{scenario}/{}", run.label);
        if self.config.commit_order {
            let mut checker = CommitOrderChecker::default();
            for ev in &run.events {
                let r = checker.record_event(ev);
                if !matches!(r, InvariantResult::Ok) {
                    self.apply(&label, "commit-order", r);
                    break; // one violation per run is enough context
                }
            }
            self.checks += 1;
        }
        if self.config.inflight_balance {
            self.apply(&label, "inflight-balance", check_inflight_balance(run));
        }
        if self.config.trace_agreement {
            self.apply(&label, "trace-agreement", check_trace_agreement(run));
        }
        if self.config.laminarity {
            self.apply(&label, "laminarity", check_laminarity(run));
        }
        if self.config.death_surfacing {
            self.apply(&label, "death-surfacing", check_death_surfacing(run));
        }
    }

    /// Runs the pair checkers over (unfaulted reference, faulted run).
    pub fn record_pair(
        &mut self,
        scenario: &str,
        reference: &RunArtifacts,
        faulted: &RunArtifacts,
    ) {
        if self.config.fault_transparency {
            self.apply(
                scenario,
                "fault-transparency",
                check_fault_transparency(reference, faulted),
            );
        }
        if self.config.stats_additivity {
            self.apply(
                scenario,
                "stats-additivity",
                check_stats_additivity(&reference.stats, &faulted.stats),
            );
        }
    }

    /// Runs the replay checker over two executions of the same seed.
    pub fn record_replay(&mut self, scenario: &str, first: &RunArtifacts, second: &RunArtifacts) {
        if self.config.replay_determinism {
            self.apply(scenario, "replay-determinism", check_replay(first, second));
        }
    }

    /// Records a violation discovered outside the checker structs (the
    /// serve and SAT scenarios produce domain-specific messages).
    pub fn record_external(&mut self, scenario: &str, checker: &str, result: InvariantResult) {
        self.apply(scenario, checker, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_order_checker_accepts_in_order_and_rejects_shuffle() {
        let mut c = CommitOrderChecker::default();
        for i in 0..4 {
            assert_eq!(
                c.record_event(&SchedEvent::Commit { seq: i, job: i }),
                InvariantResult::Ok
            );
        }
        let mut c = CommitOrderChecker::default();
        assert_eq!(
            c.record_event(&SchedEvent::Commit { seq: 0, job: 0 }),
            InvariantResult::Ok
        );
        assert!(matches!(
            c.record_event(&SchedEvent::Commit { seq: 1, job: 2 }),
            InvariantResult::Violation(_)
        ));
    }

    #[test]
    fn laminarity_rejects_crossing_spans() {
        let ok = RunArtifacts {
            label: "t".into(),
            invariant: None,
            solutions: vec![],
            stats: Stats::default(),
            trace_hash: 0,
            counters: BTreeMap::new(),
            spans: vec![(1, 0, 10), (1, 2, 5), (1, 6, 9), (1, 12, 20)],
            events: vec![],
        };
        assert_eq!(check_laminarity(&ok), InvariantResult::Ok);
        let crossing = RunArtifacts {
            spans: vec![(1, 0, 10), (1, 5, 15)],
            ..ok
        };
        assert!(matches!(
            check_laminarity(&crossing),
            InvariantResult::Violation(_)
        ));
    }

    #[test]
    fn stats_additivity_holds_for_engine_stats() {
        let mut a = Stats::default();
        (a.counters.queries, a.counters.sat_arena_bytes) = (3, 100);
        let mut b = Stats {
            poisoned: true,
            ..Stats::default()
        };
        (b.counters.queries, b.counters.sat_arena_bytes) = (4, 60);
        assert_eq!(check_stats_additivity(&a, &b), InvariantResult::Ok);
    }
}
