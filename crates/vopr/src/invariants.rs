//! The always-on engine-invariant registry.
//!
//! Modeled on Kimberlite's VOPR checker anatomy: each invariant is a small
//! checker with `record_*` entry points returning an [`InvariantResult`];
//! the [`Registry`] owns one of each, feeds them the run artifacts, and
//! accumulates violations with enough context to reproduce (`scenario`,
//! checker name, message). Every checker runs on every seed.
//!
//! Checkers come in three shapes:
//!
//! * **event checkers** replay the scheduler event log of one run
//!   (commit order, the issue window);
//! * **run checkers** look at one run's artifacts (trace/Stats agreement,
//!   span laminarity, death surfacing);
//! * **pair checkers** compare two runs (fault transparency against the
//!   unfaulted reference, bit-exact replay equality).

use hhoudini::sim::SchedEvent;
use hhoudini::{Stats, ISSUE_WINDOW};
use std::collections::BTreeMap;

/// Outcome of one checker application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantResult {
    /// The invariant held.
    Ok,
    /// The invariant was violated; the message states what and where.
    Violation(String),
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

/// The issue window: no issue point leaves more than
/// [`ISSUE_WINDOW`] jobs issued and uncommitted, counting the job just
/// issued. A scheduler that mined further ahead would fix candidate sets
/// before the failures that should prune them commit.
#[derive(Debug, Default)]
pub struct IssueWindowChecker {
    issued: usize,
    committed: usize,
}

impl IssueWindowChecker {
    /// Feeds one scheduler event.
    pub fn record_event(&mut self, ev: &SchedEvent) -> InvariantResult {
        match ev {
            SchedEvent::Issue { job } => {
                self.issued += 1;
                let open = self.issued - self.committed;
                if open > ISSUE_WINDOW {
                    return InvariantResult::Violation(format!(
                        "job {job} issued with {open} jobs uncommitted; the \
                         window is {ISSUE_WINDOW}"
                    ));
                }
            }
            SchedEvent::Commit { .. } => self.committed += 1,
            _ => {}
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
/// totals must agree wherever both exist. All three are recorded on the
/// scheduler thread next to the `Stats` field they mirror (a query at
/// commit), so they agree unconditionally, poisoned runs included.
pub fn check_trace_agreement(run: &RunArtifacts) -> InvariantResult {
    let pairs: [(&str, u64); 3] = [
        ("engine.query", run.stats.smt_queries as u64),
        ("engine.backtrack", run.stats.counters.backtracks),
        ("engine.memo.hit", run.stats.counters.memo_hits),
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

/// Whenever a faulted run reports success, its learned invariant and full
/// solution table must be bit-identical to the unfaulted reference —
/// reorderings may only change timing, never results. (Poisoned runs
/// report no result and are judged by [`check_death_surfacing`] instead.)
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
#[derive(Debug, Default)]
pub struct Registry {
    /// Human-readable violations: `scenario: checker: message`.
    pub violations: Vec<String>,
    /// Total checker applications (for "did anything actually run" smoke).
    pub checks: usize,
}

impl Registry {
    fn apply(&mut self, scenario: &str, checker: &str, result: InvariantResult) {
        self.checks += 1;
        if let InvariantResult::Violation(msg) = result {
            self.violations
                .push(format!("{scenario}: {checker}: {msg}"));
        }
    }

    /// Replays a run's event log through one event checker and records its
    /// first violation: one per run is enough context.
    fn replay_events(
        &mut self,
        label: &str,
        checker: &str,
        events: &[SchedEvent],
        mut record: impl FnMut(&SchedEvent) -> InvariantResult,
    ) {
        let first = (events.iter().map(&mut record)).find(|r| *r != InvariantResult::Ok);
        self.apply(label, checker, first.unwrap_or(InvariantResult::Ok));
    }

    /// Runs every single-run checker over one run's artifacts.
    pub fn record_run(&mut self, scenario: &str, run: &RunArtifacts) {
        let label = format!("{scenario}/{}", run.label);
        let mut order = CommitOrderChecker::default();
        self.replay_events(&label, "commit-order", &run.events, |ev| {
            order.record_event(ev)
        });
        let mut window = IssueWindowChecker::default();
        self.replay_events(&label, "issue-window", &run.events, |ev| {
            window.record_event(ev)
        });
        self.apply(&label, "inflight-balance", check_inflight_balance(run));
        self.apply(&label, "trace-agreement", check_trace_agreement(run));
        self.apply(&label, "laminarity", check_laminarity(run));
        self.apply(&label, "death-surfacing", check_death_surfacing(run));
    }

    /// Runs the fault-transparency checker over (unfaulted reference,
    /// faulted run).
    pub fn record_pair(
        &mut self,
        scenario: &str,
        reference: &RunArtifacts,
        faulted: &RunArtifacts,
    ) {
        self.apply(
            scenario,
            "fault-transparency",
            check_fault_transparency(reference, faulted),
        );
    }

    /// Runs the replay checker over two executions of the same seed.
    pub fn record_replay(&mut self, scenario: &str, first: &RunArtifacts, second: &RunArtifacts) {
        self.apply(scenario, "replay-determinism", check_replay(first, second));
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
    fn issue_window_checker_rejects_one_issue_past_the_window() {
        let issue = |job| SchedEvent::Issue { job };
        let mut c = IssueWindowChecker::default();
        for job in 0..ISSUE_WINDOW {
            assert_eq!(c.record_event(&issue(job)), InvariantResult::Ok);
        }
        let commit = SchedEvent::Commit { seq: 0, job: 0 };
        assert_eq!(c.record_event(&commit), InvariantResult::Ok);
        assert_eq!(c.record_event(&issue(ISSUE_WINDOW)), InvariantResult::Ok);
        assert!(matches!(
            c.record_event(&issue(ISSUE_WINDOW + 1)),
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
}
