//! Learning-run telemetry: the task tree, SMT-time accounting, and the
//! virtual-core scheduler used to regenerate the paper's Figures 2–5.
//!
//! Each H-Houdini *task* (one abduction query for one target predicate —
//! a retried target is a new task; paper §6.3) records its work time, the
//! SAT share of it and the task that discovered it. The resulting task DAG
//! is exactly the structure the paper parallelises, so given the per-task
//! durations we can replay the run on any number of virtual cores (greedy
//! list scheduling) — including the paper's "∞ cores" span measurement —
//! independent of how many physical cores this machine has.

use crate::store::PredId;
use hh_netlist::simp::SimpMap;
use hh_trace::Counters;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// One H-Houdini task (one abduction query for one target predicate).
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Target predicate of the task.
    pub pred: PredId,
    /// Index of the discovering (parent) task, if any.
    pub parent: Option<usize>,
    /// The query's time on its worker: encoding plus SAT solving.
    pub duration: Duration,
    /// The part of `duration` spent inside SAT solving (first solve plus
    /// core-trimming re-solves); the rest is bit-blasting or encode replay.
    pub smt_time: Duration,
    /// The SAT propagations of those solves: the task's work as a count,
    /// the same on every run.
    pub propagations: u64,
}

/// Aggregated statistics of one learning run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// All executed tasks, in discovery order (parents precede children).
    pub tasks: Vec<TaskRecord>,
    /// Total abduction/induction queries issued: `counters.queries` as a
    /// `usize`, the form the benchmark reads.
    pub smt_queries: usize,
    /// Individual SMT query durations (one per task, in commit order).
    pub query_durations: Vec<Duration>,
    /// Total task time: the sum of the tasks' durations.
    pub task_time: Duration,
    /// End-to-end wall-clock of the learning call.
    pub wall_time: Duration,
    /// Total time spent bit-blasting / registering candidates.
    pub encode_time: Duration,
    /// Total time spent inside SAT solving (including core-trimming
    /// re-solves).
    pub solve_time: Duration,
    /// The run counters ([`hh_trace::COUNTERS`] declares each one, its
    /// trace-schema name and how it folds). The engine never sees example
    /// generation; `veloct` fills the three `examples_*` counters in on the
    /// stats it reports.
    pub counters: Counters,
    /// Worker threads the run was configured with (the reordering window
    /// of a virtual run).
    pub workers: usize,
    /// Total worker solve time: the sum of committed job durations, equal
    /// to `task_time`. Divided by `workers × wall_time` this is the
    /// scheduler occupancy. Each job is folded in once, at its commit, not
    /// when the reorder buffer receives it.
    pub worker_busy_time: Duration,
    /// Whether a worker died (panicked) mid-job during the run. A poisoned
    /// run surfaces no invariant: the scheduler stops committing as soon as
    /// the death reaches it, instead of waiting forever on a `JobDone` that
    /// will never arrive.
    pub poisoned: bool,
}

impl Stats {
    /// Number of tasks executed.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Median of the tasks' SAT solve times (Figure 4).
    pub fn median_smt_query(&self) -> Duration {
        let mut d: Vec<Duration> = self.tasks.iter().map(|t| t.smt_time).collect();
        median(&mut d)
    }

    /// Median task duration (Figure 4).
    pub fn median_task(&self) -> Duration {
        let mut d: Vec<Duration> = self.tasks.iter().map(|t| t.duration).collect();
        median(&mut d)
    }

    /// The `q`-th percentile (0–100) of task durations (the paper quotes
    /// p95/p99 for MegaBOOM).
    pub fn task_percentile(&self, q: f64) -> Duration {
        let mut d: Vec<Duration> = self.tasks.iter().map(|t| t.duration).collect();
        if d.is_empty() {
            return Duration::ZERO;
        }
        d.sort_unstable();
        let idx = ((q / 100.0) * (d.len() as f64 - 1.0)).round() as usize;
        d[idx.min(d.len() - 1)]
    }

    /// Fraction of task time spent inside the SAT solver — the rest is
    /// encoding (Figure 4 reports roughly 50%).
    pub fn smt_fraction(&self) -> f64 {
        if self.task_time.is_zero() {
            return 0.0;
        }
        self.solve_time.as_secs_f64() / self.task_time.as_secs_f64()
    }

    /// Replays the task DAG on `cores` virtual cores with greedy list
    /// scheduling: a task becomes ready when its discovering task finishes.
    /// This regenerates the paper's core-count sweeps (Figure 2) and, with
    /// `cores = usize::MAX`, the ∞-core span (Figure 3).
    pub fn simulated_time(&self, cores: usize) -> Duration {
        assert!(cores >= 1);
        let n = self.tasks.len();
        if n == 0 {
            return Duration::ZERO;
        }
        // Children lists.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(p) = t.parent {
                children[p].push(i);
            }
        }
        // Ready heap keyed by ready time (then discovery order).
        let mut ready: BinaryHeap<Reverse<(Duration, usize)>> = BinaryHeap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.parent.is_none() {
                ready.push(Reverse((Duration::ZERO, i)));
            }
        }
        // Core availability times.
        let physical = cores.min(n);
        let mut free: BinaryHeap<Reverse<Duration>> = BinaryHeap::new();
        for _ in 0..physical {
            free.push(Reverse(Duration::ZERO));
        }
        let mut makespan = Duration::ZERO;
        while let Some(Reverse((ready_at, task))) = ready.pop() {
            let Reverse(core_at) = free.pop().expect("core available");
            let start = ready_at.max(core_at);
            let finish = start + self.tasks[task].duration;
            free.push(Reverse(finish));
            makespan = makespan.max(finish);
            for &c in &children[task] {
                ready.push(Reverse((finish, c)));
            }
        }
        makespan
    }

    /// The ∞-core span of the task DAG.
    pub fn span(&self) -> Duration {
        self.simulated_time(usize::MAX)
    }

    /// Folds one committed query into the run: its task, its time and its
    /// telemetry. Every job commits exactly once, so this is the one place
    /// worker busy time accumulates. Returns the new task's index.
    pub(crate) fn record_commit(
        &mut self,
        pred: PredId,
        parent: Option<usize>,
        duration: Duration,
        t: &hh_smt::QueryTelemetry,
    ) -> usize {
        self.worker_busy_time += duration;
        self.task_time += duration;
        self.smt_queries += 1;
        self.counters.queries += 1;
        self.query_durations.push(duration);
        hh_trace::counter!("engine", "engine.query", 1);
        self.encode_time += t.encode_time;
        self.solve_time += t.solve_time;
        self.counters.merge(&t.counters);
        self.tasks.push(TaskRecord {
            pred,
            parent,
            duration,
            smt_time: t.solve_time,
            propagations: t.counters.sat_propagations,
        });
        self.tasks.len() - 1
    }

    /// End-of-run fold of the run's word-level simplification map's counts
    /// (the map is built once per engine, so they are counted once, not
    /// per query).
    pub(crate) fn record_run_end(&mut self, simp: &SimpMap) {
        let simp = simp.stats();
        self.counters.merge(&Counters {
            word_const_folds: simp.const_folds,
            word_rewrites: simp.rewrites,
            word_strash_hits: simp.strash_hits,
            ..Counters::default()
        });
    }

    /// Scheduler occupancy: the fraction of configured worker capacity
    /// (`workers × wall_time`) spent solving. 0 when nothing was measured.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.workers.max(1) as f64 * self.wall_time.as_secs_f64();
        if capacity == 0.0 {
            return 0.0;
        }
        (self.worker_busy_time.as_secs_f64() / capacity).min(1.0)
    }

    /// The run counters under their trace-schema names, in
    /// [`hh_trace::COUNTERS`] order (see `docs/TRACE_SCHEMA.md`). The names
    /// match the `hh-trace` counters emitted at the same recording sites, so
    /// JSON reports built from this projection (e.g.
    /// `bench_results/speedup.json`) are a pure projection of the
    /// trace-counter namespace.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().collect()
    }
}

fn median(d: &mut [Duration]) -> Duration {
    if d.is_empty() {
        return Duration::ZERO;
    }
    d.sort_unstable();
    d[d.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(pred: u32, parent: Option<usize>, ms: u64) -> TaskRecord {
        TaskRecord {
            pred: PredId(pred),
            parent,
            duration: Duration::from_millis(ms),
            smt_time: Duration::from_millis(ms / 2),
            propagations: 0,
        }
    }

    /// Root (10ms) discovering two children (20ms, 30ms).
    fn tree() -> Stats {
        Stats {
            tasks: vec![
                task(0, None, 10),
                task(1, Some(0), 20),
                task(2, Some(0), 30),
            ],
            ..Stats::default()
        }
    }

    #[test]
    fn one_core_is_serial_sum() {
        let s = tree();
        assert_eq!(s.simulated_time(1), Duration::from_millis(60));
    }

    #[test]
    fn many_cores_reach_span() {
        let s = tree();
        // Children run in parallel after the root: 10 + max(20, 30).
        assert_eq!(s.simulated_time(2), Duration::from_millis(40));
        assert_eq!(s.span(), Duration::from_millis(40));
        assert_eq!(s.simulated_time(64), s.span());
    }

    #[test]
    fn chains_do_not_parallelise() {
        let s = Stats {
            tasks: vec![
                task(0, None, 10),
                task(1, Some(0), 10),
                task(2, Some(1), 10),
            ],
            ..Stats::default()
        };
        assert_eq!(s.span(), Duration::from_millis(30));
        assert_eq!(s.simulated_time(8), Duration::from_millis(30));
    }

    #[test]
    fn medians_and_percentiles() {
        let s = tree();
        assert_eq!(s.median_task(), Duration::from_millis(20));
        assert_eq!(s.task_percentile(100.0), Duration::from_millis(30));
        assert_eq!(s.task_percentile(0.0), Duration::from_millis(10));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = Stats::default();
        assert_eq!(s.simulated_time(4), Duration::ZERO);
        assert_eq!(s.median_task(), Duration::ZERO);
        assert_eq!(s.median_smt_query(), Duration::ZERO);
        assert_eq!(s.smt_fraction(), 0.0);
    }
}
