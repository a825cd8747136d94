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
    /// minimisation probes); the rest is bit-blasting or encode replay.
    pub smt_time: Duration,
}

/// Aggregated statistics of one learning run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// All executed tasks, in discovery order (parents precede children).
    pub tasks: Vec<TaskRecord>,
    /// Memo-table hits (tasks avoided).
    pub memo_hits: usize,
    /// Backtracks: abducts that had to be abandoned because a member
    /// predicate turned out to have no solution.
    pub backtracks: usize,
    /// Total abduction/induction queries issued.
    pub smt_queries: usize,
    /// Individual SMT query durations (one per task, in commit order).
    pub query_durations: Vec<Duration>,
    /// Total task time: the sum of the tasks' durations.
    pub task_time: Duration,
    /// End-to-end wall-clock of the learning call.
    pub wall_time: Duration,
    /// Abduction queries answered on a reused [`hh_smt::AbductionSession`]
    /// encoding (retries that skipped re-blasting the cone).
    pub session_hits: usize,
    /// Abduction queries that had to build a fresh encoding (the first
    /// query of each session).
    pub session_misses: usize,
    /// SAT variables session reuse avoided re-allocating (summed over hits).
    pub vars_saved: usize,
    /// Clauses session reuse avoided re-allocating (summed over hits).
    pub clauses_saved: usize,
    /// Total time spent bit-blasting / registering candidates.
    pub encode_time: Duration,
    /// Total time spent inside SAT solving (including minimisation probes).
    pub solve_time: Duration,
    /// SAT solve calls across all abduction queries: one first solve per
    /// query plus the minimisation probes that reached the solver.
    pub sat_solves: u64,
    /// Minimisation probes answered SAT (one abduct member confirmed
    /// critical each) — the dominant share of `sat_solves`.
    pub minimize_probes_sat: u64,
    /// Minimisation probes answered UNSAT (core shrunk).
    pub minimize_probes_unsat: u64,
    /// Abduct members confirmed critical from a model the session already
    /// held, without a solve.
    pub minimize_witness_hits: u64,
    /// Literals propagated across all SAT queries.
    pub sat_propagations: u64,
    /// Conflicts analysed across all SAT queries.
    pub sat_conflicts: u64,
    /// Learnt-database reduction rounds across all SAT queries.
    pub sat_reduces: u64,
    /// Peak clause-arena footprint (bytes) observed across all sessions —
    /// a high-water gauge, so folds take the maximum rather than the sum.
    pub sat_arena_bytes: u64,
    /// Chronological (one-level) backtracks across all SAT queries.
    pub sat_chrono_backtracks: u64,
    /// Peak watch-list footprint (bytes) observed across all sessions — a
    /// high-water gauge like `sat_arena_bytes`.
    pub sat_watch_bytes: u64,
    /// Word-level constant folds performed by the blaster's simplifier.
    pub word_const_folds: u64,
    /// Word-level algebraic rewrites performed by the blaster's simplifier.
    pub word_rewrites: u64,
    /// Structural-hashing merges performed by the blaster's simplifier.
    pub word_strash_hits: u64,
    /// Base encodings replayed from the cross-target encode cache instead of
    /// being re-blasted (signature hits).
    pub encode_cache_hits: u64,
    /// Base encodings blasted fresh and recorded into the cache.
    pub encode_cache_misses: u64,
    /// SAT variables whose allocation encode-cache replay skipped.
    pub encode_vars_saved: u64,
    /// Tseitin clauses encode-cache replay skipped re-deriving.
    pub encode_clauses_saved: u64,
    /// Most heap bytes the run's parked abduction sessions ever held
    /// together ([`hh_smt::AbductionSession::resident_bytes`], summed at
    /// every commit). Computed from capacities, so it repeats exactly and
    /// is the same at every thread count — a high-water gauge: folds take
    /// the maximum.
    pub session_resident_bytes: u64,
    /// Heap bytes the run's encode cache held when the run ended
    /// ([`hh_smt::EncodeCache::resident_bytes`]; a warm cache a service
    /// attached counts everything it has accumulated) — a gauge like
    /// `session_resident_bytes`.
    pub encode_cache_resident_bytes: u64,
    /// Base-design cycles simulated to generate the run's positive
    /// examples, both executions of each pair counted. The engine never
    /// sees example generation; `veloct` fills the three `examples_*`
    /// fields in on the stats it reports.
    pub examples_cycles: u64,
    /// Product states extracted from the paired traces, before
    /// deduplication.
    pub examples_raw: u64,
    /// Distinct product states: the positive examples the miner received.
    pub examples_unique: u64,
    /// Worker threads the run was configured with (the reordering window
    /// of a virtual run; merging keeps the maximum).
    pub workers: usize,
    /// Total worker solve time: the sum of committed job durations, equal
    /// to `task_time` for a single run. Divided by `workers × wall_time`
    /// this is the scheduler occupancy.
    ///
    /// Accounting invariant: each completed job is folded in **exactly
    /// once, at its commit**. The streaming scheduler's reorder buffer may
    /// *receive* several completions while waiting for the next in-order
    /// commit; folding at receive time as well would double-count every
    /// buffered job (see `ParallelEngine`'s single-commit loop).
    pub worker_busy_time: Duration,
    /// Whether a worker died (panicked) mid-job during the run. A poisoned
    /// run surfaces no invariant: the scheduler stops committing as soon as
    /// the death reaches it, instead of waiting forever on a `JobDone` that
    /// will never arrive. Merging ORs — any poisoned shard poisons the
    /// aggregate.
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

    pub(crate) fn record_query(&mut self, d: Duration) {
        self.smt_queries += 1;
        self.query_durations.push(d);
        hh_trace::counter!("engine", "engine.query", 1);
    }

    /// Folds one abduction query's telemetry into the session counters.
    pub(crate) fn record_abduction(&mut self, t: &hh_smt::QueryTelemetry) {
        if t.cached {
            self.session_hits += 1;
            self.vars_saved += t.vars_reused;
            self.clauses_saved += t.clauses_reused;
            hh_trace::counter!("smt", "smt.session.hit", 1);
        } else {
            self.session_misses += 1;
            hh_trace::counter!("smt", "smt.session.miss", 1);
        }
        self.encode_time += t.encode_time;
        self.solve_time += t.solve_time;
        self.sat_solves += t.solves;
        self.minimize_probes_sat += t.minimize_probes_sat;
        self.minimize_probes_unsat += t.minimize_probes_unsat;
        self.minimize_witness_hits += t.minimize_witness_hits;
        self.sat_propagations += t.propagations;
        self.sat_conflicts += t.conflicts;
        self.sat_reduces += t.reduces;
        self.sat_arena_bytes = self.sat_arena_bytes.max(t.arena_bytes);
        self.sat_chrono_backtracks += t.chrono_backtracks;
        self.sat_watch_bytes = self.sat_watch_bytes.max(t.watch_bytes);
        self.word_const_folds += t.const_folds;
        self.word_rewrites += t.rewrites;
        self.word_strash_hits += t.strash_hits;
    }

    /// End-of-run fold of the shared encode cache's final
    /// [`hh_smt::CacheStats`] and footprint, and of the parked sessions'
    /// high-water footprint.
    pub(crate) fn record_run_end(&mut self, cache: &hh_smt::EncodeCache, session_peak: u64) {
        let c = cache.stats();
        self.encode_cache_hits += c.hits;
        self.encode_cache_misses += c.misses;
        self.encode_vars_saved += c.vars_saved;
        self.encode_clauses_saved += c.clauses_saved;
        self.encode_cache_resident_bytes =
            self.encode_cache_resident_bytes.max(cache.resident_bytes());
        self.session_resident_bytes = self.session_resident_bytes.max(session_peak);
    }

    /// Fraction of abduction queries served by a live session (0 when no
    /// queries ran).
    pub fn session_hit_rate(&self) -> f64 {
        let total = self.session_hits + self.session_misses;
        if total == 0 {
            return 0.0;
        }
        self.session_hits as f64 / total as f64
    }

    /// Fraction of base encodings served by the cross-target encode cache
    /// (0 when it was never consulted).
    pub fn encode_cache_hit_rate(&self) -> f64 {
        let total = self.encode_cache_hits + self.encode_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.encode_cache_hits as f64 / total as f64
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

    /// Folds another `Stats` into this one.
    ///
    /// This is the per-thread counter fold: **associative** (and commutative
    /// on everything except task/query order), so partial aggregates can be
    /// combined in any grouping — `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` is property-
    /// tested in this module. Scalar counters and times add; `wall_time`
    /// and `workers` take the maximum (concurrent intervals don't add);
    /// task lists concatenate with parent indices re-based, preserving each
    /// input's internal DAG.
    pub fn merge(&mut self, other: &Stats) {
        let base = self.tasks.len();
        self.tasks.extend(other.tasks.iter().map(|t| TaskRecord {
            parent: t.parent.map(|p| p + base),
            ..t.clone()
        }));
        self.memo_hits += other.memo_hits;
        self.backtracks += other.backtracks;
        self.smt_queries += other.smt_queries;
        self.query_durations
            .extend(other.query_durations.iter().copied());
        self.task_time += other.task_time;
        self.wall_time = self.wall_time.max(other.wall_time);
        self.session_hits += other.session_hits;
        self.session_misses += other.session_misses;
        self.vars_saved += other.vars_saved;
        self.clauses_saved += other.clauses_saved;
        self.encode_time += other.encode_time;
        self.solve_time += other.solve_time;
        self.sat_solves += other.sat_solves;
        self.minimize_probes_sat += other.minimize_probes_sat;
        self.minimize_probes_unsat += other.minimize_probes_unsat;
        self.minimize_witness_hits += other.minimize_witness_hits;
        self.sat_propagations += other.sat_propagations;
        self.sat_conflicts += other.sat_conflicts;
        self.sat_reduces += other.sat_reduces;
        self.sat_arena_bytes = self.sat_arena_bytes.max(other.sat_arena_bytes);
        self.sat_chrono_backtracks += other.sat_chrono_backtracks;
        self.sat_watch_bytes = self.sat_watch_bytes.max(other.sat_watch_bytes);
        self.word_const_folds += other.word_const_folds;
        self.word_rewrites += other.word_rewrites;
        self.word_strash_hits += other.word_strash_hits;
        self.encode_cache_hits += other.encode_cache_hits;
        self.encode_cache_misses += other.encode_cache_misses;
        self.encode_vars_saved += other.encode_vars_saved;
        self.encode_clauses_saved += other.encode_clauses_saved;
        self.session_resident_bytes = self
            .session_resident_bytes
            .max(other.session_resident_bytes);
        self.encode_cache_resident_bytes = self
            .encode_cache_resident_bytes
            .max(other.encode_cache_resident_bytes);
        self.examples_cycles += other.examples_cycles;
        self.examples_raw += other.examples_raw;
        self.examples_unique += other.examples_unique;
        self.workers = self.workers.max(other.workers);
        self.worker_busy_time += other.worker_busy_time;
        self.poisoned |= other.poisoned;
    }

    /// Projects the scalar counters under their trace-schema names (see
    /// `docs/TRACE_SCHEMA.md`). The names match the `hh-trace` counters
    /// emitted at the same recording sites, so JSON reports built from this
    /// projection (e.g. `bench_results/speedup.json`) are a pure projection
    /// of the trace-counter namespace.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("engine.query", self.smt_queries as u64),
            ("engine.memo.hit", self.memo_hits as u64),
            ("engine.backtrack", self.backtracks as u64),
            ("smt.session.hit", self.session_hits as u64),
            ("smt.session.miss", self.session_misses as u64),
            ("smt.session.vars_saved", self.vars_saved as u64),
            ("smt.session.clauses_saved", self.clauses_saved as u64),
            ("smt.session.resident_bytes", self.session_resident_bytes),
            ("smt.cache.hit", self.encode_cache_hits),
            ("smt.cache.miss", self.encode_cache_misses),
            ("smt.cache.vars_saved", self.encode_vars_saved),
            ("smt.cache.clauses_saved", self.encode_clauses_saved),
            ("smt.cache.resident_bytes", self.encode_cache_resident_bytes),
            ("smt.word.const_folds", self.word_const_folds),
            ("smt.word.rewrites", self.word_rewrites),
            ("smt.word.strash_hits", self.word_strash_hits),
            ("smt.minimize.probes_sat", self.minimize_probes_sat),
            ("smt.minimize.probes_unsat", self.minimize_probes_unsat),
            ("smt.minimize.witness_hits", self.minimize_witness_hits),
            ("sat.solves", self.sat_solves),
            ("sat.propagations", self.sat_propagations),
            ("sat.conflicts", self.sat_conflicts),
            ("sat.reduce", self.sat_reduces),
            ("sat.arena_bytes", self.sat_arena_bytes),
            ("sat.chrono_backtracks", self.sat_chrono_backtracks),
            ("sat.watch_bytes", self.sat_watch_bytes),
            ("examples.cycles", self.examples_cycles),
            ("examples.raw", self.examples_raw),
            ("examples.unique", self.examples_unique),
        ]
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
