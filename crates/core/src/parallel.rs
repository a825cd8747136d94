//! The H-Houdini engine: Algorithm 1 of the paper, run as the task DAG its
//! recursion is (§3.2.4).
//!
//! **Algorithm 1, line by line.** For a target predicate `p` the scheduler
//!
//! * queues it for issue only when it is open: a memoised target's solution
//!   is reused (lines 3–4, counted as a memo hit when it is named), and a
//!   failed or in-flight one needs no query;
//! * otherwise mines candidates over the 1-step cone (`O_slice` + `O_mine`,
//!   lines 9–10), subtracts `P_fail` (line 11) and asks the abduction oracle
//!   for an abduct through an [`AbductionSession`] that lives for that one
//!   query (lines 12–13: the answer is memoised at commit);
//! * enqueues every abduct member as a child target (line 18) — each is
//!   independent of its siblings, which is what makes the recursion a DAG;
//! * puts a target with no abduct into `P_fail` (lines 14–16), and at
//!   quiescence sweeps every memoised solution that mentions a failed
//!   predicate and re-queries it over the strictly smaller candidate set
//!   (partial backtracking, lines 20–26; `P_fail` only grows, so this
//!   converges);
//! * composes the invariant from the transitive closure of memoised abducts
//!   — never issuing a monolithic inductivity query (§3.1).
//!
//! Cycles through the design's backedges need no special case: a target
//! that is memoised or in flight is never issued again, so a cycle closes
//! on the pending solution, and the stale sweep re-solves it should a
//! member later fail (§3.2.2).
//!
//! **Execution.** The DAG runs on a **persistent worker pool with streaming
//! results** (the paper's async-task model): the scheduler mines jobs and
//! pushes them to a shared queue, at most [`ISSUE_WINDOW`] uncommitted at
//! a time; as each abduction commits, the merge loop mines and issues the
//! next ready targets into the freed slot — fast tasks never wait on a
//! wave's straggler. The issue window is what lets a failure prune: job
//! `k` is mined once job `k - ISSUE_WINDOW` has committed, so a predicate
//! that failed by then is not among its candidates, and no abduct naming
//! it has to be swept and retried. One worker is the serial run; a pool of
//! more than [`ISSUE_WINDOW`] workers leaves the rest idle.
//!
//! **Priority.** Ready targets are issued **most-referenced first**: a
//! target's count grows by one as a root and by one per committed abduct
//! that names it, and ties break by enqueue order, so the issue order is
//! total and reproducible. This is fail-first from constraint solving: the
//! member most solutions depend on is resolved first, and if it fails, it
//! does so before the issue window has mined the targets that would name
//! it.
//!
//! **Determinism.** Results are *committed* in job-issue order through a
//! [`ReorderBuffer`], and the scheduler commits **exactly one** result per
//! loop iteration before issuing again. Every issue point therefore sees
//! scheduler state (`P_fail`, memo table, miner, priority queue) that is a
//! pure function of the commit count — never of worker timing — and the
//! issue window is counted in commits too, not in workers. That makes
//! every scheduling decision, the learned invariant and the task DAG
//! identical run-to-run and across thread counts — only the measured
//! durations vary.
//!
//! **Backends.** The scheduler core ([`ParallelEngine::learn`] vs
//! [`ParallelEngine::learn_sim`]) is generic over how jobs execute: the
//! threaded backend runs the real worker pool over mpsc channels, while
//! the virtual backend hands completion *order* to a [`SimDriver`] and
//! solves on the calling thread — the seam hh-vopr uses to simulate the
//! whole engine deterministically from a seed (see [`crate::sim`]), and,
//! with [`FifoDriver`](crate::FifoDriver) at window 1, the thread-free
//! serial reference the tests compare the pool against.
//!
//! **State.** Each predicate has one record, shared across the run so
//! overlapping cones are analysed once: its Algorithm 1 status (open, in
//! flight, memoised with its abduct, or in `P_fail`), the task that
//! discovered it and its reference count. A job carries only the target
//! and its candidates: the worker that dequeues it builds the target's
//! [`AbductionSession`], answers the query and drops the session before
//! the answer travels back, so at most one session per worker exists and
//! a query's answer is a function of (target, candidates) alone. Sessions
//! blast over one shared [`SimpMap`], and a backtracking retry re-blasts
//! its cone, unless a daemon job attached its [`hh_smt::EncodeCache`]
//! ([`ParallelEngine::set_encode_cache`]). A replay is byte-identical to a
//! fresh build, and a target is never in flight twice, so the cache's hits
//! and misses are the same at every thread count.

use crate::invariant::closure;
use crate::mine::Miner;
use crate::reorder::ReorderBuffer;
use crate::sim::{SchedEvent, SimDriver};
use crate::store::{PredId, PredicateStore};
use crate::{Invariant, Stats};
use hh_netlist::simp::SimpMap;
use hh_netlist::Netlist;
use hh_smt::{
    AbductionConfig, AbductionResult, AbductionSession, EncodeCache, LoggedSolution, Predicate,
    SessionLog,
};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many issued jobs may be uncommitted at once. The issue phase stops
/// when this many are, so job `k` is mined once job `k - ISSUE_WINDOW`
/// has committed, and a predicate that failed by then is out of its
/// candidates. A constant, not a knob: the schedule must not depend on the
/// thread count, so a pool of more workers than this leaves the rest idle.
pub const ISSUE_WINDOW: usize = 8;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Abduction query configuration (core trimming).
    pub abduction: AbductionConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            abduction: AbductionConfig::paper_default(),
        }
    }
}

/// Algorithm 1's state of a target predicate, one at a time: unsolved,
/// in flight (never past the learn call that issued it), memoised with its
/// abduct (`seeded` when [`ParallelEngine::seed_solutions`] preloaded it;
/// with the query's candidates and proof when the run logs proofs), or in
/// `P_fail`.
#[derive(Debug, Default)]
enum Status {
    #[default]
    Open,
    InFlight,
    Solved {
        abduct: Vec<PredId>,
        seeded: bool,
        logged: Option<Box<(Vec<PredId>, SessionLog)>>,
    },
    Failed,
}

/// The engine's record of one predicate as a target.
#[derive(Debug, Default)]
struct Target {
    status: Status,
    /// The task that first discovered the target: `Some(None)` for a root
    /// (a property or a seeded premise), `None` until it is discovered.
    found_by: Option<Option<usize>>,
    /// How many times this run named the target: once as a root, once per
    /// committed abduct it is a member of. Its issue priority.
    refs: u64,
}

/// One [`Target`] per predicate, indexed by [`PredId`].
#[derive(Debug, Default)]
struct Targets {
    records: Vec<Target>,
}

impl Targets {
    fn failed(&self, p: PredId) -> bool {
        (self.records.get(p.index())).is_some_and(|t| matches!(t.status, Status::Failed))
    }

    fn get_mut(&mut self, p: PredId) -> &mut Target {
        if p.index() >= self.records.len() {
            self.records.resize_with(p.index() + 1, Target::default);
        }
        &mut self.records[p.index()]
    }

    /// `(target, abduct, seeded)` of each memoised record, in `PredId` order.
    fn solved(&self) -> impl Iterator<Item = (PredId, &[PredId], bool)> {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match &t.status {
                Status::Solved { abduct, seeded, .. } => {
                    Some((PredId::from_index(i), &abduct[..], *seeded))
                }
                _ => None,
            })
    }

    /// Marks `p` in flight; returns the task that discovered it.
    fn issue(&mut self, p: PredId) -> Option<usize> {
        let target = self.get_mut(p);
        target.status = Status::InFlight;
        target.found_by.flatten()
    }

    /// Ends a learn call: reference counts start over, and a target whose
    /// job a poisoned run left uncommitted is open again.
    fn end_run(&mut self) {
        for t in &mut self.records {
            t.refs = 0;
            if matches!(t.status, Status::InFlight) {
                t.status = Status::Open;
            }
        }
    }
}

/// Targets ready to (re-)issue: most-referenced first, enqueue order
/// breaking ties. [`ParallelEngine::enqueue`] is its one writer; an entry
/// whose target has been issued or resolved since is skipped at issue.
#[derive(Default)]
struct Ready {
    heap: BinaryHeap<(u64, Reverse<usize>, PredId)>,
    enqueued: usize,
}

/// The H-Houdini engine (see the module docs).
#[derive(Debug)]
pub struct ParallelEngine<'a, M: Miner> {
    netlist: &'a Netlist,
    miner: M,
    config: EngineConfig,
    threads: usize,
    store: PredicateStore,
    /// Algorithm 1's state of every target: memo table, `P_fail` and the
    /// task DAG's discovery links.
    targets: Targets,
    /// A resident job's [`EncodeCache`], when one is attached
    /// ([`ParallelEngine::set_encode_cache`]).
    cache: Option<Arc<EncodeCache>>,
    /// The word-level simplification map every session blasts over: the
    /// attached cache's, or built on first need ([`ParallelEngine::simp`]).
    simp: Option<Arc<SimpMap>>,
    stats: Stats,
    /// Fault-injection seam: job index whose worker panics mid-solve (the
    /// hh-vopr worker-death fault in the threaded backend).
    fail_job: Option<usize>,
    /// Regression canary: commit buffered completions newest-first instead
    /// of in issue order. See [`ParallelEngine::enable_commit_shuffle`].
    canary_shuffle: bool,
    /// Whether queries log their proofs. See [`ParallelEngine::log_proofs`].
    log_proofs: bool,
}

/// What a worker needs to run one abduction query. Predicates are shared
/// handles into the store — issuing a job clones pointers, not trees.
struct Job {
    job_idx: usize,
    target: Arc<Predicate>,
    cands: Vec<Arc<Predicate>>,
}

/// What every job of a run shares: the netlist, the query configuration,
/// the simplification map, the encode cache and whether queries log proofs.
#[derive(Clone, Copy)]
struct Oracle<'r, 'a> {
    netlist: &'a Netlist,
    config: AbductionConfig,
    simp: &'r Arc<SimpMap>,
    cache: Option<&'r Arc<EncodeCache>>,
    log_proofs: bool,
}

/// Scheduler-side bookkeeping for an issued job, indexed by `job_idx`.
struct JobMeta {
    pred: PredId,
    cand_ids: Vec<PredId>,
    parent: Option<usize>,
}

/// A completed query travelling back to the merge loop.
struct JobDone {
    job_idx: usize,
    /// The answer. `None` when the worker died (panicked) before producing
    /// a result — the run is poisoned and the scheduler stops committing.
    solved: Option<AbductionResult>,
    duration: Duration,
}

/// Runs one abduction query — the worker body shared by the threaded pool
/// and the virtual (simulation) backend. The target's session is built
/// here (so a blast or a replay happens off the scheduler thread too), and
/// dropped before the answer returns;
/// the answer's telemetry carries the query's bytes. A panicking solve
/// is caught and surfaced as a `solved: None` completion, so the scheduler
/// never waits on a `JobDone` that would never arrive.
fn solve_job(job: Job, oracle: Oracle<'_, '_>, panic_on: Option<usize>) -> JobDone {
    let _job_span = hh_trace::span!("sched", "sched.job");
    let Job {
        job_idx,
        target,
        cands,
    } = job;
    let q0 = Instant::now();
    let solved = std::panic::catch_unwind(AssertUnwindSafe(move || {
        assert!(
            panic_on != Some(job_idx),
            "injected worker death (fault-injection seam)"
        );
        let (netlist, config) = (oracle.netlist, oracle.config);
        let session = match oracle.cache {
            Some(cache) => {
                AbductionSession::with_cache(netlist, target, config, Arc::clone(cache), true)
            }
            None => AbductionSession::with_simp(netlist, target, config, Arc::clone(oracle.simp)),
        };
        session.log_proofs(oracle.log_proofs).solve(&cands)
    }));
    JobDone {
        job_idx,
        solved: solved.ok(),
        duration: q0.elapsed(),
    }
}

impl<'a, M: Miner> ParallelEngine<'a, M> {
    /// Creates an engine over a product netlist with the given
    /// worker-thread count.
    pub fn new(
        netlist: &'a Netlist,
        miner: M,
        config: EngineConfig,
        threads: usize,
    ) -> ParallelEngine<'a, M> {
        assert!(threads >= 1);
        ParallelEngine {
            netlist,
            miner,
            config,
            threads,
            store: PredicateStore::new(),
            targets: Targets::default(),
            cache: None,
            simp: None,
            stats: Stats::default(),
            fail_job: None,
            canary_shuffle: false,
            log_proofs: false,
        }
    }

    /// Makes every query of later learn calls log its proof, kept with the
    /// memo entry it commits ([`ParallelEngine::take_logged_solutions`]). The
    /// queries, their answers and their work are the same as without.
    pub fn log_proofs(&mut self) {
        self.log_proofs = true;
    }

    /// Fault-injection seam (hh-vopr worker-death fault): the worker that
    /// picks up job `job_idx` panics mid-solve. The engine must surface the
    /// death — `learn` returns `None` with [`Stats::poisoned`] set — rather
    /// than hang waiting for the lost completion.
    #[doc(hidden)]
    pub fn inject_worker_panic(&mut self, job_idx: usize) {
        self.fail_job = Some(job_idx);
    }

    /// Regression canary (hh-vopr): reintroduces the commit-order bug the
    /// reorder buffer exists to prevent — buffered completions commit
    /// newest-first instead of in issue order, so scheduler state becomes a
    /// function of completion timing. The simulator's commit-order checker
    /// must detect this within its CI seed budget; nothing else may call it.
    #[doc(hidden)]
    pub fn enable_commit_shuffle(&mut self) {
        self.canary_shuffle = true;
    }

    /// Attaches a resident job's [`EncodeCache`]: every session of later
    /// learn calls replays its target's base encoding from it or records
    /// it there — how `hh-serve` keeps blasting work warm across requests.
    /// Replayed encodings are byte-identical to fresh builds, so only
    /// timing and the cache's own counters change. The cache must have been
    /// built over a netlist identical in content to this engine's.
    pub fn set_encode_cache(&mut self, cache: Arc<EncodeCache>) {
        self.simp = Some(cache.simp());
        self.cache = Some(cache);
    }

    /// The word-level simplification map of this engine's netlist, built
    /// on first need and shared by every later session.
    fn simp(&mut self) -> Arc<SimpMap> {
        let netlist = self.netlist;
        let simp = self
            .simp
            .get_or_insert_with(|| Arc::new(SimpMap::build(netlist)));
        Arc::clone(simp)
    }

    /// Preloads the memo table with solutions from an earlier run: each
    /// `(target, premises)` pair claims that `premises` make `target`
    /// relatively inductive. An entry is seeded only if it passes the two
    /// checks a memo entry of this run would have passed: its premises are
    /// all among the candidates the miner offers `target` (they agree with
    /// this run's positive examples), and its obligation
    /// `⋀premises ∧ target ∧ ¬target′` is UNSAT on this engine's netlist.
    /// The re-checks run one after another, in the order given; their SAT
    /// work is added to the run counters, but they are neither queries nor
    /// tasks. Seeded targets are never re-solved (their premises are still
    /// scheduled, so dropped or missing sub-solutions are re-learned and the
    /// usual stale sweep applies if one fails). Returns the number of
    /// entries seeded.
    pub fn seed_solutions(&mut self, solutions: &[(Predicate, Vec<Predicate>)]) -> usize {
        // A re-check blasts over the run's map and records nothing.
        let simp = self.simp();
        let mut seeded = 0;
        for (target, premises) in solutions {
            let p = self.store.intern(target.clone());
            let abduct: Vec<PredId> = premises
                .iter()
                .map(|q| self.store.intern(q.clone()))
                .collect();
            let mined = self.miner.mine(target, &mut self.store);
            if !abduct.iter().all(|q| mined.contains(q)) {
                continue;
            }
            // UNSAT or not is the whole answer: no core to trim.
            let check = AbductionSession::with_simp(
                self.netlist,
                target.clone(),
                AbductionConfig::default(),
                Arc::clone(&simp),
            )
            .solve(premises);
            self.stats.counters.merge(&check.telemetry.counters);
            if check.abduct.is_some() {
                self.targets.get_mut(p).status = Status::Solved {
                    abduct,
                    seeded: true,
                    logged: None,
                };
                seeded += 1;
            }
        }
        seeded
    }

    /// How many seeded memo entries survived the most recent learn call
    /// (i.e. were *reused*: still present in the final solution table, not
    /// swept stale and re-solved, and, when the run proved its properties,
    /// reached from them). `seeded - seeds_reused()` entries were
    /// invalidated or left unreached during the run.
    pub fn seeds_reused(&self) -> usize {
        self.targets.solved().filter(|&(.., seeded)| seeded).count()
    }

    /// Telemetry of the most recent learn call.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The memoised solution table as `(target, premises)` pairs, sorted by
    /// target predicate. Each entry records the abduct that made `target`
    /// relatively inductive; `hh-proof` writes one obligation per entry
    /// when emitting a certificate bundle. After a proved learn it is the
    /// closure of the properties' solutions. Deterministic across thread counts
    /// because the scheduler commits results in issue order.
    pub fn solutions(&self) -> Vec<(Predicate, Vec<Predicate>)> {
        let mut out: Vec<(Predicate, Vec<Predicate>)> = self
            .targets
            .solved()
            .map(|(p, ab, _)| (self.store.get(p).clone(), self.store.resolve(ab)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Takes the proofs out of the memo entries whose query logged one
    /// ([`ParallelEngine::log_proofs`]), sorted by target predicate: each
    /// with the candidates its query registered, its abduct (the premises
    /// [`ParallelEngine::solutions`] lists for it) and the proof. A seeded
    /// entry has none, and neither has an entry once its proof was taken.
    /// Deterministic across thread counts, like the table.
    pub fn take_logged_solutions(&mut self) -> Vec<LoggedSolution> {
        let (records, store) = (&mut self.targets.records, &self.store);
        let mut out: Vec<LoggedSolution> = (records.iter_mut().enumerate())
            .filter_map(|(i, t)| match &mut t.status {
                Status::Solved { abduct, logged, .. } => {
                    let (cands, log) = *logged.take()?;
                    Some(LoggedSolution {
                        target: store.get_arc(PredId::from_index(i)),
                        candidates: store.resolve_arc(&cands),
                        abduct: store.resolve_arc(abduct),
                        log,
                    })
                }
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.target.cmp(&b.target));
        out
    }

    /// Learns an inductive invariant proving `properties`, or `None`.
    ///
    /// Runs a persistent worker pool for the whole call. The scheduler
    /// (this thread) mines candidate sets, issues jobs, and commits results
    /// in issue order; workers stream completed abductions back as they
    /// finish. See the module docs for the determinism argument.
    ///
    /// A worker that panics mid-job does not strand the scheduler: the
    /// panic is caught, the run is marked poisoned ([`Stats::poisoned`])
    /// and `None` is returned.
    pub fn learn(&mut self, properties: &[Predicate]) -> Option<Invariant> {
        let workers = self.threads;
        let fail_job = self.fail_job;
        self.run(properties, |engine, prop_ids, oracle| {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let job_rx = Mutex::new(job_rx);
            let (done_tx, done_rx) = mpsc::channel::<JobDone>();

            std::thread::scope(|scope| {
                let pool: Vec<_> = (0..workers)
                    .map(|_| {
                        let done_tx = done_tx.clone();
                        let job_rx = &job_rx;
                        scope.spawn(move || {
                            loop {
                                // Hold the lock only for the dequeue, not the solve.
                                let job = job_rx.lock().unwrap().recv();
                                let Ok(job) = job else { break };
                                let done = solve_job(job, oracle, fail_job);
                                if done_tx.send(done).is_err() {
                                    break; // scheduler gone
                                }
                            }
                            // A worker's last act, as `hh_trace::flush`
                            // asks of every worker thread.
                            hh_trace::flush();
                        })
                    })
                    .collect();
                drop(done_tx); // scheduler keeps only done_rx

                let outcome = engine.run_scheduler(
                    prop_ids,
                    |job| job_tx.send(job).expect("worker pool alive"),
                    // Cannot strand: every dequeued job produces a JobDone,
                    // panicked or not, and workers outlive the scheduler.
                    || done_rx.recv().expect("worker result"),
                    |_| {},
                );
                // Close the queue, so every worker exits, and join each
                // one: the scope returns once the closures have, a join
                // once the thread has also torn down, which is when the C
                // allocator takes its arena back. A thread spawned right
                // after learn (a certificate worker) then reuses that arena
                // instead of racing the teardown into a fresh one, whose
                // high-water heap would stay resident for the rest of the
                // process.
                drop(job_tx);
                for worker in pool {
                    if let Err(panic) = worker.join() {
                        std::panic::resume_unwind(panic);
                    }
                }
                outcome
            })
        })
    }

    /// Learns like [`ParallelEngine::learn`], but on the **virtual
    /// backend**: no worker threads are spawned — issued jobs wait in a
    /// pending pool and `driver` decides which in-flight job completes
    /// next, with the chosen job solved synchronously on this thread. The
    /// engine's thread count bounds the reordering window (only the
    /// `threads` oldest pending jobs are eligible), so `threads = 1`
    /// replays the serial schedule. With a deterministic driver the entire
    /// run — schedule, trace, stats, invariant — is a pure function of the
    /// driver; see [`crate::sim`] for the contract and hh-vopr for the
    /// seeded simulator built on this seam.
    ///
    /// A driver-injected worker death ([`SimDriver::worker_dies`]) poisons
    /// the run exactly like a real worker panic: [`Stats::poisoned`] is set
    /// and `None` returned.
    pub fn learn_sim(
        &mut self,
        properties: &[Predicate],
        driver: &mut dyn SimDriver,
    ) -> Option<Invariant> {
        let window = self.threads;
        self.run(properties, |engine, prop_ids, oracle| {
            // Both closures need the driver and the pending pool; RefCells
            // keep the borrows disjoint per call (the scheduler never
            // re-enters).
            let pending: RefCell<Vec<Job>> = RefCell::new(Vec::new());
            let driver = RefCell::new(driver);

            engine.run_scheduler(
                prop_ids,
                |job| pending.borrow_mut().push(job),
                || {
                    // The scheduler only collects while uncommitted jobs
                    // exist, and every uncommitted job is either buffered
                    // (collected) or pending — so the pool is non-empty.
                    let mut pool = pending.borrow_mut();
                    let k = pool.len().min(window);
                    let eligible: Vec<usize> = pool[..k].iter().map(|j| j.job_idx).collect();
                    let mut d = driver.borrow_mut();
                    let pick = d.pick(&eligible).min(eligible.len() - 1);
                    let job = pool.remove(pick);
                    drop(pool);
                    let job_idx = job.job_idx;
                    if d.worker_dies(job_idx) {
                        d.observe(&SchedEvent::WorkerDeath { job: job_idx });
                        return JobDone {
                            job_idx,
                            solved: None,
                            duration: Duration::ZERO,
                        };
                    }
                    drop(d);
                    let done = solve_job(job, oracle, None);
                    driver
                        .borrow_mut()
                        .observe(&SchedEvent::Arrival { job: job_idx });
                    done
                },
                |ev| driver.borrow_mut().observe(ev),
            )
        })
    }

    /// One learn run around `backend`, which drives
    /// [`Self::run_scheduler`] on its execution model. Everything either
    /// backend needs before the first issue and after the last commit is
    /// here: the properties are interned, and the sessions share the
    /// engine's simplification map and the attached encode cache, if any.
    fn run(
        &mut self,
        properties: &[Predicate],
        backend: impl FnOnce(&mut Self, &[PredId], Oracle<'_, 'a>) -> Option<Invariant>,
    ) -> Option<Invariant> {
        let t0 = Instant::now();
        let _learn_span = hh_trace::span!("engine", "engine.learn");
        self.stats.workers = self.threads;
        let prop_ids: Vec<PredId> = properties
            .iter()
            .map(|p| self.store.intern(p.clone()))
            .collect();
        let simp = self.simp();
        let cache = self.cache.clone();
        let oracle = Oracle {
            netlist: self.netlist,
            config: self.config.abduction,
            simp: &simp,
            cache: cache.as_ref(),
            log_proofs: self.log_proofs,
        };
        let result = backend(self, &prop_ids, oracle);

        self.stats.record_run_end(&simp);
        self.stats.wall_time = t0.elapsed();
        self.targets.end_run();
        result
    }

    /// The scheduler core shared by both backends. `dispatch` hands an
    /// issued job to the execution backend; `collect` blocks for (or
    /// synthesises) the next completion, in *any* order — the reorder
    /// buffer restores issue order; `observe` sees every scheduler
    /// transition (the virtual backend's driver hook, a no-op threaded).
    fn run_scheduler(
        &mut self,
        prop_ids: &[PredId],
        mut dispatch: impl FnMut(Job),
        mut collect: impl FnMut() -> JobDone,
        mut observe: impl FnMut(&SchedEvent),
    ) -> Option<Invariant> {
        // `ready` holds targets to (re-)issue; `reorder` buffers
        // out-of-order completions until their turn to commit.
        let mut ready = Ready::default();
        for &p in prop_ids {
            self.enqueue(&mut ready, p, Some(None));
        }
        // A seeded target is never solved, but its premises are scheduled
        // in (target, position) order: one never seeded, or invalidated,
        // must be learned before `assemble` walks through it. Memoised
        // ones are memo hits.
        let premises: Vec<PredId> = (self.targets.solved())
            .filter(|&(.., seeded)| seeded)
            .flat_map(|(_, ab, _)| ab.iter().copied())
            .collect();
        for q in premises {
            self.enqueue(&mut ready, q, Some(None));
        }
        let mut metas: Vec<JobMeta> = Vec::new();
        let mut reorder: ReorderBuffer<JobDone> = ReorderBuffer::new();

        loop {
            // Issue phase: drain the queue in priority order until the
            // window is full, skipping targets issued or resolved since
            // they were queued.
            while metas.len() - reorder.committed() < ISSUE_WINDOW {
                let Some((_, _, p)) = ready.heap.pop() else {
                    break;
                };
                if !matches!(self.targets.records[p.index()].status, Status::Open) {
                    continue;
                }
                let target = self.store.get_arc(p);
                let mut cand_ids = self.miner.mine(&target, &mut self.store);
                cand_ids.sort_unstable();
                cand_ids.dedup();
                cand_ids.retain(|&q| !self.targets.failed(q));
                let cands = self.store.resolve_arc(&cand_ids);
                let job_idx = metas.len();
                let parent = self.targets.issue(p);
                metas.push(JobMeta {
                    pred: p,
                    cand_ids,
                    parent,
                });
                hh_trace::event!("sched", "sched.issue");
                hh_trace::counter!("sched", "sched.inflight", 1);
                observe(&SchedEvent::Issue { job: job_idx });
                dispatch(Job {
                    job_idx,
                    target,
                    cands,
                });
            }

            // Quiescence: nothing queued (the window was not full, so the
            // issue phase drained the queue), nothing in flight. Sweep
            // stale solutions (partial backtracking) or finish.
            if reorder.committed() == metas.len() {
                if prop_ids.iter().any(|&p| self.targets.failed(p)) {
                    break None;
                }
                // In `PredId` order: the deterministic re-issue order.
                let stale: Vec<PredId> = (self.targets.solved())
                    .filter(|(_, ab, _)| ab.iter().any(|&q| self.targets.failed(q)))
                    .map(|(p, _, _)| p)
                    .collect();
                if stale.is_empty() {
                    break Some(self.assemble(prop_ids));
                }
                self.stats.counters.backtracks += stale.len() as u64;
                hh_trace::counter!("engine", "engine.backtrack", stale.len());
                for s in stale {
                    // Reopening a swept seed also ends its being a seed:
                    // its re-solve below is fresh work.
                    self.targets.get_mut(s).status = Status::Open;
                    self.enqueue(&mut ready, s, None);
                }
                continue;
            }

            // Stream phase: block for the next completion in issue order,
            // then commit exactly ONE result before issuing again, so every
            // issue point is a pure function of the commit count (see the
            // module docs). The commit's children are issued on the next
            // iteration, while other jobs are still solving.
            let (_, done) = if self.canary_shuffle {
                // CANARY: commit whatever arrived most recently — the bug
                // the vopr commit-order checker exists to catch.
                while reorder.buffered() == 0 {
                    let done = collect();
                    reorder.insert(done.job_idx, done);
                }
                reorder.pop_any_latest().expect("buffered completion")
            } else {
                while !reorder.ready() {
                    let done = collect();
                    reorder.insert(done.job_idx, done);
                }
                reorder.pop_in_order().expect("checked above")
            };
            let meta = &metas[done.job_idx];
            let Some(result) = done.solved else {
                // The worker solving this job died: surface the poisoned run
                // instead of committing a fabricated result.
                self.stats.poisoned = true;
                hh_trace::event!("engine", "engine.poisoned");
                break None;
            };
            hh_trace::event!("sched", "sched.commit");
            hh_trace::counter!("sched", "sched.inflight", -1);
            observe(&SchedEvent::Commit {
                seq: reorder.committed() - 1,
                job: done.job_idx,
            });
            let task_idx = (self.stats).record_commit(
                meta.pred,
                meta.parent,
                done.duration,
                &result.telemetry,
            );
            let Some(idxs) = result.abduct else {
                self.targets.get_mut(meta.pred).status = Status::Failed;
                continue;
            };
            let abduct: Vec<PredId> = idxs.into_iter().map(|i| meta.cand_ids[i]).collect();
            for &q in &abduct {
                self.enqueue(&mut ready, q, Some(Some(task_idx)));
            }
            let logged = (result.log).map(|log| Box::new((meta.cand_ids.clone(), log)));
            self.targets.get_mut(meta.pred).status = Status::Solved {
                abduct,
                seeded: false,
                logged,
            };
        }
    }

    /// Counts a reference to `p` (`found_by` is `Some(by)`: a member of
    /// task `by`'s abduct, or a root when `by` is `None`) and records it as
    /// `p`'s discovery unless `p` was discovered before; a re-queued stale
    /// target passes `None` and counts nothing. A memoised `p` is a memo
    /// hit (Algorithm 1, line 3) and an in-flight or failed one needs no
    /// issue, so only an open `p` is queued, at its reference count.
    fn enqueue(&mut self, ready: &mut Ready, p: PredId, found_by: Option<Option<usize>>) {
        let target = self.targets.get_mut(p);
        target.found_by = target.found_by.or(found_by);
        target.refs += u64::from(found_by.is_some());
        match target.status {
            Status::Open => {
                ready.heap.push((target.refs, Reverse(ready.enqueued), p));
                ready.enqueued += 1;
            }
            Status::Solved { .. } => {
                self.stats.counters.memo_hits += 1;
                hh_trace::counter!("engine", "engine.memo.hit", 1);
            }
            Status::InFlight | Status::Failed => {}
        }
    }

    /// The invariant of a proved run: the closure of the properties'
    /// solutions. A memo entry outside it — a seed that passed its
    /// re-check but that no entry reaches, or an abduct member a re-solve
    /// left behind — is reopened, so [`ParallelEngine::solutions`] and
    /// [`ParallelEngine::seeds_reused`] cover exactly the closure.
    fn assemble(&mut self, props: &[PredId]) -> Invariant {
        let reached = closure(props.iter().copied(), |p| {
            match &self.targets.records[p.index()].status {
                Status::Solved { abduct, .. } => Some(abduct.iter().copied()),
                _ => None,
            }
        })
        .expect("assembled predicate must have a solution");
        for (i, t) in self.targets.records.iter_mut().enumerate() {
            if matches!(t.status, Status::Solved { .. })
                && !reached.contains(&PredId::from_index(i))
            {
                t.status = Status::Open;
            }
        }
        let ids: Vec<PredId> = reached.into_iter().collect();
        Invariant::new(self.store.resolve(&ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::CoiMiner;
    use crate::sim::FifoDriver;
    use hh_netlist::eval::StateValues;
    use hh_netlist::miter::Miter;
    use hh_netlist::Bv;

    /// Wide design: target depends on many independent registers, so the
    /// wavefront has real parallel width.
    fn wide(width: usize) -> (Netlist, Miter) {
        let mut n = Netlist::new("wide");
        let regs: Vec<_> = (0..width)
            .map(|i| n.state(format!("r{i}"), 1, Bv::bit(true)))
            .collect();
        for &r in &regs {
            n.keep_state(r);
        }
        let t = n.state("t", 1, Bv::bit(true));
        let nodes: Vec<_> = regs.iter().map(|&r| n.state_node(r)).collect();
        let conj = n.and_all(&nodes);
        n.set_next(t, conj);
        let m = Miter::build(&n);
        (n, m)
    }

    /// The threaded pool at 1, 2 and 4 workers and the virtual backend
    /// with FIFO completions at windows 1, 2 and 4 (window 1 is the
    /// thread-free serial schedule) learn the same invariant, solution
    /// table and memo hits on a wide design, one whose task DAG has
    /// parallel width, and do the same work, counter for counter: every
    /// query is a fresh session, so no answer depends on which worker ran
    /// it or when.
    #[test]
    fn backends_and_thread_counts_agree() {
        let (base, m) = wide(8);
        let e = StateValues::initial(m.netlist());
        let t = base.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(t), m.right(t));
        let mut reference = None;
        for threaded in [false, true] {
            for threads in [1, 2, 4] {
                let miner = CoiMiner::new(&m, std::slice::from_ref(&e), None, vec![]);
                let config = EngineConfig::default();
                let mut eng = ParallelEngine::new(m.netlist(), miner, config, threads);
                let inv = if threaded {
                    eng.learn(std::slice::from_ref(&prop))
                } else {
                    eng.learn_sim(std::slice::from_ref(&prop), &mut FifoDriver)
                };
                let inv = inv.unwrap();
                assert!(inv.verify_monolithic(m.netlist()));
                let stats = eng.stats();
                assert!(stats.counters.sat_solves > 0);
                assert!(stats.num_tasks() >= 9);
                assert!(stats.span() <= stats.simulated_time(1));
                let got = (inv.preds().to_vec(), eng.solutions(), stats.counters);
                match &reference {
                    None => reference = Some(got),
                    Some(r) => assert_eq!(r, &got, "threaded {threaded}, {threads} thread(s)"),
                }
            }
        }
    }

    /// One Algorithm 1 behaviour on a toy design: the base netlist and its
    /// miter, the register whose two copies must stay equal, the positive
    /// examples — each the reset state with the listed registers set to
    /// `(name, left, right)` — and what the outcome must look like.
    struct Case {
        base: Netlist,
        miter: Miter,
        target: &'static str,
        examples: Vec<StateValues>,
        check: fn(&Case, Option<&Invariant>, &Stats),
    }

    impl Case {
        fn new(
            base: Netlist,
            target: &'static str,
            examples: &[&[(&str, u64, u64)]],
            check: fn(&Case, Option<&Invariant>, &Stats),
        ) -> Case {
            let miter = Miter::build(&base);
            let examples = examples
                .iter()
                .map(|regs| {
                    let mut e = StateValues::initial(miter.netlist());
                    for &(name, l, r) in *regs {
                        let s = base.find_state(name).unwrap();
                        let w = base.state_width(s);
                        e.set(miter.left(s), Bv::new(w, l));
                        e.set(miter.right(s), Bv::new(w, r));
                    }
                    e
                })
                .collect();
            Case {
                base,
                miter,
                target,
                examples,
                check,
            }
        }

        /// `Eq` over the two copies of the named base register.
        fn eq(&self, name: &str) -> Predicate {
            let s = self.base.find_state(name).unwrap();
            Predicate::eq(self.miter.left(s), self.miter.right(s))
        }

        /// The invariant a provable case learned, checked monolithically —
        /// the correct-by-construction claim.
        fn proved<'i>(&self, inv: Option<&'i Invariant>) -> &'i Invariant {
            let inv = inv.expect("invariant exists");
            assert!(inv.verify_monolithic(self.miter.netlist()));
            inv
        }
    }

    /// The paper's intro example: A <= B & C; B, C hold. One example,
    /// everything 1 on both sides (the reset state).
    fn and_gate() -> Case {
        let mut n = Netlist::new("and_gate");
        let b = n.state("B", 1, Bv::bit(true));
        let c = n.state("C", 1, Bv::bit(true));
        let a = n.state("A", 1, Bv::bit(true));
        let band = n.and(n.state_node(b), n.state_node(c));
        n.set_next(a, band);
        n.keep_state(b);
        n.keep_state(c);
        Case::new(n, "A", &[&[]], |case, inv, stats| {
            let inv = case.proved(inv);
            // Eq(A), Eq(B), Eq(C) (possibly with EqConst variants).
            assert!(inv.contains(&case.eq("A")));
            assert!(inv.len() >= 3);
            // The invariant admits the positive example (precision).
            assert!(inv.holds_on(&case.examples[0]));
            assert!(stats.num_tasks() >= 3);
            assert_eq!(stats.counters.backtracks, 0);
        })
    }

    /// Cyclic dependency (two registers swapping) must terminate and solve:
    /// Eq(y) rediscovers Eq(x) after Eq(x) committed, so the cycle closes
    /// on the memoised solution.
    fn swap() -> Case {
        let mut n = Netlist::new("swap");
        let x = n.state("x", 4, Bv::zero(4));
        let y = n.state("y", 4, Bv::zero(4));
        let xn = n.state_node(x);
        let yn = n.state_node(y);
        n.set_next(x, yn);
        n.set_next(y, xn);
        Case::new(n, "x", &[&[]], |case, inv, stats| {
            assert!(case.proved(inv).len() >= 2); // Eq(x) and Eq(y)
            assert_eq!(stats.num_tasks(), 2);
            assert!(stats.counters.memo_hits >= 1, "{:?}", stats.counters);
        })
    }

    /// Backtracking: a mux register can be proven equal either via its
    /// selected input (which fails) or via pinning the selector. Mirrors
    /// Figure 1 / the Appendix C backtrack.
    fn mux_backtrack() -> Case {
        let mut n = Netlist::new("bt");
        // sel holds 0 forever; out' = sel ? secret : pub; pub/secret hold.
        let sel = n.state("sel", 1, Bv::bit(false));
        let secret = n.state("secret", 4, Bv::zero(4));
        let publ = n.state("pub", 4, Bv::zero(4));
        let out = n.state("out", 4, Bv::zero(4));
        n.keep_state(sel);
        n.keep_state(secret);
        n.keep_state(publ);
        let seln = n.state_node(sel);
        let secn = n.state_node(secret);
        let pubn = n.state_node(publ);
        let muxed = n.ite(seln, secn, pubn);
        n.set_next(out, muxed);
        // Example: secrets differ; sel = 0; pub equal; out equal.
        Case::new(n, "out", &[&[("secret", 3, 9)]], |case, inv, _| {
            let inv = case.proved(inv);
            // The invariant must pin the selector, not the secret.
            let sel = case.base.find_state("sel").unwrap();
            let (l, r) = (case.miter.left(sel), case.miter.right(sel));
            let pin = Predicate::eq_const(l, r, Bv::bit(false));
            assert!(inv.contains(&pin) || inv.contains(&case.eq("sel")));
            assert!(!inv.contains(&case.eq("secret")));
        })
    }

    /// The property is unprovable: the observable copies a secret whose
    /// example values differ between the sides.
    fn leak() -> Case {
        let mut n = Netlist::new("leak");
        let s = n.state("secret", 4, Bv::zero(4));
        let o = n.state("obs", 4, Bv::zero(4));
        let sn = n.state_node(s);
        n.keep_state(s);
        n.set_next(o, sn);
        Case::new(n, "obs", &[&[("secret", 1, 2)]], |_, inv, _| {
            assert!(inv.is_none())
        })
    }

    /// Diamond: t' = l XOR r, where l and r both copy the shared upstream
    /// register. Eq(t) needs Eq(l) AND Eq(r), and both reduce to Eq(up) —
    /// which must only be analysed once (paper §3.2.1 overlap argument).
    fn diamond() -> Case {
        let mut n = Netlist::new("diamond");
        let up = n.state("up", 1, Bv::bit(false));
        let l = n.state("l", 1, Bv::bit(false));
        let r = n.state("r", 1, Bv::bit(false));
        let t = n.state("t", 1, Bv::bit(false));
        n.keep_state(up);
        let un = n.state_node(up);
        n.set_next(l, un);
        n.set_next(r, un);
        let ln = n.state_node(l);
        let rn = n.state_node(r);
        let bxor = n.xor(ln, rn);
        n.set_next(t, bxor);
        // Two examples with different values so no EqConst is minable and
        // the shared Eq(up) predicate is forced.
        let ones: &[(&str, u64, u64)] = &[("up", 1, 1), ("l", 1, 1), ("r", 1, 1)];
        Case::new(n, "t", &[&[], ones], |case, inv, stats| {
            assert!(case.proved(inv).contains(&case.eq("up")));
            // `up` is in the cone of both l and r; the second visit must
            // not be a new task. The siblings are in flight together and
            // commit before `up` does, so it is `up`'s in-flight status
            // that absorbs the visit here (its memoised one does when the
            // first visit has committed: see `swap`).
            assert_eq!(stats.num_tasks(), 4); // t, l, r, up — up only once
        })
    }

    /// A shared member that fails, reached before the abducts that would
    /// name it. `x` starts at 0 and toggles, so `EqConst(x, 0)` holds on
    /// every example and fails at its first query. The root `t' = x ? y :
    /// AND(pads, siblings)` names it, beside `ISSUE_WINDOW - 1` held pads
    /// and `ISSUE_WINDOW + 2` siblings `s' = x ? z : s`; each sibling can
    /// use it alone or fall back on `Eq(x)` and `Eq(z)`. `x` is declared
    /// first, so its pin is the root's first referenced member and shares
    /// the issue window with the pads: it fails before any sibling is
    /// mined, and only the root backtracks. A scheduler that mines every
    /// ready target at once backtracks once per sibling.
    fn shared_failure() -> Case {
        let mut n = Netlist::new("shared_failure");
        let x = n.state("x", 1, Bv::bit(false));
        let y = n.state("y", 1, Bv::bit(false));
        let z = n.state("z", 1, Bv::bit(false));
        let pads = ISSUE_WINDOW - 1;
        let names: Vec<String> = ((0..pads).map(|i| format!("p{i}")))
            .chain((0..ISSUE_WINDOW + 2).map(|i| format!("s{i}")))
            .collect();
        let regs: Vec<_> = (names.iter())
            .map(|r| n.state(r, 1, Bv::bit(false)))
            .collect();
        let t = n.state("t", 1, Bv::bit(false));
        let (xn, yn, zn) = (n.state_node(x), n.state_node(y), n.state_node(z));
        let flip = n.not(xn);
        n.set_next(x, flip);
        n.keep_state(y);
        n.keep_state(z);
        for (i, &r) in regs.iter().enumerate() {
            if i < pads {
                n.keep_state(r);
            } else {
                let rn = n.state_node(r);
                let next = n.ite(xn, zn, rn);
                n.set_next(r, next);
            }
        }
        let nodes: Vec<_> = regs.iter().map(|&r| n.state_node(r)).collect();
        let all = n.and_all(&nodes);
        let next = n.ite(xn, yn, all);
        n.set_next(t, next);
        // All zeros, and all ones but `x`: only `x` is pinned.
        let ones: Vec<(&str, u64, u64)> = (["y", "z", "t"].into_iter())
            .chain(names.iter().map(String::as_str))
            .map(|r| (r, 1, 1))
            .collect();
        Case::new(n, "t", &[&[], &ones], |case, inv, stats| {
            let inv = case.proved(inv);
            let x = case.base.find_state("x").unwrap();
            let (l, r) = (case.miter.left(x), case.miter.right(x));
            assert!(!inv.contains(&Predicate::eq_const(l, r, Bv::bit(false))));
            assert!(stats.counters.backtracks <= 2, "{:?}", stats.counters);
        })
    }

    /// Memoisation, cycles, backtracking, failure and overlap, each on the
    /// thread-free serial schedule (virtual backend, window 1) and on pools
    /// of 1 and 3 workers: every run passes the case's checks, and the
    /// three agree on the invariant, the solution table and the task count.
    #[test]
    fn algorithm_1_cases_agree_on_every_backend() {
        let cases = [
            and_gate(),
            swap(),
            mux_backtrack(),
            leak(),
            diamond(),
            shared_failure(),
        ];
        for case in cases {
            let name = case.base.name().to_string();
            let prop = case.eq(case.target);
            let mut reference = None;
            for (threads, threaded) in [(1, false), (1, true), (3, true)] {
                let miner = CoiMiner::new(&case.miter, &case.examples, None, vec![]);
                let config = EngineConfig::default();
                let mut eng = ParallelEngine::new(case.miter.netlist(), miner, config, threads);
                let inv = if threaded {
                    eng.learn(std::slice::from_ref(&prop))
                } else {
                    eng.learn_sim(std::slice::from_ref(&prop), &mut FifoDriver)
                };
                (case.check)(&case, inv.as_ref(), eng.stats());
                let got = (
                    inv.map(|i| i.preds().to_vec()),
                    eng.solutions(),
                    eng.stats().num_tasks(),
                );
                match &reference {
                    None => reference = Some(got),
                    Some(expect) => assert_eq!(
                        expect, &got,
                        "{name}: {threads} thread(s) vs the window-1 virtual run"
                    ),
                }
            }
        }
    }

    /// A seed is re-checked before it is seeded: on the AND gate,
    /// `Eq(A) ⊢ Eq(B), Eq(C)` and `Eq(C) ⊢ ∅` are kept; `Eq(A) ⊢ Eq(B)` is
    /// dropped because its obligation is SAT, and `Eq(B) ⊢ Eq(A)` because
    /// `Eq(A)` is not among `Eq(B)`'s candidates (A is outside B's cone),
    /// although that obligation is UNSAT. Only `Eq(B)` is then solved; the
    /// re-checks' solves are in the counters but are not queries.
    #[test]
    fn seeds_are_rechecked_before_they_are_seeded() {
        let case = and_gate();
        let [a, b, c] = ["A", "B", "C"].map(|r| case.eq(r));
        let seeds = [
            (a.clone(), vec![b.clone(), c.clone()]),
            (a.clone(), vec![b.clone()]),
            (b.clone(), vec![a.clone()]),
            (c.clone(), vec![]),
        ];
        let miner = CoiMiner::new(&case.miter, &case.examples, None, vec![]);
        let config = EngineConfig::default();
        let mut eng = ParallelEngine::new(case.miter.netlist(), miner, config, 1);
        assert_eq!(eng.seed_solutions(&seeds), 2);
        let inv = eng.learn(std::slice::from_ref(&a));
        case.proved(inv.as_ref());
        assert_eq!(eng.seeds_reused(), 2);
        let stats = eng.stats();
        assert_eq!((stats.smt_queries, stats.num_tasks()), (1, 1));
        assert_eq!(eng.store.get(stats.tasks[0].pred), &b);
        assert!(stats.counters.sat_solves >= 4, "{:?}", stats.counters);
    }

    /// A seed that passes its re-check but that the properties do not
    /// reach is not part of the proved run's table: `Eq(C) ⊢ ∅` is seeded,
    /// `Eq(B)` is learned on its own, and neither `solutions()` nor
    /// `seeds_reused()` keeps `Eq(C)`.
    #[test]
    fn a_seed_the_properties_do_not_reach_leaves_the_table() {
        let case = and_gate();
        let [b, c] = ["B", "C"].map(|r| case.eq(r));
        let miner = CoiMiner::new(&case.miter, &case.examples, None, vec![]);
        let config = EngineConfig::default();
        let mut eng = ParallelEngine::new(case.miter.netlist(), miner, config, 1);
        assert_eq!(eng.seed_solutions(&[(c, vec![])]), 1);
        let inv = eng
            .learn(std::slice::from_ref(&b))
            .expect("Eq(B) holds itself");
        assert_eq!(inv.preds(), std::slice::from_ref(&b));
        assert_eq!(eng.solutions(), vec![(b, vec![])]);
        assert_eq!(eng.seeds_reused(), 0);
    }

    /// Regression for the worker-panic hang: before the `catch_unwind`
    /// conversion, a panicking worker never sent its `JobDone` and the
    /// scheduler blocked forever in `done_rx.recv()`. Now the run must
    /// terminate, surface `Stats::poisoned`, and return no invariant.
    #[test]
    fn worker_panic_poisons_run_instead_of_hanging() {
        let (base, m) = wide(6);
        let e = StateValues::initial(m.netlist());
        let t = base.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(t), m.right(t));
        let miner = CoiMiner::new(&m, &[e], None, vec![]);
        let mut par = ParallelEngine::new(m.netlist(), miner, EngineConfig::default(), 3);
        par.inject_worker_panic(2);
        // Injected panics unwind through catch_unwind; silence the default
        // hook's backtrace spam for the duration of this call.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = par.learn(&[prop]);
        std::panic::set_hook(prev);
        assert!(got.is_none(), "poisoned run must not report an invariant");
        assert!(par.stats().poisoned, "worker death must surface in Stats");
    }

    /// A driver-injected worker death poisons a virtual run just like a
    /// real panic poisons a threaded one.
    #[test]
    fn learn_sim_worker_death_poisons() {
        struct DieOnSecond;
        impl SimDriver for DieOnSecond {
            fn pick(&mut self, _eligible: &[usize]) -> usize {
                0
            }
            fn worker_dies(&mut self, job: usize) -> bool {
                job == 1
            }
        }
        let (base, m) = wide(5);
        let e = StateValues::initial(m.netlist());
        let t = base.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(t), m.right(t));
        let miner = CoiMiner::new(&m, &[e], None, vec![]);
        let mut par = ParallelEngine::new(m.netlist(), miner, EngineConfig::default(), 2);
        assert!(par.learn_sim(&[prop], &mut DieOnSecond).is_none());
        assert!(par.stats().poisoned);
        // The jobs the death left uncommitted leave no target in flight.
        let in_flight = |t: &Target| matches!(t.status, Status::InFlight);
        assert!(!par.targets.records.iter().any(in_flight));
    }
}
