//! The H-Houdini engine: Algorithm 1 of the paper, run as the task DAG its
//! recursion is (§3.2.4).
//!
//! **Algorithm 1, line by line.** For a target predicate `p` the scheduler
//!
//! * skips it at issue when it is memoised — the solution is reused (line
//!   3–4, counted as a memo hit) — or known to have failed;
//! * otherwise mines candidates over the 1-step cone (`O_slice` + `O_mine`,
//!   lines 9–10), subtracts `P_fail` (line 11) and asks the abduction oracle
//!   for an abduct through the target's live [`AbductionSession`] (lines
//!   12–13: the answer is memoised at commit);
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
//! pushes them to a shared queue; as each abduction completes, the merge
//! loop immediately mines and enqueues its newly discovered children — fast
//! tasks never wait on a wave's straggler, and workers stay busy as long as
//! any job is queued. One worker is the serial run.
//!
//! **Priority.** Ready targets are issued **largest 1-step cone first**
//! (cone weight = bit-width of the target's states plus its one-step
//! support, computed once per predicate). Big cones are the stragglers of a
//! run; starting them earliest shortens the makespan without touching the
//! result — see the determinism argument below. Ties break by enqueue
//! order, so the issue order is total and reproducible.
//!
//! **Determinism.** Results are *committed* in job-issue order through a
//! [`ReorderBuffer`], and the scheduler commits **exactly one** result per
//! loop iteration before issuing again. Every issue point therefore sees
//! scheduler state (`P_fail`, memo table, miner, priority queue) that is a
//! pure function of the commit count — never of worker timing. That makes
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
//! discovered it, its cone weight and its live [`AbductionSession`], which
//! travels with each job and is parked in the record between queries, so
//! backtracking retries re-solve incrementally. A per-run
//! [`hh_smt::EncodeCache`] is shared by all sessions: signature-equal cones
//! replay each other's base encodings. A replay is byte-identical to a
//! fresh build, so which session recorded an encoding first (the one thing
//! worker timing does decide) cannot reach the result.

use crate::invariant::closure;
use crate::mine::Miner;
use crate::reorder::ReorderBuffer;
use crate::sim::{SchedEvent, SimDriver};
use crate::store::{PredId, PredicateStore};
use crate::{Invariant, Stats};
use hh_netlist::coi::node_support;
use hh_netlist::Netlist;
use hh_smt::{AbductionConfig, AbductionResult, AbductionSession, EncodeCache, Predicate};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
/// abduct (`seeded` when [`ParallelEngine::seed_solutions`] preloaded it),
/// or in `P_fail`.
#[derive(Debug, Default)]
enum Status {
    #[default]
    Open,
    InFlight,
    Solved {
        abduct: Vec<PredId>,
        seeded: bool,
    },
    Failed,
}

/// The engine's record of one predicate as a target.
#[derive(Debug, Default)]
struct Target<'a> {
    status: Status,
    /// The task that first discovered the target: `Some(None)` for a root
    /// (a property or a seeded premise), `None` until it is discovered.
    found_by: Option<Option<usize>>,
    /// Cone weight, computed the first time the target is enqueued.
    weight: Option<u64>,
    /// The live session, parked between the target's queries; boxed, so a
    /// record of a never-issued candidate stays a few words.
    session: Option<Box<AbductionSession<'a>>>,
}

/// One [`Target`] per predicate, indexed by [`PredId`], and the bytes of
/// the sessions parked in them (the peak is kept across learn calls).
#[derive(Debug, Default)]
struct Targets<'a> {
    records: Vec<Target<'a>>,
    resident_bytes: u64,
    peak_resident_bytes: u64,
}

impl<'a> Targets<'a> {
    fn failed(&self, p: PredId) -> bool {
        (self.records.get(p.index())).is_some_and(|t| matches!(t.status, Status::Failed))
    }

    fn get_mut(&mut self, p: PredId) -> &mut Target<'a> {
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
                Status::Solved { abduct, seeded } => {
                    Some((PredId::from_index(i), &abduct[..], *seeded))
                }
                _ => None,
            })
    }

    /// Marks `p` in flight; returns its parked session, if it has one, and
    /// the task that discovered it.
    fn issue(&mut self, p: PredId) -> (Option<Box<AbductionSession<'a>>>, Option<usize>) {
        let target = self.get_mut(p);
        target.status = Status::InFlight;
        let (session, parent) = (target.session.take(), target.found_by.flatten());
        self.resident_bytes -= session.as_ref().map_or(0, |s| s.resident_bytes());
        (session, parent)
    }

    /// Memoises `p`'s abduct and parks its session until its next query or
    /// the end of the run.
    fn memoise(&mut self, p: PredId, abduct: Vec<PredId>, session: Box<AbductionSession<'a>>) {
        self.resident_bytes += session.resident_bytes();
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        let target = self.get_mut(p);
        target.status = Status::Solved {
            abduct,
            seeded: false,
        };
        let displaced = target.session.replace(session);
        debug_assert!(displaced.is_none(), "a target has one session");
    }

    /// Ends a learn call: parked sessions are freed, and a target whose job
    /// a poisoned run left uncommitted is open again.
    fn end_run(&mut self) {
        for t in &mut self.records {
            t.session = None;
            if matches!(t.status, Status::InFlight) {
                t.status = Status::Open;
            }
        }
        self.resident_bytes = 0;
    }
}

/// Targets ready to (re-)issue: largest cone first, enqueue order breaking
/// ties. [`ParallelEngine::enqueue`] is its one writer.
#[derive(Default)]
struct Ready {
    heap: BinaryHeap<(u64, Reverse<usize>, PredId)>,
    enqueued: usize,
}

/// Scheduling weight of a target: total bit-width of its own states plus
/// its 1-step cone support (the states its next-state functions read). A
/// proxy for encode + solve cost — wide cones blast more gates and take
/// longer, so they are issued first.
fn cone_weight(netlist: &Netlist, pred: &Predicate) -> u64 {
    let states = pred.all_states();
    let support: BTreeSet<_> = states
        .iter()
        .flat_map(|&s| node_support(netlist, netlist.next_of(s)).0)
        .collect();
    (states.iter().chain(&support))
        .map(|&s| netlist.state_width(s) as u64)
        .sum()
}

/// The H-Houdini engine (see the module docs).
#[derive(Debug)]
pub struct ParallelEngine<'a, M: Miner> {
    netlist: &'a Netlist,
    miner: M,
    config: EngineConfig,
    threads: usize,
    store: PredicateStore,
    /// Algorithm 1's state of every target: memo table, `P_fail`, the task
    /// DAG's discovery links and the live sessions.
    targets: Targets<'a>,
    /// Externally owned warm [`EncodeCache`] (a resident service keeps one
    /// across requests); when set, [`ParallelEngine::learn`] uses it instead
    /// of building a per-run cache. See [`ParallelEngine::set_encode_cache`].
    warm_cache: Option<Arc<EncodeCache>>,
    stats: Stats,
    /// Fault-injection seam: job index whose worker panics mid-solve (the
    /// hh-vopr worker-death fault in the threaded backend).
    fail_job: Option<usize>,
    /// Regression canary: commit buffered completions newest-first instead
    /// of in issue order. See [`ParallelEngine::enable_commit_shuffle`].
    canary_shuffle: bool,
}

/// What a worker needs to run one abduction query. Predicates are shared
/// handles into the store — issuing a job clones pointers, not trees.
struct Job<'a> {
    job_idx: usize,
    cands: Vec<Arc<Predicate>>,
    /// The target's live session.
    session: Box<AbductionSession<'a>>,
}

/// Scheduler-side bookkeeping for an issued job, indexed by `job_idx`.
struct JobMeta {
    pred: PredId,
    cand_ids: Vec<PredId>,
    parent: Option<usize>,
}

/// A completed query travelling back to the merge loop.
struct JobDone<'a> {
    job_idx: usize,
    /// The answer and the session that produced it, on its way back to the
    /// scheduler. `None` when the worker died (panicked) before producing a
    /// result — the run is poisoned and the scheduler stops committing.
    solved: Option<(AbductionResult, Box<AbductionSession<'a>>)>,
    duration: Duration,
}

/// Runs one abduction query — the worker body shared by the threaded pool
/// and the virtual (simulation) backend. A panicking solve is caught and
/// surfaced as a `solved: None` completion, so the scheduler never waits
/// on a `JobDone` that would never arrive.
fn solve_job(job: Job<'_>, panic_on: Option<usize>) -> JobDone<'_> {
    let _job_span = hh_trace::span!("sched", "sched.job");
    let Job {
        job_idx,
        cands,
        mut session,
    } = job;
    let q0 = Instant::now();
    let solved = std::panic::catch_unwind(AssertUnwindSafe(move || {
        assert!(
            panic_on != Some(job_idx),
            "injected worker death (fault-injection seam)"
        );
        let result = session.solve(&cands);
        (result, session)
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
            warm_cache: None,
            stats: Stats::default(),
            fail_job: None,
            canary_shuffle: false,
        }
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

    /// Attaches an externally owned, warm [`EncodeCache`] (encoding replay
    /// streams). [`ParallelEngine::learn`] then shares it across this run's
    /// sessions *instead of* building a fresh per-run cache, and leaves it
    /// populated afterwards — this is how a resident service (`hh-serve`)
    /// keeps blasting work warm across requests. Replayed encodings are
    /// byte-identical to fresh builds, so the learned invariant is
    /// unaffected; only timing and the cache's cumulative counters change.
    /// The cache must have been built over a netlist identical in content
    /// to this engine's.
    pub fn set_encode_cache(&mut self, cache: Arc<EncodeCache>) {
        self.warm_cache = Some(cache);
    }

    /// Preloads the memo table with solutions from an earlier run over an
    /// identical-content netlist: each `(target, premises)` pair is the
    /// abduct that made `target` relatively inductive. Seeded targets are
    /// never re-solved (their premises are still scheduled, so invalidated
    /// or missing sub-solutions are re-learned and the usual stale sweep
    /// applies if one fails). Callers are responsible for only seeding
    /// entries whose obligation is unchanged — a resident service checks
    /// renaming-invariant cone signatures before seeding. Returns the
    /// number of entries seeded.
    pub fn seed_solutions(&mut self, solutions: &[(Predicate, Vec<Predicate>)]) -> usize {
        for (target, premises) in solutions {
            let p = self.store.intern(target.clone());
            let abduct = premises
                .iter()
                .map(|q| self.store.intern(q.clone()))
                .collect();
            self.targets.get_mut(p).status = Status::Solved {
                abduct,
                seeded: true,
            };
        }
        solutions.len()
    }

    /// How many seeded memo entries survived the most recent learn call
    /// (i.e. were *reused*: still present in the final solution table, not
    /// swept stale and re-solved). `seeded - seeds_reused()` entries were
    /// invalidated during the run.
    pub fn seeds_reused(&self) -> usize {
        self.targets.solved().filter(|&(.., seeded)| seeded).count()
    }

    /// Telemetry of the most recent learn call.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The memoised solution table as `(target, premises)` pairs, sorted by
    /// target predicate. Each entry records the abduct that made `target`
    /// relatively inductive; `hh-proof` replays these obligations when
    /// emitting a certificate bundle. Deterministic across thread counts
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
        self.run(properties, |engine, prop_ids, encode_cache| {
            let (job_tx, job_rx) = mpsc::channel::<Job<'a>>();
            let job_rx = Mutex::new(job_rx);
            let (done_tx, done_rx) = mpsc::channel::<JobDone<'a>>();

            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let done_tx = done_tx.clone();
                    let job_rx = &job_rx;
                    scope.spawn(move || {
                        loop {
                            // Hold the lock only for the dequeue, not the solve.
                            let job = job_rx.lock().unwrap().recv();
                            let Ok(job) = job else { break };
                            let done = solve_job(job, fail_job);
                            if done_tx.send(done).is_err() {
                                break; // scheduler gone
                            }
                        }
                        // Hand this worker's trace ring over before the
                        // closure returns: the scope join does not wait for
                        // TLS destructors, so a drain right after learn()
                        // could otherwise race with thread teardown.
                        hh_trace::flush();
                    });
                }
                drop(done_tx); // scheduler keeps only done_rx

                let outcome = engine.run_scheduler(
                    prop_ids,
                    encode_cache,
                    |job| job_tx.send(job).expect("worker pool alive"),
                    // Cannot strand: every dequeued job produces a JobDone,
                    // panicked or not, and workers outlive the scheduler.
                    || done_rx.recv().expect("worker result"),
                    |_| {},
                );
                drop(job_tx); // closes the queue; workers exit before scope joins
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
        self.run(properties, |engine, prop_ids, encode_cache| {
            // Both closures need the driver and the pending pool; RefCells
            // keep the borrows disjoint per call (the scheduler never
            // re-enters).
            let pending: RefCell<Vec<Job<'a>>> = RefCell::new(Vec::new());
            let driver = RefCell::new(driver);

            engine.run_scheduler(
                prop_ids,
                encode_cache,
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
                    let done = solve_job(job, None);
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
    /// here: the properties are interned; the encode cache is the warm one
    /// a resident service attached (it outlives the call and keeps its
    /// recorded encodings) or a fresh per-run cache; sessions only pay off
    /// within one run, so their solvers are freed at its end.
    fn run(
        &mut self,
        properties: &[Predicate],
        backend: impl FnOnce(&mut Self, &[PredId], &Arc<EncodeCache>) -> Option<Invariant>,
    ) -> Option<Invariant> {
        let t0 = Instant::now();
        let _learn_span = hh_trace::span!("engine", "engine.learn");
        self.stats.workers = self.threads;
        let prop_ids: Vec<PredId> = properties
            .iter()
            .map(|p| self.store.intern(p.clone()))
            .collect();
        let encode_cache = self
            .warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(EncodeCache::new(self.netlist)));

        let result = backend(self, &prop_ids, &encode_cache);

        self.stats
            .record_run_end(&encode_cache, self.targets.peak_resident_bytes);
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
        encode_cache: &Arc<EncodeCache>,
        mut dispatch: impl FnMut(Job<'a>),
        mut collect: impl FnMut() -> JobDone<'a>,
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
        // ones are skipped at issue, like memo hits.
        let premises: Vec<PredId> = (self.targets.solved())
            .filter(|&(.., seeded)| seeded)
            .flat_map(|(_, ab, _)| ab.iter().copied())
            .collect();
        for q in premises {
            self.enqueue(&mut ready, q, Some(None));
        }
        let mut metas: Vec<JobMeta> = Vec::new();
        let mut reorder: ReorderBuffer<JobDone<'a>> = ReorderBuffer::new();

        loop {
            // Issue phase: drain the queue in priority order, skipping
            // targets that resolved or were issued since they were queued.
            while let Some((w, _, p)) = ready.heap.pop() {
                match self.targets.records[p.index()].status {
                    Status::Open => {}
                    Status::Solved { .. } => {
                        self.stats.counters.memo_hits += 1;
                        hh_trace::counter!("engine", "engine.memo.hit", 1);
                        continue;
                    }
                    Status::InFlight | Status::Failed => continue,
                }
                let target = self.store.get_arc(p);
                let mut cand_ids = self.miner.mine(&target, &mut self.store);
                cand_ids.sort_unstable();
                cand_ids.dedup();
                cand_ids.retain(|&q| !self.targets.failed(q));
                let cands = self.store.resolve_arc(&cand_ids);
                let job_idx = metas.len();
                let (parked, parent) = self.targets.issue(p);
                let session = parked.unwrap_or_else(|| {
                    Box::new(AbductionSession::with_cache(
                        self.netlist,
                        target,
                        self.config.abduction,
                        Arc::clone(encode_cache),
                        true,
                    ))
                });
                metas.push(JobMeta {
                    pred: p,
                    cand_ids,
                    parent,
                });
                hh_trace::event!("sched", "sched.issue");
                hh_trace::counter!("sched", "sched.inflight", 1);
                observe(&SchedEvent::Issue {
                    job: job_idx,
                    weight: w,
                });
                dispatch(Job {
                    job_idx,
                    cands,
                    session,
                });
            }

            // Quiescence: nothing queued, nothing in flight. Sweep
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
            let Some((result, session)) = done.solved else {
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
                // Never issued again, so its session is dropped, not parked.
                self.targets.get_mut(meta.pred).status = Status::Failed;
                continue;
            };
            let abduct: Vec<PredId> = idxs.into_iter().map(|i| meta.cand_ids[i]).collect();
            for &q in &abduct {
                self.enqueue(&mut ready, q, Some(Some(task_idx)));
            }
            self.targets.memoise(meta.pred, abduct, session);
        }
    }

    /// Queues `p` at its cone weight, computed once per predicate, and
    /// records a discovery (`Some(by)`, `by` `None` for a root) unless `p`
    /// was discovered before; a re-queued stale target passes `None`.
    fn enqueue(&mut self, ready: &mut Ready, p: PredId, found_by: Option<Option<usize>>) {
        let (netlist, store) = (self.netlist, &self.store);
        let target = self.targets.get_mut(p);
        target.found_by = target.found_by.or(found_by);
        let weight = *(target.weight).get_or_insert_with(|| cone_weight(netlist, store.get(p)));
        ready.heap.push((weight, Reverse(ready.enqueued), p));
        ready.enqueued += 1;
    }

    fn assemble(&self, props: &[PredId]) -> Invariant {
        let ids: Vec<PredId> = closure(props.iter().copied(), |p| {
            match &self.targets.records[p.index()].status {
                Status::Solved { abduct, .. } => Some(abduct.iter().copied()),
                _ => None,
            }
        })
        .expect("assembled predicate must have a solution")
        .into_iter()
        .collect();
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

    /// The scheduler's on-demand cone weight equals the weight over the
    /// miner's precomputed COI table ([`hh_netlist::coi::Coi::one_step`])
    /// for every product state of a BoomLite miter, each in the `Eq` over
    /// its pair: priorities, and so issue order, commit order and every
    /// count, are the table's.
    #[test]
    fn cone_weight_matches_the_coi_table() {
        use hh_netlist::StateId;
        use hh_uarch::boomlite::{boom_lite, BoomVariant};
        let m = Miter::build(&boom_lite(BoomVariant::Small, 16).netlist);
        let n = m.netlist();
        let miner = CoiMiner::new(&m, &[StateValues::initial(n)], None, vec![]);
        let coi = &miner.coi;
        let width = |ss: &[StateId]| ss.iter().map(|&s| n.state_width(s) as u64).sum::<u64>();
        assert_eq!(2 * m.num_base_states(), n.num_states());
        for b in m.base_state_ids() {
            let (l, r) = m.pair(b);
            let pred = Predicate::eq(l, r);
            let states = pred.all_states();
            let table = width(&states) + width(&coi.one_step(&states));
            assert_eq!(cone_weight(n, &pred), table, "{pred:?}");
        }
    }

    /// The threaded pool at 1, 2 and 4 workers and the virtual backend
    /// with FIFO completions at windows 1, 2 and 4 (window 1 is the
    /// thread-free serial schedule) learn the same invariant, solution
    /// table and memo hits on a wide design: one whose task DAG has
    /// parallel width and whose 8 isomorphic held registers hit the
    /// encode cache.
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
                assert!(stats.counters.encode_cache_hits > 0);
                assert!(stats.counters.encode_vars_saved > 0);
                assert!(stats.num_tasks() >= 9);
                assert!(stats.span() <= stats.simulated_time(1));
                let got = (
                    inv.preds().to_vec(),
                    eng.solutions(),
                    stats.counters.memo_hits,
                );
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

    /// Memoisation, cycles, backtracking, failure and overlap, each on the
    /// thread-free serial schedule (virtual backend, window 1) and on pools
    /// of 1 and 3 workers: every run passes the case's checks, and the
    /// three agree on the invariant, the solution table and the task count.
    #[test]
    fn algorithm_1_cases_agree_on_every_backend() {
        for case in [and_gate(), swap(), mux_backtrack(), leak(), diamond()] {
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
        // The jobs the death left uncommitted leave no target in flight
        // and no session parked.
        let targets = &par.targets;
        let idle = |t: &Target| !matches!(t.status, Status::InFlight) && t.session.is_none();
        assert!(targets.records.iter().all(idle));
        assert_eq!(targets.resident_bytes, 0);
    }
}
