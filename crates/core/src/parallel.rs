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
//! durations vary. Out-of-order completions are buffered (cheap:
//! commits are table updates), so the barrier of the old wavefront design
//! is gone from the *solving* path.
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
//! The memo table and `P_fail` are shared across the run, so overlapping
//! cones are analysed once. Each target keeps a live [`AbductionSession`]
//! (travelling with the job and returned with the result), so backtracking
//! retries re-solve incrementally. A per-run [`hh_smt::EncodeCache`] is
//! shared by all sessions: signature-equal cones replay each other's base
//! encodings. A replay is byte-identical to a fresh build, so which session
//! recorded an encoding first (the one thing worker timing does decide)
//! cannot reach the result.

use crate::invariant::closure;
use crate::mine::Miner;
use crate::reorder::ReorderBuffer;
use crate::sim::{SchedEvent, SimDriver};
use crate::store::{PredId, PredicateStore};
use crate::{Invariant, Stats, TaskRecord};
use hh_netlist::coi::node_support;
use hh_netlist::Netlist;
use hh_smt::{AbductionConfig, AbductionResult, AbductionSession, EncodeCache, Predicate};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
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

/// Per-target cache of live abduction sessions, owned by the scheduler: a
/// session travels to a worker with its job, comes back with the result and
/// is *parked* here between its queries; dropping it frees its solver.
#[derive(Debug, Default)]
struct SessionCache<'a> {
    parked: HashMap<PredId, AbductionSession<'a>>,
    /// Sum of [`AbductionSession::resident_bytes`] over `parked`.
    resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    peak_resident_bytes: u64,
}

impl<'a> SessionCache<'a> {
    /// Takes `target`'s session out for its next query, if it has one.
    fn take(&mut self, target: PredId) -> Option<AbductionSession<'a>> {
        let session = self.parked.remove(&target)?;
        self.resident_bytes -= session.resident_bytes();
        Some(session)
    }

    /// Parks `target`'s session until its next query or the end of the run.
    fn park(&mut self, target: PredId, session: AbductionSession<'a>) {
        self.resident_bytes += session.resident_bytes();
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        let displaced = self.parked.insert(target, session);
        debug_assert!(displaced.is_none(), "a target has one session");
    }

    /// Frees every parked session (the peak is kept).
    fn clear(&mut self) {
        self.parked.clear();
        self.resident_bytes = 0;
    }
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
    memo: HashMap<PredId, Vec<PredId>>,
    failed: HashSet<PredId>,
    /// Task index that first discovered each predicate (for the task DAG).
    discoverer: HashMap<PredId, Option<usize>>,
    /// Live abduction sessions, keyed by target. Sessions travel to the
    /// worker with the job and come back with the result.
    sessions: SessionCache<'a>,
    /// Externally owned warm [`EncodeCache`] (a resident service keeps one
    /// across requests); when set, [`ParallelEngine::learn`] uses it instead
    /// of building a per-run cache. See [`ParallelEngine::set_encode_cache`].
    warm_cache: Option<Arc<EncodeCache>>,
    /// Targets whose memo entry was preloaded via
    /// [`ParallelEngine::seed_solutions`] rather than solved in this engine.
    seeded: HashSet<PredId>,
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
    session: AbductionSession<'a>,
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
    solved: Option<(AbductionResult, AbductionSession<'a>)>,
    duration: Duration,
}

/// Runs one abduction query — the worker body shared by the threaded pool
/// and the virtual (simulation) backend. A panicking solve is caught and
/// surfaced as a `solved: None` completion instead of tearing the worker
/// down silently: before this, a panicked worker left the scheduler
/// blocked forever on a `JobDone` that would never arrive.
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
            memo: HashMap::new(),
            failed: HashSet::new(),
            discoverer: HashMap::new(),
            sessions: SessionCache::default(),
            warm_cache: None,
            seeded: HashSet::new(),
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
        let mut n = 0usize;
        for (target, premises) in solutions {
            let p = self.store.intern(target.clone());
            let ab: Vec<PredId> = premises
                .iter()
                .map(|q| self.store.intern(q.clone()))
                .collect();
            self.memo.insert(p, ab);
            self.seeded.insert(p);
            n += 1;
        }
        n
    }

    /// How many seeded memo entries survived the most recent learn call
    /// (i.e. were *reused*: still present in the final solution table, not
    /// swept stale and re-solved). `seeded - seeds_reused()` entries were
    /// invalidated during the run.
    pub fn seeds_reused(&self) -> usize {
        self.seeded
            .iter()
            .filter(|p| self.memo.contains_key(p))
            .count()
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
            .memo
            .iter()
            .map(|(&p, ab)| (self.store.get(p).clone(), self.store.resolve(ab)))
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
                    // With the panic fix above this recv cannot strand:
                    // every dequeued job produces a JobDone (panicked or
                    // not), and workers outlive the scheduler (job_tx
                    // closes below).
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
    /// here: the properties are interned and seeded as roots of the task
    /// DAG; the encode cache is the warm one a resident service attached
    /// (it outlives the call and keeps its recorded encodings) or a fresh
    /// per-run cache; sessions only pay off within one run, so their
    /// solvers are freed at its end.
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
        for &p in &prop_ids {
            self.discoverer.entry(p).or_insert(None);
        }
        let encode_cache = self
            .warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(EncodeCache::new(self.netlist)));

        let result = backend(self, &prop_ids, &encode_cache);

        self.stats
            .record_run_end(&encode_cache, self.sessions.peak_resident_bytes);
        self.stats.wall_time = t0.elapsed();
        self.sessions.clear();
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
        let netlist = self.netlist;
        let abd_cfg = self.config.abduction;
        let mut weights: HashMap<PredId, u64> = HashMap::new();

        // Scheduler state. `queue` holds predicates to (re-)issue,
        // largest cone first (enqueue order as tiebreak); `reorder`
        // buffers out-of-order completions until their turn to commit.
        let mut queue: BinaryHeap<(u64, Reverse<usize>, PredId)> = BinaryHeap::new();
        let mut seq = 0usize;
        for &p in prop_ids {
            let w = *weights
                .entry(p)
                .or_insert_with(|| cone_weight(netlist, self.store.get(p)));
            queue.push((w, Reverse(seq), p));
            seq += 1;
        }
        // Seeded memo entries short-circuit their own solve, but their
        // premises must still be scheduled: a premise whose entry was
        // invalidated (or never seeded) has to be re-learned before
        // `assemble` walks through it. Enqueue every seeded premise in
        // deterministic (target, position) order; already-memoised ones
        // are skipped at issue, exactly like memo hits.
        if !self.seeded.is_empty() {
            let mut seeded: Vec<PredId> = self.seeded.iter().copied().collect();
            seeded.sort_unstable();
            for p in seeded {
                let Some(ab) = self.memo.get(&p).cloned() else {
                    continue;
                };
                for q in ab {
                    self.discoverer.entry(q).or_insert(None);
                    let w = *weights
                        .entry(q)
                        .or_insert_with(|| cone_weight(netlist, self.store.get(q)));
                    queue.push((w, Reverse(seq), q));
                    seq += 1;
                }
            }
        }
        let mut metas: Vec<JobMeta> = Vec::new();
        let mut reorder: ReorderBuffer<JobDone<'a>> = ReorderBuffer::new();
        let mut inflight: HashSet<PredId> = HashSet::new();

        loop {
            // Issue phase: drain the queue in priority order, skipping
            // targets that resolved (or got scheduled) since they were
            // enqueued.
            while let Some((w, _, p)) = queue.pop() {
                if self.failed.contains(&p) {
                    continue;
                }
                if self.memo.contains_key(&p) {
                    self.stats.counters.memo_hits += 1;
                    hh_trace::counter!("engine", "engine.memo.hit", 1);
                    continue;
                }
                if inflight.contains(&p) {
                    continue;
                }
                let target = self.store.get_arc(p);
                let mut cand_ids = self.miner.mine(&target, &mut self.store);
                cand_ids.sort_unstable();
                cand_ids.dedup();
                cand_ids.retain(|q| !self.failed.contains(q));
                let cands = self.store.resolve_arc(&cand_ids);
                let parent = self.discoverer.get(&p).copied().flatten();
                let job_idx = metas.len();
                metas.push(JobMeta {
                    pred: p,
                    cand_ids,
                    parent,
                });
                let session = self.sessions.take(p).unwrap_or_else(|| {
                    AbductionSession::with_cache(
                        netlist,
                        target,
                        abd_cfg,
                        Arc::clone(encode_cache),
                        true,
                    )
                });
                inflight.insert(p);
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
                if prop_ids.iter().any(|p| self.failed.contains(p)) {
                    break None;
                }
                let mut stale: Vec<PredId> = self
                    .memo
                    .iter()
                    .filter(|(_, ab)| ab.iter().any(|q| self.failed.contains(q)))
                    .map(|(&p, _)| p)
                    .collect();
                if stale.is_empty() {
                    break Some(self.assemble(prop_ids));
                }
                stale.sort_unstable(); // deterministic re-issue order
                self.stats.counters.backtracks += stale.len() as u64;
                hh_trace::counter!("engine", "engine.backtrack", stale.len());
                for s in stale {
                    self.memo.remove(&s);
                    // A swept seed was *not* reused — its re-solve below
                    // is fresh work and must be accounted as such.
                    self.seeded.remove(&s);
                    let w = *weights
                        .entry(s)
                        .or_insert_with(|| cone_weight(netlist, self.store.get(s)));
                    queue.push((w, Reverse(seq), s));
                    seq += 1;
                }
                continue;
            }

            // Stream phase: block for the next completion in issue
            // order, then commit exactly ONE result before issuing
            // again. Single-step commits keep every issue point a pure
            // function of the commit count (see module docs); children
            // mined from the commit land in `queue` and are issued on
            // the next loop iteration — while other jobs are still
            // solving.
            let (commit_seq, done) = if self.canary_shuffle {
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
                    // NOTE: do NOT fold `done.duration` into the occupancy
                    // accounting here. Several completions can be buffered
                    // while waiting for the in-order commit, and each of
                    // them passes through the single-commit step below —
                    // accounting at both points would double-count every
                    // buffered job (`worker_busy_time` would exceed the sum
                    // of task durations).
                    reorder.insert(done.job_idx, done);
                }
                reorder.pop_in_order().expect("checked above")
            };
            let meta = &metas[done.job_idx];
            let Some((result, session)) = done.solved else {
                // The worker solving this job died. Surface the poisoned
                // run instead of committing a fabricated result: stop
                // scheduling, mark the stats, return no invariant.
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
            let _ = commit_seq;
            // Occupancy: every job is committed exactly once, so this is
            // the one place worker busy time may be accumulated.
            self.stats.worker_busy_time += done.duration;
            self.stats.record_query(done.duration);
            if result.telemetry.counters.session_hits > 0 {
                hh_trace::counter!("smt", "smt.session.hit", 1);
            } else {
                hh_trace::counter!("smt", "smt.session.miss", 1);
            }
            self.stats.record_abduction(&result.telemetry);
            let task_idx = self.stats.tasks.len();
            self.stats.tasks.push(TaskRecord {
                pred: meta.pred,
                parent: meta.parent,
                duration: done.duration,
                smt_time: result.telemetry.solve_time,
                propagations: result.telemetry.counters.sat_propagations,
            });
            self.stats.task_time += done.duration;
            match result.abduct {
                None => {
                    // Never issued again (the issue phase skips `P_fail`),
                    // so the session is dropped rather than parked.
                    self.failed.insert(meta.pred);
                }
                Some(idxs) => {
                    self.sessions.park(meta.pred, session);
                    let ab: Vec<PredId> = idxs.into_iter().map(|i| meta.cand_ids[i]).collect();
                    for &q in &ab {
                        self.discoverer.entry(q).or_insert(Some(task_idx));
                        let w = *weights
                            .entry(q)
                            .or_insert_with(|| cone_weight(netlist, self.store.get(q)));
                        queue.push((w, Reverse(seq), q));
                        seq += 1;
                    }
                    self.memo.insert(meta.pred, ab);
                }
            }
            inflight.remove(&meta.pred);
        }
    }

    fn assemble(&self, props: &[PredId]) -> Invariant {
        let ids: Vec<PredId> = closure(props.iter().copied(), |p| {
            self.memo.get(&p).map(|ab| ab.iter().copied())
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

    /// The threaded pool learns exactly what the thread-free serial
    /// schedule (virtual backend, FIFO completions, window 1) learns.
    #[test]
    fn parallel_matches_serial_result() {
        let (base, m) = wide(8);
        let e = StateValues::initial(m.netlist());
        let t = base.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(t), m.right(t));

        let miner_s = CoiMiner::new(&m, std::slice::from_ref(&e), None, vec![]);
        let mut serial = ParallelEngine::new(m.netlist(), miner_s, EngineConfig::default(), 1);
        let inv_s = serial
            .learn_sim(std::slice::from_ref(&prop), &mut FifoDriver)
            .unwrap();

        let miner_p = CoiMiner::new(&m, std::slice::from_ref(&e), None, vec![]);
        let mut par = ParallelEngine::new(m.netlist(), miner_p, EngineConfig::default(), 4);
        let inv_p = par.learn(std::slice::from_ref(&prop)).unwrap();

        assert!(inv_p.verify_monolithic(m.netlist()));
        assert_eq!(inv_s.preds(), inv_p.preds());
        // The wavefront should have produced a task DAG with parallelism:
        // span < serial sum.
        let stats = par.stats();
        assert!(stats.num_tasks() >= 9);
        assert!(stats.span() <= stats.simulated_time(1));
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
            // commit before `up` does, so it is the in-flight set that
            // absorbs the visit here (the memo does when the first visit
            // has committed: see `swap`).
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

    #[test]
    fn sharing_and_thread_counts_agree() {
        // The learned invariant must be identical across thread counts, and
        // the 8 isomorphic held registers must produce encode-cache hits.
        let (base, m) = wide(8);
        let e = StateValues::initial(m.netlist());
        let t = base.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(t), m.right(t));

        let mut reference: Option<Vec<Predicate>> = None;
        for threads in [1, 2, 4] {
            let miner = CoiMiner::new(&m, std::slice::from_ref(&e), None, vec![]);
            let mut par = ParallelEngine::new(m.netlist(), miner, EngineConfig::default(), threads);
            let inv = par.learn(std::slice::from_ref(&prop)).unwrap();
            let mut preds = inv.preds().to_vec();
            preds.sort_by_key(|p| format!("{p:?}"));
            match &reference {
                None => reference = Some(preds),
                Some(r) => assert_eq!(r, &preds, "invariant differs at threads={threads}"),
            }
            let stats = par.stats();
            assert!(
                stats.counters.encode_cache_hits > 0,
                "isomorphic registers must hit the encode cache"
            );
            assert!(stats.counters.encode_vars_saved > 0);
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

    /// The virtual backend with a FIFO driver reproduces the threaded
    /// engine's invariant and solution table exactly, at every window size.
    #[test]
    fn learn_sim_fifo_matches_threaded() {
        let (base, m) = wide(6);
        let e = StateValues::initial(m.netlist());
        let t = base.find_state("t").unwrap();
        let prop = Predicate::eq(m.left(t), m.right(t));

        let miner = CoiMiner::new(&m, std::slice::from_ref(&e), None, vec![]);
        let mut threaded = ParallelEngine::new(m.netlist(), miner, EngineConfig::default(), 4);
        let inv_t = threaded.learn(std::slice::from_ref(&prop)).unwrap();

        for window in [1, 2, 4] {
            let miner = CoiMiner::new(&m, std::slice::from_ref(&e), None, vec![]);
            let mut sim = ParallelEngine::new(m.netlist(), miner, EngineConfig::default(), window);
            let inv_s = sim
                .learn_sim(std::slice::from_ref(&prop), &mut FifoDriver)
                .unwrap();
            assert_eq!(inv_t.preds(), inv_s.preds(), "window {window}");
            assert_eq!(threaded.solutions(), sim.solutions(), "window {window}");
            assert_eq!(
                threaded.stats().counters.memo_hits,
                sim.stats().counters.memo_hits,
                "window {window}"
            );
            assert!(inv_s.verify_monolithic(m.netlist()));
        }
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
    }
}
