//! The CDCL solver.
//!
//! A conflict-driven clause-learning solver built around a flat clause
//! arena (see [`crate::clause`]) with:
//!
//! * two-literal watching with blocker literals, plus a binary-clause fast
//!   path that resolves two-literal clauses entirely from the watcher entry
//!   (no arena load),
//! * first-UIP conflict analysis with basic clause minimisation and
//!   on-the-fly LBD refresh of reason clauses,
//! * VMTF decision ordering (see [`crate::vmtf`]) with phase saving,
//!   extended with best-trail phase targeting reset on restarts,
//! * glucose-style adaptive restarts (recent-LBD EMA vs. the global mean,
//!   with trail-size restart blocking),
//! * chronological backtracking past [`Config::chrono_threshold`] levels,
//! * a three-tier learnt-clause database (core/mid/local by LBD) where only
//!   the local tier is reduced and idle mid-tier clauses are demoted,
//! * in-place garbage compaction of the clause arena instead of
//!   rebuild-from-scratch reductions,
//! * incremental solving under assumptions with UNSAT-core extraction.
//!
//! The solver is the decision engine behind every query made by the
//! H-Houdini abduction oracle, where the assumptions are predicate indicator
//! literals and the UNSAT core *is* the abduct.

use crate::clause::{ClauseDb, ClauseRef, Tier};
use crate::lit::{LBool, Lit, Var};
use crate::proof::ProofSink;
use crate::vmtf::VmtfQueue;
use crate::watch::{WatchStore, Watcher};
use std::num::NonZeroU32;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; the
    /// involved assumptions are available from [`Solver::unsat_core`].
    Unsat,
}

/// Outcome of a [`Solver::solve_limited`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitedResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; the
    /// involved assumptions are available from [`Solver::unsat_core`].
    Unsat,
    /// The conflict budget was exhausted before a verdict. The search state
    /// (learnt clauses, decision order, phases) persists, so a later
    /// [`Solver::solve_limited`] or [`Solver::solve_with_assumptions`] call
    /// resumes from the accumulated knowledge.
    Unknown,
}

/// The one threshold of the solver that tests shrink to make a rare path
/// fire on small formulas. Every other parameter is a private constant of
/// this module; no caller outside tests constructs anything but
/// [`Config::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Backjump distance (in decision levels) above which a conflict
    /// backtracks chronologically (Nadel/Ryvchin): one level instead of the
    /// full backjump, keeping the (still consistent) deeper partial
    /// assignment. The asserting literal is then assigned at its true
    /// assertion level, which leaves out-of-order entries on the trail;
    /// `Solver::cancel_until`, conflict analysis and UNSAT-core extraction
    /// all account for them.
    ///
    /// The default is deliberately high: chronological backtracking pays
    /// off on deep trails (the monolithic HOUDINI/SORCAR solves and cone
    /// queries with hundreds of assumption levels) but adds re-derivation
    /// churn on short ones, so it should engage only when a conflict would
    /// throw away a genuinely long trail.
    pub chrono_threshold: NonZeroU32,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            chrono_threshold: const { NonZeroU32::new(500).unwrap() },
        }
    }
}

/// Cumulative counters, exposed for the paper's Figure 4 style breakdowns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Number of `solve`/`solve_with_assumptions` calls.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt-database reductions performed.
    pub reduces: u64,
    /// Current clause-arena size in bytes — a gauge refreshed after every
    /// solve and reduction, not a monotone counter.
    pub arena_bytes: u64,
    /// Conflicts resolved by chronological (single-level) backtracking
    /// instead of a full backjump (see [`Config::chrono_threshold`]).
    pub chrono_backtracks: u64,
    /// [`Solver::solve_limited`] calls — each is one budgeted round of a
    /// caller-paced solve.
    pub budget_rounds: u64,
    /// Current heap footprint of the watch lists in bytes (watchers, idle
    /// capacity, holes and per-literal headers) — a gauge refreshed after
    /// every solve, not a monotone counter.
    pub watch_bytes: u64,
}

// Fixed search parameters. No workload sets any of them, so they are
// constants, not `Config` fields.

/// Multiplicative decay applied to clause activities per conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// Initial cap on reducible (local-tier) learnt clauses before database
/// reduction, as a fraction of live clauses (plus a flat 1000).
const LEARNT_SIZE_FACTOR: f64 = 1.0 / 3.0;
/// Growth of the learnt-clause cap after each reduction.
const LEARNT_SIZE_INC: f64 = 1.1;
/// Fraction of eligible local-tier clauses deleted per reduction.
const REDUCE_FRACTION: f64 = 0.5;
/// Learnt clauses with LBD at or below this are core tier: kept forever.
const CORE_LBD: u32 = 2;
/// Learnt clauses with LBD at or below this (and above [`CORE_LBD`]) start
/// in the mid tier: they survive reductions while used, and are demoted to
/// the local tier after an idle round.
const TIER2_LBD: u32 = 6;
/// Garbage-compact the clause arena when at least this fraction of it is
/// dead words.
const COMPACT_GARBAGE_FRAC: f64 = 0.25;
/// EMA smoothing factor for the recent-LBD average.
const RESTART_EMA_ALPHA: f64 = 1.0 / 32.0;
/// Restart when the recent-LBD EMA exceeds this multiple of the global LBD
/// mean (high recent glue = the search has gone stale).
const RESTART_MARGIN: f64 = 1.25;
/// Minimum conflicts between restarts (also the warmup before the LBD
/// averages are trusted).
const RESTART_MIN_INTERVAL: u64 = 50;
/// Restart blocking: a conflict whose trail is deeper than this multiple of
/// the trail EMA resets the recent-LBD EMA to the global mean, deferring
/// the restart (the current assignment looks close to a model).
const RESTART_BLOCK_MARGIN: f64 = 1.4;
/// EMA smoothing for the average trail size at conflicts (restart
/// blocking).
const TRAIL_EMA_ALPHA: f64 = 1.0 / 256.0;

/// Outcome of one [`Solver::search`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchOutcome {
    /// A definitive verdict was reached.
    Done(SolveResult),
    /// The caller's conflict ceiling was reached; the solve suspends.
    Budget,
    /// The restart policy fired; the driver loop restarts the search.
    Restart,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use hh_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[!a.positive()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert!(s.model_value(b.positive()));
/// ```
#[derive(Debug)]
pub struct Solver {
    config: Config,
    db: ClauseDb,
    /// Watch lists indexed by literal code: list `p` holds the clauses that
    /// must be inspected when `p` becomes true (they watch `!p`), binary
    /// clauses first — their watcher's blocker is the implied literal, so
    /// that part needs no arena access at all. See [`crate::watch`] for the
    /// layout.
    watches: WatchStore,
    assigns: Vec<LBool>,
    /// The assignment again, per literal code and as a signed byte (`1`
    /// true, `-1` false, `0` unassigned): what propagation reads, one byte
    /// load per literal with nothing to decode. Written only where
    /// `assigns` is (`new_var`, `unchecked_enqueue_at`, `cancel_until`).
    vals: Vec<i8>,
    /// Saved phase per variable, used as the decision polarity.
    phase: Vec<bool>,
    /// Phases captured at the deepest trail of the current solve; restarts
    /// reset `phase` to this (best-phase targeting).
    best_phase: Vec<bool>,
    /// Trail depth at which `best_phase` was captured (per solve).
    best_trail: usize,
    /// Variables seen by the current conflict analysis, bumped together at
    /// its end.
    analyzed: Vec<Var>,
    clause_inc: f32,
    /// Decision order: most recently bumped free variable first.
    order: VmtfQueue,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    /// Scratch flags for conflict analysis, indexed by variable.
    seen: Vec<bool>,
    /// False iff a top-level conflict has been derived (formula is UNSAT
    /// regardless of assumptions).
    ok: bool,
    /// An input clause falsified outright by the level-0 trail at
    /// [`Solver::add_clause`] time. The clause database never stores it, but
    /// [`Solver::formula_clauses`] must include it — without it the
    /// snapshot would lose the input-level contradiction and no proof
    /// stream could refute it.
    input_conflict: Option<Vec<Lit>>,
    model: Vec<LBool>,
    core: Vec<Lit>,
    max_learnts: f64,
    stats: SolverStats,
    /// Per-level stamps for O(clause) LBD computation: a level is counted
    /// once per `lbd_stamp` generation.
    lbd_levels: Vec<u64>,
    lbd_stamp: u64,
    /// Recent-LBD EMA (glucose restarts).
    lbd_fast: f64,
    /// Sum and count of all learnt-clause LBDs (global mean).
    lbd_sum: f64,
    lbd_count: u64,
    /// EMA of the trail size at conflicts (restart blocking).
    trail_ema: f64,
    /// Optional DRAT proof stream (see [`crate::proof::ProofSink`]).
    proof: Option<Box<dyn ProofSink>>,
    /// Whether the permanent empty clause has been logged (the formula
    /// itself, not just an assumption set, was refuted). Keeps the stream
    /// free of duplicate empty clauses across repeated solve calls.
    proof_done: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with default [`Config`].
    pub fn new() -> Solver {
        Solver::with_config(Config::default())
    }

    /// Creates an empty solver with the given thresholds.
    pub fn with_config(config: Config) -> Solver {
        Solver {
            config,
            db: ClauseDb::new(),
            watches: WatchStore::new(),
            assigns: Vec::new(),
            vals: Vec::new(),
            phase: Vec::new(),
            best_phase: Vec::new(),
            best_trail: 0,
            analyzed: Vec::new(),
            clause_inc: 1.0,
            order: VmtfQueue::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            ok: true,
            input_conflict: None,
            model: Vec::new(),
            core: Vec::new(),
            max_learnts: 0.0,
            stats: SolverStats::default(),
            lbd_levels: vec![0],
            lbd_stamp: 0,
            lbd_fast: 0.0,
            lbd_sum: 0.0,
            lbd_count: 0,
            trail_ema: 0.0,
            proof: None,
            proof_done: false,
        }
    }

    // ------------------------------------------------------------------
    // Proof logging
    // ------------------------------------------------------------------

    /// Attaches a DRAT proof sink. From this point on every learnt clause
    /// is streamed to `sink` (see the [`crate::proof`]
    /// module for the exact conventions). For a checkable proof the sink
    /// should be attached before the first solve call, and the checker
    /// should be given the formula as captured by
    /// [`Solver::formula_clauses`].
    pub fn set_proof_sink(&mut self, sink: Box<dyn ProofSink>) {
        self.proof = Some(sink);
    }

    /// Detaches and returns the proof sink, if any.
    pub fn take_proof_sink(&mut self) -> Option<Box<dyn ProofSink>> {
        self.proof.take()
    }

    /// Visits the current formula as seen by a proof checker: the level-0
    /// implied units (as one-literal slices) followed by every live
    /// non-learnt clause, borrowed straight from the clause arena — no
    /// per-clause allocation.
    ///
    /// Taken right after clause loading (before any solve call) this is the
    /// input formula a DRAT stream from this solver refutes. Must be called
    /// at decision level 0.
    pub fn visit_formula_clauses<F: FnMut(&[Lit])>(&self, mut visit: F) {
        debug_assert_eq!(self.decision_level(), 0);
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..bound] {
            visit(std::slice::from_ref(&l));
        }
        for cref in self.db.live_refs() {
            if !self.db.is_learnt(cref) {
                visit(self.db.lits(cref));
            }
        }
        if let Some(c) = &self.input_conflict {
            visit(c);
        }
    }

    /// [`Solver::visit_formula_clauses`] collected into owned clauses, for
    /// callers that need to keep the snapshot.
    pub fn formula_clauses(&self) -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        self.visit_formula_clauses(|c| out.push(c.to_vec()));
        out
    }

    /// Logs a derived clause to the proof stream, if one is attached.
    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(sink) = &mut self.proof {
            sink.add_clause(lits);
        }
    }

    /// Logs the permanent empty clause (idempotent). Called at every site
    /// that sets `ok = false`: once the formula is refuted the stream is
    /// complete and further lines would be noise.
    #[inline]
    fn proof_empty(&mut self) {
        if self.proof.is_some() && !self.proof_done {
            self.proof_done = true;
            self.proof_add(&[]);
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses currently stored (including learnt ones).
    pub fn num_clauses(&self) -> usize {
        self.db.num_clauses()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.vals.extend([0, 0]);
        self.phase.push(false);
        self.best_phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.add_lit();
        self.watches.add_lit();
        self.lbd_levels.push(0);
        self.order.push_var();
        v
    }

    /// Adds a clause (a disjunction of literals) to the formula.
    ///
    /// Returns `false` if the formula is now known to be unsatisfiable at the
    /// top level (e.g. after adding an empty or immediately-conflicting
    /// clause). Duplicated literals are removed and tautological clauses are
    /// silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if any literal refers to a variable that was not created with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        for l in &c {
            assert!(l.var().index() < self.num_vars(), "literal out of range");
        }
        c.sort_unstable();
        c.dedup();
        // Filter literal values at level 0 first: a satisfied literal drops
        // the whole clause, a falsified one is removed. Only then scan the
        // survivors for tautology — the sort order is preserved by the
        // filter, so `l` and `!l` are still adjacent if both remain.
        let mut filtered = Vec::with_capacity(c.len());
        for &l in &c {
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        for w in filtered.windows(2) {
            if w[1] == !w[0] {
                return true; // tautology: contains both l and !l
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                if self.input_conflict.is_none() {
                    self.input_conflict = Some(c);
                }
                self.proof_empty();
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.proof_empty();
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&filtered, false, 0, Tier::Core);
                self.attach(cref);
                true
            }
        }
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::unsat_core`] returns the subset
    /// of `assumptions` involved in the refutation. The solver remains usable
    /// afterwards (incremental interface): more variables, clauses and solve
    /// calls may follow.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_traced(assumptions, None)
            .expect("an unbudgeted solve always concludes")
    }

    /// Solves under assumptions with a conflict budget.
    ///
    /// Runs the exact CDCL loop of [`Solver::solve_with_assumptions`], but
    /// suspends and returns [`LimitedResult::Unknown`] once `conflict_budget`
    /// conflicts have been analysed within this call without reaching a
    /// verdict. Suspension is lossless — learnt clauses, decision order and
    /// saved phases persist — so a later `solve_limited` (or an unbudgeted
    /// solve) resumes from the accumulated knowledge, and a call whose
    /// budget is never hit behaves bit-identically to
    /// [`Solver::solve_with_assumptions`]. This is the primitive for
    /// pacing a solve in deterministic conflict rounds instead of
    /// wall-clock time (hh-vopr's budget-sliced SAT leg).
    pub fn solve_limited(&mut self, assumptions: &[Lit], conflict_budget: u64) -> LimitedResult {
        self.stats.budget_rounds += 1;
        match self.solve_traced(assumptions, Some(conflict_budget)) {
            Some(SolveResult::Sat) => LimitedResult::Sat,
            Some(SolveResult::Unsat) => LimitedResult::Unsat,
            None => LimitedResult::Unknown,
        }
    }

    /// Shared trace wrapper for the solve entry points: spans the call and
    /// emits per-call counter deltas (split out so the early returns share
    /// one recording point).
    fn solve_traced(&mut self, assumptions: &[Lit], budget: Option<u64>) -> Option<SolveResult> {
        let _span = hh_trace::span!("sat", "sat.solve");
        let before = (
            self.stats.propagations,
            self.stats.conflicts,
            self.stats.restarts,
            self.stats.reduces,
            self.stats.arena_bytes,
            self.stats.chrono_backtracks,
        );
        let result = self.solve_internal(assumptions, budget);
        self.stats.arena_bytes = (self.db.arena_words() * 4) as u64;
        self.refresh_watch_gauge();
        if hh_trace::enabled() {
            hh_trace::counter!(
                "sat",
                "sat.propagations",
                self.stats.propagations - before.0
            );
            hh_trace::counter!("sat", "sat.conflicts", self.stats.conflicts - before.1);
            hh_trace::counter!("sat", "sat.restarts", self.stats.restarts - before.2);
            hh_trace::counter!("sat", "sat.reduce", self.stats.reduces - before.3);
            // Arena size is a gauge: emit the signed delta so the trace
            // total tracks the live arena footprint across solves.
            hh_trace::counter!(
                "sat",
                "sat.arena_bytes",
                self.stats.arena_bytes as i64 - before.4 as i64
            );
            hh_trace::counter!(
                "sat",
                "sat.chrono_backtracks",
                self.stats.chrono_backtracks - before.5
            );
            if budget.is_some() {
                hh_trace::counter!("sat", "sat.budget_rounds", 1u64);
            }
        }
        result
    }

    /// The CDCL driver loop. `budget` is a per-call conflict allowance:
    /// `None` runs to a verdict, `Some(n)` suspends (returning `None`) once
    /// `n` conflicts have been analysed in this call, always at decision
    /// level 0 with all conflict handling complete, so the suspended state
    /// is exactly a restart point.
    fn solve_internal(&mut self, assumptions: &[Lit], budget: Option<u64>) -> Option<SolveResult> {
        self.stats.solves += 1;
        self.model.clear();
        self.core.clear();
        if !self.ok {
            self.proof_empty();
            return Some(SolveResult::Unsat);
        }
        self.cancel_until(0);
        // The formula has stopped growing and no list is being walked: the
        // one point per solve where a wasteful watch arena (a bulk load's
        // relocation holes, or lists since emptied) is rebuilt.
        self.fit_watches();
        self.max_learnts = (self.db.num_clauses() as f64) * LEARNT_SIZE_FACTOR + 1000.0;
        // Seed the best-phase snapshot from the saved phases so a restart
        // before any record never installs stale polarities.
        self.best_phase.clone_from(&self.phase);
        self.best_trail = 0;
        // The budget is relative to this call: turn it into an absolute
        // ceiling on the cumulative conflict counter.
        let ceiling = budget.map(|b| self.stats.conflicts.saturating_add(b));
        loop {
            match self.search(ceiling, assumptions) {
                SearchOutcome::Done(result) => {
                    self.cancel_until(0);
                    if result == SolveResult::Unsat && self.ok {
                        // Assumption-based UNSAT: the standard DRAT wrapper
                        // trick. The final-core literals are logged as unit
                        // additions followed by the empty clause; a checker
                        // treating the core as part of the input formula
                        // (see `hh-proof`) then verifies the whole stream by
                        // plain RUP. The formula itself is not refuted, so
                        // `proof_done` stays clear.
                        if let Some(sink) = &mut self.proof {
                            sink.add_core(&self.core);
                        }
                    }
                    return Some(result);
                }
                SearchOutcome::Budget => {
                    self.cancel_until(0);
                    return None;
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    if self.best_trail > 0 {
                        // Best-phase targeting: restart the search aimed at
                        // the deepest partial assignment seen so far.
                        self.phase.clone_from(&self.best_phase);
                    }
                }
            }
        }
    }

    /// Value of `lit` in the most recent satisfying assignment.
    ///
    /// # Panics
    ///
    /// Panics if the last solve call did not return [`SolveResult::Sat`].
    pub fn model_value(&self, lit: Lit) -> bool {
        assert!(!self.model.is_empty(), "no model available");
        match self.model[lit.var().index()].of_lit(lit) {
            LBool::True => true,
            LBool::False => false,
            // Variables never touched by search keep their saved phase; the
            // model vector is fully concrete by construction.
            LBool::Undef => unreachable!("model is total"),
        }
    }

    /// The subset of the assumption literals used to derive unsatisfiability
    /// in the most recent UNSAT answer.
    ///
    /// If the formula is unsatisfiable even without assumptions the core is
    /// empty.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Runs CDCL until the restart policy fires, the caller's conflict
    /// ceiling is reached, or a definitive result is found. `ceiling` is
    /// the absolute `stats.conflicts` value at which a budgeted solve
    /// suspends, checked only between fully-handled conflicts so suspension
    /// never splits a conflict's bookkeeping.
    fn search(&mut self, ceiling: Option<u64>, assumptions: &[Lit]) -> SearchOutcome {
        let mut conflicts: u64 = 0;
        loop {
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                self.stats.conflicts += 1;
                // Under chronological backtracking the conflict can lie
                // entirely below the current decision level (an asserting
                // literal placed at a lower level falsified an old clause):
                // fall back to the conflict's own level first so analysis
                // sees the conflicting clause at its "current" level.
                let c_lvl = self.conflict_level(confl);
                if c_lvl == 0 {
                    self.ok = false;
                    self.proof_empty();
                    return SearchOutcome::Done(SolveResult::Unsat);
                }
                if c_lvl < self.decision_level() {
                    self.cancel_until(c_lvl);
                }
                let trail_depth = self.trail.len() as f64;
                let (learnt, backtrack_level) = self.analyze(confl);
                // Chronological backtracking: when the backjump would throw
                // away many levels of (possibly still useful) assignment,
                // step back a single level instead. The learnt clause stays
                // asserting because its literal is enqueued at its true
                // assertion level (`backtrack_level`), leaving an
                // out-of-order trail entry.
                let target = if self.decision_level() - backtrack_level
                    > self.config.chrono_threshold.get()
                {
                    self.stats.chrono_backtracks += 1;
                    self.decision_level() - 1
                } else {
                    backtrack_level
                };
                self.cancel_until(target);
                let lbd = self.record_learnt(learnt, backtrack_level);
                self.decay_clause_activities();
                // Restart bookkeeping: fold this conflict's LBD into the
                // recent EMA and the global mean, and its (pre-backtrack)
                // trail depth into the blocking EMA.
                self.lbd_count += 1;
                self.lbd_sum += lbd as f64;
                self.lbd_fast += (lbd as f64 - self.lbd_fast) * RESTART_EMA_ALPHA;
                self.trail_ema += (trail_depth - self.trail_ema) * TRAIL_EMA_ALPHA;
                if self.lbd_count >= RESTART_MIN_INTERVAL
                    && trail_depth > RESTART_BLOCK_MARGIN * self.trail_ema
                    && self.restart_pending(conflicts)
                {
                    // Blocking: the assignment is unusually deep, so a
                    // restart would throw away likely progress towards a
                    // model. Pull the EMA back to the mean to defer it.
                    self.lbd_fast = self.lbd_sum / self.lbd_count as f64;
                }
            } else {
                if ceiling.is_some_and(|c| self.stats.conflicts >= c) {
                    return SearchOutcome::Budget;
                }
                if self.restart_pending(conflicts) {
                    self.cancel_until(0);
                    return SearchOutcome::Restart;
                }
                if self.db.num_local() as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= LEARNT_SIZE_INC;
                }
                // Place assumptions as pseudo-decisions, one per level.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level so the
                            // level/assumption indices stay aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(p);
                            return SearchOutcome::Done(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => p,
                        None => {
                            // All variables assigned: model found.
                            self.model = self.assigns.clone();
                            return SearchOutcome::Done(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    /// Whether the glucose restart condition currently holds: past the
    /// minimum interval, with the recent-LBD EMA above the margin over the
    /// global mean (high recent glue = the search has gone stale).
    fn restart_pending(&self, conflicts_this_round: u64) -> bool {
        conflicts_this_round >= RESTART_MIN_INTERVAL
            && self.lbd_count > 0
            && self.lbd_fast > RESTART_MARGIN * (self.lbd_sum / self.lbd_count as f64)
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        let assigns = &self.assigns;
        let v = self.order.pick(|v| assigns[v.index()] == LBool::Undef)?;
        Some(v.lit(self.phase[v.index()]))
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // The list's bounds, read once. Nothing below pushes to this
            // list: enqueueing touches no list, and a relocated watcher
            // goes to a *different* literal's list (the new watch is
            // non-false, `!p` is false).
            let (start, mid, end) = self.watches.spans(p.code());

            // Binary part: the watcher's blocker *is* the implied literal,
            // so every two-literal clause is resolved without touching the
            // clause arena.
            for i in start..mid {
                let w = self.watches.get(i);
                match self.vals[w.blocker.code()] {
                    1 => {}
                    0 => self.unchecked_enqueue(w.blocker, Some(w.cref)),
                    _ => {
                        self.qhead = self.trail.len();
                        return Some(w.cref);
                    }
                }
            }

            // Long part, compacting kept watchers in place with an i/j
            // index pair.
            let false_lit = !p;
            let mut conflict = None;
            let mut i = mid;
            let mut j = mid;
            while i < end {
                let w = self.watches.get(i);
                i += 1;
                // Blocker check before any arena load: if some other
                // literal of the clause is already true, keep the watcher.
                if self.vals[w.blocker.code()] > 0 {
                    self.watches.set(j, w);
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // One arena dereference for the whole clause body.
                let lits = self.db.lits_mut(cref);
                // Normalise so the falsified watched literal is at index 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_val = self.vals[first.code()];
                let w = Watcher {
                    cref,
                    blocker: first,
                };
                if first_val > 0 {
                    self.watches.set(j, w);
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..lits.len()).find(|&k| self.vals[lits[k].code()] >= 0) {
                    lits.swap(1, k);
                    let new_watch = lits[1];
                    self.watches.push_long((!new_watch).code(), w);
                    continue;
                }
                // Clause is unit or conflicting.
                self.watches.set(j, w);
                j += 1;
                if first_val == 0 {
                    self.unchecked_enqueue(first, Some(cref));
                } else {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Copy remaining watchers back.
                    while i < end {
                        let w = self.watches.get(i);
                        self.watches.set(j, w);
                        j += 1;
                        i += 1;
                    }
                }
            }
            self.watches.truncate_longs(p.code(), j - mid);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].of_lit(l)
    }

    fn unchecked_enqueue(&mut self, p: Lit, from: Option<ClauseRef>) {
        let lvl = self.decision_level();
        self.unchecked_enqueue_at(p, from, lvl);
    }

    /// Enqueues `p` with an explicit assignment level, which may lie below
    /// the current decision level (chronological backtracking assigns a
    /// learnt clause's asserting literal at its true assertion level even
    /// though the trail is deeper). The entry is appended to the trail
    /// wherever search currently is — an "out-of-order" entry that
    /// [`Solver::cancel_until`] keeps alive when unwinding past it.
    fn unchecked_enqueue_at(&mut self, p: Lit, from: Option<ClauseRef>, lvl: u32) {
        debug_assert_eq!(self.lit_value(p), LBool::Undef);
        debug_assert!(lvl <= self.decision_level());
        let v = p.var().index();
        self.assigns[v] = LBool::from_bool(p.is_positive());
        self.vals[p.code()] = 1;
        self.vals[(!p).code()] = -1;
        self.reason[v] = from;
        self.level[v] = lvl;
        self.trail.push(p);
    }

    /// Highest decision level among the literals of `confl`. With
    /// chronological backtracking a conflicting clause can sit entirely
    /// below the current decision level; search backtracks to this level
    /// before analysing it.
    fn conflict_level(&self, confl: ClauseRef) -> u32 {
        self.db
            .lits(confl)
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        if self.trail.len() > self.best_trail {
            // Deepest trail of this solve so far: snapshot its polarities
            // as the best-phase target before unwinding it.
            self.best_trail = self.trail.len();
            for &p in &self.trail {
                self.best_phase[p.var().index()] = p.is_positive();
            }
        }
        let bound = self.trail_lim[target_level as usize];
        // Chronological backtracking leaves out-of-order entries on the
        // trail: assignments above `bound` whose level is at or below the
        // target. Those survive the unwind — compact them down in trail
        // order and re-propagate from `bound` so their watch lists are
        // revisited at the new level.
        let mut j = bound;
        for i in bound..self.trail.len() {
            let p = self.trail[i];
            let v = p.var().index();
            if self.level[v] <= target_level {
                self.trail[j] = p;
                j += 1;
            } else {
                self.phase[v] = p.is_positive();
                self.assigns[v] = LBool::Undef;
                self.vals[p.code()] = 0;
                self.vals[(!p).code()] = 0;
                self.reason[v] = None;
                self.order.on_free(p.var());
            }
        }
        self.trail.truncate(j);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = bound;
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            {
                self.bump_reason_clause(confl);
                // Skip the resolved-on variable rather than a fixed index:
                // binary reasons keep their arena order, so the implied
                // literal is not guaranteed to sit at index 0.
                for k in 0..self.db.size(confl) {
                    let q = self.db.lits(confl)[k];
                    if let Some(pl) = p {
                        if q.var() == pl.var() {
                            continue;
                        }
                    }
                    let v = q.var().index();
                    if !self.seen[v] && self.level[v] > 0 {
                        self.analyzed.push(q.var());
                        self.seen[v] = true;
                        if self.level[v] >= self.decision_level() {
                            path_count += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Select the next clause to look at: the deepest seen literal
            // *of the current decision level*. Out-of-order trail entries
            // (chronological backtracking) can put seen lower-level literals
            // above current-level ones; those are finished clause literals,
            // not resolution candidates, so they are skipped.
            loop {
                index -= 1;
                let v = self.trail[index].var().index();
                if self.seen[v] && self.level[v] >= self.decision_level() {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pl.var().index()]
                .expect("non-decision implied literal must have a reason");
            p = Some(pl);
        }
        learnt[0] = !p.unwrap();
        self.order.bump_all(&mut self.analyzed);

        // Basic clause minimisation: drop literals whose reason clause is
        // entirely marked seen (they are implied by the rest of the clause).
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.literal_redundant(l))
            .collect();
        let minimized: Vec<Lit> = learnt
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&l, _)| l)
            .collect();
        // Clear seen flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let learnt = minimized;

        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            // Find the literal with the second-highest level and move it to
            // index 1 (it becomes the second watched literal).
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            let mut learnt = learnt;
            learnt.swap(1, max_i);
            let bl = self.level[learnt[1].var().index()];
            return (learnt, bl);
        };
        (learnt, backtrack_level)
    }

    /// `true` if `l` (a non-asserting learnt literal) is implied by the other
    /// literals of the learnt clause, i.e. every antecedent in its reason is
    /// already marked seen or at level 0.
    fn literal_redundant(&self, l: Lit) -> bool {
        match self.reason[l.var().index()] {
            None => false,
            Some(r) => self.db.lits(r).iter().all(|&q| {
                q.var() == l.var() || self.seen[q.var().index()] || self.level[q.var().index()] == 0
            }),
        }
    }

    /// Computes the UNSAT core when assumption `p` is falsified: walks the
    /// implication graph from `!p` back to the assumption pseudo-decisions.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        // `!p` fixed at level 0 needs no other assumption. Chronological
        // backtracking can leave such a unit above `trail_lim[0]`, where
        // the walk below would mistake it for an assumption decision.
        if self.decision_level() == 0 || self.level[p.var().index()] == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // Decision within assumption levels: `x` is an assumption.
                    debug_assert!(self.level[v] > 0);
                    self.core.push(x);
                }
                Some(r) => {
                    for k in 0..self.db.size(r) {
                        let q = self.db.lits(r)[k];
                        if q.var() != x.var() && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        self.core.sort_unstable();
        self.core.dedup();
    }

    /// Installs a learnt clause and returns its LBD (1 for units). The
    /// asserting literal is enqueued at `assert_level` — the level of the
    /// clause's second-highest literal — which equals the current decision
    /// level after a backjump but lies below it after a chronological
    /// backtrack (producing an out-of-order trail entry).
    fn record_learnt(&mut self, learnt: Vec<Lit>, assert_level: u32) -> u32 {
        match learnt.len() {
            0 => {
                self.ok = false;
                self.proof_empty();
                0
            }
            1 => {
                self.proof_add(&learnt);
                self.unchecked_enqueue_at(learnt[0], None, 0);
                1
            }
            _ => {
                self.proof_add(&learnt);
                let lbd = self.compute_lbd(&learnt);
                let tier = self.tier_for_lbd(lbd);
                let asserting = learnt[0];
                let cref = self.db.alloc(&learnt, true, lbd, tier);
                self.attach(cref);
                self.bump_clause_activity(cref);
                self.db.set_used(cref);
                self.unchecked_enqueue_at(asserting, Some(cref), assert_level);
                lbd
            }
        }
    }

    fn tier_for_lbd(&self, lbd: u32) -> Tier {
        if lbd <= CORE_LBD {
            Tier::Core
        } else if lbd <= TIER2_LBD {
            Tier::Mid
        } else {
            Tier::Local
        }
    }

    /// Number of distinct decision levels among `lits`, via per-level
    /// stamps: O(clause length), no sort, no allocation.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        lbd_of(&self.level, &mut self.lbd_levels, &mut self.lbd_stamp, lits)
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1, binary) = (lits[0], lits[1], lits.len() == 2);
        let (w0, w1) = (Watcher { cref, blocker: l1 }, Watcher { cref, blocker: l0 });
        if binary {
            self.watches.push_bin((!l0).code(), w0);
            self.watches.push_bin((!l1).code(), w1);
        } else {
            self.watches.push_long((!l0).code(), w0);
            self.watches.push_long((!l1).code(), w1);
        }
    }

    // ------------------------------------------------------------------
    // Activities and database reduction
    // ------------------------------------------------------------------

    fn bump_clause_activity(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let a = self.db.activity(cref) + self.clause_inc;
        self.db.set_activity(cref, a);
        if a > 1e20 {
            self.db.rescale_activities(1e-20);
            self.clause_inc *= 1e-20;
        }
    }

    /// Bookkeeping for a learnt clause that served as an antecedent during
    /// conflict analysis: bump its activity, mark it used (protecting it
    /// from the next reduction round), and refresh its LBD — clauses whose
    /// glue improves get promoted toward longer-lived tiers.
    fn bump_reason_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        self.bump_clause_activity(cref);
        self.db.set_used(cref);
        let old = self.db.lbd(cref);
        if old > CORE_LBD {
            let new = lbd_of(
                &self.level,
                &mut self.lbd_levels,
                &mut self.lbd_stamp,
                self.db.lits(cref),
            );
            if new < old {
                self.db.set_lbd(cref, new);
                if new <= CORE_LBD {
                    self.db.set_tier(cref, Tier::Core);
                } else if new <= TIER2_LBD && self.db.tier(cref) == Tier::Local {
                    self.db.set_tier(cref, Tier::Mid);
                }
            }
        }
    }

    fn decay_clause_activities(&mut self) {
        self.clause_inc /= CLAUSE_DECAY as f32;
    }

    /// Reduces the local tier of the learnt database: deletes the worst
    /// `reduce_fraction` of local-tier clauses (high LBD first, low activity
    /// first among equals), skipping locked and recently-used ones. Mid-tier
    /// clauses that went unused since the last reduction are demoted to
    /// local; used bits are cleared so protection lasts exactly one round.
    /// Core-tier clauses are never touched. Compacts the arena when enough
    /// garbage has accumulated.
    fn reduce_db(&mut self) {
        self.stats.reduces += 1;
        let learnts = self.db.learnt_refs();
        let mut cands: Vec<ClauseRef> = learnts
            .iter()
            .copied()
            .filter(|&c| {
                self.db.tier(c) == Tier::Local && !self.db.is_used(c) && !self.is_locked(c)
            })
            .collect();
        cands.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then_with(|| {
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        let target = (cands.len() as f64 * REDUCE_FRACTION) as usize;
        for &cref in cands.iter().take(target) {
            self.db.delete(cref);
        }
        // Demotion pass: mid-tier clauses that were not used as reasons since
        // the previous reduction slide down to local; every surviving clause
        // starts the next round unprotected.
        for &cref in &learnts {
            if self.db.is_deleted(cref) {
                continue;
            }
            if self.db.tier(cref) == Tier::Mid && !self.db.is_used(cref) {
                self.db.set_tier(cref, Tier::Local);
            }
            self.db.clear_used(cref);
        }
        if target > 0 {
            self.db.sweep_lists();
            self.scrub_watches();
            if self.db.garbage_frac() >= COMPACT_GARBAGE_FRAC {
                self.clear_watches();
                self.compact_arena();
                self.rebuild_watches();
            }
        }
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lits(cref)[0];
        self.reason[first.var().index()] == Some(cref) && self.lit_value(first) == LBool::True
    }

    fn clear_watches(&mut self) {
        self.watches.clear();
    }

    /// Rebuilds the watch arena, with headroom, if it has become wasteful
    /// (see [`crate::watch`]). Called where no list is being walked: the
    /// start of a solve and the clause-GC sites.
    fn fit_watches(&mut self) {
        if self.watches.wasteful() {
            self.watches.compact();
        }
    }

    /// Refreshes the watch-store gauge. Like the arena size, the footprint
    /// is traced as a signed delta, which keeps the trace total equal to the
    /// current value.
    fn refresh_watch_gauge(&mut self) {
        let bytes = self.watches.bytes();
        hh_trace::counter!(
            "sat",
            "sat.watch_bytes",
            bytes as i64 - self.stats.watch_bytes as i64
        );
        self.stats.watch_bytes = bytes;
    }

    /// Drops watchers that point at deleted clauses, leaving live watchers
    /// in place. Cheaper than a full rebuild after a reduction round.
    fn scrub_watches(&mut self) {
        let db = &self.db;
        self.watches.retain(|x| !db.is_deleted(x.cref));
        self.fit_watches();
    }

    /// Compacts the clause arena in place and remaps every stored
    /// [`ClauseRef`] (reasons and watchers) through the move table.
    fn compact_arena(&mut self) {
        let remap = self.db.compact();
        for cref in self.reason.iter_mut().flatten() {
            *cref = ClauseDb::remap_ref(&remap, *cref);
        }
        self.watches
            .for_each_mut(|x| x.cref = ClauseDb::remap_ref(&remap, x.cref));
    }

    fn rebuild_watches(&mut self) {
        self.clear_watches();
        let refs: Vec<ClauseRef> = self.db.live_refs().collect();
        for cref in refs {
            self.attach(cref);
        }
        // A full rebuild repopulates the same lists, so the regions are
        // mostly reused.
        self.fit_watches();
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Heap bytes this solver holds, computed from the capacities of its
    /// vectors (so it repeats exactly run to run, unlike an RSS reading):
    /// clause arena, watch arena and headers, and the per-variable arrays.
    pub fn resident_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.db.bytes()
            + self.watches.bytes()
            + self.order.bytes()
            + (bytes(&self.assigns)
                + bytes(&self.vals)
                + bytes(&self.phase)
                + bytes(&self.best_phase)
                + bytes(&self.analyzed)
                + bytes(&self.trail)
                + bytes(&self.trail_lim)
                + bytes(&self.reason)
                + bytes(&self.level)
                + bytes(&self.seen)
                + bytes(&self.model)
                + bytes(&self.core)
                + bytes(&self.lbd_levels)) as u64
    }

    // ------------------------------------------------------------------
    // Debug hooks (test-only entry points into internal machinery)
    // ------------------------------------------------------------------

    /// Forces a learnt-database reduction round, regardless of triggers.
    /// Test hook; not part of the stable API.
    #[doc(hidden)]
    pub fn debug_force_reduce(&mut self) {
        self.reduce_db();
    }

    /// Forces an arena compaction (sweep, scrub, compact, rebuild).
    /// Test hook; not part of the stable API.
    #[doc(hidden)]
    pub fn debug_force_compact(&mut self) {
        self.db.sweep_lists();
        self.clear_watches();
        self.compact_arena();
        self.rebuild_watches();
    }

    /// Literals of every live learnt clause together with its tier
    /// (0 = core, 1 = mid, 2 = local), in learn order. Test hook.
    #[doc(hidden)]
    pub fn debug_learnts_with_tiers(&self) -> Vec<(Vec<Lit>, u8)> {
        self.db
            .learnt_refs()
            .into_iter()
            .map(|c| (self.db.lits(c).to_vec(), self.db.tier(c) as u8))
            .collect()
    }

    /// Literals of every clause currently serving as the reason for an
    /// assignment on the trail. Test hook.
    #[doc(hidden)]
    pub fn debug_reason_clauses(&self) -> Vec<Vec<Lit>> {
        self.trail
            .iter()
            .filter_map(|p| self.reason[p.var().index()])
            .map(|c| self.db.lits(c).to_vec())
            .collect()
    }

    /// Checks that the per-literal value bytes propagation reads say what
    /// the per-variable assignment says. Test hook.
    #[doc(hidden)]
    pub fn debug_check_values(&self) -> Result<(), String> {
        if self.vals.len() != 2 * self.assigns.len() {
            return Err(format!("{} value bytes", self.vals.len()));
        }
        for (v, &a) in self.assigns.iter().enumerate() {
            let want = match a {
                LBool::True => 1,
                LBool::False => -1,
                LBool::Undef => 0,
            };
            let got = (self.vals[2 * v], self.vals[2 * v + 1]);
            if got != (want, -want) {
                return Err(format!("x{v} is {a:?} but its literals read {got:?}"));
            }
        }
        Ok(())
    }

    /// Checks the two-watched-literal invariant: every live clause of size
    /// ≥ 2 is watched exactly twice, on the complements of two of its own
    /// literals (binary clauses in the binary part of the lists, longer
    /// clauses behind it), and no watcher points at a deleted clause. Test
    /// hook.
    #[doc(hidden)]
    pub fn debug_check_watches(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut count: HashMap<u32, Vec<Lit>> = HashMap::new();
        for code in 0..self.watches.num_codes() {
            for (part, binary) in [
                (self.watches.bins(code), true),
                (self.watches.longs(code), false),
            ] {
                for w in part {
                    if self.db.is_deleted(w.cref) {
                        return Err(format!("watcher on deleted clause {:?}", w.cref));
                    }
                    if (self.db.size(w.cref) == 2) != binary {
                        return Err(format!(
                            "clause {:?} of size {} in the {} part of a watch list",
                            w.cref,
                            self.db.size(w.cref),
                            if binary { "binary" } else { "long" }
                        ));
                    }
                    count
                        .entry(w.cref.0)
                        .or_default()
                        .push(!Lit::from_code(code));
                }
            }
        }
        for cref in self.db.live_refs() {
            let lits = self.db.lits(cref);
            let watched = count.get(&cref.0).cloned().unwrap_or_default();
            if watched.len() != 2 {
                return Err(format!(
                    "clause {:?} watched {} times (expected 2)",
                    cref,
                    watched.len()
                ));
            }
            for w in &watched {
                if !lits.contains(w) {
                    return Err(format!(
                        "clause {:?} watched on {} which it does not contain",
                        cref, w
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Stamp-based LBD: counts distinct decision levels among `lits` in one
/// pass using a per-level generation table. Free function over disjoint
/// solver fields so callers can hold an arena borrow at the same time.
fn lbd_of(level: &[u32], lbd_levels: &mut [u64], lbd_stamp: &mut u64, lits: &[Lit]) -> u32 {
    *lbd_stamp += 1;
    let stamp = *lbd_stamp;
    let mut lbd = 0u32;
    for l in lits {
        let lvl = level[l.var().index()] as usize;
        if lbd_levels[lvl] != stamp {
            lbd_levels[lvl] = stamp;
            lbd += 1;
        }
    }
    lbd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(a.positive()));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert!(!s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vs: Vec<_> = (0..5).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause(&[!w[0].positive(), w[1].positive()]);
        }
        s.add_clause(&[vs[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vs {
            assert!(s.model_value(v.positive()));
        }
    }

    #[test]
    fn xor_like_sat() {
        // (a | b) & (!a | !b): exactly one of a, b.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_ne!(s.model_value(a), s.model_value(b));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes. p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Lit(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for j in 0..2 {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_and_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        // a & b -> contradiction; c irrelevant.
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_with_assumptions(&[a, b, c]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a));
        assert!(core.contains(&b));
        assert!(!core.contains(&c));
        // Still solvable without the clashing assumptions.
        assert_eq!(s.solve_with_assumptions(&[a, c]), SolveResult::Sat);
        assert!(s.model_value(a));
        assert!(s.model_value(c));
        assert!(!s.model_value(b));
    }

    #[test]
    fn core_requires_propagation() {
        // Assumptions that conflict only after a propagation chain.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let d = s.new_var().positive();
        s.add_clause(&[!a, c]); // a -> c
        s.add_clause(&[!b, d]); // b -> d
        s.add_clause(&[!c, !d]); // !(c & d)
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a) && core.contains(&b));
    }

    #[test]
    fn incremental_reuse() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
        let b = s.new_var().positive();
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[b]), SolveResult::Sat);
        assert!(!s.model_value(a));
    }

    #[test]
    fn top_level_unsat_gives_empty_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve_with_assumptions(&[b]), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[a, a, b]));
        assert!(s.add_clause(&[a, !a])); // tautology, dropped
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn falsified_literals_filtered_before_tautology_scan() {
        // After `a` is fixed false at level 0, the clause [a, !a, b] must
        // still be recognised as a tautology (or equivalently satisfied by
        // !a) and dropped without constraining `b`; the clause [a, b] must
        // shrink to the unit [b].
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[!a])); // fixes a = false at level 0
        assert!(s.add_clause(&[a, !a, b])); // tautology despite a being false
        assert_eq!(s.solve(), SolveResult::Sat);
        // b is unconstrained so far: force it through a filtered clause.
        assert!(s.add_clause(&[a, b])); // a false -> unit b
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn clause_falsified_at_level_zero_reports_unsat() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[!a]));
        assert!(s.add_clause(&[!b]));
        // Every literal already false at level 0: empty after filtering.
        assert!(!s.add_clause(&[a, b]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn satisfied_literal_drops_clause_regardless_of_position() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[a]));
        // Satisfied at level 0 by `a`; must not create a unit on b.
        assert!(s.add_clause(&[b, a]));
        assert_eq!(s.solve_with_assumptions(&[!b]), SolveResult::Sat);
        assert!(!s.model_value(b));
    }

    /// Added clauses in emission order.
    type ProofEvents = std::sync::Arc<std::sync::Mutex<Vec<Vec<Lit>>>>;

    /// A test sink recording every event through a shared handle.
    #[derive(Debug, Clone, Default)]
    struct RecordingSink {
        events: ProofEvents,
    }

    impl crate::proof::ProofSink for RecordingSink {
        fn add_clause(&mut self, lits: &[Lit]) {
            self.events.lock().unwrap().push(lits.to_vec());
        }
    }

    #[test]
    fn proof_sink_logs_refutation_ending_in_empty_clause() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        s.add_clause(&[a, !b]);
        s.add_clause(&[!a, b]);
        s.add_clause(&[!a, !b]);
        let sink = RecordingSink::default();
        let events = sink.events.clone();
        s.set_proof_sink(Box::new(sink));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let adds = events.lock().unwrap();
        assert!(!adds.is_empty(), "an UNSAT run must log derivations");
        assert!(
            adds.last().unwrap().is_empty(),
            "the proof must end with the empty clause, got {adds:?}"
        );
    }

    #[test]
    fn proof_sink_logs_assumption_core_as_units() {
        // SAT formula, UNSAT only under assumptions: the wrapper trick must
        // log the negated final core as units followed by the empty clause,
        // certifying formula ∧ assumptions ⊢ ⊥.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        s.add_clause(&[!a, c]);
        s.add_clause(&[!b, !c]);
        let sink = RecordingSink::default();
        let events = sink.events.clone();
        s.set_proof_sink(Box::new(sink));
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        let adds = events.lock().unwrap();
        assert!(adds.last().unwrap().is_empty());
        for l in &core {
            assert!(
                adds.iter().any(|cl| cl.as_slice() == [*l]),
                "core literal {l:?} must be logged as a unit"
            );
        }
    }

    /// A fixed random 3-CNF for the chrono/budget tests (same xorshift64*
    /// stream as the bench workloads).
    fn random_3cnf(num_vars: usize, num_clauses: usize, seed: u64) -> Vec<Vec<Lit>> {
        let mut state = seed;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut clauses = Vec::with_capacity(num_clauses);
        for _ in 0..num_clauses {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = Var::from_index((next() % num_vars as u64) as usize);
                if c.iter().any(|l| l.var() == v) {
                    continue;
                }
                c.push(v.lit(next() & 1 == 0));
            }
            clauses.push(c);
        }
        clauses
    }

    fn solver_with(config: Config, num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
        let mut s = Solver::with_config(config);
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    /// Every backjump longer than one level takes the chronological path —
    /// the most out-of-order trail the solver can produce.
    fn chrono_aggressive() -> Config {
        Config {
            chrono_threshold: NonZeroU32::MIN,
        }
    }

    #[test]
    fn chrono_threshold_one_agrees_with_the_default_on_random_formulas() {
        // 40 variables never open 500 levels, so the default arm is plain
        // backjumping here and threshold 1 is chrono-always.
        let mut chrono_backtracks = 0;
        for seed in 1..=20u64 {
            let clauses = random_3cnf(40, 170, seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut chrono = solver_with(chrono_aggressive(), 40, &clauses);
            let mut jump = solver_with(Config::default(), 40, &clauses);
            let r1 = chrono.solve();
            let r2 = jump.solve();
            assert_eq!(r1, r2, "seed {seed}: chrono and backjump disagree");
            if r1 == SolveResult::Sat {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&l| chrono.model_value(l)),
                        "seed {seed}: chrono model violates {cl:?}"
                    );
                }
            }
            chrono_backtracks += chrono.stats().chrono_backtracks;
            assert_eq!(jump.stats().chrono_backtracks, 0);
        }
        assert!(
            chrono_backtracks > 0,
            "chrono threshold 1 never took a chrono backtrack"
        );
    }

    /// The search counters that identify a trajectory.
    fn trajectory(s: &Solver) -> [u64; 5] {
        let st = s.stats();
        [
            st.decisions,
            st.propagations,
            st.conflicts,
            st.restarts,
            st.chrono_backtracks,
        ]
    }

    #[test]
    fn default_trajectory_is_pinned() {
        // A change that moves these moved the search every benchmark
        // workload runs (the first recorded at b4ea24c; the second with
        // inprocessing gone, DESIGN.md §4 decision 22).
        let clauses = random_3cnf(150, 630, 0xC0FFEE);
        let mut s = solver_with(Config::default(), 150, &clauses);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(trajectory(&s), [6554, 167112, 5442, 1, 0]);

        // Incremental queries above 600 satisfied assumption levels: the
        // only shape in which the default threshold backtracks
        // chronologically.
        let clauses = random_3cnf(140, 590, 3);
        let mut s = solver_with(Config::default(), 140, &clauses);
        let mut assumptions: Vec<Lit> = (0..600).map(|_| s.new_var().positive()).collect();
        for round in 0..4 {
            let extra = Var::from_index(round).lit(round % 2 == 0);
            assumptions.push(extra);
            assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
            // The formula alone refutes `extra`, by a unit learnt under a
            // chronological backtrack: the unit must not leak into the core.
            assert_eq!(s.unsat_core(), [extra]);
            assumptions.pop();
        }
        assert_eq!(trajectory(&s), [13600, 201437, 6737, 5, 4]);
    }

    #[test]
    fn solve_limited_suspends_and_resumes_losslessly() {
        // Pigeonhole 5-into-4 needs plenty of conflicts: a tiny budget must
        // suspend, and repeated budget rounds must still conclude UNSAT.
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let mut p = vec![vec![Lit(0); m]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(row);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_k in p.iter().skip(i + 1) {
                for (&a, &b) in row_i.iter().zip(row_k.iter()) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(
            s.solve_limited(&[], 1),
            LimitedResult::Unknown,
            "one conflict cannot refute php(5,4)"
        );
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 10_000, "budgeted rounds failed to converge");
            match s.solve_limited(&[], 50) {
                LimitedResult::Unknown => continue,
                verdict => {
                    assert_eq!(verdict, LimitedResult::Unsat);
                    break;
                }
            }
        }
        assert!(s.stats().budget_rounds >= rounds);
    }

    #[test]
    fn solve_limited_with_unhit_budget_matches_unbudgeted_solve() {
        for seed in 1..=10u64 {
            let clauses = random_3cnf(30, 126, seed.wrapping_mul(0xD1B54A32D192ED03));
            let mut a = solver_with(Config::default(), 30, &clauses);
            let mut b = solver_with(Config::default(), 30, &clauses);
            let ra = a.solve();
            let rb = b.solve_limited(&[], u64::MAX);
            match ra {
                SolveResult::Sat => {
                    assert_eq!(rb, LimitedResult::Sat);
                    for v in 0..30 {
                        let l = Var::from_index(v).positive();
                        assert_eq!(
                            a.model_value(l),
                            b.model_value(l),
                            "seed {seed}: unhit budget changed the trajectory"
                        );
                    }
                }
                SolveResult::Unsat => assert_eq!(rb, LimitedResult::Unsat),
            }
            assert_eq!(a.stats().conflicts, b.stats().conflicts);
            assert_eq!(a.stats().decisions, b.stats().decisions);
        }
    }

    #[test]
    fn solve_limited_respects_assumptions_and_cores() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_limited(&[a, b], 100), LimitedResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a) && core.contains(&b));
        assert_eq!(s.solve_limited(&[a], 100), LimitedResult::Sat);
        assert!(s.model_value(a));
        assert!(!s.model_value(b));
    }

    #[test]
    fn chrono_proof_stream_ends_with_empty_clause() {
        for seed in 1..=20u64 {
            let clauses = random_3cnf(25, 115, seed.wrapping_mul(0xA0761D6478BD642F));
            let mut s = solver_with(chrono_aggressive(), 25, &clauses);
            let sink = RecordingSink::default();
            let events = sink.events.clone();
            s.set_proof_sink(Box::new(sink));
            if s.solve() == SolveResult::Unsat {
                let adds = events.lock().unwrap();
                assert!(
                    adds.last().is_some_and(|c| c.is_empty()),
                    "seed {seed}: chrono UNSAT proof must end with the empty clause"
                );
            }
        }
    }
}
