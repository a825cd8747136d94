//! Incremental abduction sessions (paper §3.2.4).
//!
//! The paper's tool keeps one cvc5 context alive per target predicate and
//! re-asks the abduction query incrementally whenever `P_fail` grows or a
//! backtracking sweep invalidates a memoised solution. An
//! [`AbductionSession`] reproduces that: it owns a live
//! [`TransitionEncoding`] + CDCL solver for one target, registers each
//! candidate **once** behind an indicator literal, and answers every retry
//! by re-solving under a filtered assumption set — the cone is never
//! re-blasted, and learnt clauses accumulate across retries.
//!
//! ## Parking
//!
//! Engines keep one session per target predicate alive for a whole learn
//! run, and most of them answer once and then sit until the run ends. So a
//! session that has answered *parks*: at the end of every
//! [`AbductionSession::solve`] it drops the encoder's per-netlist-node memo
//! and the cone signature (both only serve the base build), has the solver
//! rebuild its watch arena to an exact fit, and releases every vector's
//! growth slack. What stays resident ([`AbductionSession::resident_bytes`])
//! is sized by the cone and the clauses learnt on it. Nothing the solver
//! reads changes, so a retry answers exactly as an unparked session would;
//! it re-grows what it touches.
//!
//! ## Determinism
//!
//! The CDCL solver is deterministic, so a session's answer is a pure
//! function of its **query history** (the sequence of candidate sets it was
//! asked about). The engine issues per-target query sequences that are
//! themselves deterministic — its scheduler commits results in issue order
//! — so learned invariants are reproducible run-to-run and across thread
//! counts.
//!
//! A reused solver does carry learnt clauses, so a *retry*'s raw UNSAT core
//! can differ from the core a fresh solver would report, and so can the
//! trimmed abduct: both are cores a fresh solver refutes, but trimming
//! stops at a fixpoint, not at a unique minimum. Reproducibility does not
//! need them to agree: the retry is a pure function of the session's
//! history, and the schedule does not change that history.
//!
//! ## Trimming
//!
//! An UNSAT answer's core is shrunk by [`hh_sat::trim_core`]: re-solve with
//! the core's members assumed strongest first, adopt the refreshed core,
//! and repeat while it strictly shrinks. That is one to three UNSAT solves
//! per query. The paper's cvc5 also proves every member critical
//! (`minimal-unsat-cores`, §3.2.3) with a SAT probe per member; trimming
//! skips those probes, so an abduct may keep a member it could lose.
//! [`AbductionConfig::minimize`] `false` commits the raw core instead.

use crate::blast::TransitionEncoding;
use crate::cache::EncodeCache;
use crate::cnf::{map_bytes, vec_bytes};
use crate::pred::Predicate;
use crate::query::{AbductionConfig, AbductionResult, QueryTelemetry};
use hh_netlist::signature::ConeSignature;
use hh_netlist::Netlist;
use hh_sat::{Lit, SolveResult};
use hh_trace::Counters;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Trimming order: a core is re-solved with its members assumed strongest
/// first, the order minimal-core deletion offered them for removal in
/// (§3.2.3). The order matters because the solver decides assumptions in
/// order, so a refreshed core ends at the first member the earlier ones
/// refute: assumed weakest first, trimming removes nothing on the builtin
/// designs.
fn strength_key(p: &Predicate) -> u8 {
    match p {
        Predicate::EqConst { .. } => 0,
        Predicate::InSet { .. } => 1,
        Predicate::Impl { .. } => 2,
        Predicate::Eq { .. } => 3,
    }
}

/// A live incremental abduction context for one target predicate.
///
/// The first [`AbductionSession::solve`] call blasts the target's 1-step
/// cone and asserts `target ∧ ¬target'`; later calls only encode candidates
/// not seen before and re-solve under assumptions. Dropping the session
/// frees the solver.
#[derive(Debug)]
pub struct AbductionSession<'a> {
    netlist: &'a Netlist,
    target: Arc<Predicate>,
    config: AbductionConfig,
    /// Lazily built on first solve so telemetry attributes the base
    /// encoding to the first query, exactly like the fresh path.
    enc: Option<TransitionEncoding<'a>>,
    /// Cross-target encoding cache (and its `SimpMap`): shared, or the
    /// session's own without entries.
    cache: Arc<EncodeCache>,
    /// This target's base-encoding signature, computed once at creation and
    /// consumed by the base build; `Some` until then exactly when the base
    /// encoding is to be replayed from / recorded into the cache.
    sig: Option<ConeSignature>,
    /// Registered candidate -> slot index.
    slots: HashMap<Predicate, usize>,
    /// Slot -> indicator literal (`indicator -> candidate holds now`).
    indicators: Vec<Lit>,
    /// Slot -> trimming-order strength key.
    strength: Vec<u8>,
    /// Indicator literal -> slot. Built once per *registration* instead of
    /// the old per-core `iter().position()` scan.
    slot_of_lit: HashMap<Lit, usize>,
    /// `(vars, clauses)` at the end of the previous call's registration
    /// phase; deltas against it give per-query allocation telemetry.
    last_size: (usize, usize),
    queries: u64,
}

impl<'a> AbductionSession<'a> {
    /// Creates an idle session for `target`, over a private
    /// [`EncodeCache`] that records no entries. No encoding happens until
    /// the first [`AbductionSession::solve`].
    pub fn new(
        netlist: &'a Netlist,
        target: impl Into<Arc<Predicate>>,
        config: AbductionConfig,
    ) -> AbductionSession<'a> {
        let cache = Arc::new(EncodeCache::new(netlist));
        AbductionSession::with_cache(netlist, target, config, cache, false)
    }

    /// Like [`AbductionSession::new`], attached to a shared [`EncodeCache`].
    ///
    /// With `use_entries` the target's cone signature is computed up front
    /// and the base encoding is replayed from (or recorded into) the cache.
    /// Without it the cone is blasted fresh over the cache's shared
    /// [`hh_netlist::simp::SimpMap`] — the reference that replay is tested
    /// against.
    pub fn with_cache(
        netlist: &'a Netlist,
        target: impl Into<Arc<Predicate>>,
        config: AbductionConfig,
        cache: Arc<EncodeCache>,
        use_entries: bool,
    ) -> AbductionSession<'a> {
        hh_trace::event!("smt", "smt.session.create");
        let target = target.into();
        AbductionSession {
            netlist,
            sig: use_entries.then(|| cache.signature(netlist, &target)),
            target,
            config,
            enc: None,
            cache,
            slots: HashMap::new(),
            indicators: Vec::new(),
            strength: Vec::new(),
            slot_of_lit: HashMap::new(),
            last_size: (0, 0),
            queries: 0,
        }
    }

    /// The session's target predicate.
    pub fn target(&self) -> &Predicate {
        &self.target
    }

    /// Number of queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Number of candidates registered (encoded) so far.
    pub fn registered(&self) -> usize {
        self.indicators.len()
    }

    /// Heap bytes this session holds, computed from the capacities of its
    /// vectors and tables (so the figure repeats exactly run to run, unlike
    /// an RSS reading): the solver and encoder state plus the candidate
    /// registry. Candidate predicates are counted at their inline size only
    /// (engines share them with their store).
    pub fn resident_bytes(&self) -> u64 {
        self.enc.as_ref().map_or(0, |e| e.resident_bytes())
            + self.sig.as_ref().map_or(0, |sig| {
                vec_bytes(&sig.key)
                    + vec_bytes(&sig.witness.states)
                    + vec_bytes(&sig.witness.inputs)
                    + vec_bytes(&sig.witness.nodes)
            })
            + map_bytes(&self.slots)
            + map_bytes(&self.slot_of_lit)
            + vec_bytes(&self.indicators)
            + vec_bytes(&self.strength)
    }

    /// Runs the abduction query for this session's target over
    /// `candidates`, reusing all encoding from earlier calls.
    ///
    /// Candidates absent from earlier calls are appended incrementally;
    /// candidates registered earlier but missing from `candidates` (e.g.
    /// freshly failed predicates) are simply not assumed, so they impose no
    /// constraint. Returned indices point into **this call's** `candidates`
    /// slice.
    pub fn solve<P: Borrow<Predicate>>(&mut self, candidates: &[P]) -> AbductionResult {
        let t_encode = Instant::now();
        let _encode_span = hh_trace::span!("smt", "smt.session.solve");
        let reused = self.enc.is_some();
        if !reused {
            // The signature is only ever needed here; the session does not
            // keep its token stream around afterwards.
            let cache = &self.cache;
            let enc = match self.sig.take() {
                Some(sig) => match cache.lookup(&sig.key) {
                    Some(entry) => {
                        // Replay: byte-identical solver state to a fresh
                        // build (identity variable numbering), minus the
                        // Tseitin work.
                        let _replay = hh_trace::span!("smt", "smt.replay");
                        TransitionEncoding::from_cache(
                            self.netlist,
                            cache.simp(),
                            &entry,
                            &sig.witness,
                        )
                    }
                    None => {
                        let _blast = hh_trace::span!("smt", "smt.blast");
                        let mut enc = TransitionEncoding::recording(self.netlist, cache.simp());
                        Self::build_base(&mut enc, &self.target);
                        let entry = enc.harvest(&sig.witness);
                        cache.insert(sig.key, entry);
                        enc
                    }
                },
                // Blast fresh over the cache's SimpMap, no entry recording.
                None => {
                    let _blast = hh_trace::span!("smt", "smt.blast");
                    let mut enc = TransitionEncoding::with_simp(self.netlist, cache.simp());
                    Self::build_base(&mut enc, &self.target);
                    enc
                }
            };
            self.enc = Some(enc);
        }
        let enc = self.enc.as_mut().expect("encoding just ensured");

        // Register unseen candidates; build this call's assumption set.
        let mut assumptions: Vec<Lit> = Vec::with_capacity(candidates.len());
        let mut call_idx_of_slot: HashMap<usize, usize> = HashMap::with_capacity(candidates.len());
        for (call_idx, cand) in candidates.iter().enumerate() {
            let cand = cand.borrow();
            let slot = match self.slots.get(cand) {
                Some(&s) => s,
                None => {
                    let cl = cand.encode_current(enc);
                    let a = enc.cnf_mut().fresh();
                    enc.cnf_mut().clause(&[!a, cl]);
                    let s = self.indicators.len();
                    self.indicators.push(a);
                    self.strength.push(strength_key(cand));
                    self.slot_of_lit.insert(a, s);
                    self.slots.insert(cand.clone(), s);
                    s
                }
            };
            // First occurrence wins on (degenerate) duplicate candidates.
            if let std::collections::hash_map::Entry::Vacant(e) = call_idx_of_slot.entry(slot) {
                e.insert(call_idx);
                assumptions.push(self.indicators[slot]);
            }
        }
        let encode_time = t_encode.elapsed();

        // Allocation telemetry: what this call added on top of what the
        // session already had. (The clause delta on reused sessions also
        // counts clauses learnt during earlier queries — still memory this
        // query occupies, and dwarfed by the re-blasting it avoids.)
        let size_now = enc.size();
        let (vars_reused, clauses_reused) = if reused { self.last_size } else { (0, 0) };
        let vars = size_now.0 - vars_reused;
        let clauses = size_now.1.saturating_sub(clauses_reused);
        self.last_size = size_now;
        self.queries += 1;

        let t_solve = Instant::now();
        let solve_span = hh_trace::span!("smt", "smt.solve");
        let solver = enc.cnf_mut().solver_mut();
        let before = solver.stats();
        let verdict = solver.solve_with_assumptions(&assumptions);
        let abduct = match verdict {
            SolveResult::Sat => None,
            SolveResult::Unsat => {
                let mut final_core = solver.unsat_core().to_vec();
                if self.config.minimize {
                    // Trim the solver core to a fixpoint, strongest
                    // predicates assumed first (§3.2.3).
                    final_core.sort_by_key(|l| {
                        let s = self.slot_of_lit[l];
                        (self.strength[s], s)
                    });
                    final_core = hh_sat::trim_core(solver, &final_core);
                }
                let mut idxs: Vec<usize> = final_core
                    .iter()
                    .map(|l| {
                        let slot = self.slot_of_lit[l];
                        call_idx_of_slot[&slot]
                    })
                    .collect();
                idxs.sort_unstable();
                Some(idxs)
            }
        };
        let solve_time = t_solve.elapsed();
        drop(solve_span);
        // Most sessions never answer again (module docs, *Parking*); the
        // gauges below are read off the parked solver.
        enc.park();
        self.indicators.shrink_to_fit();
        self.strength.shrink_to_fit();
        let after = enc.cnf().solver().stats();
        // Word-level counters belong to the encoding, built once per
        // session: they go to the first (fresh) query only.
        let simp = if reused {
            Default::default()
        } else {
            enc.simp_stats()
        };
        let solves = after.solves - before.solves;
        AbductionResult {
            abduct,
            telemetry: QueryTelemetry {
                vars,
                clauses,
                solves,
                encode_time,
                solve_time,
                watch_live_bytes: after.watch_live_bytes,
                counters: Counters {
                    session_hits: u64::from(reused),
                    session_misses: u64::from(!reused),
                    vars_saved: vars_reused as u64,
                    clauses_saved: clauses_reused as u64,
                    word_const_folds: simp.const_folds,
                    word_rewrites: simp.rewrites,
                    word_strash_hits: simp.strash_hits,
                    sat_solves: solves,
                    sat_propagations: after.propagations - before.propagations,
                    sat_conflicts: after.conflicts - before.conflicts,
                    sat_reduces: after.reduces - before.reduces,
                    sat_arena_bytes: after.arena_bytes,
                    sat_chrono_backtracks: after.chrono_backtracks - before.chrono_backtracks,
                    sat_watch_bytes: after.watch_bytes,
                    ..Counters::default()
                },
            },
        }
    }

    /// Asserts the base formula `target ∧ ¬target'`. Shared by the fresh and
    /// cache-miss build paths (the cache-hit path replays a recording of
    /// exactly this sequence).
    fn build_base(enc: &mut TransitionEncoding<'a>, target: &Predicate) {
        let p_now = target.encode_current(enc);
        enc.assert_lit(p_now);
        let p_next = target.encode_next(enc);
        enc.assert_lit(!p_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::miter::Miter;
    use hh_netlist::{Bv, Netlist};

    /// The paper's AND-gate: A <= B & C; B, C hold.
    fn and_gate() -> (Netlist, Miter) {
        let mut n = Netlist::new("and_gate");
        let b = n.state("B", 1, Bv::bit(true));
        let c = n.state("C", 1, Bv::bit(true));
        let a = n.state("A", 1, Bv::bit(true));
        let band = n.and(n.state_node(b), n.state_node(c));
        n.set_next(a, band);
        n.keep_state(b);
        n.keep_state(c);
        let m = Miter::build(&n);
        (n, m)
    }

    #[test]
    fn session_matches_fresh_abduct() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let cands = vec![
            Predicate::eq(m.left(b), m.right(b)),
            Predicate::eq(m.left(c), m.right(c)),
        ];
        let cfg = AbductionConfig::paper_default();
        let fresh = crate::query::abduct(m.netlist(), &target, &cands, &cfg);
        let mut sess = AbductionSession::new(m.netlist(), target, cfg);
        let first = sess.solve(&cands);
        assert_eq!(first.abduct, fresh.abduct);
        assert_eq!(first.abduct, Some(vec![0, 1]));
        assert_eq!(first.telemetry.counters.session_misses, 1);
        assert_eq!(first.telemetry.counters.vars_saved, 0);
    }

    #[test]
    fn retry_reuses_encoding_and_matches_fresh() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let mut sess = AbductionSession::new(m.netlist(), target.clone(), cfg);

        let all = vec![eq_b.clone(), eq_c.clone()];
        let first = sess.solve(&all);
        assert_eq!(first.abduct, Some(vec![0, 1]));

        // Retry with Eq(C) "failed": only Eq(B) remains — SAT (no abduct),
        // exactly like a fresh query over the reduced set.
        let reduced = vec![eq_b.clone()];
        let retry = sess.solve(&reduced);
        let fresh = crate::query::abduct(m.netlist(), &target, &reduced, &cfg);
        assert_eq!(retry.abduct, fresh.abduct);
        assert_eq!(retry.abduct, None);
        // The retry reused the first call's whole encoding.
        assert_eq!(retry.telemetry.counters.session_hits, 1);
        assert!(retry.telemetry.counters.vars_saved >= first.telemetry.vars as u64);
        assert_eq!(retry.telemetry.vars, 0, "no new candidate, no new vars");

        // Restoring the full set still answers like a fresh solver. Both
        // queries cost the query's solve plus one trimming re-solve, which
        // keeps both members; a SAT answer costs no trimming.
        assert_eq!(first.telemetry.solves, 2);
        assert_eq!(retry.telemetry.solves, 1);
        let again = sess.solve(&all);
        assert_eq!(again.abduct, Some(vec![0, 1]));
        assert_eq!(again.telemetry.solves, 2);
        assert_eq!(sess.queries(), 3);
        assert_eq!(sess.registered(), 2);
    }

    #[test]
    fn indices_follow_the_call_slice_order() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let mut sess = AbductionSession::new(m.netlist(), target, AbductionConfig::paper_default());
        sess.solve(&[eq_b.clone(), eq_c.clone()]);
        // Same candidates, swapped order: indices must track the new slice.
        let res = sess.solve(&[eq_c, eq_b]);
        assert_eq!(res.abduct, Some(vec![0, 1]));
    }

    #[test]
    fn session_is_self_inductive_aware() {
        // B holds itself: empty abduct regardless of offered candidates.
        let (base, m) = and_gate();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let target = Predicate::eq(m.left(b), m.right(b));
        let mut sess = AbductionSession::new(m.netlist(), target, AbductionConfig::paper_default());
        let res = sess.solve(&[Predicate::eq(m.left(c), m.right(c))]);
        assert_eq!(res.abduct, Some(vec![]));
        let retry = sess.solve::<Predicate>(&[]);
        assert_eq!(retry.abduct, Some(vec![]));
    }

    #[test]
    fn cache_replays_isomorphic_cone_with_identical_answer() {
        // B and C are structurally identical held states, so their miter
        // targets Eq(B) / Eq(C) share a cone signature: the second session
        // must hit the cache and still answer exactly like a fresh solver.
        let (base, m) = and_gate();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(m.netlist()));

        let mut s1 =
            AbductionSession::with_cache(m.netlist(), eq_b.clone(), cfg, Arc::clone(&cache), true);
        let r1 = s1.solve(std::slice::from_ref(&eq_c));
        assert_eq!(r1.abduct, Some(vec![])); // B is self-inductive
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let mut s2 =
            AbductionSession::with_cache(m.netlist(), eq_c.clone(), cfg, Arc::clone(&cache), true);
        let r2 = s2.solve(std::slice::from_ref(&eq_b));
        let fresh = crate::query::abduct(m.netlist(), &eq_c, std::slice::from_ref(&eq_b), &cfg);
        assert_eq!(r2.abduct, fresh.abduct);
        assert_eq!(r2.abduct, Some(vec![]));
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.stats().vars_saved > 0);
    }

    #[test]
    fn cache_distinguishes_structurally_different_cones() {
        // Eq(A) (cone: A' = B & C) must not collide with Eq(B) (cone:
        // B' = B).
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let eq_a = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(m.netlist()));
        let sig_a = cache.signature(m.netlist(), &eq_a);
        let sig_b = cache.signature(m.netlist(), &eq_b);
        let sig_c = cache.signature(m.netlist(), &eq_c);
        assert_ne!(sig_a.key, sig_b.key);
        assert_eq!(sig_b.key, sig_c.key);

        let mut s1 =
            AbductionSession::with_cache(m.netlist(), eq_a.clone(), cfg, Arc::clone(&cache), true);
        let r1 = s1.solve(&[eq_b.clone(), eq_c.clone()]);
        assert_eq!(r1.abduct, Some(vec![0, 1]));
        let mut s2 = AbductionSession::with_cache(m.netlist(), eq_b, cfg, Arc::clone(&cache), true);
        let r2 = s2.solve(std::slice::from_ref(&eq_c));
        assert_eq!(r2.abduct, Some(vec![]));
        assert_eq!(cache.stats().misses, 2, "different cones must miss");
    }

    #[test]
    fn a_retry_registers_a_new_candidate_after_a_park() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let mut sess = AbductionSession::new(m.netlist(), target.clone(), cfg);
        // Eq(B) alone does not do; the session parks on its way out.
        assert_eq!(sess.solve(std::slice::from_ref(&eq_b)).abduct, None);
        let parked = sess.resident_bytes();
        // Eq(C) is encoded and registered on the parked session.
        let both = [eq_b, eq_c];
        let retry = sess.solve(&both);
        let fresh = crate::query::abduct(m.netlist(), &target, &both, &cfg);
        assert_eq!(retry.abduct, Some(vec![0, 1]));
        assert_eq!(retry.abduct, fresh.abduct);
        assert!(retry.telemetry.counters.session_hits == 1 && retry.telemetry.vars > 0);
        assert_eq!(sess.registered(), 2);
        assert!(sess.resident_bytes() > parked);
    }

    #[test]
    fn a_parked_session_holds_nothing_sized_by_the_netlist() {
        // The same cone in a small netlist and in one with 20 000 nodes
        // (and 2 000 states) nothing in the cone reads.
        let build = |padding: usize| {
            let mut n = Netlist::new("padded");
            let b = n.state("B", 1, Bv::bit(true));
            let c = n.state("C", 1, Bv::bit(true));
            let a = n.state("A", 1, Bv::bit(true));
            let band = n.and(n.state_node(b), n.state_node(c));
            n.set_next(a, band);
            n.keep_state(b);
            n.keep_state(c);
            for i in 0..padding {
                let s = n.state(format!("pad{i}"), 8, Bv::zero(8));
                let mut x = n.state_node(s);
                for k in 0..10 {
                    let k = n.c(8, k + 1);
                    x = n.add(x, k);
                }
                n.set_next(s, x);
            }
            n
        };
        let resident = |n: &Netlist| {
            let [a, b, c] = ["A", "B", "C"].map(|s| n.find_state(s).unwrap());
            let cache = Arc::new(EncodeCache::new(n));
            let mut sess = AbductionSession::with_cache(
                n,
                Predicate::eq_const(a, a, Bv::bit(true)),
                AbductionConfig::paper_default(),
                Arc::clone(&cache),
                true,
            );
            let cands = [
                Predicate::eq_const(b, b, Bv::bit(true)),
                Predicate::eq_const(c, c, Bv::bit(true)),
            ];
            assert_eq!(sess.solve(&cands).abduct, Some(vec![0, 1]));
            (sess.resident_bytes(), cache.resident_bytes())
        };
        let (small, padded) = (build(0), build(2000));
        assert!(padded.num_nodes() > small.num_nodes() + 20_000);
        assert_eq!(resident(&padded), resident(&small));
        assert!(resident(&small).0 > 0 && resident(&small).1 > 0);
    }

    #[test]
    fn a_replayed_encoding_is_the_fresh_one() {
        // Eq(B) records the cone shape, Eq(C) replays it; a third session
        // blasts Eq(C) fresh over the same SimpMap. Same solver formula,
        // same variables, same bytes at rest.
        let (base, m) = and_gate();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(m.netlist()));
        let before = cache.resident_bytes();
        let mut recorder =
            AbductionSession::with_cache(m.netlist(), eq_b.clone(), cfg, Arc::clone(&cache), true);
        recorder.solve(std::slice::from_ref(&eq_c));
        let recorded = cache.resident_bytes();
        assert!(recorded > before);

        let mut replayed =
            AbductionSession::with_cache(m.netlist(), eq_c.clone(), cfg, Arc::clone(&cache), true);
        let r = replayed.solve(std::slice::from_ref(&eq_b));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.resident_bytes(), recorded, "a hit stores nothing");
        let mut fresh =
            AbductionSession::with_cache(m.netlist(), eq_c, cfg, Arc::clone(&cache), false);
        let f = fresh.solve(std::slice::from_ref(&eq_b));
        assert_eq!(r.abduct, f.abduct);
        let formula = |s: &AbductionSession<'_>| {
            let solver = s.enc.as_ref().unwrap().cnf().solver();
            (solver.num_vars(), solver.formula_clauses())
        };
        assert_eq!(formula(&replayed), formula(&fresh));
        assert_eq!(replayed.resident_bytes(), fresh.resident_bytes());

        let keys = cache.encoding_keys();
        assert!(!keys.is_empty());
        for key in &keys {
            assert!(cache.evict(key));
        }
        assert!(cache.resident_bytes() < recorded);
    }

    /// Trimming over multi-query sessions on random CNFs. Candidate `i` is
    /// a random literal behind indicator `a_i` with a random strength key;
    /// each session asks about a candidate set that shrinks (the previous
    /// abduct loses a member, as after a backtrack) and regrows, and trims
    /// each raw core with its members in strength order, as
    /// [`AbductionSession::solve`] does. Every abduct must be a subset of its
    /// raw core that a fresh solver refutes, and trimming it again must
    /// change nothing.
    ///
    /// Every session also runs a second time on a solver that is parked
    /// ([`hh_sat::Solver::shrink_to_fit`]) after every query, next to the
    /// unparked one: parking must change no abduct and no work count.
    #[test]
    fn trimmed_abducts_are_sound_on_random_cnfs() {
        use hh_sat::{trim_core, Solver, Var};
        const VARS: usize = 14;
        const CANDIDATES: usize = 9;
        let mut state = 0x5EED_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut unsat_queries, mut trimmed_away) = (0, 0);
        for _ in 0..80 {
            let clauses: Vec<Vec<Lit>> = (0..40)
                .map(|_| {
                    (0..3)
                        .map(|_| Var::from_index(next(VARS)).lit(next(2) == 0))
                        .collect()
                })
                .collect();
            let candidate_lits: Vec<Lit> = (0..CANDIDATES)
                .map(|_| Var::from_index(next(VARS)).lit(next(2) == 0))
                .collect();
            let indicators: Vec<Lit> = (0..CANDIDATES)
                .map(|i| Var::from_index(VARS + i).positive())
                .collect();
            let strength: Vec<usize> = (0..CANDIDATES).map(|_| next(4)).collect();
            let slot = |a: &Lit| indicators.iter().position(|b| b == a).unwrap();
            let build = || {
                let mut s = Solver::new();
                for _ in 0..VARS + CANDIDATES {
                    s.new_var();
                }
                for c in &clauses {
                    s.add_clause(c);
                }
                for (&a, &cl) in indicators.iter().zip(&candidate_lits) {
                    s.add_clause(&[!a, cl]);
                }
                s
            };
            let mut session = build();
            let mut parked = build();
            let mut offered = vec![true; CANDIDATES];
            for _ in 0..10 {
                let assumed: Vec<Lit> = (0..CANDIDATES)
                    .filter(|&i| offered[i])
                    .map(|i| indicators[i])
                    .collect();
                let verdict = session.solve_with_assumptions(&assumed);
                assert_eq!(parked.solve_with_assumptions(&assumed), verdict);
                if verdict == SolveResult::Sat {
                    // Regrow: offer everything again.
                    parked.shrink_to_fit();
                    offered = vec![true; CANDIDATES];
                    continue;
                }
                unsat_queries += 1;
                let mut core = session.unsat_core().to_vec();
                core.sort_by_key(|a| (strength[slot(a)], slot(a)));
                let abduct = trim_core(&mut session, &core);
                assert!(abduct.iter().all(|l| core.contains(l)));
                trimmed_away += core.len() - abduct.len();

                let mut parked_core = parked.unsat_core().to_vec();
                parked_core.sort_by_key(|a| (strength[slot(a)], slot(a)));
                let parked_answer = trim_core(&mut parked, &parked_core);
                parked.shrink_to_fit();
                assert_eq!(parked_answer, abduct);
                let (a, b) = (parked.stats(), session.stats());
                assert_eq!(
                    (a.solves, a.conflicts, a.propagations, a.decisions),
                    (b.solves, b.conflicts, b.propagations, b.decisions)
                );

                let mut fresh = build();
                assert_eq!(fresh.solve_with_assumptions(&abduct), SolveResult::Unsat);
                assert_eq!(trim_core(&mut session, &abduct), abduct);
                assert_eq!(trim_core(&mut parked, &abduct), abduct);
                // Shrink: one member of the abduct "fails downstream".
                match abduct.get(next(abduct.len().max(1))) {
                    Some(failed) => offered[slot(failed)] = false,
                    None => break, // the formula alone is UNSAT
                }
            }
        }
        assert!(
            unsat_queries > 100 && trimmed_away > 0,
            "{unsat_queries} {trimmed_away}"
        );
    }
}
