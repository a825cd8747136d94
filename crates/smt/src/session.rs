//! Abduction sessions: one query per solve (paper §3.2.3).
//!
//! An [`AbductionSession`] holds a query's inputs — the netlist, the target
//! predicate, the configuration, the shared word-level [`SimpMap`] and, in a
//! daemon job, the job's [`EncodeCache`] — and nothing else. Each
//! [`AbductionSession::solve`] call blasts the target's base encoding (or
//! replays the cache's byte-identical record of it), registers every
//! candidate behind an indicator literal, solves under those assumptions,
//! trims the core and drops the encoding before it returns. The paper's
//! tool keeps an incremental context alive per target for backtracking
//! retries (§3.2.4); here a retry is a fresh query, so an answer is a
//! function of (target, candidates) alone.
//!
//! ## Proof logging
//!
//! A session with [`AbductionSession::log_proofs`] on attaches a
//! [`hh_sat::DratLog`] after building its CNF and hands back, with an UNSAT
//! answer, a [`SessionLog`]: the CNF's shape and the binary DRAT of every
//! solve of the query — the learnt clauses of all of them, and the wrapper
//! (core units, empty clause) of the last solve only, since an earlier
//! solve's wrapper is RUP only under that solve's larger assumption set.
//! The last wrapper's units are exactly the abduct's indicators, so the log
//! refutes "session CNF ∧ abduct indicators". Each candidate clause
//! `¬a ∨ c` is satisfied by `a = false` and Tseitin variables are
//! definitional, so that is "⋀abduct ∧ target ∧ ¬target′ is UNSAT": the
//! certificate obligation, proved by the learn itself. A checker
//! re-derives the CNF through [`AbductionSession::encode`], the function
//! `solve` builds it with.
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
use crate::cnf::{map_bytes, set_bytes, vec_bytes};
use crate::pred::Predicate;
use crate::query::{AbductionConfig, AbductionResult, QueryTelemetry};
use hh_netlist::simp::SimpMap;
use hh_netlist::Netlist;
use hh_sat::dimacs::CnfShape;
use hh_sat::{DratLog, Lit, SolveResult};
use hh_trace::Counters;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
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

/// The inputs of one abduction query for one target predicate.
///
/// No encoding exists between [`AbductionSession::solve`] calls: each call
/// is a whole query, and a second call on the same session answers exactly
/// as a second fresh session would.
#[derive(Debug)]
pub struct AbductionSession<'a> {
    netlist: &'a Netlist,
    target: Arc<Predicate>,
    config: AbductionConfig,
    /// The word-level simplification map every blast goes through.
    simp: Arc<SimpMap>,
    /// The resident cache the base encoding replays from and records into,
    /// keyed by the target; `None` blasts it fresh.
    cache: Option<Arc<EncodeCache>>,
    /// Whether each solve logs its proof ([`AbductionResult::log`]).
    log_proofs: bool,
}

/// The proof an abduction query logged: the refutation of its session CNF
/// ([`AbductionSession::encode`]) under the indicators of its abduct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionLog {
    /// Size and fingerprint of the session CNF, taken after it was built and
    /// before the first solve.
    pub shape: CnfShape,
    /// Binary DRAT ([`hh_sat::DratLog`]): the learnt clauses of every solve
    /// of the query, then the last solve's wrapper — a unit per abduct
    /// indicator and the empty clause.
    pub drat: Vec<u8>,
}

/// A committed abduction answer with the proof its query logged: what a
/// certificate obligation is made from. Predicates are shared handles, as
/// the engine holds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedSolution {
    /// The target predicate.
    pub target: Arc<Predicate>,
    /// The candidates the query registered, in order.
    pub candidates: Vec<Arc<Predicate>>,
    /// The abduct: the candidates whose indicators the log assumes.
    pub abduct: Vec<Arc<Predicate>>,
    /// The query's proof.
    pub log: SessionLog,
}

/// A session's CNF: the base `target ∧ ¬target′`, then each distinct
/// candidate behind a fresh indicator literal (`indicator → candidate holds
/// now`), in first-occurrence order.
#[derive(Debug)]
pub struct SessionCnf<'a, 'c> {
    /// The encoding, its solver holding the CNF.
    pub enc: TransitionEncoding<'a>,
    /// The indicator of each distinct candidate, in registration order.
    pub indicators: Vec<Lit>,
    seen: HashSet<&'c Predicate>,
    /// Candidate index of each indicator.
    index_of: HashMap<Lit, usize>,
}

impl<'a> AbductionSession<'a> {
    /// Creates a session for `target` over a [`SimpMap`] of its own. No
    /// encoding happens until [`AbductionSession::solve`].
    pub fn new(
        netlist: &'a Netlist,
        target: impl Into<Arc<Predicate>>,
        config: AbductionConfig,
    ) -> AbductionSession<'a> {
        let simp = Arc::new(SimpMap::build(netlist));
        AbductionSession::with_simp(netlist, target, config, simp)
    }

    /// Like [`AbductionSession::new`], over a shared [`SimpMap`] built for
    /// `netlist`: each solve blasts the cone fresh and records nothing.
    pub fn with_simp(
        netlist: &'a Netlist,
        target: impl Into<Arc<Predicate>>,
        config: AbductionConfig,
        simp: Arc<SimpMap>,
    ) -> AbductionSession<'a> {
        hh_trace::event!("smt", "smt.session.create");
        AbductionSession {
            netlist,
            target: target.into(),
            config,
            simp,
            cache: None,
            log_proofs: false,
        }
    }

    /// Like [`AbductionSession::new`], attached to a resident
    /// [`EncodeCache`] built for `netlist`.
    ///
    /// With `use_entries` each solve replays the target's base encoding
    /// from (or records it into) the cache. Without it the session is
    /// [`AbductionSession::with_simp`] over the cache's map.
    pub fn with_cache(
        netlist: &'a Netlist,
        target: impl Into<Arc<Predicate>>,
        config: AbductionConfig,
        cache: Arc<EncodeCache>,
        use_entries: bool,
    ) -> AbductionSession<'a> {
        let session = AbductionSession::with_simp(netlist, target, config, cache.simp());
        AbductionSession {
            cache: use_entries.then_some(cache),
            ..session
        }
    }

    /// Turns proof logging on or off: with it on, an UNSAT answer carries
    /// its [`SessionLog`]. The answer and its work are the same either way.
    pub fn log_proofs(mut self, on: bool) -> AbductionSession<'a> {
        self.log_proofs = on;
        self
    }

    /// Builds this session's CNF over `candidates` ([`SessionCnf`]): the one
    /// construction both [`AbductionSession::solve`] and a certificate
    /// checker re-deriving a logged query's formula go through. A replayed
    /// base encoding is the fresh one, so the CNF is a function of the
    /// netlist, the target and the candidate list alone.
    pub fn encode<'c, P: Borrow<Predicate>>(&self, candidates: &'c [P]) -> SessionCnf<'a, 'c> {
        let mut enc = self.base().without_node_memo();
        let mut seen: HashSet<&Predicate> = HashSet::with_capacity(candidates.len());
        let mut index_of: HashMap<Lit, usize> = HashMap::with_capacity(candidates.len());
        let mut indicators: Vec<Lit> = Vec::with_capacity(candidates.len());
        for (i, cand) in candidates.iter().enumerate() {
            let cand = cand.borrow();
            if !seen.insert(cand) {
                continue;
            }
            let cl = cand.encode_current(&mut enc);
            let a = enc.cnf_mut().fresh();
            enc.cnf_mut().clause(&[!a, cl]);
            index_of.insert(a, i);
            indicators.push(a);
        }
        SessionCnf {
            enc,
            indicators,
            seen,
            index_of,
        }
    }

    /// Runs the abduction query for this session's target over
    /// `candidates`. Returned indices point into `candidates`; a candidate
    /// given twice is asked about once, under its first index.
    ///
    /// The telemetry's `session_resident_bytes` counter is the heap the
    /// query held when it ended, computed from the capacities of its
    /// vectors and tables (so the figure repeats exactly run to run, unlike
    /// an RSS reading): the solver and encoder state plus the candidate
    /// registry. Candidate predicates themselves are not counted (the
    /// caller owns them), nor is a proof log.
    pub fn solve<P: Borrow<Predicate>>(&mut self, candidates: &[P]) -> AbductionResult {
        let t_encode = Instant::now();
        let _encode_span = hh_trace::span!("smt", "smt.session.solve");
        let SessionCnf {
            mut enc,
            indicators: assumptions,
            seen,
            index_of,
        } = self.encode(candidates);
        let encode_time = t_encode.elapsed();
        let (vars, clauses) = enc.size();

        let logging = self.log_proofs.then(|| {
            let solver = enc.cnf_mut().solver_mut();
            let shape = hh_sat::dimacs::fingerprint(solver);
            let log = DratLog::new();
            solver.set_proof_sink(Box::new(log.handle()));
            (shape, log)
        });

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
                        let i = index_of[l];
                        (strength_key(candidates[i].borrow()), i)
                    });
                    final_core = hh_sat::trim_core(solver, &final_core);
                }
                let mut idxs: Vec<usize> = final_core.iter().map(|l| index_of[l]).collect();
                idxs.sort_unstable();
                Some(idxs)
            }
        };
        let solve_time = t_solve.elapsed();
        drop(solve_span);
        let log = logging.and_then(|(shape, log)| {
            enc.cnf_mut().solver_mut().take_proof_sink();
            let mut drat = log.take();
            // The log outlives the query (an engine keeps it with the memo
            // entry): keep its bytes, not its growth slack.
            drat.shrink_to_fit();
            abduct.is_some().then_some(SessionLog { shape, drat })
        });
        let after = enc.cnf().solver().stats();
        let solves = after.solves - before.solves;
        AbductionResult {
            abduct,
            log,
            telemetry: QueryTelemetry {
                vars,
                clauses,
                solves,
                encode_time,
                solve_time,
                counters: Counters {
                    session_resident_bytes: enc.resident_bytes()
                        + set_bytes(&seen)
                        + map_bytes(&index_of)
                        + vec_bytes(&assumptions),
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

    /// The target's base encoding: without a cache, blasted over the map;
    /// with one, replayed from it when it holds the target, else blasted
    /// and recorded.
    fn base(&self) -> TransitionEncoding<'a> {
        let simp = Arc::clone(&self.simp);
        let Some(cache) = &self.cache else {
            let _blast = hh_trace::span!("smt", "smt.blast");
            let mut enc = TransitionEncoding::with_simp(self.netlist, simp);
            self.assert_base(&mut enc);
            return enc;
        };
        if let Some(entry) = cache.lookup(&self.target) {
            // Replay: byte-identical solver state to a fresh build (identity
            // variable numbering), minus the Tseitin work.
            let _replay = hh_trace::span!("smt", "smt.replay");
            return TransitionEncoding::from_cache(self.netlist, simp, &entry);
        }
        let _blast = hh_trace::span!("smt", "smt.blast");
        let mut enc = TransitionEncoding::recording(self.netlist, simp);
        self.assert_base(&mut enc);
        let entry = enc.harvest();
        cache.insert(Arc::clone(&self.target), entry);
        enc
    }

    /// Asserts the base formula `target ∧ ¬target'`. Shared by the fresh and
    /// cache-miss build paths (the cache-hit path replays a recording of
    /// exactly this sequence).
    fn assert_base(&self, enc: &mut TransitionEncoding<'a>) {
        let p_now = self.target.encode_current(enc);
        enc.assert_lit(p_now);
        let p_next = self.target.encode_next(enc);
        enc.assert_lit(!p_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
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

    /// A second `solve` on one session is a second fresh query: its
    /// answer and its work are what a fresh `abduct` reports, whatever the
    /// session was asked before.
    #[test]
    fn each_solve_answers_as_a_fresh_abduct() {
        let (base, m) = and_gate();
        let [a, b, c] = ["A", "B", "C"].map(|s| base.find_state(s).unwrap());
        let target = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let mut sess = AbductionSession::new(m.netlist(), target.clone(), cfg);
        let both = vec![eq_b.clone(), eq_c];
        // Both inputs do, Eq(B) alone does not (a retry after Eq(C)
        // failed), and both again (a retry that offers a new candidate).
        for (cands, expect) in [
            (both.clone(), Some(vec![0, 1])),
            (vec![eq_b], None),
            (both, Some(vec![0, 1])),
        ] {
            let asked = sess.solve(&cands);
            let fresh = crate::query::abduct(m.netlist(), &target, &cands, &cfg);
            assert_eq!(asked.abduct, expect);
            assert_eq!(asked.abduct, fresh.abduct);
            let (t, f) = (asked.telemetry, fresh.telemetry);
            assert_eq!((t.vars, t.clauses, t.solves), (f.vars, f.clauses, f.solves));
            assert_eq!(t.counters, f.counters);
        }
    }

    #[test]
    fn a_duplicate_candidate_answers_under_its_first_index() {
        let (base, m) = and_gate();
        let [a, b, c] = ["A", "B", "C"].map(|s| base.find_state(s).unwrap());
        let target = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let distinct = crate::query::abduct(m.netlist(), &target, &[&eq_b, &eq_c], &cfg);
        for (cands, expect) in [
            ([&eq_b, &eq_c, &eq_b], vec![0, 1]),
            ([&eq_b, &eq_b, &eq_c], vec![0, 2]),
        ] {
            let res = crate::query::abduct(m.netlist(), &target, &cands, &cfg);
            assert_eq!(res.abduct, Some(expect));
            // The duplicate is registered once.
            assert_eq!(res.telemetry.vars, distinct.telemetry.vars);
        }
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
    fn cache_replays_a_retried_target_with_identical_answer() {
        // Eq(A) needs Eq(B) and Eq(C). A retry without Eq(C) (as after a
        // backtrack) is a second session for the same target: it must hit
        // the cache and still answer exactly like a fresh solver.
        let (base, m) = and_gate();
        let [a, b, c] = ["A", "B", "C"].map(|s| base.find_state(s).unwrap());
        let eq_a = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(m.netlist()));

        let mut s1 =
            AbductionSession::with_cache(m.netlist(), eq_a.clone(), cfg, Arc::clone(&cache), true);
        let r1 = s1.solve(&[eq_b.clone(), eq_c]);
        assert_eq!(r1.abduct, Some(vec![0, 1]));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let mut s2 =
            AbductionSession::with_cache(m.netlist(), eq_a.clone(), cfg, Arc::clone(&cache), true);
        let r2 = s2.solve(std::slice::from_ref(&eq_b));
        let fresh = crate::query::abduct(m.netlist(), &eq_a, std::slice::from_ref(&eq_b), &cfg);
        assert_eq!(r2.abduct, fresh.abduct);
        assert_eq!(r2.abduct, None);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_keys_on_the_target() {
        // Eq(B) and Eq(C) have cones of the same shape (B' = B, C' = C),
        // but they are different targets: neither replays the other, nor
        // Eq(A) (cone: A' = B & C).
        let (base, m) = and_gate();
        let [a, b, c] = ["A", "B", "C"].map(|s| base.find_state(s).unwrap());
        let eq_a = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(m.netlist()));

        let mut s1 =
            AbductionSession::with_cache(m.netlist(), eq_a.clone(), cfg, Arc::clone(&cache), true);
        let r1 = s1.solve(&[eq_b.clone(), eq_c.clone()]);
        assert_eq!(r1.abduct, Some(vec![0, 1]));
        for (target, other) in [(&eq_b, &eq_c), (&eq_c, &eq_b)] {
            let mut s = AbductionSession::with_cache(
                m.netlist(),
                target.clone(),
                cfg,
                Arc::clone(&cache),
                true,
            );
            let r = s.solve(std::slice::from_ref(other));
            assert_eq!(r.abduct, Some(vec![]));
        }
        assert_eq!(cache.stats().misses, 3, "different targets must miss");
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn a_session_holds_nothing_sized_by_the_netlist() {
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
            let res = sess.solve(&cands);
            assert_eq!(res.abduct, Some(vec![0, 1]));
            let resident = res.telemetry.counters.session_resident_bytes;
            (resident, cache.resident_bytes())
        };
        let (small, padded) = (build(0), build(2000));
        assert!(padded.num_nodes() > small.num_nodes() + 20_000);
        assert_eq!(resident(&padded), resident(&small));
        assert!(resident(&small).0 > 0 && resident(&small).1 > 0);
    }

    #[test]
    fn a_replayed_encoding_is_the_fresh_one() {
        // A first session for Eq(A) records its base encoding, a second one
        // replays it; a third blasts Eq(A) fresh over the same SimpMap.
        // Same formula size, same search, same bytes, same proof.
        let (base, m) = and_gate();
        let [a, b, c] = ["A", "B", "C"].map(|s| base.find_state(s).unwrap());
        let eq_a = Predicate::eq(m.left(a), m.right(a));
        let cands = [
            Predicate::eq(m.left(b), m.right(b)),
            Predicate::eq(m.left(c), m.right(c)),
        ];
        let cfg = AbductionConfig::paper_default();
        let cache = Arc::new(EncodeCache::new(m.netlist()));
        let before = cache.resident_bytes();
        let mut recorder =
            AbductionSession::with_cache(m.netlist(), eq_a.clone(), cfg, Arc::clone(&cache), true);
        recorder.solve(&cands);
        let recorded = cache.resident_bytes();
        assert!(recorded > before);

        let r =
            AbductionSession::with_cache(m.netlist(), eq_a.clone(), cfg, Arc::clone(&cache), true)
                .log_proofs(true)
                .solve(&cands);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.resident_bytes(), recorded, "a hit stores nothing");
        let f = AbductionSession::with_simp(m.netlist(), eq_a, cfg, cache.simp())
            .log_proofs(true)
            .solve(&cands);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(r.abduct, f.abduct);
        assert!(r.log.is_some());
        assert_eq!(r.log, f.log, "a replayed query logs the fresh proof");
        let (rt, ft) = (r.telemetry, f.telemetry);
        assert_eq!(
            (rt.vars, rt.clauses, rt.solves),
            (ft.vars, ft.clauses, ft.solves)
        );
        assert_eq!(rt.counters, ft.counters);
    }

    /// Trimming on random CNFs. Candidate `i` is a random literal behind
    /// indicator `a_i` with a random strength key; one solver is asked about
    /// a candidate set that shrinks (the previous abduct loses a member, as
    /// after a backtrack) and regrows, and trims each raw core with its
    /// members in strength order, as [`AbductionSession::solve`] does. Every abduct must be a subset of its
    /// raw core that a fresh solver refutes, and trimming it again must
    /// change nothing.
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
            let mut offered = vec![true; CANDIDATES];
            for _ in 0..10 {
                let assumed: Vec<Lit> = (0..CANDIDATES)
                    .filter(|&i| offered[i])
                    .map(|i| indicators[i])
                    .collect();
                if session.solve_with_assumptions(&assumed) == SolveResult::Sat {
                    // Regrow: offer everything again.
                    offered = vec![true; CANDIDATES];
                    continue;
                }
                unsat_queries += 1;
                let mut core = session.unsat_core().to_vec();
                core.sort_by_key(|a| (strength[slot(a)], slot(a)));
                let abduct = trim_core(&mut session, &core);
                assert!(abduct.iter().all(|l| core.contains(l)));
                trimmed_away += core.len() - abduct.len();

                let mut fresh = build();
                assert_eq!(fresh.solve_with_assumptions(&abduct), SolveResult::Unsat);
                assert_eq!(trim_core(&mut session, &abduct), abduct);
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
