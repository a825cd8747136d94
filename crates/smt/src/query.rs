//! The SMT queries of the H-Houdini framework.
//!
//! * [`abduct`] — the abduction query of §3.2.3: `⋀ P_V ∧ p ∧ ¬p'`. UNSAT
//!   means a conjunction of candidates makes `p` 1-step relatively inductive;
//!   the UNSAT core over the candidate indicator literals *is* the abduct,
//!   optionally trimmed by re-solving it to a fixpoint (where the paper asks
//!   cvc5 for `minimal-unsat-cores`).
//! * [`monolithic_induction_check`] — the classic HOUDINI query
//!   `H ∧ T ∧ ¬H'` over the *entire* design, used by the baselines and for
//!   final invariant validation; [`MonolithicSession`] is the same query
//!   over a set that only grows, checked once per SORCAR round.

use crate::blast::TransitionEncoding;
use crate::pred::Predicate;
use crate::session::AbductionSession;
use hh_netlist::{Bv, Netlist, StateId};
use hh_sat::{Lit, SolveResult};
use hh_trace::Counters;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for [`abduct`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AbductionConfig {
    /// Shrink the raw UNSAT core: re-solve under it, strongest predicates
    /// assumed first, until it stops shrinking ([`hh_sat::trim_core`]).
    /// `false` commits the raw core.
    pub minimize: bool,
}

impl AbductionConfig {
    /// The configuration the engines run: trimmed cores. Here we depart
    /// from the paper, whose tool asks cvc5 for `minimal-unsat-cores`
    /// (§3.2.3): trimming makes no SAT probe, so an abduct is an UNSAT core
    /// but need not be locally minimal, and invariants come out a few
    /// predicates larger for far fewer solver calls.
    pub fn paper_default() -> AbductionConfig {
        AbductionConfig { minimize: true }
    }
}

/// Telemetry from one abduction query: its share of the run counters plus
/// the per-query sizes and times the counters do not keep.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTelemetry {
    /// SAT variables of the query's encoding: the target's cone plus each
    /// registered candidate and its indicator.
    pub vars: usize,
    /// Clauses of the query's encoding before it was solved.
    pub clauses: usize,
    /// Number of `solve` calls: the first solve plus the trimming
    /// re-solves (`counters.sat_solves` again).
    pub solves: u64,
    /// Time spent building the base encoding and registering candidates.
    pub encode_time: std::time::Duration,
    /// Time spent solving (including trimming re-solves).
    pub solve_time: std::time::Duration,
    /// The query's contribution to the run counters
    /// ([`hh_trace::COUNTERS`]): SAT work, the solver's byte gauges after
    /// the query and the query's heap at its end
    /// (`smt.session.resident_bytes`).
    pub counters: Counters,
}

/// Result of an abduction query.
#[derive(Debug, Clone)]
pub struct AbductionResult {
    /// Indices into the candidate slice forming the abduct, or `None` if no
    /// conjunction of candidates can make the target relatively inductive.
    pub abduct: Option<Vec<usize>>,
    /// The refutation behind `abduct`, when the session logs proofs
    /// ([`AbductionSession::log_proofs`]) and the answer is UNSAT.
    pub log: Option<crate::session::SessionLog>,
    /// Query telemetry.
    pub telemetry: QueryTelemetry,
}

/// Runs the abduction query for `target` over `candidates` (paper §3.2.3).
///
/// The query asserts every candidate (via indicator assumptions), asserts
/// `target` in the current state and `¬target` in the next state:
///
/// * SAT ⇒ even all candidates together cannot force `target` to persist —
///   returns `abduct: None`.
/// * UNSAT ⇒ the UNSAT core over the indicators is an abduct `A` with
///   `⋀A ∧ target ⟹ target'`.
///
/// Soundness of core extraction relies on the candidates plus `target` being
/// non-contradictory, which the caller guarantees by only mining predicates
/// consistent with positive examples (premise P-S, §3.1).
pub fn abduct<P: std::borrow::Borrow<Predicate>>(
    netlist: &Netlist,
    target: &Predicate,
    candidates: &[P],
    config: &AbductionConfig,
) -> AbductionResult {
    // The engine's query, over a map of its own.
    AbductionSession::new(netlist, target.clone(), *config).solve(candidates)
}

/// A counterexample to monolithic induction: the pre-state and post-state
/// values of every state element touched by the invariant.
#[derive(Debug, Clone)]
pub struct InductionCex {
    /// Values of encoded states in the violating pre-state.
    pub current: BTreeMap<StateId, Bv>,
    /// Values of the same states after one transition.
    pub next: BTreeMap<StateId, Bv>,
}

impl InductionCex {
    /// Evaluates a predicate over the *post*-state of the counterexample
    /// (HOUDINI filters predicates the successor state violates).
    ///
    /// States absent from the counterexample were irrelevant to the query;
    /// they default to the netlist's reset value, matching how the paper's
    /// teacher completes partial models.
    pub fn pred_holds_after(&self, netlist: &Netlist, pred: &Predicate) -> bool {
        pred.eval_with(&mut |s| {
            self.next
                .get(&s)
                .copied()
                .unwrap_or_else(|| netlist.init_of(s))
        })
    }

    /// Evaluates a predicate over the *pre*-state of the counterexample
    /// (SORCAR adds pool predicates that exclude the pre-state).
    pub fn pred_holds_before(&self, netlist: &Netlist, pred: &Predicate) -> bool {
        pred.eval_with(&mut |s| {
            self.current
                .get(&s)
                .copied()
                .unwrap_or_else(|| netlist.init_of(s))
        })
    }
}

/// Outcome of a monolithic inductivity check.
#[derive(Debug, Clone)]
pub enum MonolithicOutcome {
    /// `⋀H ∧ T ⟹ ⋀H'` holds.
    Inductive,
    /// A state satisfying `H` whose successor violates it.
    Cex(Box<InductionCex>),
}

/// The classic monolithic inductivity query `H ∧ T ∧ ¬H'` over the whole
/// predicate set (paper §2.2.1), on a fresh [`MonolithicSession`]. Used by
/// HOUDINI, whose set shrinks every round, and to independently validate
/// invariants learned hierarchically (§6.4 does the same for Rocketchip).
pub fn monolithic_induction_check(netlist: &Netlist, invariant: &[Predicate]) -> MonolithicOutcome {
    let mut session = MonolithicSession::new(netlist);
    session.assert(invariant);
    session.check()
}

/// A monolithic inductivity query whose predicate set only grows: one
/// [`TransitionEncoding`] over the whole netlist, checked any number of
/// times. Each asserted predicate's current-state literal is blasted once
/// and asserted as a level-0 unit, so the solver keeps its learnt clauses
/// across checks and a later clause that a unit satisfies is never stored.
/// A unit cannot be taken back: a caller whose set shrinks starts a new
/// session. This is how SORCAR, whose set grows every round that finds a
/// helpful predicate, avoids re-blasting the design each round.
#[derive(Debug)]
pub struct MonolithicSession<'a> {
    enc: TransitionEncoding<'a>,
    /// The asserted predicates, each with its next-state literal once a
    /// check has blasted it.
    asserted: BTreeMap<Predicate, Option<Lit>>,
    /// The states whose current value a counterexample reports: those of
    /// the asserted and of the tracked predicates.
    reported: BTreeSet<StateId>,
}

impl<'a> MonolithicSession<'a> {
    /// A session over `netlist` with nothing asserted.
    pub fn new(netlist: &'a Netlist) -> MonolithicSession<'a> {
        MonolithicSession {
            enc: TransitionEncoding::new(netlist),
            asserted: BTreeMap::new(),
            reported: BTreeSet::new(),
        }
    }

    /// Asserts each predicate of `preds` not asserted yet in the current
    /// state, as a unit clause.
    pub fn assert(&mut self, preds: &[Predicate]) {
        for pred in preds {
            if self.asserted.contains_key(pred) {
                continue;
            }
            let l = pred.encode_current(&mut self.enc);
            self.enc.assert_lit(l);
            self.reported.extend(pred.all_states());
            self.asserted.insert(pred.clone(), None);
        }
    }

    /// Allocates current-state variables for the states `preds` mention, so
    /// counterexamples report their values, consistent with the transition
    /// constraints. Property-directed learners (SORCAR) need them to decide
    /// which pool predicates would exclude a counterexample's pre-state.
    pub fn track(&mut self, preds: &[Predicate]) {
        for pred in preds {
            for s in pred.all_states() {
                self.enc.state_lits(s);
                self.reported.insert(s);
            }
        }
    }

    /// Checks `⋀H ∧ T ⟹ ⋀H'` for the asserted set `H`. The query's
    /// `⋁¬p'` clause is added under a fresh activation literal, solved
    /// under it and then retired by the unit `¬act`, so it constrains no
    /// later check.
    pub fn check(&mut self) -> MonolithicOutcome {
        assert!(
            !self.asserted.is_empty(),
            "empty invariant is trivially inductive"
        );
        let enc = &mut self.enc;
        for (pred, next) in &mut self.asserted {
            if next.is_none() {
                *next = Some(pred.encode_next(enc));
            }
        }
        let act = enc.cnf_mut().fresh();
        let mut query = vec![!act];
        query.extend(self.asserted.values().flatten().map(|&l| !l));
        enc.cnf_mut().clause(&query);

        let outcome = match enc.cnf_mut().solver_mut().solve_with_assumptions(&[act]) {
            SolveResult::Unsat => MonolithicOutcome::Inductive,
            SolveResult::Sat => MonolithicOutcome::Cex(Box::new(self.decode())),
        };
        self.enc.assert_lit(!act);
        outcome
    }

    /// The counterexample of the last (satisfiable) check: the pre-state of
    /// every reported state and the post-state of every asserted
    /// predicate's states (their next cones are encoded; tracked states'
    /// cones may not be).
    fn decode(&mut self) -> InductionCex {
        let enc = &mut self.enc;
        let current = (self.reported.iter())
            .filter_map(|&s| Some((s, enc.decode_state(s)?)))
            .collect();
        let mut next = BTreeMap::new();
        for s in self.asserted.keys().flat_map(Predicate::all_states) {
            next.entry(s).or_insert_with(|| {
                let lits = enc.next_state_lits(s);
                let mut bits = 0u64;
                for (i, &lit) in lits.iter().enumerate() {
                    if enc.cnf().solver().model_value(lit) {
                        bits |= 1 << i;
                    }
                }
                Bv::new(lits.len() as u32, bits)
            });
        }
        InductionCex { current, next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Pattern, Predicate, SetLabel};
    use hh_netlist::miter::Miter;
    use hh_netlist::Netlist;

    /// The paper's introductory AND-gate example: A <= B & C, with B and C
    /// fed by themselves (stable). In the miter, Eq(A) is relatively
    /// inductive to {Eq(B), Eq(C)}.
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
    fn abduction_finds_and_gate_premises() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let candidates = vec![
            Predicate::eq(m.left(b), m.right(b)),
            Predicate::eq(m.left(c), m.right(c)),
        ];
        let res = abduct(
            m.netlist(),
            &target,
            &candidates,
            &AbductionConfig::paper_default(),
        );
        // Both inputs are needed to force the AND outputs equal.
        assert_eq!(res.abduct, Some(vec![0, 1]));
    }

    #[test]
    fn abduction_minimises_away_irrelevant_candidates() {
        let (base, m) = and_gate();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        // Target: Eq(B). B holds itself, so Eq(B) alone is inductive; the
        // candidate list contains an irrelevant predicate that must not
        // appear in the trimmed abduct.
        let target = Predicate::eq(m.left(b), m.right(b));
        let candidates = vec![Predicate::eq(m.left(c), m.right(c))];
        let res = abduct(
            m.netlist(),
            &target,
            &candidates,
            &AbductionConfig::paper_default(),
        );
        assert_eq!(res.abduct, Some(vec![])); // empty abduct: self-inductive
    }

    #[test]
    fn abduction_fails_when_no_candidates_help() {
        // r' = input: nothing over states can force Eq(r) next.
        let mut n = Netlist::new("free");
        let r = n.state("r", 4, Bv::zero(4));
        // Left and right must be able to diverge: use *separate* inputs so
        // the miter's shared-input property doesn't force equality. We model
        // that by making next(r) = r + secret-ish input is shared... instead
        // use a register that doubles its own value: Eq not forced by Eq(r)?
        // Simplest true negative: next(r) = r * r + input_is_shared won't
        // work; instead make next(r) pick between r and r+1 by a *state* bit
        // s that is itself free-running from nothing (next(s) = not s).
        let i = n.input("i", 4);
        let rn = n.state_node(r);
        let sq = n.mul(rn, rn);
        let nxt = n.add(sq, i);
        n.set_next(r, nxt);
        let m = Miter::build(&n);
        let target = Predicate::eq(m.left(r), m.right(r));
        // Candidate list *without* Eq(r)-implying predicates: empty.
        let res = abduct::<Predicate>(m.netlist(), &target, &[], &AbductionConfig::paper_default());
        // Eq(r) ∧ shared input ⟹ Eq(r') actually holds here (same square,
        // same input). So this IS inductive with the empty abduct.
        assert_eq!(res.abduct, Some(vec![]));

        // Now a genuinely non-inductive target: EqConst(r, 0) is destroyed
        // whenever i != 0, and no candidate can constrain the input.
        let target = Predicate::eq_const(m.left(r), m.right(r), Bv::zero(4));
        let res = abduct::<Predicate>(m.netlist(), &target, &[], &AbductionConfig::paper_default());
        assert_eq!(res.abduct, None);
    }

    #[test]
    fn monolithic_check_accepts_full_invariant() {
        let (base, m) = and_gate();
        let inv: Vec<Predicate> = ["A", "B", "C"]
            .iter()
            .map(|name| {
                let s = base.find_state(name).unwrap();
                Predicate::eq(m.left(s), m.right(s))
            })
            .collect();
        assert!(matches!(
            monolithic_induction_check(m.netlist(), &inv),
            MonolithicOutcome::Inductive
        ));
    }

    #[test]
    fn monolithic_check_produces_usable_cex() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        // Eq(A) alone is not inductive: B/C may differ.
        let inv = vec![Predicate::eq(m.left(a), m.right(a))];
        match monolithic_induction_check(m.netlist(), &inv) {
            MonolithicOutcome::Cex(cex) => {
                // The successor must violate Eq(A).
                assert!(!cex.pred_holds_after(m.netlist(), &inv[0]));
            }
            MonolithicOutcome::Inductive => panic!("expected cex"),
        }
    }

    /// A check's query clause is retired before the next check: Eq(A)'s
    /// counterexample demands a successor that breaks Eq(A), and once
    /// Eq(B), Eq(C) and the non-inductive `D = 0` (`D' = D + 1`) are
    /// asserted as well, every successor keeps Eq(A), so a check the first
    /// query still constrained would answer inductive.
    #[test]
    fn a_retired_query_constrains_no_later_check() {
        let mut n = Netlist::new("and_gate_and_counter");
        let b = n.state("B", 1, Bv::bit(true));
        let c = n.state("C", 1, Bv::bit(true));
        let a = n.state("A", 1, Bv::bit(true));
        let d = n.state("D", 4, Bv::zero(4));
        let band = n.and(n.state_node(b), n.state_node(c));
        let dn = n.state_node(d);
        let one = n.constant(Bv::new(4, 1));
        let inc = n.add(dn, one);
        n.set_next(a, band);
        n.set_next(d, inc);
        n.keep_state(b);
        n.keep_state(c);
        let m = Miter::build(&n);
        let eq = |s| Predicate::eq(m.left(s), m.right(s));
        let d_is_0 = Predicate::eq_const(m.left(d), m.right(d), Bv::zero(4));

        let mut session = MonolithicSession::new(m.netlist());
        session.assert(&[eq(a)]);
        let MonolithicOutcome::Cex(cex) = session.check() else {
            panic!("Eq(A) alone is not inductive");
        };
        assert!(!cex.pred_holds_after(m.netlist(), &eq(a)));

        session.assert(&[eq(b), eq(c)]);
        assert!(matches!(session.check(), MonolithicOutcome::Inductive));

        session.assert(std::slice::from_ref(&d_is_0));
        let MonolithicOutcome::Cex(cex) = session.check() else {
            panic!("D = 0 is not inductive");
        };
        for s in [a, b, c] {
            assert!(cex.pred_holds_after(m.netlist(), &eq(s)));
        }
        assert!(!cex.pred_holds_after(m.netlist(), &d_is_0));
    }

    #[test]
    fn in_set_predicates_flow_through_queries() {
        // r holds its value; InSet(r, {1,2}) should be self-inductive.
        let mut n = Netlist::new("hold");
        let r = n.state("r", 4, Bv::new(4, 1));
        n.keep_state(r);
        let m = Miter::build(&n);
        let pred = Predicate::in_set(
            m.left(r),
            m.right(r),
            vec![Pattern::exact(4, 1), Pattern::exact(4, 2)],
            SetLabel::InSafeSet,
        );
        let res = abduct::<Predicate>(m.netlist(), &pred, &[], &AbductionConfig::paper_default());
        assert_eq!(res.abduct, Some(vec![]));
    }
}
