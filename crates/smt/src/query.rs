//! The SMT queries of the H-Houdini framework.
//!
//! * [`abduct`] — the abduction query of §3.2.3: `⋀ P_V ∧ p ∧ ¬p'`. UNSAT
//!   means a conjunction of candidates makes `p` 1-step relatively inductive;
//!   the UNSAT core over the candidate indicator literals *is* the abduct,
//!   optionally shrunk to a locally minimal core (cvc5's
//!   `minimal-unsat-cores` equivalent).
//! * [`check_relative_inductive`] — verifies `G ∧ p ⟹ p'` for a fixed `G`.
//! * [`monolithic_induction_check`] — the classic HOUDINI query
//!   `H ∧ T ∧ ¬H'` over the *entire* design, used by the baselines and for
//!   final invariant validation.

use crate::blast::TransitionEncoding;
use crate::pred::Predicate;
use crate::session::AbductionSession;
use hh_netlist::{Bv, Netlist, StateId};
use hh_sat::{Lit, SolveResult};
use hh_trace::Counters;
use std::collections::BTreeMap;

/// Configuration for [`abduct`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AbductionConfig {
    /// Shrink UNSAT cores to local minimality (biasing toward the weakest
    /// abduct, §3.2.3).
    pub minimize: bool,
}

impl AbductionConfig {
    /// The configuration used by the paper's tool: minimal cores.
    pub fn paper_default() -> AbductionConfig {
        AbductionConfig { minimize: true }
    }
}

/// Telemetry from one abduction query: its share of the run counters plus
/// the per-query sizes and times the counters do not keep.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTelemetry {
    /// SAT variables newly allocated by the query (for a fresh query, the
    /// whole cone encoding; for a session reuse, only unseen candidates).
    pub vars: usize,
    /// Clauses newly allocated by the query (on reused sessions this delta
    /// also includes clauses learnt during earlier queries).
    pub clauses: usize,
    /// Number of `solve` calls: the first solve plus the minimisation
    /// probes that reached the solver (`counters.sat_solves` again).
    pub solves: u64,
    /// Time spent blasting/registering (encode side of the query).
    pub encode_time: std::time::Duration,
    /// Time spent solving (including minimisation probes).
    pub solve_time: std::time::Duration,
    /// The part of the parked solver's watch store that is watchers in a
    /// list; the rest of `counters.sat_watch_bytes` is per-literal headers.
    pub watch_live_bytes: u64,
    /// The query's contribution to the run counters
    /// ([`hh_trace::COUNTERS`]): session hit or miss and reuse savings,
    /// word-level rewrites of a fresh encoding, minimisation probes, SAT
    /// work deltas and the parked solver's byte gauges.
    pub counters: Counters,
}

/// Result of an abduction query.
#[derive(Debug, Clone)]
pub struct AbductionResult {
    /// Indices into the candidate slice forming the abduct, or `None` if no
    /// conjunction of candidates can make the target relatively inductive.
    pub abduct: Option<Vec<usize>>,
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
    // An ephemeral single-query session: the fresh path and a session's
    // first query are literally the same code, and retries share the same
    // deletion minimisation (strongest predicates offered for deletion
    // first, biasing toward the weakest abduct, §3.2.3).
    AbductionSession::new(netlist, target.clone(), *config).solve(candidates)
}

/// Checks `(⋀ premise) ∧ target ⟹ target'` (relative induction, Def. 2.4).
pub fn check_relative_inductive(
    netlist: &Netlist,
    premise: &[Predicate],
    target: &Predicate,
) -> bool {
    let mut enc = TransitionEncoding::new(netlist);
    let p_now = target.encode_current(&mut enc);
    enc.assert_lit(p_now);
    for pred in premise {
        let l = pred.encode_current(&mut enc);
        enc.assert_lit(l);
    }
    let p_next = target.encode_next(&mut enc);
    enc.assert_lit(!p_next);
    enc.cnf_mut().solver_mut().solve() == SolveResult::Unsat
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

/// Outcome of [`monolithic_induction_check`].
#[derive(Debug, Clone)]
pub enum MonolithicOutcome {
    /// `⋀H ∧ T ⟹ ⋀H'` holds.
    Inductive,
    /// A state satisfying `H` whose successor violates it.
    Cex(Box<InductionCex>),
}

/// The classic monolithic inductivity query `H ∧ T ∧ ¬H'` over the whole
/// predicate set (paper §2.2.1). Used by the HOUDINI/SORCAR baselines and to
/// independently validate invariants learned hierarchically (§6.4 does the
/// same for Rocketchip).
pub fn monolithic_induction_check(netlist: &Netlist, invariant: &[Predicate]) -> MonolithicOutcome {
    monolithic_induction_check_tracked(netlist, invariant, &[])
}

/// Like [`monolithic_induction_check`], but additionally encodes and decodes
/// the current-state values of the states mentioned by `tracked` predicates.
/// Property-directed learners (SORCAR) need those values to decide which
/// pool predicates would exclude the counterexample pre-state.
pub fn monolithic_induction_check_tracked(
    netlist: &Netlist,
    invariant: &[Predicate],
    tracked: &[Predicate],
) -> MonolithicOutcome {
    assert!(
        !invariant.is_empty(),
        "empty invariant is trivially inductive"
    );
    let mut enc = TransitionEncoding::new(netlist);
    // Assert every predicate now.
    for pred in invariant {
        let l = pred.encode_current(&mut enc);
        enc.assert_lit(l);
    }
    // Allocate current-state variables for tracked predicates so the model
    // assigns them values consistent with the transition constraints.
    for pred in tracked {
        for s in pred.all_states() {
            enc.state_lits(s);
        }
    }
    // Assert the disjunction of negated next-state predicates.
    let negated: Vec<Lit> = invariant
        .iter()
        .map(|pred| !pred.encode_next(&mut enc))
        .collect();
    enc.cnf_mut().clause(&negated);

    match enc.cnf_mut().solver_mut().solve() {
        SolveResult::Unsat => MonolithicOutcome::Inductive,
        SolveResult::Sat => {
            let mut current = BTreeMap::new();
            let mut next = BTreeMap::new();
            // Decode the pre-state of every state any predicate mentions.
            for pred in invariant.iter().chain(tracked) {
                for s in pred.all_states() {
                    if let Some(v) = enc.decode_state(s) {
                        current.insert(s, v);
                    }
                }
            }
            // Post-state values only for the invariant's states (their next
            // cones are encoded; tracked states' cones may not be).
            for pred in invariant {
                for s in pred.all_states() {
                    let lits = enc.next_state_lits(s);
                    let mut bits = 0u64;
                    for (i, &lit) in lits.iter().enumerate() {
                        if enc.cnf().solver().model_value(lit) {
                            bits |= 1 << i;
                        }
                    }
                    next.insert(s, Bv::new(lits.len() as u32, bits));
                }
            }
            MonolithicOutcome::Cex(Box::new(InductionCex { current, next }))
        }
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
        // appear in the minimised abduct.
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
    fn relative_induction_check() {
        let (base, m) = and_gate();
        let a = base.find_state("A").unwrap();
        let b = base.find_state("B").unwrap();
        let c = base.find_state("C").unwrap();
        let eq_a = Predicate::eq(m.left(a), m.right(a));
        let eq_b = Predicate::eq(m.left(b), m.right(b));
        let eq_c = Predicate::eq(m.left(c), m.right(c));
        assert!(check_relative_inductive(
            m.netlist(),
            &[eq_b.clone(), eq_c.clone()],
            &eq_a
        ));
        // Eq(B) alone is not enough: C may differ and flip the AND.
        assert!(!check_relative_inductive(
            m.netlist(),
            std::slice::from_ref(&eq_b),
            &eq_a
        ));
        // Eq(B) is inductive relative to nothing (B holds itself).
        assert!(check_relative_inductive(m.netlist(), &[], &eq_b));
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
            SetLabel::EqConstSet,
        );
        let res = abduct::<Predicate>(m.netlist(), &pred, &[], &AbductionConfig::paper_default());
        assert_eq!(res.abduct, Some(vec![]));
    }
}
