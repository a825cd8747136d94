//! MLIS baselines: HOUDINI and a SORCAR-style property-directed learner.
//!
//! Both learn conjunctive invariants over the *same* predicate pool as
//! H-Houdini, but through **monolithic** SMT queries — every inductivity
//! check is over the entire design (paper §2.2). HOUDINI's set shrinks, so
//! each of its rounds blasts a fresh encoding; SORCAR's grows, so it keeps
//! one [`MonolithicSession`] while it does. They exist to reproduce the
//! paper's headline comparison: the hierarchical learner beating the
//! monolithic ones by orders of magnitude (2880× on Rocketchip, and the
//! monolithic queries simply not scaling to BOOM).

use crate::Invariant;
use hh_netlist::Netlist;
use hh_smt::{monolithic_induction_check, MonolithicOutcome, MonolithicSession, Predicate};
use std::time::{Duration, Instant};

/// Telemetry for a baseline run.
#[derive(Debug, Clone, Default)]
pub struct BaselineStats {
    /// Teacher rounds (monolithic queries issued).
    pub rounds: usize,
    /// Wall-clock of the run.
    pub wall_time: Duration,
    /// Time inside SMT checks.
    pub smt_time: Duration,
}

/// Abort knob so benchmark sweeps can bound hopeless baseline runs (the
/// paper reports the monolithic approach "did not scale to BOOM"; we cap it
/// the same way a human would). Rounds need no cap: HOUDINI's set shrinks
/// every round, and SORCAR lowers `2·|remaining| + |set|` every round.
#[derive(Debug, Clone, Copy)]
pub struct BaselineBudget {
    /// Maximum wall-clock, checked before each round.
    pub max_time: Duration,
}

impl Default for BaselineBudget {
    fn default() -> BaselineBudget {
        BaselineBudget {
            max_time: Duration::from_secs(3600),
        }
    }
}

/// Outcome of a baseline learner.
#[derive(Debug)]
pub enum BaselineOutcome {
    /// Learned an invariant proving the property.
    Proved(Invariant),
    /// No invariant exists within the pool.
    NoInvariant,
    /// The budget was exhausted before an answer (the "does not scale"
    /// case).
    BudgetExceeded,
}

impl BaselineOutcome {
    /// The invariant, if proved.
    pub fn invariant(&self) -> Option<&Invariant> {
        match self {
            BaselineOutcome::Proved(i) => Some(i),
            _ => None,
        }
    }
}

/// The classic HOUDINI algorithm (paper §2.2.1): start from the full
/// example-filtered pool, repeatedly issue the monolithic query
/// `H ∧ T ∧ ¬H'`, and drop every predicate the counterexample's successor
/// state violates. Returns the greatest inductive subset; the property is
/// proved iff it survives.
pub fn houdini(
    netlist: &Netlist,
    pool: &[Predicate],
    property: &[Predicate],
    budget: &BaselineBudget,
) -> (BaselineOutcome, BaselineStats) {
    let t0 = Instant::now();
    let mut stats = BaselineStats::default();
    let mut set: Vec<Predicate> = property.to_vec();
    set.extend(pool.iter().cloned());
    set.sort();
    set.dedup();

    loop {
        if t0.elapsed() >= budget.max_time {
            stats.wall_time = t0.elapsed();
            return (BaselineOutcome::BudgetExceeded, stats);
        }
        let q0 = Instant::now();
        let outcome = monolithic_induction_check(netlist, &set);
        stats.smt_time += q0.elapsed();
        stats.rounds += 1;
        match outcome {
            MonolithicOutcome::Inductive => {
                stats.wall_time = t0.elapsed();
                let inv = Invariant::new(set);
                return if property.iter().all(|p| inv.contains(p)) {
                    (BaselineOutcome::Proved(inv), stats)
                } else {
                    (BaselineOutcome::NoInvariant, stats)
                };
            }
            MonolithicOutcome::Cex(cex) => {
                let before = set.len();
                set.retain(|p| cex.pred_holds_after(netlist, p));
                // If the property itself was dropped, no conjunction of the
                // pool can prove it.
                if !property.iter().all(|p| set.contains(p)) {
                    stats.wall_time = t0.elapsed();
                    return (BaselineOutcome::NoInvariant, stats);
                }
                assert!(set.len() < before, "counterexample filtered nothing");
            }
        }
    }
}

/// A SORCAR-style property-directed learner: grow the candidate set from
/// the property outward, adding pool predicates that exclude the current
/// counterexample's pre-state. Fewer predicates per query than HOUDINI, but
/// every query is still monolithic. The set grows in every round that
/// finds a helpful predicate, and those rounds share one session; only the
/// fallback that drops predicates starts a new one.
pub fn sorcar(
    netlist: &Netlist,
    pool: &[Predicate],
    property: &[Predicate],
    budget: &BaselineBudget,
) -> (BaselineOutcome, BaselineStats) {
    let t0 = Instant::now();
    let mut stats = BaselineStats::default();
    let mut set: Vec<Predicate> = property.to_vec();
    set.sort();
    set.dedup();
    let mut remaining: Vec<Predicate> = pool.iter().filter(|p| !set.contains(p)).cloned().collect();
    let open = |set: &[Predicate], remaining: &[Predicate]| {
        let mut session = MonolithicSession::new(netlist);
        session.assert(set);
        session.track(remaining);
        session
    };
    let mut session = open(&set, &remaining);

    loop {
        if t0.elapsed() >= budget.max_time {
            stats.wall_time = t0.elapsed();
            return (BaselineOutcome::BudgetExceeded, stats);
        }
        let q0 = Instant::now();
        let outcome = session.check();
        stats.smt_time += q0.elapsed();
        stats.rounds += 1;
        match outcome {
            MonolithicOutcome::Inductive => {
                stats.wall_time = t0.elapsed();
                return (BaselineOutcome::Proved(Invariant::new(set)), stats);
            }
            MonolithicOutcome::Cex(cex) => {
                // Predicates that rule out the counterexample's pre-state.
                let (helpful, rest): (Vec<Predicate>, Vec<Predicate>) = remaining
                    .into_iter()
                    .partition(|p| !cex.pred_holds_before(netlist, p));
                remaining = rest;
                if helpful.is_empty() {
                    // Nothing in the pool excludes the bad state: HOUDINI-style
                    // weakening is the only option left; fall back to dropping
                    // set predicates violated after the step.
                    let before = set.len();
                    set.retain(|p| cex.pred_holds_after(netlist, p));
                    if !property.iter().all(|p| set.contains(p)) || set.len() == before {
                        stats.wall_time = t0.elapsed();
                        return (BaselineOutcome::NoInvariant, stats);
                    }
                    // An asserted unit cannot be taken back.
                    session = open(&set, &remaining);
                } else {
                    session.assert(&helpful);
                    set.extend(helpful);
                    set.sort();
                    set.dedup();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::miter::Miter;
    use hh_netlist::Bv;

    /// The AND-gate, plus an irrelevant register `junk` whose Eq predicate
    /// pads the pool.
    fn setup() -> (Netlist, Miter, Vec<Predicate>, Predicate) {
        let mut n = Netlist::new("and_gate");
        let b = n.state("B", 1, Bv::bit(true));
        let c = n.state("C", 1, Bv::bit(true));
        let a = n.state("A", 1, Bv::bit(true));
        let junk = n.state("junk", 4, Bv::zero(4));
        let band = n.and(n.state_node(b), n.state_node(c));
        n.set_next(a, band);
        n.keep_state(b);
        n.keep_state(c);
        n.keep_state(junk);
        let m = Miter::build(&n);
        let pool: Vec<Predicate> = ["A", "B", "C", "junk"]
            .iter()
            .map(|name| {
                let s = n.find_state(name).unwrap();
                Predicate::eq(m.left(s), m.right(s))
            })
            .collect();
        let ab = n.find_state("A").unwrap();
        let prop = Predicate::eq(m.left(ab), m.right(ab));
        (n, m, pool, prop)
    }

    #[test]
    fn houdini_proves_and_gate() {
        let (_, m, pool, prop) = setup();
        let (out, stats) = houdini(
            m.netlist(),
            &pool,
            std::slice::from_ref(&prop),
            &BaselineBudget::default(),
        );
        let inv = out.invariant().expect("houdini proves the AND gate");
        assert!(inv.contains(&prop));
        assert!(inv.verify_monolithic(m.netlist()));
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn sorcar_proves_and_gate_property_directed() {
        let (_, m, pool, prop) = setup();
        let (out, _) = sorcar(
            m.netlist(),
            &pool,
            std::slice::from_ref(&prop),
            &BaselineBudget::default(),
        );
        let inv = out.invariant().expect("sorcar proves the AND gate");
        assert!(inv.contains(&prop));
        assert!(inv.verify_monolithic(m.netlist()));
    }

    /// SORCAR's fallback: `A' = D` and `D' = D + 1`, with pool
    /// `{Eq(D), EqConst(D, 0)}`. Every counterexample to `Eq(A)` has `D`
    /// unequal, which both pool predicates exclude, so round 1 adds both;
    /// round 2's successor breaks `EqConst(D, 0)` and the pool is empty, so
    /// the fallback drops it and rebuilds the session, on which round 3
    /// proves `{Eq(A), Eq(D)}`.
    #[test]
    fn sorcar_rebuilds_its_session_when_the_fallback_drops_a_predicate() {
        let mut n = Netlist::new("counter");
        let a = n.state("A", 4, Bv::zero(4));
        let d = n.state("D", 4, Bv::zero(4));
        let dn = n.state_node(d);
        let one = n.constant(Bv::new(4, 1));
        let inc = n.add(dn, one);
        n.set_next(a, dn);
        n.set_next(d, inc);
        let m = Miter::build(&n);
        let eq_a = Predicate::eq(m.left(a), m.right(a));
        let eq_d = Predicate::eq(m.left(d), m.right(d));
        let d_is_0 = Predicate::eq_const(m.left(d), m.right(d), Bv::zero(4));
        let (out, stats) = sorcar(
            m.netlist(),
            &[eq_d.clone(), d_is_0],
            std::slice::from_ref(&eq_a),
            &BaselineBudget::default(),
        );
        let inv = out.invariant().expect("sorcar proves Eq(A) after the drop");
        assert_eq!(inv.preds(), Invariant::new(vec![eq_a, eq_d]).preds());
        assert!(inv.verify_monolithic(m.netlist()));
        assert_eq!(stats.rounds, 3);
    }

    #[test]
    fn houdini_rejects_unprovable_property() {
        // obs' = secret, and Eq(secret) is not in the pool (it would be
        // refuted by examples in the real pipeline).
        let mut n = Netlist::new("leak");
        let s = n.state("secret", 4, Bv::zero(4));
        let o = n.state("obs", 4, Bv::zero(4));
        let sn = n.state_node(s);
        n.keep_state(s);
        n.set_next(o, sn);
        let m = Miter::build(&n);
        let ob = n.find_state("obs").unwrap();
        let prop = Predicate::eq(m.left(ob), m.right(ob));
        let (out, _) = houdini(
            m.netlist(),
            &[],
            std::slice::from_ref(&prop),
            &BaselineBudget::default(),
        );
        assert!(matches!(out, BaselineOutcome::NoInvariant));
        let (out2, _) = sorcar(
            m.netlist(),
            &[],
            std::slice::from_ref(&prop),
            &BaselineBudget::default(),
        );
        assert!(matches!(out2, BaselineOutcome::NoInvariant));
    }

    #[test]
    fn zero_time_budget_is_exceeded() {
        let (_, m, pool, prop) = setup();
        let budget = BaselineBudget {
            max_time: Duration::ZERO,
        };
        for learn in [houdini, sorcar] {
            let (out, stats) = learn(m.netlist(), &pool, std::slice::from_ref(&prop), &budget);
            assert!(matches!(out, BaselineOutcome::BudgetExceeded));
            assert_eq!(stats.rounds, 0);
        }
    }
}
