//! A [`MonolithicSession`] that grows answers every check as a fresh
//! one-shot [`monolithic_induction_check`] of the same set does. The sets
//! are the ones SORCAR's growth rule yields on RocketLite: start from the
//! property `Eq(o)` of each observable and add every pool predicate that
//! excludes the counterexample's pre-state, until a check is inductive or
//! nothing in the pool helps. The pool is `Eq(s)` of every state but the
//! register file, whose copies differ on positive examples.

use hh_netlist::miter::Miter;
use hh_smt::{monolithic_induction_check, MonolithicOutcome, MonolithicSession, Predicate};
use hh_uarch::rocketlite::rocket_lite;

#[test]
fn a_growing_session_answers_as_fresh_queries_do() {
    let design = rocket_lite(16);
    let m = Miter::build(&design.netlist);
    let netlist = m.netlist();
    let eq = |s| Predicate::eq(m.left(s), m.right(s));
    let mut set: Vec<Predicate> = design.observable.iter().map(|&o| eq(o)).collect();
    let mut remaining: Vec<Predicate> = (design.netlist.state_ids())
        .filter(|s| !design.secret_regs.contains(s))
        .map(eq)
        .filter(|p| !set.contains(p))
        .collect();

    let mut session = MonolithicSession::new(netlist);
    session.assert(&set);
    session.track(&remaining);
    let mut cexes = 0;
    loop {
        let outcome = session.check();
        let fresh = monolithic_induction_check(netlist, &set);
        assert_eq!(
            matches!(outcome, MonolithicOutcome::Inductive),
            matches!(fresh, MonolithicOutcome::Inductive),
            "{} predicates, after {cexes} counterexamples",
            set.len()
        );
        let MonolithicOutcome::Cex(cex) = outcome else {
            break;
        };
        cexes += 1;
        assert!(
            set.iter().all(|p| cex.pred_holds_before(netlist, p)),
            "the pre-state satisfies every asserted predicate"
        );
        assert!(
            set.iter().any(|p| !cex.pred_holds_after(netlist, p)),
            "the post-state violates an asserted predicate"
        );
        let (helpful, rest): (Vec<Predicate>, Vec<Predicate>) = remaining
            .into_iter()
            .partition(|p| !cex.pred_holds_before(netlist, p));
        remaining = rest;
        if helpful.is_empty() {
            break;
        }
        session.assert(&helpful);
        set.extend(helpful);
    }
    assert!(cexes >= 2, "the sequence grows at least twice: {cexes}");
}
