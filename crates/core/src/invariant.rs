//! Learned invariants and their independent validation.

use hh_netlist::eval::StateValues;
use hh_netlist::Netlist;
use hh_smt::{monolithic_induction_check, MonolithicOutcome, Predicate};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Every key reachable from `roots` through a solution table — the roots,
/// their premises, the premises' premises — or `None` when the walk reaches
/// a key the table has no entry for. This is how a memo table composes into
/// an invariant (`H = ⋀ H_i`): the engines run it over their predicate ids
/// at the end of a learn, [`Invariant::from_closed_table`] over predicates.
pub(crate) fn closure<K, I>(
    roots: impl IntoIterator<Item = K>,
    premises: impl Fn(K) -> Option<I>,
) -> Option<HashSet<K>>
where
    K: Copy + Eq + Hash,
    I: IntoIterator<Item = K>,
{
    let mut seen = HashSet::new();
    let mut work: Vec<K> = roots.into_iter().collect();
    while let Some(p) = work.pop() {
        if seen.insert(p) {
            work.extend(premises(p)?);
        }
    }
    Some(seen)
}

/// An inductive invariant: a conjunction of relational predicates, including
/// the property predicates themselves.
#[derive(Debug, Clone)]
pub struct Invariant {
    preds: Vec<Predicate>,
}

impl Invariant {
    /// Wraps a predicate set (deduplicated).
    pub fn new(mut preds: Vec<Predicate>) -> Invariant {
        preds.sort();
        preds.dedup();
        Invariant { preds }
    }

    /// The invariant a solution table already holds, if the table is
    /// **closed**: one entry per target, an entry for every property and
    /// for every premise of every entry. An engine seeded with such a table
    /// issues no task — each predicate it schedules is a memo hit — and
    /// assembles exactly this invariant, so a caller that holds the table
    /// need not run one. `None` for any other table (an entry invalidated,
    /// flushed or lost; a target listed twice): those need the engine.
    pub fn from_closed_table(
        properties: &[Predicate],
        table: &[(Predicate, Vec<Predicate>)],
    ) -> Option<Invariant> {
        let mut entries: HashMap<&Predicate, &[Predicate]> = HashMap::with_capacity(table.len());
        for (target, premises) in table {
            if entries.insert(target, premises).is_some() {
                return None;
            }
        }
        // The engine schedules the premises of *every* seeded entry, not
        // only those the properties reach.
        if !table
            .iter()
            .flat_map(|(_, premises)| premises)
            .all(|q| entries.contains_key(q))
        {
            return None;
        }
        let reached = closure(properties, |p| entries.get(p).copied())?;
        Some(Invariant::new(reached.into_iter().cloned().collect()))
    }

    /// The predicates (sorted, deduplicated).
    pub fn preds(&self) -> &[Predicate] {
        &self.preds
    }

    /// Number of predicates — the paper's Table 1 "invariant size" metric.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the invariant is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Whether a predicate is part of the invariant.
    pub fn contains(&self, p: &Predicate) -> bool {
        self.preds.binary_search(p).is_ok()
    }

    /// Evaluates the whole conjunction on a concrete product state.
    pub fn holds_on(&self, state: &StateValues) -> bool {
        self.preds.iter().all(|p| p.eval(state))
    }

    /// Independently verifies inductivity with a single *monolithic* SMT
    /// query over the full design — the check H-Houdini never needs during
    /// learning, used here as an after-the-fact validation exactly like the
    /// paper's §6.4 ("we also monolithically verified the correctness of the
    /// Rocketchip invariant").
    pub fn verify_monolithic(&self, netlist: &Netlist) -> bool {
        if self.preds.is_empty() {
            return true;
        }
        matches!(
            monolithic_induction_check(netlist, &self.preds),
            MonolithicOutcome::Inductive
        )
    }

    /// Human-readable listing.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let mut lines: Vec<String> = self.preds.iter().map(|p| p.describe(netlist)).collect();
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::miter::Miter;
    use hh_netlist::{Bv, Netlist};

    fn holder() -> (Netlist, Miter) {
        let mut n = Netlist::new("t");
        let r = n.state("r", 4, Bv::zero(4));
        n.keep_state(r);
        let m = Miter::build(&n);
        (n, m)
    }

    #[test]
    fn dedup_and_lookup() {
        let (base, m) = holder();
        let r = base.find_state("r").unwrap();
        let p = Predicate::eq(m.left(r), m.right(r));
        let inv = Invariant::new(vec![p.clone(), p.clone()]);
        assert_eq!(inv.len(), 1);
        assert!(inv.contains(&p));
        assert!(!inv.is_empty());
    }

    #[test]
    fn closed_tables_compose_and_open_ones_do_not() {
        let mut n = Netlist::new("t");
        let regs: Vec<_> = (0..4)
            .map(|i| n.state(format!("r{i}"), 4, Bv::zero(4)))
            .collect();
        for &r in &regs {
            n.keep_state(r);
        }
        let m = Miter::build(&n);
        let eq = |i: usize| Predicate::eq(m.left(regs[i]), m.right(regs[i]));
        // 0 ⊢ {1, 2}, 1 ⊢ {2}, 2 ⊢ {}; 3 ⊢ {3} is an entry no property reaches.
        let table = vec![
            (eq(0), vec![eq(1), eq(2)]),
            (eq(1), vec![eq(2)]),
            (eq(2), vec![]),
            (eq(3), vec![eq(3)]),
        ];
        let inv = Invariant::from_closed_table(&[eq(0)], &table).expect("closed");
        assert_eq!(
            inv.preds(),
            Invariant::new(vec![eq(0), eq(1), eq(2)]).preds()
        );
        let both = Invariant::from_closed_table(&[eq(1), eq(3)], &table).expect("closed");
        assert_eq!(both.len(), 3);

        // A property without an entry, a premise without one (reached from
        // the property or not), and a target listed twice all need an engine.
        assert!(Invariant::from_closed_table(&[eq(0)], &table[1..]).is_none());
        assert!(Invariant::from_closed_table(&[eq(0)], &table[..2]).is_none());
        let mut dangling = table.clone();
        dangling[3].1 = vec![Predicate::eq_const(
            m.left(regs[3]),
            m.right(regs[3]),
            Bv::zero(4),
        )];
        assert!(Invariant::from_closed_table(&[eq(0)], &dangling).is_none());
        let mut twice = table.clone();
        twice.push((eq(2), vec![]));
        assert!(Invariant::from_closed_table(&[eq(0)], &twice).is_none());
        assert!(Invariant::from_closed_table(&[eq(0)], &[]).is_none());
    }

    #[test]
    fn monolithic_verification_of_trivial_invariant() {
        let (base, m) = holder();
        let r = base.find_state("r").unwrap();
        let inv = Invariant::new(vec![Predicate::eq(m.left(r), m.right(r))]);
        assert!(inv.verify_monolithic(m.netlist()));
    }

    #[test]
    fn non_inductive_invariant_rejected() {
        // r' = input: Eq(r) is not inductive when inputs are free... but the
        // miter shares inputs, so Eq(r) IS inductive. Use EqConst instead,
        // which the shared input can break.
        let mut n = Netlist::new("t");
        let r = n.state("r", 4, Bv::zero(4));
        let i = n.input("i", 4);
        n.set_next(r, i);
        let m = Miter::build(&n);
        let inv = Invariant::new(vec![Predicate::eq_const(
            m.left(r),
            m.right(r),
            Bv::zero(4),
        )]);
        assert!(!inv.verify_monolithic(m.netlist()));
    }

    #[test]
    fn holds_on_concrete_state() {
        let (base, m) = holder();
        let r = base.find_state("r").unwrap();
        let inv = Invariant::new(vec![Predicate::eq(m.left(r), m.right(r))]);
        let mut s = StateValues::initial(m.netlist());
        assert!(inv.holds_on(&s));
        s.set(m.left(r), Bv::new(4, 3));
        assert!(!inv.holds_on(&s));
    }
}
