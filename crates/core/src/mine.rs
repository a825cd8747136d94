//! The predicate-mining oracle `O_mine` (Algorithm 2 of the paper), fused
//! with the slicing oracle `O_slice`.
//!
//! Given a target predicate, the miner:
//!
//! 1. slices the product design to the 1-step cone of influence of the
//!    target's state elements (`O_slice`, Contract 1),
//! 2. keeps only variables whose left/right copies are **equal in every
//!    positive example** (`V_Eq`, line 2 of Algorithm 2 — the premise P-S),
//! 3. emits `Eq(v)` for each, `EqConst(v, c)` when the value is constant
//!    across examples, and `InSafeSet(v)` when `v` can hold an instruction
//!    (every safe-set pattern fits its width, [`Pattern::fits`]) and every
//!    example value matches the safe-set encodings,
//! 4. adds expert annotation predicates, **also validated against the
//!    examples** so that wrong annotations cannot break soundness (§5.1.2).
//!
//! The miner reads the examples only as "holds on every example", so it
//! keeps no example: [`ExampleFacts`] folds each one into per-variable facts
//! as it is produced, and each of the thousands of mining calls is a cheap
//! table lookup.

use crate::store::{PredId, PredicateStore};
use hh_netlist::coi::Coi;
use hh_netlist::eval::StateValues;
use hh_netlist::miter::Miter;
use hh_netlist::{Bv, StateId};
use hh_smt::{Pattern, Predicate, SetLabel};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Abstraction over `O_mine ∘ O_slice`: produce the candidate predicates for
/// making `target` 1-step relatively inductive.
pub trait Miner {
    /// Mines candidates for `target`, interning them in `store`.
    fn mine(&mut self, target: &Predicate, store: &mut PredicateStore) -> Vec<PredId>;
}

/// The value both copies of a variable held in the examples folded so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    /// No example yet.
    Unseen,
    /// The same value in every example.
    Const(u64),
    /// Two examples disagree.
    Varies,
}

impl Value {
    /// The common value of two sets of examples.
    fn join(self, other: Value) -> Value {
        match (self, other) {
            (Value::Unseen, v) | (v, Value::Unseen) => v,
            (Value::Const(a), Value::Const(b)) if a == b => self,
            _ => Value::Varies,
        }
    }
}

/// Per-base-variable facts over the positive examples folded so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VarFacts {
    /// Left and right copies equal in every example.
    eq_always: bool,
    /// The common value; `Varies` once the copies differ anywhere.
    value: Value,
    /// Every example value matches one of the safe-set patterns.
    in_set_ok: bool,
}

impl VarFacts {
    /// The facts of a variable some example refutes: nothing is minable.
    const UNEQUAL: VarFacts = VarFacts {
        eq_always: false,
        value: Value::Varies,
        in_set_ok: false,
    };
}

/// What does not depend on the examples: shared by every accumulator of one
/// set of examples.
#[derive(Debug, PartialEq, Eq)]
struct Frame {
    /// Left/right product ids per base state.
    pairs: Vec<(StateId, StateId)>,
    /// Product state widths.
    widths: Vec<u32>,
    /// The `InSafeSet` pattern set (from the proposed safe set), if any.
    safe_patterns: Option<Vec<Pattern>>,
    /// Predicates kept only if every example satisfies them: the expert
    /// annotations, then one `Impl(valid → InSafeUop(field))` per guard.
    checks: Vec<Predicate>,
    /// How many of `checks` are expert annotations.
    experts: usize,
}

/// What the positive examples say: per base variable whether its copies are
/// always equal, its common value and whether every value is in the safe
/// set; per expert annotation and Impl guard whether it held on every
/// example. One example at a time is folded in ([`ExampleFacts::fold`]),
/// and two accumulators over parts of the examples merge into the one over
/// all of them ([`ExampleFacts::merge`]). Both are commutative and
/// idempotent, so the facts depend on the set of examples only: not on
/// their order, their repetitions or how they were split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExampleFacts {
    frame: Arc<Frame>,
    vars: Vec<VarFacts>,
    /// Per check: held on every example.
    held: Vec<bool>,
    /// Whether any example has been folded.
    folded: bool,
}

impl ExampleFacts {
    /// The facts of no example over `miter`'s product states, for the
    /// `InSafeSet` mask/match set `safe_patterns` and the `expert`
    /// annotations (the ones an example refutes are dropped, as Algorithm 2
    /// line 15 requires). Each `(valid, field)` of `guards` (base-design
    /// state ids, typically the design's masking annotations) lets the miner
    /// emit `Impl(valid → InSafeUop(field))` — the Impl-type future-work
    /// extension of the paper's §5.2.1, with which stale-uop residue needs
    /// no example masking — when there are safe-set patterns and every one
    /// fits the field's width (the field can hold an instruction): the rule
    /// by which [`CoiMiner`] offers `InSafeSet`.
    pub fn new(
        miter: &Miter,
        safe_patterns: Option<Vec<Pattern>>,
        expert: Vec<Predicate>,
        guards: &[(StateId, StateId)],
    ) -> ExampleFacts {
        let product = miter.netlist();
        let pairs: Vec<_> = miter.base_state_ids().map(|b| miter.pair(b)).collect();
        let experts = expert.len();
        let mut checks = expert;
        if let Some(ps) = &safe_patterns {
            for &(valid, field) in guards {
                let (l, r) = miter.pair(field);
                if ps.iter().all(|p| p.fits(product.state_width(l))) {
                    let body = Predicate::in_set(l, r, ps.clone(), SetLabel::InSafeUop);
                    let (gl, gr) = miter.pair(valid);
                    checks.push(Predicate::implication(gl, gr, body));
                }
            }
        }
        let var = VarFacts {
            eq_always: true,
            value: Value::Unseen,
            in_set_ok: safe_patterns.is_some(),
        };
        ExampleFacts {
            vars: vec![var; pairs.len()],
            held: vec![true; checks.len()],
            folded: false,
            frame: Arc::new(Frame {
                widths: product
                    .state_ids()
                    .map(|s| product.state_width(s))
                    .collect(),
                pairs,
                safe_patterns,
                checks,
                experts,
            }),
        }
    }

    /// Folds in one example given as a raw product row: the bits of every
    /// product state, in state order.
    pub fn fold(&mut self, row: &[u64]) {
        self.fold_with(|s| row[s.index()]);
    }

    /// Folds in one example given as product state values.
    pub fn fold_state(&mut self, example: &StateValues) {
        self.fold_with(|s| example.get(s).bits());
    }

    /// The fold, row-major: a variable is read no more once an example's
    /// two copies differ (nothing is minable over it then), and safe-set
    /// patterns are matched only while `in_set_ok` can still be true and
    /// the value is new.
    fn fold_with(&mut self, get: impl Fn(StateId) -> u64) {
        self.folded = true;
        let frame = &*self.frame;
        for (f, &(l, r)) in self.vars.iter_mut().zip(&frame.pairs) {
            if !f.eq_always {
                continue;
            }
            let v = get(l);
            if v != get(r) {
                *f = VarFacts::UNEQUAL;
                continue;
            }
            if f.in_set_ok && f.value != Value::Const(v) {
                f.in_set_ok = frame
                    .safe_patterns
                    .as_ref()
                    .is_some_and(|ps| ps.iter().any(|p| p.matches(v)));
            }
            f.value = f.value.join(Value::Const(v));
        }
        for (held, p) in self.held.iter_mut().zip(&frame.checks) {
            *held = *held && p.eval_with(&mut |s| Bv::new(frame.widths[s.index()], get(s)));
        }
    }

    /// Merges in the facts of other examples over the same frame: the
    /// result is the fold of both sets.
    pub fn merge(&mut self, other: &ExampleFacts) {
        debug_assert!(self.frame == other.frame, "facts over different frames");
        self.folded |= other.folded;
        for (f, o) in self.vars.iter_mut().zip(&other.vars) {
            if f.eq_always && o.eq_always {
                f.value = f.value.join(o.value);
                f.in_set_ok &= o.in_set_ok;
            } else {
                *f = VarFacts::UNEQUAL;
            }
        }
        for (held, &o) in self.held.iter_mut().zip(&other.held) {
            *held &= o;
        }
    }
}

/// The Algorithm-2 miner over a miter (product) design.
#[derive(Debug)]
pub struct CoiMiner {
    /// Per-product-state 1-step COI, precomputed.
    pub(crate) coi: Coi,
    /// Map product state -> base index/side (only base needed here).
    origin_base: Vec<StateId>,
    /// The example facts (and the patterns, pairs and widths they are over).
    facts: ExampleFacts,
    /// Expert annotation predicates the examples did not refute.
    expert: Vec<Predicate>,
    /// Expert predicates indexed by the base vars they constrain.
    expert_by_var: HashMap<StateId, Vec<usize>>,
    /// Conditional predicates by the base field they guard, with whether
    /// every example satisfies them.
    impl_guards: HashMap<StateId, (Predicate, bool)>,
}

impl CoiMiner {
    /// Builds the miner over `examples`, *clean* product states (masking
    /// already applied): folds them into [`ExampleFacts::new`]`(miter,
    /// safe_patterns, expert, &[])`, then [`CoiMiner::from_facts`].
    pub fn new(
        miter: &Miter,
        examples: &[StateValues],
        safe_patterns: Option<Vec<Pattern>>,
        expert: Vec<Predicate>,
    ) -> CoiMiner {
        let mut facts = ExampleFacts::new(miter, safe_patterns, expert, &[]);
        for e in examples {
            facts.fold_state(e);
        }
        CoiMiner::from_facts(miter, facts)
    }

    /// Builds the miner from the facts of its positive examples: the COI
    /// table, the surviving expert annotations and the Impl guards.
    ///
    /// # Panics
    ///
    /// Panics if no example was folded into `facts`.
    pub fn from_facts(miter: &Miter, facts: ExampleFacts) -> CoiMiner {
        assert!(facts.folded, "mining requires positive examples");
        let coi = Coi::new(miter.netlist());
        let origin_base: Vec<StateId> = (0..miter.netlist().num_states())
            .map(|i| miter.origin(StateId::from_index(i)).0)
            .collect();
        let frame = &*facts.frame;
        let mut checks = frame.checks.iter().cloned().zip(facts.held.iter().copied());
        let expert: Vec<Predicate> = (checks.by_ref().take(frame.experts))
            .filter_map(|(p, held)| held.then_some(p))
            .collect();
        let mut expert_by_var: HashMap<StateId, Vec<usize>> = HashMap::new();
        for (i, p) in expert.iter().enumerate() {
            let (l, _) = p.states();
            let base = origin_base[l.index()];
            expert_by_var.entry(base).or_default().push(i);
        }
        let impl_guards = checks
            .map(|(p, held)| (origin_base[p.states().0.index()], (p, held)))
            .collect();
        CoiMiner {
            coi,
            origin_base,
            facts,
            expert,
            expert_by_var,
            impl_guards,
        }
    }

    /// `EqConst(v, c)` when the facts of `base` give it a constant.
    fn eq_const(&self, base: usize) -> Option<Predicate> {
        let frame = &*self.facts.frame;
        let Value::Const(c) = self.facts.vars[base].value else {
            return None;
        };
        let (l, r) = frame.pairs[base];
        Some(Predicate::eq_const(
            l,
            r,
            Bv::new(frame.widths[l.index()], c),
        ))
    }

    /// `InSafeSet(v)` when `base` can hold every safe-set pattern and every
    /// example value of it is in the safe set. On a narrower state a pattern
    /// with a value bit above its width would mean one thing to `eval` and
    /// another to the encoder, so no predicate is offered there.
    fn in_safe_set(&self, base: usize) -> Option<Predicate> {
        let frame = &*self.facts.frame;
        let ps = frame.safe_patterns.as_ref()?;
        let (l, r) = frame.pairs[base];
        let width = frame.widths[l.index()];
        (self.facts.vars[base].in_set_ok && ps.iter().all(|p| p.fits(width)))
            .then(|| Predicate::in_set(l, r, ps.clone(), SetLabel::InSafeSet))
    }

    /// Mines the *global* predicate pool: every example-consistent predicate
    /// over every state variable. This is the "kitchen sink" universe the
    /// monolithic HOUDINI/SORCAR baselines consume (paper §2.2.1); H-Houdini
    /// itself never needs it.
    pub fn mine_global(&self, store: &mut PredicateStore) -> Vec<PredId> {
        let mut out = Vec::new();
        for (base, &(l, r)) in self.facts.frame.pairs.iter().enumerate() {
            if !self.facts.vars[base].eq_always {
                continue;
            }
            out.push(store.intern(Predicate::eq(l, r)));
            out.extend(self.eq_const(base).map(|p| store.intern(p)));
            out.extend(self.in_safe_set(base).map(|p| store.intern(p)));
        }
        for p in &self.expert {
            out.push(store.intern(p.clone()));
        }
        out
    }

    /// The base-design variables in the 1-step COI of `target` — `O_slice`.
    fn slice(&self, target: &Predicate) -> BTreeSet<StateId> {
        let states = target.all_states();
        self.coi
            .one_step(&states)
            .into_iter()
            .map(|s| self.origin_base[s.index()])
            .collect()
    }
}

impl Miner for CoiMiner {
    fn mine(&mut self, target: &Predicate, store: &mut PredicateStore) -> Vec<PredId> {
        let mut out = Vec::new();
        let frame = &*self.facts.frame;
        for base in self.slice(target) {
            let f = &self.facts.vars[base.index()];
            // Conditional (Impl-type) predicates do not require the field to
            // be in V_Eq — only the guarded condition must hold on examples.
            if let Some((p, true)) = self.impl_guards.get(&base) {
                if !f.in_set_ok {
                    out.push(store.intern(p.clone()));
                }
            }
            if !f.eq_always {
                continue; // not in V_Eq: refuted by a positive example
            }
            let (l, r) = frame.pairs[base.index()];
            out.push(store.intern(Predicate::eq(l, r)));
            out.extend(self.eq_const(base.index()).map(|p| store.intern(p)));
            out.extend(self.in_safe_set(base.index()).map(|p| store.intern(p)));
            if let Some(idxs) = self.expert_by_var.get(&base) {
                for &i in idxs {
                    out.push(store.intern(self.expert[i].clone()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::Netlist;

    /// b -> a pipeline; c independent.
    fn setup() -> (Netlist, Miter) {
        let mut n = Netlist::new("t");
        let a = n.state("a", 4, Bv::zero(4));
        let b = n.state("b", 4, Bv::zero(4));
        let c = n.state("c", 4, Bv::zero(4));
        let bn = n.state_node(b);
        n.set_next(a, bn);
        n.keep_state(b);
        n.keep_state(c);
        let m = Miter::build(&n);
        (n, m)
    }

    fn example(m: &Miter, vals: &[(&str, u64, u64)], base: &Netlist) -> StateValues {
        let mut s = StateValues::initial(m.netlist());
        for &(name, lv, rv) in vals {
            let b = base.find_state(name).unwrap();
            s.set(m.left(b), Bv::new(4, lv));
            s.set(m.right(b), Bv::new(4, rv));
        }
        s
    }

    #[test]
    fn mines_only_coi_variables() {
        let (base, m) = setup();
        let ex = vec![example(&m, &[("a", 1, 1), ("b", 2, 2), ("c", 3, 3)], &base)];
        let mut miner = CoiMiner::new(&m, &ex, None, vec![]);
        let mut store = PredicateStore::new();
        let a = base.find_state("a").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let cands = miner.mine(&target, &mut store);
        // COI of a is {b}: Eq(b) and EqConst(b,2).
        let preds = store.resolve(&cands);
        assert!(preds.contains(&Predicate::eq(
            m.left(base.find_state("b").unwrap()),
            m.right(base.find_state("b").unwrap())
        )));
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn examples_prune_unequal_variables() {
        let (base, m) = setup();
        // b differs between sides in one example: nothing minable over b.
        let ex = vec![
            example(&m, &[("a", 1, 1), ("b", 2, 2), ("c", 0, 0)], &base),
            example(&m, &[("a", 1, 1), ("b", 2, 5), ("c", 0, 0)], &base),
        ];
        let mut miner = CoiMiner::new(&m, &ex, None, vec![]);
        let mut store = PredicateStore::new();
        let a = base.find_state("a").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let cands = miner.mine(&target, &mut store);
        assert!(cands.is_empty());
    }

    #[test]
    fn eq_const_requires_constant_across_examples() {
        let (base, m) = setup();
        let ex = vec![
            example(&m, &[("b", 2, 2)], &base),
            example(&m, &[("b", 3, 3)], &base),
        ];
        let mut miner = CoiMiner::new(&m, &ex, None, vec![]);
        let mut store = PredicateStore::new();
        let a = base.find_state("a").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let cands = miner.mine(&target, &mut store);
        let preds = store.resolve(&cands);
        assert_eq!(preds.len(), 1); // only Eq(b), no EqConst
        assert!(matches!(preds[0], Predicate::Eq { .. }));
    }

    #[test]
    fn in_set_mined_when_examples_match() {
        let (base, m) = setup();
        let ex = vec![
            example(&m, &[("b", 2, 2)], &base),
            example(&m, &[("b", 3, 3)], &base),
        ];
        let patterns = vec![Pattern::exact(4, 2), Pattern::exact(4, 3)];
        let mut miner = CoiMiner::new(&m, &ex, Some(patterns), vec![]);
        let mut store = PredicateStore::new();
        let a = base.find_state("a").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let cands = miner.mine(&target, &mut store);
        let preds = store.resolve(&cands);
        assert!(preds.iter().any(|p| matches!(p, Predicate::InSet { .. })));
    }

    #[test]
    fn refuted_expert_annotations_are_dropped() {
        let (base, m) = setup();
        let b = base.find_state("b").unwrap();
        let ex = vec![example(&m, &[("b", 2, 2)], &base)];
        // Annotation claiming b == 7: refuted by the example.
        let bad = Predicate::eq_const(m.left(b), m.right(b), Bv::new(4, 7));
        // Annotation claiming b ∈ {2, 7}: consistent.
        let good = Predicate::in_set(
            m.left(b),
            m.right(b),
            vec![Pattern::exact(4, 2), Pattern::exact(4, 7)],
            SetLabel::Expert("demo".into()),
        );
        let mut miner = CoiMiner::new(&m, &ex, None, vec![bad.clone(), good.clone()]);
        let mut store = PredicateStore::new();
        let a = base.find_state("a").unwrap();
        let target = Predicate::eq(m.left(a), m.right(a));
        let mined = miner.mine(&target, &mut store);
        let preds = store.resolve(&mined);
        assert!(!preds.contains(&bad));
        assert!(preds.contains(&good));
    }

    /// `InSafeSet` and the Impl guard follow one rule: a state gets either
    /// only if every safe-set pattern fits its width, whatever its examples.
    #[test]
    fn in_safe_set_only_where_every_pattern_fits() {
        let mut n = Netlist::new("t");
        let v = n.state("v", 1, Bv::zero(1));
        let h = n.state("h", 16, Bv::zero(16));
        let w = n.state("w", 32, Bv::zero(32));
        for s in [v, h, w] {
            n.keep_state(s);
        }
        let m = Miter::build(&n);
        let mut ex = StateValues::initial(m.netlist());
        for (s, width) in [(v, 1), (h, 16), (w, 32)] {
            ex.set(m.left(s), Bv::new(width, 1));
            ex.set(m.right(s), Bv::new(width, 1));
        }
        let low = Pattern {
            mask: 0xff,
            value: 1,
        };
        let wide = Pattern::exact(32, 0x4000_0033);
        let guards = [(v, h), (v, w)];
        for (patterns, offered) in [(vec![low, wide], vec![w]), (vec![low], vec![v, h, w])] {
            let mut facts = ExampleFacts::new(&m, Some(patterns), vec![], &guards);
            facts.fold_state(&ex);
            // Every example value matches: the facts say so on every state.
            assert!(facts.vars.iter().all(|f| f.in_set_ok));
            let mut miner = CoiMiner::from_facts(&m, facts);
            let mut store = PredicateStore::new();
            for s in [v, h, w] {
                let mined = miner.mine(&Predicate::eq(m.left(s), m.right(s)), &mut store);
                let in_set = store
                    .resolve(&mined)
                    .iter()
                    .any(|p| matches!(p, Predicate::InSet { .. }));
                assert_eq!(in_set, offered.contains(&s), "state {s:?}");
            }
            let global = miner.mine_global(&mut store);
            let global = store.resolve(&global);
            let in_sets = global
                .iter()
                .filter(|p| matches!(p, Predicate::InSet { .. }))
                .count();
            assert_eq!(in_sets, offered.len());
            let guarded: Vec<_> = [h, w]
                .into_iter()
                .filter(|f| miner.impl_guards.contains_key(f))
                .collect();
            let expected: Vec<_> = [h, w].into_iter().filter(|f| offered.contains(f)).collect();
            assert_eq!(guarded, expected);
        }
    }

    #[test]
    #[should_panic(expected = "positive examples")]
    fn empty_examples_rejected() {
        let (_, m) = setup();
        CoiMiner::new(&m, &[], None, vec![]);
    }

    /// The column-wise loop the row-major fold replaced (one variable at a
    /// time over all examples, every pattern matched on every example), kept
    /// as its oracle.
    fn var_facts_columnwise(
        pairs: &[(StateId, StateId)],
        examples: &[StateValues],
        safe_patterns: Option<&[Pattern]>,
    ) -> Vec<VarFacts> {
        let mut facts = Vec::new();
        for &(l, r) in pairs {
            let mut eq_always = true;
            let mut const_value = Some(examples[0].get(l));
            let mut in_set_ok = safe_patterns.is_some();
            for e in examples {
                let lv = e.get(l);
                let rv = e.get(r);
                if lv != rv {
                    eq_always = false;
                    break;
                }
                if const_value != Some(lv) {
                    const_value = None;
                }
                if let Some(ps) = safe_patterns {
                    if !ps.iter().any(|p| p.matches(lv.bits())) {
                        in_set_ok = false;
                    }
                }
            }
            facts.push(if eq_always {
                VarFacts {
                    eq_always,
                    value: const_value.map_or(Value::Varies, |v| Value::Const(v.bits())),
                    in_set_ok,
                }
            } else {
                VarFacts::UNEQUAL
            });
        }
        facts
    }

    #[test]
    fn folded_facts_equal_columnwise_and_do_not_depend_on_order_or_split() {
        use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
        use hh_uarch::boomlite::{boom_lite, BoomVariant};
        use veloct::examples::generate_examples_custom;

        let design = boom_lite(BoomVariant::Small, 16);
        let safe: Vec<Mnemonic> = ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| {
                (m.class() == InstrClass::Alu && *m != Mnemonic::Auipc)
                    || m.class() == InstrClass::Mul
            })
            .collect();
        let (miter, patterns) = veloct::Veloct::new(&design).build_miter(&safe);
        let pairs: Vec<_> = miter.base_state_ids().map(|b| miter.pair(b)).collect();
        // Rich, limited and unmasked examples: the last two leave variables
        // that are equal but outside the safe set, and unequal ones.
        for (mask, rds) in [
            (true, &[3u8, 5, 6, 7, 1, 2, 4][..]),
            (true, &[3]),
            (false, &[3]),
        ] {
            let examples =
                generate_examples_custom(&design, &miter, &safe, 1, 7, mask, rds).unwrap();
            for ps in [Some(&patterns[..]), None] {
                let empty = ExampleFacts::new(&miter, ps.map(<[_]>::to_vec), vec![], &[]);
                let mut facts = empty.clone();
                examples.iter().for_each(|e| facts.fold_state(e));
                assert_eq!(facts.vars, var_facts_columnwise(&pairs, &examples, ps));
                assert!(facts.vars.iter().any(|f| f.eq_always));
                assert!(facts.vars.iter().any(|f| !f.eq_always));
                // Backwards, twice over, dealt round-robin to three
                // accumulators and merged: the same facts.
                let mut parts = [empty.clone(), empty.clone(), empty];
                let again = examples.iter().rev().chain(&examples);
                for (i, e) in again.enumerate() {
                    parts[i % 3].fold_state(e);
                }
                let [mut merged, b, c] = parts;
                merged.merge(&c);
                merged.merge(&b);
                assert_eq!(merged, facts);
            }
        }
    }
}
