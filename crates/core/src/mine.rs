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
//!    across examples, and `InSafeSet(v)` when every example value matches
//!    the safe-set encodings,
//! 4. adds expert annotation predicates, **also validated against the
//!    examples** so that wrong annotations cannot break soundness (§5.1.2).
//!
//! Per-variable facts are precomputed once over the example set, so each of
//! the thousands of mining calls is a cheap table lookup.

use crate::store::{PredId, PredicateStore};
use hh_netlist::coi::Coi;
use hh_netlist::eval::StateValues;
use hh_netlist::miter::Miter;
use hh_netlist::{Bv, StateId};
use hh_smt::{Pattern, Predicate, SetLabel};
use std::collections::{BTreeSet, HashMap};

/// Abstraction over `O_mine ∘ O_slice`: produce the candidate predicates for
/// making `target` 1-step relatively inductive.
pub trait Miner {
    /// Mines candidates for `target`, interning them in `store`.
    fn mine(&mut self, target: &Predicate, store: &mut PredicateStore) -> Vec<PredId>;
}

/// Per-base-variable facts precomputed over the positive examples.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VarFacts {
    /// Left and right copies equal in every example.
    eq_always: bool,
    /// The common constant value, if the variable is constant across all
    /// examples (and equal on both sides).
    const_value: Option<Bv>,
    /// Every example value matches one of the safe-set patterns.
    in_set_ok: bool,
    /// The distinct observed values, when few enough to form an
    /// `EqConstSet` (auto-mining extension; the paper's implementation adds
    /// these only as expert annotations, §6.2).
    value_set: Option<Vec<Bv>>,
}

/// The Algorithm-2 miner over a miter (product) design.
#[derive(Debug)]
pub struct CoiMiner {
    /// Per-product-state 1-step COI, precomputed.
    pub(crate) coi: Coi,
    /// Map product state -> base index/side (only base needed here).
    origin_base: Vec<StateId>,
    /// Left/right product ids per base state.
    pairs: Vec<(StateId, StateId)>,
    facts: Vec<VarFacts>,
    /// The `InSafeSet` pattern set (from the proposed safe set), if any.
    safe_patterns: Option<Vec<Pattern>>,
    /// Expert annotation predicates, already validated against examples.
    expert: Vec<Predicate>,
    /// Expert predicates indexed by the base vars they constrain.
    expert_by_var: HashMap<StateId, Vec<usize>>,
    /// Conditional-predicate guards: base field -> (base valid bit, fact ok).
    impl_guards: HashMap<StateId, (StateId, bool)>,
    /// Auto-mine `EqConstSet` predicates from observed value sets — an
    /// automation extension: the paper's implementation only adds these via
    /// expert annotations (§6.2) and flags auto-mining as future work.
    /// Off by default for fidelity; can increase backtracking when example
    /// coverage is thin (narrow value sets overfit).
    pub mine_value_sets: bool,
}

impl CoiMiner {
    /// Builds the miner: precomputes COI tables and per-variable example
    /// facts.
    ///
    /// `examples` are *clean* product states (masking already applied);
    /// `safe_patterns` the `InSafeSet` mask/match set; `expert` optional
    /// annotation predicates (checked against the examples here — ones the
    /// examples refute are dropped, as Algorithm 2 line 15 requires).
    pub fn new(
        miter: &Miter,
        examples: &[StateValues],
        safe_patterns: Option<Vec<Pattern>>,
        expert: Vec<Predicate>,
    ) -> CoiMiner {
        CoiMiner::new_with_guards(miter, examples, safe_patterns, expert, &[])
    }

    /// [`CoiMiner::new`] extended with conditional-predicate guards — the
    /// Impl-type future-work extension of the paper's §5.2.1. Each `(valid,
    /// field)` pair (base-design state ids, typically straight from the
    /// design's masking annotations) lets the miner emit
    /// `Impl(valid → InSafeSet(field))`, constraining the field only while
    /// its entry is valid. With these predicates, stale-uop residue no
    /// longer needs example masking at all.
    pub fn new_with_guards(
        miter: &Miter,
        examples: &[StateValues],
        safe_patterns: Option<Vec<Pattern>>,
        expert: Vec<Predicate>,
        guards: &[(StateId, StateId)],
    ) -> CoiMiner {
        assert!(!examples.is_empty(), "mining requires positive examples");
        let coi = Coi::new(miter.netlist());
        let nbase = miter.num_base_states();
        let mut pairs = Vec::with_capacity(nbase);
        for b in miter.base_state_ids() {
            pairs.push(miter.pair(b));
        }
        let origin_base: Vec<StateId> = (0..miter.netlist().num_states())
            .map(|i| miter.origin(StateId::from_index(i)).0)
            .collect();

        let facts = var_facts(&pairs, examples, safe_patterns.as_deref());

        // Validate expert annotations against every example (line 15).
        let expert: Vec<Predicate> = expert
            .into_iter()
            .filter(|p| examples.iter().all(|e| p.eval(e)))
            .collect();
        let mut expert_by_var: HashMap<StateId, Vec<usize>> = HashMap::new();
        for (i, p) in expert.iter().enumerate() {
            let (l, _) = p.states();
            let base = origin_base[l.index()];
            expert_by_var.entry(base).or_default().push(i);
        }

        // Conditional facts: Impl(valid -> field in safe set) must hold on
        // every example, with fields only required to be equal/safe while
        // their valid bit is set (and 32 bits wide, i.e. uop-shaped).
        let mut impl_guards = HashMap::new();
        if let Some(ps) = &safe_patterns {
            for &(valid, field) in guards {
                if miter.netlist().state_width(miter.left(field)) != 32 {
                    continue;
                }
                let (gvl, gvr) = (miter.left(valid), miter.right(valid));
                let (fl, fr) = (miter.left(field), miter.right(field));
                let ok = examples.iter().all(|e| {
                    let gl = e.get(gvl);
                    gl == e.get(gvr)
                        && (!gl.is_nonzero()
                            || (e.get(fl) == e.get(fr)
                                && ps.iter().any(|p| p.matches(e.get(fl).bits()))))
                });
                impl_guards.insert(field, (valid, ok));
            }
        }

        CoiMiner {
            coi,
            origin_base,
            pairs,
            facts,
            safe_patterns,
            expert,
            expert_by_var,
            impl_guards,
            mine_value_sets: false,
        }
    }

    /// Mines the *global* predicate pool: every example-consistent predicate
    /// over every state variable. This is the "kitchen sink" universe the
    /// monolithic HOUDINI/SORCAR baselines consume (paper §2.2.1); H-Houdini
    /// itself never needs it.
    pub fn mine_global(&self, store: &mut PredicateStore) -> Vec<PredId> {
        let mut out = Vec::new();
        for base_idx in 0..self.facts.len() {
            let f = &self.facts[base_idx];
            if !f.eq_always {
                continue;
            }
            let (l, r) = self.pairs[base_idx];
            out.push(store.intern(Predicate::eq(l, r)));
            if let Some(c) = f.const_value {
                out.push(store.intern(Predicate::eq_const(l, r, c)));
            }
            if f.in_set_ok {
                if let Some(ps) = &self.safe_patterns {
                    out.push(store.intern(Predicate::in_set(
                        l,
                        r,
                        ps.clone(),
                        SetLabel::InSafeSet,
                    )));
                }
            }
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

/// Computes every base variable's [`VarFacts`] in one row-major pass: each
/// example is read once, front to back, and a variable drops out of the
/// pass at the first example whose two copies differ (nothing is minable
/// over it then). Safe-set patterns are matched only while `in_set_ok` can
/// still be true.
fn var_facts(
    pairs: &[(StateId, StateId)],
    examples: &[StateValues],
    safe_patterns: Option<&[Pattern]>,
) -> Vec<VarFacts> {
    const MAX_VALUE_SET: usize = 8;
    let mut facts: Vec<VarFacts> = pairs
        .iter()
        .map(|&(l, _)| VarFacts {
            eq_always: true,
            const_value: Some(examples[0].get(l)),
            in_set_ok: safe_patterns.is_some(),
            value_set: Some(Vec::new()),
        })
        .collect();
    // Base variables still equal on both sides in every example so far.
    let mut live: Vec<usize> = (0..pairs.len()).collect();
    for e in examples {
        live.retain(|&b| {
            let (l, r) = pairs[b];
            let lv = e.get(l);
            let f = &mut facts[b];
            if lv != e.get(r) {
                *f = VarFacts {
                    eq_always: false,
                    const_value: None,
                    in_set_ok: false,
                    value_set: None,
                };
                return false;
            }
            if f.const_value != Some(lv) {
                f.const_value = None;
            }
            if f.in_set_ok {
                f.in_set_ok =
                    safe_patterns.is_some_and(|ps| ps.iter().any(|p| p.matches(lv.bits())));
            }
            if let Some(vs) = &mut f.value_set {
                if !vs.contains(&lv) {
                    if vs.len() >= MAX_VALUE_SET {
                        f.value_set = None;
                    } else {
                        vs.push(lv);
                    }
                }
            }
            true
        });
    }
    facts
}

impl Miner for CoiMiner {
    fn mine(&mut self, target: &Predicate, store: &mut PredicateStore) -> Vec<PredId> {
        let mut out = Vec::new();
        for base in self.slice(target) {
            let f = &self.facts[base.index()];
            // Conditional (Impl-type) predicates do not require the field to
            // be in V_Eq — only the guarded condition must hold on examples.
            if let Some(&(valid, ok)) = self.impl_guards.get(&base) {
                if ok && !f.in_set_ok {
                    if let Some(ps) = &self.safe_patterns {
                        let (l, r) = self.pairs[base.index()];
                        let body = Predicate::in_set(l, r, ps.clone(), SetLabel::InSafeUop);
                        let (gl, gr) = self.pairs[valid.index()];
                        out.push(store.intern(Predicate::implication(gl, gr, body)));
                    }
                }
            }
            if !f.eq_always {
                continue; // not in V_Eq: refuted by a positive example
            }
            let (l, r) = self.pairs[base.index()];
            out.push(store.intern(Predicate::eq(l, r)));
            if let Some(c) = f.const_value {
                out.push(store.intern(Predicate::eq_const(l, r, c)));
            }
            if f.in_set_ok {
                if let Some(ps) = &self.safe_patterns {
                    out.push(store.intern(Predicate::in_set(
                        l,
                        r,
                        ps.clone(),
                        SetLabel::InSafeSet,
                    )));
                }
            }
            if self.mine_value_sets && f.const_value.is_none() {
                if let Some(vs) = &f.value_set {
                    if vs.len() >= 2 {
                        let w = vs[0].width();
                        let patterns: Vec<Pattern> =
                            vs.iter().map(|v| Pattern::exact(w, v.bits())).collect();
                        out.push(store.intern(Predicate::in_set(
                            l,
                            r,
                            patterns,
                            SetLabel::EqConstSet,
                        )));
                    }
                }
            }
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

    #[test]
    #[should_panic(expected = "positive examples")]
    fn empty_examples_rejected() {
        let (_, m) = setup();
        CoiMiner::new(&m, &[], None, vec![]);
    }

    /// The column-wise loop [`var_facts`] replaced (one variable at a time
    /// over all examples, every pattern matched on every example), kept as
    /// its oracle.
    fn var_facts_columnwise(
        pairs: &[(StateId, StateId)],
        examples: &[StateValues],
        safe_patterns: Option<&[Pattern]>,
    ) -> Vec<VarFacts> {
        const MAX_VALUE_SET: usize = 8;
        let mut facts = Vec::new();
        for &(l, r) in pairs {
            let mut eq_always = true;
            let mut const_value = Some(examples[0].get(l));
            let mut in_set_ok = safe_patterns.is_some();
            let mut value_set: Option<Vec<Bv>> = Some(Vec::new());
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
                if let Some(vs) = &mut value_set {
                    if !vs.contains(&lv) {
                        if vs.len() >= MAX_VALUE_SET {
                            value_set = None;
                        } else {
                            vs.push(lv);
                        }
                    }
                }
            }
            if !eq_always {
                const_value = None;
                in_set_ok = false;
                value_set = None;
            }
            facts.push(VarFacts {
                eq_always,
                const_value,
                in_set_ok,
                value_set,
            });
        }
        facts
    }

    #[test]
    fn row_major_facts_equal_columnwise_on_smallboomlite() {
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
                let facts = var_facts(&pairs, &examples, ps);
                assert_eq!(facts, var_facts_columnwise(&pairs, &examples, ps));
                assert!(facts.iter().any(|f| f.eq_always));
                assert!(facts.iter().any(|f| !f.eq_always));
            }
        }
    }
}
