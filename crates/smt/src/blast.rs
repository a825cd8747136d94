//! Lazy, cone-scoped bit-blasting of a netlist transition step.
//!
//! A [`TransitionEncoding`] unrolls exactly one step of the transition
//! system: current-state bits are free SAT variables, and the next value of a
//! state is the encoding of its next-state expression. Crucially, nodes are
//! encoded *on demand*: a query about `p_target` only pays for the 1-step
//! cone of `p_target`. This is precisely where H-Houdini's incremental
//! queries beat the monolithic MLIS queries (paper §2.2.2/§3): the same
//! machinery can be forced to encode the whole design up front to reproduce
//! the monolithic cost model.

use crate::cache::EncodedCone;
use crate::cnf::{map_bytes, vec_bytes, Cnf, LitRows};
use hh_netlist::simp::{Repr, SimpMap, SimpStats};
use hh_netlist::{Bv, InputId, Netlist, NodeId, NodeOp, StateId};
use hh_sat::Lit;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// One-step transition encoding over an embedded CNF builder.
#[derive(Debug)]
pub struct TransitionEncoding<'a> {
    netlist: &'a Netlist,
    cnf: Cnf,
    /// Word-level simplification (constant folding + strash); every encoding
    /// request resolves through it, so folded nodes cost nothing and
    /// structurally identical cones encode once. Shared (`Arc`) so a learn
    /// builds it once instead of once per session.
    simp: Arc<SimpMap>,
    /// Memo of the nodes encoded so far, one slot per netlist node while it
    /// is in use (empty otherwise). Only a memo: every node is a function of
    /// the state and input variables below, so a node encoded again after
    /// [`TransitionEncoding::without_node_memo`] dropped the table gets
    /// equivalent literals.
    node_lits: Vec<Option<Vec<Lit>>>,
    /// The free variables of the step: the current value of each state
    /// element and each input that some encoded cone reads. Unlike the memo
    /// these are identities — a second set of variables for the same state
    /// or input would be a different state or input — so they are kept for
    /// the encoding's whole life, sparsely: sized by the cones encoded, not
    /// by the netlist.
    state_vars: HashMap<StateId, Vec<Lit>>,
    input_vars: HashMap<InputId, Vec<Lit>>,
}

impl<'a> TransitionEncoding<'a> {
    /// Creates an encoding for `netlist` with all environment assumptions
    /// ([`Netlist::constraints`]) asserted. Nothing else is blasted yet.
    /// The one-shot form: builds a private [`SimpMap`] over the whole
    /// netlist, so a caller that encodes many queries on one netlist should
    /// build the map once and use [`TransitionEncoding::with_simp`].
    pub fn new(netlist: &'a Netlist) -> TransitionEncoding<'a> {
        Self::with_simp(netlist, Arc::new(SimpMap::build(netlist)))
    }

    /// Like [`TransitionEncoding::new`] but over a pre-built simplification
    /// map, which must be `SimpMap::build(netlist)` of this same netlist
    /// (the map is a pure function of it, so the resulting CNF is the one
    /// `new` produces).
    pub fn with_simp(netlist: &'a Netlist, simp: Arc<SimpMap>) -> TransitionEncoding<'a> {
        Self::build(netlist, simp, false)
    }

    /// [`TransitionEncoding::with_simp`] with every clause added from here
    /// on logged, so the base encoding can be harvested into an
    /// `EncodeCache` entry.
    pub(crate) fn recording(netlist: &'a Netlist, simp: Arc<SimpMap>) -> TransitionEncoding<'a> {
        Self::build(netlist, simp, true)
    }

    fn build(netlist: &'a Netlist, simp: Arc<SimpMap>, record: bool) -> TransitionEncoding<'a> {
        let mut enc = TransitionEncoding {
            netlist,
            cnf: Cnf::new(),
            simp,
            node_lits: Vec::new(),
            state_vars: HashMap::new(),
            input_vars: HashMap::new(),
        };
        if record {
            enc.cnf.start_recording();
        }
        for &c in netlist.constraints() {
            let lits = enc.node_lits_of(c);
            enc.assert_lit(lits[0]);
        }
        enc
    }

    /// Rebuilds an encoding from the cached base record of the same
    /// target. The replayed solver state is byte-identical to what a fresh
    /// build would produce (see [`Cnf::restore`]).
    ///
    /// The caller must not re-assert constraints or re-encode the target —
    /// those clauses are part of the replayed record.
    pub(crate) fn from_cache(
        netlist: &'a Netlist,
        simp: Arc<SimpMap>,
        entry: &EncodedCone,
    ) -> TransitionEncoding<'a> {
        let cnf = Cnf::restore(
            entry.n_vars,
            &entry.clauses,
            entry.and_cache.clone(),
            entry.xor_cache.clone(),
        );
        fn table<K: Copy + Eq + Hash>(ids: &[K], rows: &LitRows) -> HashMap<K, Vec<Lit>> {
            debug_assert_eq!(ids.len(), rows.len());
            let rows = rows.iter().map(<[Lit]>::to_vec);
            ids.iter().copied().zip(rows).collect()
        }
        TransitionEncoding {
            netlist,
            cnf,
            simp,
            node_lits: Vec::new(),
            state_vars: table(&entry.states, &entry.state_lits),
            input_vars: table(&entry.inputs, &entry.input_lits),
        }
    }

    /// Harvests the recorded base encoding into a cache entry: the clause
    /// stream, the gate caches and the state and input literals by id, in
    /// ascending id order (so the entry's buffers, and their bytes, do not
    /// depend on a hash map's iteration order).
    pub(crate) fn harvest(&mut self) -> EncodedCone {
        fn split<K: Copy + Ord + Hash>(t: &HashMap<K, Vec<Lit>>) -> (Vec<K>, LitRows) {
            let mut ids: Vec<K> = t.keys().copied().collect();
            ids.sort_unstable();
            let rows = ids.iter().map(|id| t[id].as_slice()).collect();
            (ids, rows)
        }
        let (and_cache, xor_cache) = self.cnf.gate_caches();
        // An entry lives as long as its cache: no growth slack. (The tables
        // only ever grew, and a hash map that only grew has none.)
        let mut clauses = self.cnf.take_recording();
        clauses.shrink_to_fit();
        let (states, state_lits) = split(&self.state_vars);
        let (inputs, input_lits) = split(&self.input_vars);
        EncodedCone {
            n_vars: self.cnf.solver().num_vars(),
            clauses,
            states,
            state_lits,
            inputs,
            input_lits,
            and_cache,
            xor_cache,
        }
    }

    /// The encoding without its node memo, the one table sized by the
    /// netlist rather than by the cones encoded. A session's base build is
    /// its only reader (candidates encode over current-state literals), and
    /// a replayed encoding never has one, so a blasted base encoding
    /// without it holds what the replayed one does.
    pub(crate) fn without_node_memo(mut self) -> TransitionEncoding<'a> {
        self.node_lits = Vec::new();
        self
    }

    /// Heap bytes this encoding holds, computed from capacities (so the
    /// figure repeats exactly run to run): the solver, the gate caches, the
    /// node memo and the state and input variable tables.
    pub fn resident_bytes(&self) -> u64 {
        fn table_bytes<K>(t: &HashMap<K, Vec<Lit>>) -> u64 {
            map_bytes(t) + t.values().map(vec_bytes).sum::<u64>()
        }
        self.cnf.resident_bytes()
            + vec_bytes(&self.node_lits)
            + self.node_lits.iter().flatten().map(vec_bytes).sum::<u64>()
            + table_bytes(&self.state_vars)
            + table_bytes(&self.input_vars)
    }

    /// Word-level simplification counters (constant folds, rewrites,
    /// strash hits) for this encoding's netlist.
    pub fn simp_stats(&self) -> SimpStats {
        self.simp.stats()
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Mutable access to the CNF builder / solver.
    pub fn cnf_mut(&mut self) -> &mut Cnf {
        &mut self.cnf
    }

    /// Immutable access to the CNF builder.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Free variables for the *current* value of a state element.
    pub fn state_lits(&mut self, sid: StateId) -> Vec<Lit> {
        let (netlist, cnf) = (self.netlist, &mut self.cnf);
        self.state_vars
            .entry(sid)
            .or_insert_with(|| cnf.fresh_vec(netlist.state_width(sid)))
            .clone()
    }

    /// Encoding of the *next* value of a state element (bit-blasts the
    /// 1-step cone on first use).
    pub fn next_state_lits(&mut self, sid: StateId) -> Vec<Lit> {
        let next = self.netlist.next_of(sid);
        self.node_lits_of(next)
    }

    /// Encoding of an arbitrary combinational node.
    ///
    /// Every node is resolved through the word-level [`SimpMap`] first:
    /// constant-folded nodes become constant bit vectors without touching
    /// the CNF, and structurally merged nodes alias their representative's
    /// literals, so each distinct cone is blasted at most once.
    pub fn node_lits_of(&mut self, root: NodeId) -> Vec<Lit> {
        if let Some(v) = self.memo(root) {
            return v.clone();
        }
        let leader = match self.simp.repr(root) {
            Repr::Const(c) => {
                let lits = self.cnf.const_bits(c.width(), c.bits());
                self.memoize(root, lits.clone());
                return lits;
            }
            Repr::Node(r) => r,
        };
        if leader != root {
            let lits = self.node_lits_of(leader); // depth 1: a leader is its own repr
            self.memoize(root, lits.clone());
            return lits;
        }
        // Iterative post-order over *representatives* to bound stack depth
        // on deep cones. Constant-valued operands need no traversal.
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if self.memo(id).is_some() {
                continue;
            }
            if !expanded {
                stack.push((id, true));
                for op in self.netlist.operands(id) {
                    if let Repr::Node(r) = self.simp.repr(op) {
                        if self.memo(r).is_none() {
                            stack.push((r, false));
                        }
                    }
                }
                continue;
            }
            let lits = self.encode_one(id);
            self.memoize(id, lits);
        }
        self.memo(root).expect("root encoded by the walk").clone()
    }

    /// The memoised literals of `id`, if it was encoded since the memo was
    /// last dropped.
    fn memo(&self, id: NodeId) -> Option<&Vec<Lit>> {
        self.node_lits.get(id.index())?.as_ref()
    }

    fn memoize(&mut self, id: NodeId, lits: Vec<Lit>) {
        if self.node_lits.is_empty() {
            self.node_lits.resize(self.netlist.num_nodes(), None);
        }
        self.node_lits[id.index()] = Some(lits);
    }

    /// Literals for an operand, resolved through the simplification map:
    /// constants blast to fixed bits, merged nodes read their leader's cache.
    fn operand_lits(&mut self, x: NodeId) -> Vec<Lit> {
        match self.simp.repr(x) {
            Repr::Const(c) => self.cnf.const_bits(c.width(), c.bits()),
            Repr::Node(r) => self.memo(r).expect("operand encoded before parent").clone(),
        }
    }

    /// Encodes a single node whose operands are already encoded.
    fn encode_one(&mut self, id: NodeId) -> Vec<Lit> {
        let node = self.netlist.node(id);
        match node.op {
            NodeOp::Input(i) => {
                let (netlist, cnf) = (self.netlist, &mut self.cnf);
                self.input_vars
                    .entry(i)
                    .or_insert_with(|| cnf.fresh_vec(netlist.input_width(i)))
                    .clone()
            }
            NodeOp::State(s) => self.state_lits(s),
            NodeOp::Const(c) => self.cnf.const_bits(c.width(), c.bits()),
            NodeOp::Not(a) => {
                let av = self.operand_lits(a);
                self.cnf.vnot(&av)
            }
            NodeOp::Neg(a) => {
                let av = self.operand_lits(a);
                self.cnf.vneg(&av)
            }
            NodeOp::RedOr(a) => {
                let av = self.operand_lits(a);
                vec![self.cnf.vredor(&av)]
            }
            NodeOp::RedAnd(a) => {
                let av = self.operand_lits(a);
                vec![self.cnf.vredand(&av)]
            }
            NodeOp::RedXor(a) => {
                let av = self.operand_lits(a);
                vec![self.cnf.vredxor(&av)]
            }
            NodeOp::And(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vand(&av, &bv)
            }
            NodeOp::Or(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vor(&av, &bv)
            }
            NodeOp::Xor(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vxor(&av, &bv)
            }
            NodeOp::Add(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vadd(&av, &bv)
            }
            NodeOp::Sub(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vsub(&av, &bv)
            }
            NodeOp::Mul(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vmul(&av, &bv)
            }
            NodeOp::Eq(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                vec![self.cnf.veq(&av, &bv)]
            }
            NodeOp::Ult(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                vec![self.cnf.vult(&av, &bv)]
            }
            NodeOp::Slt(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                vec![self.cnf.vslt(&av, &bv)]
            }
            NodeOp::Shl(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vshl(&av, &bv)
            }
            NodeOp::Lshr(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vlshr(&av, &bv)
            }
            NodeOp::Ashr(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vashr(&av, &bv)
            }
            NodeOp::Ite(c, t, e) => {
                let cv = self.operand_lits(c);
                let (tv, ev) = (self.operand_lits(t), self.operand_lits(e));
                self.cnf.vite(cv[0], &tv, &ev)
            }
            NodeOp::Concat(a, b) => {
                let (av, bv) = (self.operand_lits(a), self.operand_lits(b));
                self.cnf.vconcat(&av, &bv)
            }
            NodeOp::Slice(a, hi, lo) => {
                let av = self.operand_lits(a);
                self.cnf.vslice(&av, hi, lo)
            }
            NodeOp::Uext(a) => {
                let av = self.operand_lits(a);
                self.cnf.vuext(&av, node.width)
            }
            NodeOp::Sext(a) => {
                let av = self.operand_lits(a);
                self.cnf.vsext(&av, node.width)
            }
        }
    }

    /// Asserts a literal as a hard unit clause.
    pub fn assert_lit(&mut self, l: Lit) {
        self.cnf.clause(&[l]);
    }

    /// Pins a state element's current value with unit clauses.
    pub fn fix_state(&mut self, sid: StateId, value: Bv) {
        let lits = self.state_lits(sid);
        assert_eq!(lits.len() as u32, value.width(), "fix_state width mismatch");
        for (i, &l) in lits.iter().enumerate() {
            let unit = if value.get_bit(i as u32) { l } else { !l };
            self.cnf.clause(&[unit]);
        }
    }

    /// Reads a state's *current* value out of the most recent model.
    ///
    /// Returns `None` for states never encoded by any query (the model does
    /// not constrain them).
    ///
    /// # Panics
    ///
    /// Panics if the last solve was not SAT.
    pub fn decode_state(&self, sid: StateId) -> Option<Bv> {
        let lits = self.state_vars.get(&sid)?;
        let mut bits = 0u64;
        for (i, &l) in lits.iter().enumerate() {
            if self.cnf.solver().model_value(l) {
                bits |= 1 << i;
            }
        }
        Some(Bv::new(lits.len() as u32, bits))
    }

    /// Approximate CNF size telemetry: `(variables, clauses)`.
    pub fn size(&self) -> (usize, usize) {
        (
            self.cnf.solver().num_vars(),
            self.cnf.solver().num_clauses(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::eval::{step, InputValues, StateValues};
    use hh_sat::SolveResult;

    /// A small design exercising most operators: two registers updated from
    /// inputs through arithmetic.
    fn design() -> Netlist {
        let mut n = Netlist::new("t");
        let r1 = n.state("r1", 8, Bv::new(8, 3));
        let r2 = n.state("r2", 8, Bv::new(8, 7));
        let a = n.input("a", 8);
        let r1n = n.state_node(r1);
        let r2n = n.state_node(r2);
        let sum = n.add(r1n, a);
        let prod = n.mul(r1n, r2n);
        let cond = n.ult(r1n, r2n);
        let next1 = n.ite(cond, sum, prod);
        n.set_next(r1, next1);
        let two = n.c(8, 2);
        let sh = n.shl(r2n, two);
        n.set_next(r2, sh);
        n
    }

    /// The SAT encoding of one step must agree with the concrete evaluator:
    /// pin current state + inputs, solve, compare the decoded next values.
    #[test]
    fn encoding_matches_evaluator() {
        let n = design();
        let r1 = n.find_state("r1").unwrap();
        let r2 = n.find_state("r2").unwrap();
        for (r1v, r2v, av) in [(3u64, 7u64, 1u64), (200, 100, 255), (0, 0, 0), (9, 9, 13)] {
            let mut enc = TransitionEncoding::new(&n);
            enc.fix_state(r1, Bv::new(8, r1v));
            enc.fix_state(r2, Bv::new(8, r2v));
            let n1 = enc.next_state_lits(r1);
            let n2 = enc.next_state_lits(r2);
            // Pin input via assumptions on its encoded variables.
            let input_lits = {
                let inp = n.find_input("a").unwrap();
                enc.node_lits_of(inp)
            };
            let mut assumptions = Vec::new();
            for (i, &l) in input_lits.iter().enumerate() {
                assumptions.push(if (av >> i) & 1 == 1 { l } else { !l });
            }
            assert_eq!(
                enc.cnf_mut()
                    .solver_mut()
                    .solve_with_assumptions(&assumptions),
                SolveResult::Sat
            );

            // Concrete reference.
            let mut sv = StateValues::initial(&n);
            sv.set(r1, Bv::new(8, r1v));
            sv.set(r2, Bv::new(8, r2v));
            let mut iv = InputValues::zeros(&n);
            iv.set_by_name(&n, "a", Bv::new(8, av));
            let next = step(&n, &sv, &iv);

            let read = |lits: &[Lit], enc: &TransitionEncoding| -> u64 {
                let mut bits = 0;
                for (i, &l) in lits.iter().enumerate() {
                    if enc.cnf().solver().model_value(l) {
                        bits |= 1 << i;
                    }
                }
                bits
            };
            assert_eq!(read(&n1, &enc), next.get(r1).bits(), "r1 mismatch");
            assert_eq!(read(&n2, &enc), next.get(r2).bits(), "r2 mismatch");
        }
    }

    #[test]
    fn word_level_simplification_shares_and_folds() {
        let mut n = Netlist::new("s");
        let r1 = n.state("r1", 8, Bv::zero(8));
        let r2 = n.state("r2", 8, Bv::zero(8));
        let a = n.state_node(r1);
        let b = n.state_node(r2);
        let m1 = n.mul(a, b);
        // Route through an add-zero identity so the builder's hash-consing
        // cannot pre-share the second multiplier; only strash can.
        let zero = n.c(8, 0);
        let a2 = n.add(a, zero);
        let m2 = n.mul(a2, b);
        n.set_next(r1, m1);
        n.set_next(r2, m2);
        // A fully constant cone, to check folding produces no variables.
        let c3 = n.c(8, 3);
        let c4 = n.c(8, 4);
        let csum = n.add(c3, c4);

        let mut enc = TransitionEncoding::new(&n);
        let n1 = enc.next_state_lits(r1);
        let vars_after_first = enc.size().0;
        let n2 = enc.next_state_lits(r2);
        assert_eq!(n1, n2, "strash should alias the duplicate multiplier");
        assert_eq!(
            enc.size().0,
            vars_after_first,
            "aliased cone must not blast new variables"
        );
        let _ = enc.node_lits_of(csum);
        assert_eq!(
            enc.size().0,
            vars_after_first,
            "constant cone must not blast new variables"
        );
        let stats = enc.simp_stats();
        assert!(stats.strash_hits >= 1, "expected a strash hit: {stats:?}");
        assert!(stats.const_folds >= 1, "expected a const fold: {stats:?}");
    }

    #[test]
    fn decode_state_roundtrip() {
        let n = design();
        let r1 = n.find_state("r1").unwrap();
        let mut enc = TransitionEncoding::new(&n);
        enc.fix_state(r1, Bv::new(8, 0x5a));
        assert_eq!(enc.cnf_mut().solver_mut().solve(), SolveResult::Sat);
        assert_eq!(enc.decode_state(r1), Some(Bv::new(8, 0x5a)));
        let r2 = n.find_state("r2").unwrap();
        assert_eq!(enc.decode_state(r2), None); // never encoded
    }
}
