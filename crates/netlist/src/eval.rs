//! Concrete evaluation of a netlist: combinational evaluation and the 1-cycle
//! transition function `T`.
//!
//! Nodes are created operands-first, so the node vector is a topological
//! order and a single forward pass evaluates the whole design — no recursion,
//! no allocation beyond the value vectors.

use crate::bv::Bv;
use crate::netlist::{Netlist, NodeId, NodeOp, StateId};

/// A total assignment of values to the state elements of a netlist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateValues(Vec<Bv>);

impl StateValues {
    /// The initial state `s0` of the netlist.
    pub fn initial(netlist: &Netlist) -> StateValues {
        StateValues(netlist.state_ids().map(|s| netlist.init_of(s)).collect())
    }

    /// Builds from a raw vector (one value per state, in state order).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the state count (checked
    /// by the evaluator when used).
    pub fn from_vec(values: Vec<Bv>) -> StateValues {
        StateValues(values)
    }

    /// Value of a state element.
    pub fn get(&self, sid: StateId) -> Bv {
        self.0[sid.index()]
    }

    /// Overwrites the value of a state element.
    ///
    /// # Panics
    ///
    /// Panics if the width of `value` differs from the stored value's width.
    pub fn set(&mut self, sid: StateId, value: Bv) {
        assert_eq!(
            self.0[sid.index()].width(),
            value.width(),
            "state value width mismatch"
        );
        self.0[sid.index()] = value;
    }

    /// Number of state elements covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the assignment covers no states.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(StateId, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, Bv)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &v)| (StateId::from_index(i), v))
    }
}

/// A total assignment of values to the primary inputs for one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputValues(Vec<Bv>);

impl InputValues {
    /// All-zero inputs of the right widths.
    pub fn zeros(netlist: &Netlist) -> InputValues {
        InputValues(
            netlist
                .input_ids()
                .map(|i| Bv::zero(netlist.input_width(i)))
                .collect(),
        )
    }

    /// Sets an input by name.
    ///
    /// # Panics
    ///
    /// Panics if the input does not exist or widths mismatch.
    pub fn set_by_name(&mut self, netlist: &Netlist, name: &str, value: Bv) {
        let idx = netlist
            .input_ids()
            .position(|i| netlist.input_name(i) == name)
            .unwrap_or_else(|| panic!("no input named {name}"));
        assert_eq!(self.0[idx].width(), value.width(), "input width mismatch");
        self.0[idx] = value;
    }

    /// Value of input `i`.
    pub fn get(&self, i: usize) -> Bv {
        self.0[i]
    }
}

/// Evaluates every node of `netlist` under the given state and input values.
///
/// The result is indexed by [`NodeId::index`].
///
/// # Panics
///
/// Panics if the value vectors do not match the netlist's state/input counts.
pub fn eval_all(netlist: &Netlist, states: &StateValues, inputs: &InputValues) -> Vec<Bv> {
    assert_eq!(states.len(), netlist.num_states(), "state count mismatch");
    let mut values: Vec<Bv> = Vec::with_capacity(netlist.num_nodes());
    for idx in 0..netlist.num_nodes() {
        let node = netlist.node(crate::netlist::NodeId(idx as u32));
        let v = |id: NodeId| values[id.index()];
        let result = match node.op {
            NodeOp::Input(i) => inputs.get(i.index()),
            NodeOp::State(s) => states.get(s),
            NodeOp::Const(c) => c,
            NodeOp::Not(a) => v(a).not(),
            NodeOp::Neg(a) => v(a).wrapping_neg(),
            NodeOp::RedOr(a) => v(a).redor(),
            NodeOp::RedAnd(a) => v(a).redand(),
            NodeOp::RedXor(a) => v(a).redxor(),
            NodeOp::And(a, b) => v(a).and(v(b)),
            NodeOp::Or(a, b) => v(a).or(v(b)),
            NodeOp::Xor(a, b) => v(a).xor(v(b)),
            NodeOp::Add(a, b) => v(a).wrapping_add(v(b)),
            NodeOp::Sub(a, b) => v(a).wrapping_sub(v(b)),
            NodeOp::Mul(a, b) => v(a).wrapping_mul(v(b)),
            NodeOp::Eq(a, b) => v(a).eq_bit(v(b)),
            NodeOp::Ult(a, b) => v(a).ult(v(b)),
            NodeOp::Slt(a, b) => v(a).slt(v(b)),
            NodeOp::Shl(a, b) => v(a).shl(v(b)),
            NodeOp::Lshr(a, b) => v(a).lshr(v(b)),
            NodeOp::Ashr(a, b) => v(a).ashr(v(b)),
            NodeOp::Ite(c, t, e) => {
                if v(c).is_true() {
                    v(t)
                } else {
                    v(e)
                }
            }
            NodeOp::Concat(a, b) => v(a).concat(v(b)),
            NodeOp::Slice(a, hi, lo) => v(a).slice(hi, lo),
            NodeOp::Uext(a) => v(a).uext(node.width),
            NodeOp::Sext(a) => v(a).sext(node.width),
        };
        debug_assert_eq!(result.width(), node.width, "evaluator width bug");
        values.push(result);
    }
    values
}

/// Applies the transition relation once: computes the successor state of
/// `states` under `inputs`.
///
/// # Panics
///
/// Panics if any state lacks a next function.
pub fn step(netlist: &Netlist, states: &StateValues, inputs: &InputValues) -> StateValues {
    let values = eval_all(netlist, states, inputs);
    StateValues(
        netlist
            .state_ids()
            .map(|s| values[netlist.next_of(s).index()])
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::Bv;

    fn counter() -> (Netlist, StateId) {
        let mut n = Netlist::new("counter");
        let cnt = n.state("cnt", 4, Bv::zero(4));
        let en = n.input("en", 1);
        let cur = n.state_node(cnt);
        let one = n.c(4, 1);
        let inc = n.add(cur, one);
        let next = n.ite(en, inc, cur);
        n.set_next(cnt, next);
        (n, cnt)
    }

    #[test]
    fn counter_steps() {
        let (n, cnt) = counter();
        let mut s = StateValues::initial(&n);
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "en", Bv::bit(true));
        for i in 1..=20u64 {
            s = step(&n, &s, &inputs);
            assert_eq!(s.get(cnt).bits(), i % 16);
        }
    }

    #[test]
    fn counter_holds_when_disabled() {
        let (n, cnt) = counter();
        let mut s = StateValues::initial(&n);
        let inputs = InputValues::zeros(&n);
        s = step(&n, &s, &inputs);
        assert_eq!(s.get(cnt).bits(), 0);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut n = Netlist::new("t");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let sum = n.add(a, b);
        let prod = n.mul(a, b);
        let lt = n.ult(a, b);
        let sel = n.ite(lt, sum, prod);
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "a", Bv::new(8, 3));
        inputs.set_by_name(&n, "b", Bv::new(8, 5));
        let s = StateValues::initial(&n);
        let vals = eval_all(&n, &s, &inputs);
        assert_eq!(vals[sum.index()], Bv::new(8, 8));
        assert_eq!(vals[prod.index()], Bv::new(8, 15));
        assert!(vals[lt.index()].is_true());
        assert_eq!(vals[sel.index()], Bv::new(8, 8));
    }

    #[test]
    fn state_values_set_get() {
        let (n, cnt) = counter();
        let mut s = StateValues::initial(&n);
        s.set(cnt, Bv::new(4, 9));
        assert_eq!(s.get(cnt), Bv::new(4, 9));
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no input named")]
    fn unknown_input_panics() {
        let (n, _) = counter();
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "nonexistent", Bv::bit(true));
    }
}
