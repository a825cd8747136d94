//! Miter (product-circuit) construction.
//!
//! VeloCT proves *relational* (2-safety) properties: two copies of the same
//! design run side by side on the same instruction stream, differing only in
//! secret data. Following the paper (§4 and §6.1, where yosys builds the
//! miter), [`Miter::build`] produces a single netlist containing a left and a
//! right copy of every state element and of all combinational logic, with
//! primary inputs *shared* between the copies — the attacker-controlled
//! instruction stream is identical on both sides.

use crate::netlist::{Netlist, NodeId, NodeOp, StateId};

/// Which copy of the design a product-state element belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left execution.
    Left,
    /// The right execution.
    Right,
}

impl Side {
    /// Name prefix used for states and outputs of this side.
    pub fn prefix(self) -> &'static str {
        match self {
            Side::Left => "l$",
            Side::Right => "r$",
        }
    }
}

/// A product circuit over a base design, with the bookkeeping needed to move
/// between base-design state ids and product state ids.
#[derive(Debug, Clone)]
pub struct Miter {
    netlist: Netlist,
    left: Vec<StateId>,
    right: Vec<StateId>,
    /// Inverse map: product state -> (base state index, side).
    origin: Vec<(StateId, Side)>,
}

impl Miter {
    /// Builds the product circuit of `base`.
    ///
    /// Each base state `x` yields product states `l$x` and `r$x` (same
    /// initial value); each base output `o` yields `l$o` and `r$o`. Inputs
    /// are shared verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `base` is incomplete (a state without a next function).
    pub fn build(base: &Netlist) -> Miter {
        base.assert_complete();
        let mut product = Netlist::new(format!("{}_miter", base.name()));

        // Shared inputs, in base order so indices line up.
        let input_map: Vec<NodeId> = base
            .input_ids()
            .map(|i| product.input(base.input_name(i).to_string(), base.input_width(i)))
            .collect();

        // Product states for both sides.
        let mut sides: [Vec<StateId>; 2] = [Vec::new(), Vec::new()];
        let mut origin = Vec::new();
        for (k, side) in [Side::Left, Side::Right].into_iter().enumerate() {
            for s in base.state_ids() {
                let name = format!("{}{}", side.prefix(), base.state_name(s));
                let sid = product.state(name, base.state_width(s), base.init_of(s));
                sides[k].push(sid);
            }
        }
        for side in [Side::Left, Side::Right] {
            for s in base.state_ids() {
                origin.push((s, side));
            }
        }
        // `origin` must be indexed by product StateId: left states were
        // created first, then right — the loop above matches that order.

        // Copy the combinational DAG once per side.
        for (k, side) in [Side::Left, Side::Right].into_iter().enumerate() {
            let node_map = copy_nodes(base, &mut product, &input_map, &sides[k]);
            for s in base.state_ids() {
                let next = node_map[base.next_of(s).index()];
                product.set_next(sides[k][s.index()], next);
            }
            for (name, node) in base.outputs() {
                product.add_output(format!("{}{}", side.prefix(), name), node_map[node.index()]);
            }
            // Constraints over shared inputs hash-cons to the same node on
            // both sides; duplicates are harmless either way.
            for &c in base.constraints() {
                product.add_constraint(node_map[c.index()]);
            }
        }

        Miter {
            netlist: product,
            left: sides[0].clone(),
            right: sides[1].clone(),
            origin,
        }
    }

    /// The product netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the product netlist, e.g. to add environment
    /// constraints (VeloCT restricts the instruction input to the proposed
    /// safe set before learning).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Product state id of the left copy of a base state.
    pub fn left(&self, base: StateId) -> StateId {
        self.left[base.index()]
    }

    /// Product state id of the right copy of a base state.
    pub fn right(&self, base: StateId) -> StateId {
        self.right[base.index()]
    }

    /// Both copies of a base state.
    pub fn pair(&self, base: StateId) -> (StateId, StateId) {
        (self.left(base), self.right(base))
    }

    /// Base state and side of a product state.
    pub fn origin(&self, product: StateId) -> (StateId, Side) {
        self.origin[product.index()]
    }

    /// Number of base states.
    pub fn num_base_states(&self) -> usize {
        self.left.len()
    }

    /// Iterates over base state ids.
    pub fn base_state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.left.len()).map(StateId::from_index)
    }
}

/// Copies every node of `base` into `product`, reading states from
/// `state_map` (product states of one side) and inputs from `input_map`
/// (shared). Returns the base-indexed node map.
fn copy_nodes(
    base: &Netlist,
    product: &mut Netlist,
    input_map: &[NodeId],
    state_map: &[StateId],
) -> Vec<NodeId> {
    let mut map: Vec<NodeId> = Vec::with_capacity(base.num_nodes());
    for idx in 0..base.num_nodes() {
        let id = NodeId(idx as u32);
        let node = base.node(id);
        let m = |x: NodeId| map[x.index()];
        let new_id = match node.op {
            NodeOp::Input(i) => input_map[i.index()],
            NodeOp::State(s) => product.state_node(state_map[s.index()]),
            NodeOp::Const(c) => product.constant(c),
            NodeOp::Not(a) => product.not(m(a)),
            NodeOp::Neg(a) => product.neg(m(a)),
            NodeOp::RedOr(a) => product.redor(m(a)),
            NodeOp::RedAnd(a) => product.redand(m(a)),
            NodeOp::RedXor(a) => product.redxor(m(a)),
            NodeOp::And(a, b) => product.and(m(a), m(b)),
            NodeOp::Or(a, b) => product.or(m(a), m(b)),
            NodeOp::Xor(a, b) => product.xor(m(a), m(b)),
            NodeOp::Add(a, b) => product.add(m(a), m(b)),
            NodeOp::Sub(a, b) => product.sub(m(a), m(b)),
            NodeOp::Mul(a, b) => product.mul(m(a), m(b)),
            NodeOp::Eq(a, b) => product.eq(m(a), m(b)),
            NodeOp::Ult(a, b) => product.ult(m(a), m(b)),
            NodeOp::Slt(a, b) => product.slt(m(a), m(b)),
            NodeOp::Shl(a, b) => product.shl(m(a), m(b)),
            NodeOp::Lshr(a, b) => product.lshr(m(a), m(b)),
            NodeOp::Ashr(a, b) => product.ashr(m(a), m(b)),
            NodeOp::Ite(c, t, e) => product.ite(m(c), m(t), m(e)),
            NodeOp::Concat(a, b) => product.concat(m(a), m(b)),
            NodeOp::Slice(a, hi, lo) => product.slice(m(a), hi, lo),
            NodeOp::Uext(a) => product.uext(m(a), node.width),
            NodeOp::Sext(a) => product.sext(m(a), node.width),
        };
        map.push(new_id);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::Bv;
    use crate::eval::{step, InputValues, StateValues};

    fn accumulator() -> Netlist {
        let mut n = Netlist::new("acc");
        let acc = n.state("acc", 8, Bv::zero(8));
        let i = n.input("i", 8);
        let cur = n.state_node(acc);
        let next = n.add(cur, i);
        n.set_next(acc, next);
        n.add_output("acc_out", cur);
        n
    }

    #[test]
    fn miter_duplicates_states_shares_inputs() {
        let base = accumulator();
        let m = Miter::build(&base);
        assert_eq!(m.netlist().num_states(), 2);
        assert_eq!(m.netlist().num_inputs(), 1);
        assert_eq!(m.netlist().state_bits(), 16);
        assert!(m.netlist().find_state("l$acc").is_some());
        assert!(m.netlist().find_state("r$acc").is_some());
        assert!(m.netlist().find_output("l$acc_out").is_some());
        assert!(m.netlist().find_output("r$acc_out").is_some());
    }

    #[test]
    fn origin_roundtrip() {
        let base = accumulator();
        let m = Miter::build(&base);
        let acc = base.find_state("acc").unwrap();
        let (l, r) = m.pair(acc);
        assert_eq!(m.origin(l), (acc, Side::Left));
        assert_eq!(m.origin(r), (acc, Side::Right));
    }

    #[test]
    fn equal_states_stay_equal_under_shared_inputs() {
        let base = accumulator();
        let m = Miter::build(&base);
        let acc = base.find_state("acc").unwrap();
        let mut s = StateValues::initial(m.netlist());
        let mut inputs = InputValues::zeros(m.netlist());
        inputs.set_by_name(m.netlist(), "i", Bv::new(8, 7));
        for _ in 0..5 {
            s = step(m.netlist(), &s, &inputs);
            assert_eq!(s.get(m.left(acc)), s.get(m.right(acc)));
        }
        assert_eq!(s.get(m.left(acc)), Bv::new(8, 35));
    }

    #[test]
    fn differing_secrets_evolve_independently() {
        let base = accumulator();
        let m = Miter::build(&base);
        let acc = base.find_state("acc").unwrap();
        let mut s = StateValues::initial(m.netlist());
        s.set(m.left(acc), Bv::new(8, 1));
        s.set(m.right(acc), Bv::new(8, 2));
        let inputs = InputValues::zeros(m.netlist());
        s = step(m.netlist(), &s, &inputs);
        assert_eq!(s.get(m.left(acc)), Bv::new(8, 1));
        assert_eq!(s.get(m.right(acc)), Bv::new(8, 2));
    }

    #[test]
    fn init_values_copied_to_both_sides() {
        let mut base = Netlist::new("t");
        let r = base.state("r", 4, Bv::new(4, 9));
        base.keep_state(r);
        let m = Miter::build(&base);
        let s = StateValues::initial(m.netlist());
        assert_eq!(s.get(m.left(r)), Bv::new(4, 9));
        assert_eq!(s.get(m.right(r)), Bv::new(4, 9));
    }
}
