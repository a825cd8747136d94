//! The word-level netlist IR and its builder API.
//!
//! A [`Netlist`] is a transition system in the sense of the paper (§2.1): a
//! set of state elements with initial values and next-state functions, a set
//! of free inputs, and a DAG of combinational operators connecting them. It
//! deliberately mirrors the btor2 format that the paper's tool consumes.
//!
//! Nodes are hash-consed: building the same expression twice yields the same
//! [`NodeId`], which keeps miter construction and big generated cores (the
//! `hh-uarch` processors) compact.

use crate::bv::Bv;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a combinational node in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a state element (register) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Dense index of the state element.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs from a dense index (for tables computed externally).
    pub fn from_index(i: usize) -> StateId {
        StateId(i as u32)
    }
}

/// Identifier of a primary input in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputId(pub(crate) u32);

impl InputId {
    /// Dense index of the input.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A combinational operator. Operand order is semantically significant
/// (`Sub(a, b)` = `a - b`, `Concat(hi, lo)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeOp {
    /// Primary input (free every cycle).
    Input(InputId),
    /// Current value of a state element.
    State(StateId),
    /// Constant.
    Const(Bv),
    /// Bitwise NOT.
    Not(NodeId),
    /// Two's-complement negation.
    Neg(NodeId),
    /// OR-reduce to 1 bit.
    RedOr(NodeId),
    /// AND-reduce to 1 bit.
    RedAnd(NodeId),
    /// XOR-reduce to 1 bit.
    RedXor(NodeId),
    /// Bitwise AND.
    And(NodeId, NodeId),
    /// Bitwise OR.
    Or(NodeId, NodeId),
    /// Bitwise XOR.
    Xor(NodeId, NodeId),
    /// Addition modulo 2^w.
    Add(NodeId, NodeId),
    /// Subtraction modulo 2^w.
    Sub(NodeId, NodeId),
    /// Multiplication modulo 2^w.
    Mul(NodeId, NodeId),
    /// Equality (1-bit result).
    Eq(NodeId, NodeId),
    /// Unsigned less-than (1-bit result).
    Ult(NodeId, NodeId),
    /// Signed less-than (1-bit result).
    Slt(NodeId, NodeId),
    /// Logical shift left (amount is second operand).
    Shl(NodeId, NodeId),
    /// Logical shift right.
    Lshr(NodeId, NodeId),
    /// Arithmetic shift right.
    Ashr(NodeId, NodeId),
    /// If-then-else; condition is 1 bit wide.
    Ite(NodeId, NodeId, NodeId),
    /// Concatenation, first operand high.
    Concat(NodeId, NodeId),
    /// Bit slice `[hi:lo]` inclusive.
    Slice(NodeId, u32, u32),
    /// Zero extension to the node's width.
    Uext(NodeId),
    /// Sign extension to the node's width.
    Sext(NodeId),
}

/// A node: operator plus result width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// The operator.
    pub op: NodeOp,
    /// Result width in bits.
    pub width: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct StateInfo {
    pub(crate) name: String,
    pub(crate) width: u32,
    pub(crate) init: Bv,
    pub(crate) next: Option<NodeId>,
    pub(crate) node: NodeId,
}

#[derive(Debug, Clone)]
pub(crate) struct InputInfo {
    pub(crate) name: String,
    pub(crate) width: u32,
    pub(crate) node: NodeId,
}

/// A word-level sequential circuit (transition system).
///
/// # Examples
///
/// Building the AND-gate example from the paper's introduction — output `A`
/// is the registered AND of registered inputs `B` and `C`:
///
/// ```
/// use hh_netlist::{Netlist, Bv};
///
/// let mut n = Netlist::new("and_gate");
/// let b = n.state("B", 1, Bv::bit(true));
/// let c = n.state("C", 1, Bv::bit(true));
/// let a = n.state("A", 1, Bv::bit(true));
/// let band = n.and(n.state_node(b), n.state_node(c));
/// n.set_next(a, band);
/// n.keep_state(b); // B and C hold their values
/// n.keep_state(c);
/// n.add_output("A", n.state_node(a));
/// assert_eq!(n.num_states(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    states: Vec<StateInfo>,
    inputs: Vec<InputInfo>,
    outputs: Vec<(String, NodeId)>,
    constraints: Vec<NodeId>,
    dedup: HashMap<Node, NodeId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            states: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            constraints: Vec::new(),
            dedup: HashMap::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of combinational nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of state elements.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Total state size in bits — the "design size" metric of the paper's
    /// Table 1.
    pub fn state_bits(&self) -> u64 {
        self.states.iter().map(|s| s.width as u64).sum()
    }

    /// The node for a [`NodeId`].
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// Result width of a node.
    pub fn width(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].width
    }

    // ------------------------------------------------------------------
    // State / input management
    // ------------------------------------------------------------------

    /// Declares a state element (register) with an initial value.
    ///
    /// # Panics
    ///
    /// Panics if `init.width() != width` or a state with the same name
    /// exists.
    pub fn state(&mut self, name: impl Into<String>, width: u32, init: Bv) -> StateId {
        let name = name.into();
        assert_eq!(init.width(), width, "init width mismatch for state {name}");
        assert!(
            self.find_state(&name).is_none(),
            "duplicate state name {name}"
        );
        let sid = StateId(self.states.len() as u32);
        let node = self.push_raw(Node {
            op: NodeOp::State(sid),
            width,
        });
        self.states.push(StateInfo {
            name,
            width,
            init,
            next: None,
            node,
        });
        sid
    }

    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics if an input with the same name exists.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> NodeId {
        let name = name.into();
        assert!(
            self.find_input(&name).is_none(),
            "duplicate input name {name}"
        );
        let iid = InputId(self.inputs.len() as u32);
        let node = self.push_raw(Node {
            op: NodeOp::Input(iid),
            width,
        });
        self.inputs.push(InputInfo { name, width, node });
        node
    }

    /// The node reading the current value of a state element.
    pub fn state_node(&self, sid: StateId) -> NodeId {
        self.states[sid.index()].node
    }

    /// Sets the next-state function of a state element.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or if `next` was already set.
    pub fn set_next(&mut self, sid: StateId, next: NodeId) {
        let w = self.width(next);
        let info = &mut self.states[sid.index()];
        assert_eq!(info.width, w, "next width mismatch for state {}", info.name);
        assert!(
            info.next.is_none(),
            "next already set for state {}",
            info.name
        );
        info.next = Some(next);
    }

    /// Overrides the initial value of a state element (used by the btor2
    /// reader, where `init` lines arrive after state declarations).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn set_init(&mut self, sid: StateId, init: Bv) {
        let info = &mut self.states[sid.index()];
        assert_eq!(
            info.width,
            init.width(),
            "init width mismatch for {}",
            info.name
        );
        info.init = init;
    }

    /// Convenience: state holds its value forever (`next = current`).
    pub fn keep_state(&mut self, sid: StateId) {
        let node = self.state_node(sid);
        self.set_next(sid, node);
    }

    /// The next-state node of a state element.
    ///
    /// # Panics
    ///
    /// Panics if the next function has not been set.
    pub fn next_of(&self, sid: StateId) -> NodeId {
        self.states[sid.index()]
            .next
            .unwrap_or_else(|| panic!("state {} has no next", self.states[sid.index()].name))
    }

    /// Initial value of a state element.
    pub fn init_of(&self, sid: StateId) -> Bv {
        self.states[sid.index()].init
    }

    /// Name of a state element.
    pub fn state_name(&self, sid: StateId) -> &str {
        &self.states[sid.index()].name
    }

    /// Width of a state element.
    pub fn state_width(&self, sid: StateId) -> u32 {
        self.states[sid.index()].width
    }

    /// Looks up a state element by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| StateId(i as u32))
    }

    /// Looks up an input by name, returning its node.
    pub fn find_input(&self, name: &str) -> Option<NodeId> {
        self.inputs.iter().find(|i| i.name == name).map(|i| i.node)
    }

    /// Name of an input.
    pub fn input_name(&self, iid: InputId) -> &str {
        &self.inputs[iid.index()].name
    }

    /// Width of an input.
    pub fn input_width(&self, iid: InputId) -> u32 {
        self.inputs[iid.index()].width
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// Iterates over all input ids.
    pub fn input_ids(&self) -> impl Iterator<Item = InputId> {
        (0..self.inputs.len() as u32).map(InputId)
    }

    /// Registers a named output signal (observable).
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Named output signals.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Registers an environment assumption: a 1-bit node that verification
    /// queries may take as given every cycle. VeloCT uses this to restrict
    /// the instruction-input alphabet to the proposed safe set plus the null
    /// instruction (the paper's Σ of §4).
    ///
    /// # Panics
    ///
    /// Panics if the node is not 1 bit wide.
    pub fn add_constraint(&mut self, node: NodeId) {
        assert_eq!(self.width(node), 1, "constraints must be 1-bit");
        self.constraints.push(node);
    }

    /// The registered environment assumptions.
    pub fn constraints(&self) -> &[NodeId] {
        &self.constraints
    }

    /// Looks up an output by name.
    pub fn find_output(&self, name: &str) -> Option<NodeId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
    }

    // ------------------------------------------------------------------
    // Expression builders (hash-consed)
    // ------------------------------------------------------------------

    fn push_raw(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = self.push_raw(node);
        self.dedup.insert(node, id);
        id
    }

    /// A constant node.
    pub fn constant(&mut self, value: Bv) -> NodeId {
        self.intern(Node {
            op: NodeOp::Const(value),
            width: value.width(),
        })
    }

    /// Shorthand for [`Netlist::constant`] from raw bits.
    pub fn c(&mut self, width: u32, bits: u64) -> NodeId {
        self.constant(Bv::new(width, bits))
    }

    /// 1-bit constant true.
    pub fn ctrue(&mut self) -> NodeId {
        self.c(1, 1)
    }

    /// 1-bit constant false.
    pub fn cfalse(&mut self) -> NodeId {
        self.c(1, 0)
    }

    fn unary(&mut self, op: fn(NodeId) -> NodeOp, a: NodeId, width: u32) -> NodeId {
        self.intern(Node { op: op(a), width })
    }

    fn same_width(&self, a: NodeId, b: NodeId) -> u32 {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "operand width mismatch {wa} vs {wb}");
        wa
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let w = self.width(a);
        self.unary(NodeOp::Not, a, w)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let w = self.width(a);
        self.unary(NodeOp::Neg, a, w)
    }

    /// OR-reduction.
    pub fn redor(&mut self, a: NodeId) -> NodeId {
        self.unary(NodeOp::RedOr, a, 1)
    }

    /// AND-reduction.
    pub fn redand(&mut self, a: NodeId) -> NodeId {
        self.unary(NodeOp::RedAnd, a, 1)
    }

    /// XOR-reduction (parity).
    pub fn redxor(&mut self, a: NodeId) -> NodeId {
        self.unary(NodeOp::RedXor, a, 1)
    }

    fn binary(
        &mut self,
        op: fn(NodeId, NodeId) -> NodeOp,
        a: NodeId,
        b: NodeId,
        width: u32,
    ) -> NodeId {
        self.intern(Node {
            op: op(a, b),
            width,
        })
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.binary(NodeOp::And, a, b, w)
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.binary(NodeOp::Or, a, b, w)
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.binary(NodeOp::Xor, a, b, w)
    }

    /// Addition. Panics on width mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.binary(NodeOp::Add, a, b, w)
    }

    /// Subtraction. Panics on width mismatch.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.binary(NodeOp::Sub, a, b, w)
    }

    /// Multiplication. Panics on width mismatch.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.binary(NodeOp::Mul, a, b, w)
    }

    /// Equality comparison (1-bit). Panics on width mismatch.
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.same_width(a, b);
        self.binary(NodeOp::Eq, a, b, 1)
    }

    /// Inequality (1-bit). Panics on width mismatch.
    pub fn ne(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than (1-bit). Panics on width mismatch.
    pub fn ult(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.same_width(a, b);
        self.binary(NodeOp::Ult, a, b, 1)
    }

    /// Signed less-than (1-bit). Panics on width mismatch.
    pub fn slt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.same_width(a, b);
        self.binary(NodeOp::Slt, a, b, 1)
    }

    /// Logical shift left; the shift amount operand may have any width.
    pub fn shl(&mut self, a: NodeId, amount: NodeId) -> NodeId {
        let w = self.width(a);
        self.binary(NodeOp::Shl, a, amount, w)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, a: NodeId, amount: NodeId) -> NodeId {
        let w = self.width(a);
        self.binary(NodeOp::Lshr, a, amount, w)
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: NodeId, amount: NodeId) -> NodeId {
        let w = self.width(a);
        self.binary(NodeOp::Ashr, a, amount, w)
    }

    /// If-then-else. `cond` must be 1 bit; branches must have equal width.
    ///
    /// # Panics
    ///
    /// Panics on width violations.
    pub fn ite(&mut self, cond: NodeId, then_v: NodeId, else_v: NodeId) -> NodeId {
        assert_eq!(self.width(cond), 1, "ite condition must be 1 bit");
        let w = self.same_width(then_v, else_v);
        self.intern(Node {
            op: NodeOp::Ite(cond, then_v, else_v),
            width: w,
        })
    }

    /// Concatenation (first operand high).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64.
    pub fn concat(&mut self, hi: NodeId, lo: NodeId) -> NodeId {
        let w = self.width(hi) + self.width(lo);
        assert!(w <= crate::bv::MAX_WIDTH, "concat width {w} > 64");
        self.intern(Node {
            op: NodeOp::Concat(hi, lo),
            width: w,
        })
    }

    /// Bit slice `[hi:lo]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid for the operand width.
    pub fn slice(&mut self, a: NodeId, hi: u32, lo: u32) -> NodeId {
        let w = self.width(a);
        assert!(hi >= lo && hi < w, "bad slice [{hi}:{lo}] of width {w}");
        self.intern(Node {
            op: NodeOp::Slice(a, hi, lo),
            width: hi - lo + 1,
        })
    }

    /// Extracts a single bit.
    pub fn bit(&mut self, a: NodeId, i: u32) -> NodeId {
        self.slice(a, i, i)
    }

    /// Zero-extends to `to` bits (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `to` is smaller than the operand width.
    pub fn uext(&mut self, a: NodeId, to: u32) -> NodeId {
        let w = self.width(a);
        assert!(to >= w, "uext shrinks width");
        if to == w {
            return a;
        }
        self.intern(Node {
            op: NodeOp::Uext(a),
            width: to,
        })
    }

    /// Sign-extends to `to` bits (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `to` is smaller than the operand width.
    pub fn sext(&mut self, a: NodeId, to: u32) -> NodeId {
        let w = self.width(a);
        assert!(to >= w, "sext shrinks width");
        if to == w {
            return a;
        }
        self.intern(Node {
            op: NodeOp::Sext(a),
            width: to,
        })
    }

    /// `a == constant` as a 1-bit node.
    pub fn eq_const(&mut self, a: NodeId, bits: u64) -> NodeId {
        let w = self.width(a);
        let c = self.c(w, bits);
        self.eq(a, c)
    }

    /// Boolean AND over a list of 1-bit nodes (true for the empty list).
    pub fn and_all(&mut self, nodes: &[NodeId]) -> NodeId {
        let mut acc = self.ctrue();
        for &n in nodes {
            acc = self.and(acc, n);
        }
        acc
    }

    /// Boolean OR over a list of 1-bit nodes (false for the empty list).
    pub fn or_all(&mut self, nodes: &[NodeId]) -> NodeId {
        let mut acc = self.cfalse();
        for &n in nodes {
            acc = self.or(acc, n);
        }
        acc
    }

    /// Multiplexer over a list of `(selector_matches, value)` pairs with a
    /// default value: a chain of [`Netlist::ite`]s, first match wins.
    pub fn select(&mut self, cases: &[(NodeId, NodeId)], default: NodeId) -> NodeId {
        let mut acc = default;
        for &(cond, val) in cases.iter().rev() {
            acc = self.ite(cond, val, acc);
        }
        acc
    }

    /// Whether every state has a next function.
    pub fn is_complete(&self) -> bool {
        self.states.iter().all(|s| s.next.is_some())
    }

    /// Checks structural sanity: every state has a next function.
    ///
    /// # Panics
    ///
    /// Panics with the offending state name if a next function is missing.
    pub fn assert_complete(&self) {
        for s in &self.states {
            assert!(s.next.is_some(), "state {} has no next function", s.name);
        }
    }

    /// The direct operands of a node.
    pub fn operands(&self, id: NodeId) -> Vec<NodeId> {
        match self.nodes[id.index()].op {
            NodeOp::Input(_) | NodeOp::State(_) | NodeOp::Const(_) => vec![],
            NodeOp::Not(a)
            | NodeOp::Neg(a)
            | NodeOp::RedOr(a)
            | NodeOp::RedAnd(a)
            | NodeOp::RedXor(a)
            | NodeOp::Slice(a, _, _)
            | NodeOp::Uext(a)
            | NodeOp::Sext(a) => vec![a],
            NodeOp::And(a, b)
            | NodeOp::Or(a, b)
            | NodeOp::Xor(a, b)
            | NodeOp::Add(a, b)
            | NodeOp::Sub(a, b)
            | NodeOp::Mul(a, b)
            | NodeOp::Eq(a, b)
            | NodeOp::Ult(a, b)
            | NodeOp::Slt(a, b)
            | NodeOp::Shl(a, b)
            | NodeOp::Lshr(a, b)
            | NodeOp::Ashr(a, b)
            | NodeOp::Concat(a, b) => vec![a, b],
            NodeOp::Ite(c, t, e) => vec![c, t, e],
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist {} ({} states / {} bits, {} inputs, {} nodes)",
            self.name,
            self.num_states(),
            self.state_bits(),
            self.num_inputs(),
            self.num_nodes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_counter() {
        let mut n = Netlist::new("counter");
        let cnt = n.state("cnt", 4, Bv::zero(4));
        let one = n.c(4, 1);
        let cur = n.state_node(cnt);
        let next = n.add(cur, one);
        n.set_next(cnt, next);
        n.assert_complete();
        assert_eq!(n.state_bits(), 4);
        assert_eq!(n.next_of(cnt), next);
    }

    #[test]
    fn hash_consing_dedups() {
        let mut n = Netlist::new("t");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let x = n.add(a, b);
        let y = n.add(a, b);
        assert_eq!(x, y);
        let z = n.add(b, a); // order matters: distinct node
        assert_ne!(x, z);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut n = Netlist::new("t");
        let a = n.input("a", 8);
        let b = n.input("b", 4);
        n.add(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate state name")]
    fn duplicate_state_panics() {
        let mut n = Netlist::new("t");
        n.state("r", 1, Bv::bit(false));
        n.state("r", 2, Bv::zero(2));
    }

    #[test]
    #[should_panic(expected = "next already set")]
    fn double_next_panics() {
        let mut n = Netlist::new("t");
        let r = n.state("r", 1, Bv::bit(false));
        let node = n.state_node(r);
        n.set_next(r, node);
        n.set_next(r, node);
    }

    #[test]
    #[should_panic(expected = "has no next function")]
    fn incomplete_netlist_detected() {
        let mut n = Netlist::new("t");
        n.state("r", 1, Bv::bit(false));
        n.assert_complete();
    }

    #[test]
    fn lookups() {
        let mut n = Netlist::new("t");
        let r = n.state("reg", 8, Bv::zero(8));
        let i = n.input("in", 8);
        n.set_next(r, i);
        n.add_output("o", n.state_node(r));
        assert_eq!(n.find_state("reg"), Some(r));
        assert_eq!(n.find_state("nope"), None);
        assert_eq!(n.find_input("in"), Some(i));
        assert_eq!(n.find_output("o"), Some(n.state_node(r)));
        assert_eq!(n.state_name(r), "reg");
        assert_eq!(n.state_width(r), 8);
    }

    #[test]
    fn select_builds_priority_mux() {
        let mut n = Netlist::new("t");
        let s = n.input("s", 2);
        let c0 = n.eq_const(s, 0);
        let c1 = n.eq_const(s, 1);
        let v0 = n.c(8, 10);
        let v1 = n.c(8, 20);
        let dflt = n.c(8, 30);
        let out = n.select(&[(c0, v0), (c1, v1)], dflt);
        // Structure: ite(c0, v0, ite(c1, v1, dflt)).
        match n.node(out).op {
            NodeOp::Ite(c, t, e) => {
                assert_eq!(c, c0);
                assert_eq!(t, v0);
                match n.node(e).op {
                    NodeOp::Ite(c2, t2, e2) => {
                        assert_eq!(c2, c1);
                        assert_eq!(t2, v1);
                        assert_eq!(e2, dflt);
                    }
                    _ => panic!("expected nested ite"),
                }
            }
            _ => panic!("expected ite"),
        }
    }

    #[test]
    fn ext_same_width_is_identity() {
        let mut n = Netlist::new("t");
        let a = n.input("a", 8);
        assert_eq!(n.uext(a, 8), a);
        assert_eq!(n.sext(a, 8), a);
        let widened = n.uext(a, 12);
        assert_eq!(n.width(widened), 12);
    }
}
