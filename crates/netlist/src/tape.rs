//! A compiled, width-resolved form of a netlist for multi-cycle simulation.
//!
//! [`crate::eval::eval_all`] is the reference semantics: it walks the node
//! vector, re-derives every operand width through [`Bv`] and allocates a
//! fresh value vector per call. That is the right shape for one evaluation
//! and the wrong one for positive-example generation, which steps the same
//! design tens of thousands of times. [`Tape::compile`] therefore resolves
//! everything that does not change between cycles once — operand indices,
//! result masks, sign-extension shifts, constants — into a straight-line
//! instruction list over raw `u64` values, and a [`Machine`] runs that list
//! over one reusable buffer. The list is scheduled into *runs* of one
//! operator each (any order that puts operands first is a valid evaluation
//! order), so the evaluator dispatches once per run and spends the rest of
//! its time in tight single-operator loops.
//!
//! Values in the buffer obey the [`Bv`] invariant (bits above the node's
//! width are zero), so `machine.node(id)` always equals
//! `eval_all(..)[id.index()].bits()`; `tests/prop.rs` checks that on random
//! netlists covering every [`NodeOp`].
//!
//! ```
//! use hh_netlist::{Netlist, Bv};
//! use hh_netlist::tape::Tape;
//!
//! let mut n = Netlist::new("counter");
//! let c = n.state("c", 8, Bv::zero(8));
//! let cur = n.state_node(c);
//! let one = n.c(8, 1);
//! let nxt = n.add(cur, one);
//! n.set_next(c, nxt);
//!
//! let tape = Tape::compile(&n);
//! let mut m = tape.machine();
//! for _ in 0..5 {
//!     m.step();
//! }
//! assert_eq!(m.state(c), 5);
//! ```

use crate::bv::{mask, Bv};
use crate::eval::{InputValues, StateValues};
use crate::netlist::{Netlist, NodeId, NodeOp, StateId};

#[derive(Debug, Clone, Copy)]
enum Op {
    Not,
    Neg,
    RedOr,
    RedAnd,
    RedXor,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mul,
    Eq,
    Ult,
    Slt,
    Shl,
    Lshr,
    Ashr,
    Ite,
    Concat,
    Slice,
    Uext,
    Sext,
}

const NUM_OPS: usize = Op::Sext as usize + 1;

/// One combinational node, operands resolved to buffer indices.
#[derive(Debug, Clone, Copy)]
struct Instr {
    dst: u32,
    a: u32,
    /// Second operand; equals `a` for unary operators.
    b: u32,
    /// `Ite`: the else operand. `Shl`/`Lshr`/`Ashr`: the operand width.
    /// `Slt`/`Sext`: `64 - operand width`, the shift that moves the sign bit
    /// to bit 63. `Concat`: the low operand's width. `Slice`: the low bit.
    c: u32,
    /// Result mask — except for `RedAnd`, where it is the operand's mask.
    mask: u64,
}

/// A maximal stretch of the instruction list with one operator.
#[derive(Debug, Clone, Copy)]
struct Run {
    op: Op,
    start: u32,
    end: u32,
}

/// A netlist compiled for repeated evaluation. Immutable once built; any
/// number of [`Machine`]s can run it.
#[derive(Debug, Clone)]
pub struct Tape {
    /// Every combinational node, operands before users, grouped by operator.
    instrs: Vec<Instr>,
    /// The operator of each stretch of `instrs`.
    runs: Vec<Run>,
    /// Initial buffer contents: constants in place, every other slot zero.
    template: Vec<u64>,
    state_nodes: Vec<u32>,
    state_widths: Vec<u32>,
    state_inits: Vec<u64>,
    /// Next-state node per state; `None` when some state has no next
    /// function (such a tape evaluates but cannot step).
    next_nodes: Option<Vec<u32>>,
    input_nodes: Vec<u32>,
    input_masks: Vec<u64>,
}

impl Tape {
    /// Compiles `netlist` as it stands; later edits to the netlist are not
    /// reflected.
    pub fn compile(netlist: &Netlist) -> Tape {
        let mut nodes: Vec<(Op, Instr)> = Vec::with_capacity(netlist.num_nodes());
        let mut template = vec![0u64; netlist.num_nodes()];
        let mut state_nodes = vec![0u32; netlist.num_states()];
        let mut input_nodes = vec![0u32; netlist.num_inputs()];
        for (idx, constant) in template.iter_mut().enumerate() {
            let dst = idx as u32;
            let node = netlist.node(NodeId(dst));
            let width = |id: NodeId| netlist.width(id);
            let result_mask = mask(node.width);
            let mut push = |op: Op, a: NodeId, b: NodeId, c: u32, mask: u64| {
                let instr = Instr {
                    dst,
                    a: a.0,
                    b: b.0,
                    c,
                    mask,
                };
                nodes.push((op, instr));
            };
            match node.op {
                NodeOp::Input(i) => input_nodes[i.index()] = dst,
                NodeOp::State(s) => state_nodes[s.index()] = dst,
                NodeOp::Const(c) => *constant = c.bits(),
                NodeOp::Not(a) => push(Op::Not, a, a, 0, result_mask),
                NodeOp::Neg(a) => push(Op::Neg, a, a, 0, result_mask),
                NodeOp::RedOr(a) => push(Op::RedOr, a, a, 0, result_mask),
                NodeOp::RedAnd(a) => push(Op::RedAnd, a, a, 0, mask(width(a))),
                NodeOp::RedXor(a) => push(Op::RedXor, a, a, 0, result_mask),
                NodeOp::And(a, b) => push(Op::And, a, b, 0, result_mask),
                NodeOp::Or(a, b) => push(Op::Or, a, b, 0, result_mask),
                NodeOp::Xor(a, b) => push(Op::Xor, a, b, 0, result_mask),
                NodeOp::Add(a, b) => push(Op::Add, a, b, 0, result_mask),
                NodeOp::Sub(a, b) => push(Op::Sub, a, b, 0, result_mask),
                NodeOp::Mul(a, b) => push(Op::Mul, a, b, 0, result_mask),
                NodeOp::Eq(a, b) => push(Op::Eq, a, b, 0, result_mask),
                NodeOp::Ult(a, b) => push(Op::Ult, a, b, 0, result_mask),
                NodeOp::Slt(a, b) => push(Op::Slt, a, b, 64 - width(a), result_mask),
                NodeOp::Shl(a, b) => push(Op::Shl, a, b, node.width, result_mask),
                NodeOp::Lshr(a, b) => push(Op::Lshr, a, b, node.width, result_mask),
                NodeOp::Ashr(a, b) => push(Op::Ashr, a, b, node.width, result_mask),
                NodeOp::Ite(c, t, e) => push(Op::Ite, c, t, e.0, result_mask),
                NodeOp::Concat(a, b) => push(Op::Concat, a, b, width(b), result_mask),
                NodeOp::Slice(a, _, lo) => push(Op::Slice, a, a, lo, result_mask),
                NodeOp::Uext(a) => push(Op::Uext, a, a, 0, result_mask),
                NodeOp::Sext(a) => push(Op::Sext, a, a, 64 - width(a), result_mask),
            }
        }
        let next_nodes = netlist
            .is_complete()
            .then(|| netlist.state_ids().map(|s| netlist.next_of(s).0).collect());
        let (instrs, runs) = schedule(netlist, &nodes);
        Tape {
            instrs,
            runs,
            template,
            state_nodes,
            state_widths: netlist
                .state_ids()
                .map(|s| netlist.state_width(s))
                .collect(),
            state_inits: netlist
                .state_ids()
                .map(|s| netlist.init_of(s).bits())
                .collect(),
            next_nodes,
            input_nodes,
            input_masks: netlist
                .input_ids()
                .map(|i| mask(netlist.input_width(i)))
                .collect(),
        }
    }

    /// Number of state elements.
    pub fn num_states(&self) -> usize {
        self.state_nodes.len()
    }

    /// A fresh machine in the netlist's initial state with all-zero inputs.
    pub fn machine(&self) -> Machine<'_> {
        let mut m = Machine {
            tape: self,
            values: self.template.clone(),
            latch: vec![0; self.num_states()],
        };
        m.reset();
        m
    }
}

/// Orders `nodes` (given in netlist order, which is operands-first) into
/// runs of one operator. Greedy list scheduling: of the operators that have
/// nodes whose operands are all placed, take the one with the most, place
/// every such node — including ones that become ready meanwhile — and
/// repeat. Deterministic: ties go to the lower operator, nodes within a run
/// keep the order in which they became ready.
fn schedule(netlist: &Netlist, nodes: &[(Op, Instr)]) -> (Vec<Instr>, Vec<Run>) {
    // Per netlist node: its position in `nodes` (leaves have none), how many
    // combinational operands are not placed yet, and who uses it.
    let mut position = vec![usize::MAX; netlist.num_nodes()];
    for (i, (_, instr)) in nodes.iter().enumerate() {
        position[instr.dst as usize] = i;
    }
    let mut waiting = vec![0u32; nodes.len()];
    let mut users: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    let mut ready: [Vec<u32>; NUM_OPS] = Default::default();
    for (i, &(op, instr)) in nodes.iter().enumerate() {
        for operand in netlist.operands(NodeId(instr.dst)) {
            let p = position[operand.index()];
            if p != usize::MAX {
                waiting[i] += 1;
                users[p].push(i as u32);
            }
        }
        if waiting[i] == 0 {
            ready[op as usize].push(i as u32);
        }
    }
    let mut instrs = Vec::with_capacity(nodes.len());
    let mut runs = Vec::new();
    while instrs.len() < nodes.len() {
        let k = (0..NUM_OPS)
            .max_by_key(|&k| (ready[k].len(), std::cmp::Reverse(k)))
            .expect("NUM_OPS > 0");
        let first = *ready[k]
            .first()
            .expect("netlist nodes are not in operands-first order");
        let start = instrs.len() as u32;
        let mut next = 0;
        while let Some(&i) = ready[k].get(next) {
            next += 1;
            instrs.push(nodes[i as usize].1);
            for &u in &users[i as usize] {
                waiting[u as usize] -= 1;
                if waiting[u as usize] == 0 {
                    ready[nodes[u as usize].0 as usize].push(u);
                }
            }
        }
        ready[k].clear();
        runs.push(Run {
            op: nodes[first as usize].0,
            start,
            end: instrs.len() as u32,
        });
    }
    (instrs, runs)
}

/// The running state of a [`Tape`]: one value slot per netlist node.
///
/// State and input slots are written by the `set_*`/`load_*` methods,
/// [`Machine::eval`] fills in every combinational slot from them, and
/// [`Machine::latch`] moves the next-state values into the state slots.
#[derive(Debug, Clone)]
pub struct Machine<'t> {
    tape: &'t Tape,
    values: Vec<u64>,
    /// Scratch for [`Machine::latch`]: a next function may read another
    /// state's slot, so all are gathered before any is overwritten.
    latch: Vec<u64>,
}

impl Machine<'_> {
    /// Returns every state to its initial value (inputs keep theirs).
    pub fn reset(&mut self) {
        for (&node, &init) in self.tape.state_nodes.iter().zip(&self.tape.state_inits) {
            self.values[node as usize] = init;
        }
    }

    /// Current value of a state element.
    pub fn state(&self, sid: StateId) -> u64 {
        self.values[self.tape.state_nodes[sid.index()] as usize]
    }

    /// Overwrites a state element, truncating `bits` to its width.
    pub fn set_state(&mut self, sid: StateId, bits: u64) {
        let i = sid.index();
        self.values[self.tape.state_nodes[i] as usize] = bits & mask(self.tape.state_widths[i]);
    }

    /// Overwrites every state element from `states`.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not cover exactly this netlist's states.
    pub fn load_states(&mut self, states: &StateValues) {
        assert_eq!(states.len(), self.tape.num_states(), "state count mismatch");
        for (sid, v) in states.iter() {
            self.set_state(sid, v.bits());
        }
    }

    /// Copies the current state values, in state order, into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the state count.
    pub fn read_states(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.tape.num_states(), "state count mismatch");
        for (o, &node) in out.iter_mut().zip(&self.tape.state_nodes) {
            *o = self.values[node as usize];
        }
    }

    /// The current state as a [`StateValues`].
    pub fn state_values(&self) -> StateValues {
        StateValues::from_vec(
            self.tape
                .state_nodes
                .iter()
                .zip(&self.tape.state_widths)
                .map(|(&node, &w)| Bv::new(w, self.values[node as usize]))
                .collect(),
        )
    }

    /// Sets primary input `index`, truncating `bits` to its width.
    pub fn set_input(&mut self, index: usize, bits: u64) {
        self.values[self.tape.input_nodes[index] as usize] = bits & self.tape.input_masks[index];
    }

    /// Sets every primary input from `inputs`.
    pub fn load_inputs(&mut self, inputs: &InputValues) {
        for i in 0..self.tape.input_nodes.len() {
            self.set_input(i, inputs.get(i).bits());
        }
    }

    /// Value of any node as of the last [`Machine::eval`].
    pub fn node(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// Evaluates every combinational node under the current state and
    /// inputs.
    pub fn eval(&mut self) {
        let v = &mut self.values[..];
        // One tight loop per run; `$a`/`$b` are the operand values (`$b` is
        // `$a` again for unary operators) and `$i` the instruction.
        macro_rules! each {
            ($instrs:ident, |$a:ident, $b:ident, $i:ident| $result:expr) => {
                for $i in $instrs {
                    let $a = v[$i.a as usize];
                    let $b = v[$i.b as usize];
                    v[$i.dst as usize] = $result;
                }
            };
        }
        let sext = |x: u64, shift: u32| ((x << shift) as i64) >> shift;
        for run in &self.tape.runs {
            let instrs = &self.tape.instrs[run.start as usize..run.end as usize];
            match run.op {
                Op::Not => each!(instrs, |a, _b, i| !a & i.mask),
                Op::Neg => each!(instrs, |a, _b, i| a.wrapping_neg() & i.mask),
                Op::RedOr => each!(instrs, |a, _b, _i| (a != 0) as u64),
                Op::RedAnd => each!(instrs, |a, _b, i| (a == i.mask) as u64),
                Op::RedXor => each!(instrs, |a, _b, _i| (a.count_ones() & 1) as u64),
                Op::And => each!(instrs, |a, b, _i| a & b),
                Op::Or => each!(instrs, |a, b, _i| a | b),
                Op::Xor => each!(instrs, |a, b, _i| a ^ b),
                Op::Add => each!(instrs, |a, b, i| a.wrapping_add(b) & i.mask),
                Op::Sub => each!(instrs, |a, b, i| a.wrapping_sub(b) & i.mask),
                Op::Mul => each!(instrs, |a, b, i| a.wrapping_mul(b) & i.mask),
                Op::Eq => each!(instrs, |a, b, _i| (a == b) as u64),
                Op::Ult => each!(instrs, |a, b, _i| (a < b) as u64),
                Op::Slt => each!(instrs, |a, b, i| (sext(a, i.c) < sext(b, i.c)) as u64),
                Op::Shl => each!(instrs, |a, b, i| if b >= i.c as u64 {
                    0
                } else {
                    (a << b) & i.mask
                }),
                Op::Lshr => each!(instrs, |a, b, i| if b >= i.c as u64 { 0 } else { a >> b }),
                Op::Ashr => each!(instrs, |a, b, i| {
                    let amount = b.min(i.c as u64 - 1);
                    ((sext(a, 64 - i.c) >> amount) as u64) & i.mask
                }),
                Op::Ite => each!(instrs, |a, b, i| if a != 0 { b } else { v[i.c as usize] }),
                Op::Concat => each!(instrs, |a, b, i| (a << i.c) | b),
                Op::Slice => each!(instrs, |a, _b, i| (a >> i.c) & i.mask),
                Op::Uext => each!(instrs, |a, _b, _i| a),
                Op::Sext => each!(instrs, |a, _b, i| (sext(a, i.c) as u64) & i.mask),
            }
        }
    }

    /// Moves the next-state values computed by the last [`Machine::eval`]
    /// into the state slots.
    ///
    /// # Panics
    ///
    /// Panics if some state of the compiled netlist had no next function.
    pub fn latch(&mut self) {
        let next = self
            .tape
            .next_nodes
            .as_ref()
            .expect("stepping needs a next function for every state");
        for (l, &n) in self.latch.iter_mut().zip(next) {
            *l = self.values[n as usize];
        }
        for (&l, &node) in self.latch.iter().zip(&self.tape.state_nodes) {
            self.values[node as usize] = l;
        }
    }

    /// One clock cycle under the current inputs: [`Machine::eval`] then
    /// [`Machine::latch`].
    pub fn step(&mut self) {
        self.eval();
        self.latch();
    }
}
