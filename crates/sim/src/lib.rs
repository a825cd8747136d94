//! # hh-sim — cycle-accurate simulation and paired-trace generation
//!
//! Positive examples in VeloCT (paper §5.2) come from *concrete* executions:
//! a pair of traces that run the same instruction sequence but differ in
//! secret operand values. This crate provides the simulation machinery:
//!
//! * [`simulate`] — run a netlist for N cycles from a given initial state,
//! * [`Trace`] — the resulting state/input history,
//! * [`product_states`] — zip a left and right trace into product states of a
//!   miter, which is the raw material for positive examples (Def. 4.8).
//!
//! ```
//! use hh_netlist::{Netlist, Bv};
//! use hh_netlist::eval::{InputValues, StateValues};
//! use hh_sim::simulate;
//!
//! let mut n = Netlist::new("counter");
//! let c = n.state("c", 8, Bv::zero(8));
//! let cur = n.state_node(c);
//! let one = n.c(8, 1);
//! let nxt = n.add(cur, one);
//! n.set_next(c, nxt);
//!
//! let inputs = vec![InputValues::zeros(&n); 5];
//! let trace = hh_sim::simulate(&n, StateValues::initial(&n), &inputs);
//! assert_eq!(trace.states[5].get(c), Bv::new(8, 5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::miter::{Miter, Side};
use hh_netlist::tape::Tape;
use hh_netlist::Netlist;

/// A finite execution: `states[i]` is the state *entering* cycle `i`
/// (`states[0]` is the initial state), `inputs[i]` the inputs applied during
/// cycle `i`. `states.len() == inputs.len() + 1`.
#[derive(Debug, Clone)]
pub struct Trace<'a> {
    /// State history (length = cycles + 1).
    pub states: Vec<StateValues>,
    /// Input history (length = cycles), borrowed from the caller.
    pub inputs: &'a [InputValues],
}

impl Trace<'_> {
    /// Number of simulated cycles.
    pub fn cycles(&self) -> usize {
        self.inputs.len()
    }
}

/// Runs `netlist` from `initial` applying `inputs` cycle by cycle.
///
/// The netlist is compiled to a [`Tape`] once and stepped on one value
/// buffer; the only per-cycle allocation is the recorded state itself.
pub fn simulate<'a>(
    netlist: &Netlist,
    initial: StateValues,
    inputs: &'a [InputValues],
) -> Trace<'a> {
    let tape = Tape::compile(netlist);
    let mut machine = tape.machine();
    machine.load_states(&initial);
    let mut states = Vec::with_capacity(inputs.len() + 1);
    states.push(initial);
    for iv in inputs {
        machine.load_inputs(iv);
        machine.step();
        states.push(machine.state_values());
    }
    Trace { states, inputs }
}

/// Zips two equal-length traces of the *base* design into product states of
/// the miter: cycle `i`'s product state takes each product state element's
/// value from the side and base state [`Miter::origin`] names.
///
/// # Panics
///
/// Panics if trace lengths differ (paper Def. 4.5 pads the shorter trace;
/// our generator always produces equal-length pairs by construction).
pub fn product_states(miter: &Miter, left: &Trace, right: &Trace) -> Vec<StateValues> {
    assert_eq!(
        left.states.len(),
        right.states.len(),
        "paired traces must have equal length"
    );
    let origin: Vec<_> = miter
        .netlist()
        .state_ids()
        .map(|p| miter.origin(p))
        .collect();
    left.states
        .iter()
        .zip(&right.states)
        .map(|(ls, rs)| {
            StateValues::from_vec(
                origin
                    .iter()
                    .map(|&(base, side)| match side {
                        Side::Left => ls.get(base),
                        Side::Right => rs.get(base),
                    })
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::Bv;

    /// acc' = acc + in.
    fn accumulator() -> Netlist {
        let mut n = Netlist::new("acc");
        let acc = n.state("acc", 8, Bv::zero(8));
        let i = n.input("i", 8);
        let cur = n.state_node(acc);
        let nxt = n.add(cur, i);
        n.set_next(acc, nxt);
        n
    }

    fn drive(n: &Netlist, vals: &[u64]) -> Vec<InputValues> {
        vals.iter()
            .map(|&v| {
                let mut iv = InputValues::zeros(n);
                iv.set_by_name(n, "i", Bv::new(8, v));
                iv
            })
            .collect()
    }

    #[test]
    fn simulate_accumulates() {
        let n = accumulator();
        let acc = n.find_state("acc").unwrap();
        let inputs = drive(&n, &[1, 2, 3, 4]);
        let t = simulate(&n, StateValues::initial(&n), &inputs);
        assert_eq!(t.cycles(), 4);
        let got: Vec<u64> = t.states.iter().map(|s| s.get(acc).bits()).collect();
        assert_eq!(got, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn product_states_assemble_both_sides() {
        let n = accumulator();
        let m = Miter::build(&n);
        let acc = n.find_state("acc").unwrap();
        let inputs = drive(&n, &[1, 1]);
        let mut li = StateValues::initial(&n);
        li.set(acc, Bv::new(8, 10));
        let mut ri = StateValues::initial(&n);
        ri.set(acc, Bv::new(8, 20));
        let (lt, rt) = (simulate(&n, li, &inputs), simulate(&n, ri, &inputs));
        let ps = product_states(&m, &lt, &rt);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].get(m.left(acc)).bits(), 10);
        assert_eq!(ps[0].get(m.right(acc)).bits(), 20);
        assert_eq!(ps[2].get(m.left(acc)).bits(), 12);
        assert_eq!(ps[2].get(m.right(acc)).bits(), 22);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_traces_panic() {
        let n = accumulator();
        let m = Miter::build(&n);
        let (short, long) = (drive(&n, &[1]), drive(&n, &[1, 2]));
        let t1 = simulate(&n, StateValues::initial(&n), &short);
        let t2 = simulate(&n, StateValues::initial(&n), &long);
        product_states(&m, &t1, &t2);
    }
}
