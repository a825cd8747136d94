//! Cone-of-influence analysis — the slicing oracle `O_slice` of the paper.
//!
//! For a target predicate over state variables `V_p`, the H-Houdini recursion
//! needs the set of state elements that can influence the *next* value of
//! `V_p` in one step of the transition system (§3.2, line 9 of Algorithm 1):
//! the state support of the next-state functions of `V_p`. [`Coi`]
//! precomputes the per-state support once so that each of the thousands of
//! per-task queries is a cheap set union.

use crate::netlist::{InputId, Netlist, NodeId, NodeOp, StateId};
use std::collections::BTreeSet;

/// Computes the state and input support of a combinational node by walking
/// its fanin cone.
///
/// Returns vectors sorted ascending by id and deduplicated. The order is
/// **guaranteed deterministic** — a pure function of the netlist, independent
/// of traversal order (the collection goes through `BTreeSet`s) — because
/// the [`Coi`] table the miner slices with must list identical supports
/// run-to-run.
pub fn node_support(netlist: &Netlist, root: NodeId) -> (Vec<StateId>, Vec<InputId>) {
    let mut seen = vec![false; netlist.num_nodes()];
    let mut states = BTreeSet::new();
    let mut inputs = BTreeSet::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        match netlist.node(id).op {
            NodeOp::State(s) => {
                states.insert(s);
            }
            NodeOp::Input(i) => {
                inputs.insert(i);
            }
            _ => stack.extend(netlist.operands(id)),
        }
    }
    (states.into_iter().collect(), inputs.into_iter().collect())
}

/// Precomputed 1-step cone-of-influence table: for every state element, the
/// states its next-state function reads.
#[derive(Debug, Clone)]
pub struct Coi {
    state_deps: Vec<Vec<StateId>>,
}

impl Coi {
    /// Analyses a complete netlist.
    ///
    /// # Panics
    ///
    /// Panics if any state lacks a next function.
    pub fn new(netlist: &Netlist) -> Coi {
        let state_deps = (netlist.state_ids())
            .map(|s| node_support(netlist, netlist.next_of(s)).0)
            .collect();
        Coi { state_deps }
    }

    /// The state elements read by the next-state function of `s`.
    pub fn states_of(&self, s: StateId) -> &[StateId] {
        &self.state_deps[s.index()]
    }

    /// `O_slice`: the union of 1-step cones of the given target variables —
    /// every state element that can influence any of them in one transition.
    ///
    /// The result is sorted ascending by id and deduplicated, regardless of
    /// the order (or multiplicity) of `targets`: cache keys and the parallel
    /// scheduler's deterministic cone-size priorities depend on this order
    /// being a pure function of the netlist and the target *set*.
    pub fn one_step(&self, targets: &[StateId]) -> Vec<StateId> {
        let mut out = BTreeSet::new();
        for &t in targets {
            out.extend(self.states_of(t).iter().copied());
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::Bv;
    use crate::netlist::Netlist;

    /// Three-register pipeline a -> b -> c plus an unrelated register u.
    fn pipeline() -> (Netlist, [StateId; 4]) {
        let mut n = Netlist::new("pipe");
        let a = n.state("a", 4, Bv::zero(4));
        let b = n.state("b", 4, Bv::zero(4));
        let c = n.state("c", 4, Bv::zero(4));
        let u = n.state("u", 4, Bv::zero(4));
        let i = n.input("i", 4);
        n.set_next(a, i);
        let an = n.state_node(a);
        n.set_next(b, an);
        let bn = n.state_node(b);
        n.set_next(c, bn);
        n.keep_state(u);
        (n, [a, b, c, u])
    }

    #[test]
    fn one_step_coi_is_direct_predecessors() {
        let (n, [a, b, c, u]) = pipeline();
        let coi = Coi::new(&n);
        assert_eq!(coi.one_step(&[c]), vec![b]);
        assert_eq!(coi.one_step(&[b]), vec![a]);
        assert_eq!(coi.one_step(&[a]), vec![]); // input only
        assert_eq!(coi.one_step(&[u]), vec![u]); // self-loop
        assert_eq!(coi.one_step(&[b, c]), vec![a, b]);
    }

    #[test]
    fn node_support_sees_through_logic() {
        let mut n = Netlist::new("t");
        let a = n.state("a", 1, Bv::bit(false));
        let b = n.state("b", 1, Bv::bit(false));
        let i = n.input("i", 1);
        let an = n.state_node(a);
        let bn = n.state_node(b);
        let x = n.and(an, bn);
        let y = n.or(x, i);
        let (st, inp) = node_support(&n, y);
        assert_eq!(st, vec![a, b]);
        assert_eq!(inp.len(), 1);
    }

    /// Regression against brute force on pseudo-random netlists: `one_step`
    /// must equal the sorted, deduplicated union of per-target
    /// [`node_support`] calls, in guaranteed ascending order.
    #[test]
    fn one_step_matches_brute_force_support() {
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // xorshift64*: deterministic, no external crates.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545f4914f6cdd1d)
        };
        for trial in 0..8 {
            let mut n = Netlist::new("rand");
            let states: Vec<StateId> = (0..10)
                .map(|i| n.state(format!("s{i}"), 4, Bv::zero(4)))
                .collect();
            let inputs: Vec<NodeId> = (0..3).map(|i| n.input(format!("i{i}"), 4)).collect();
            for &s in &states {
                // Random 2–4 leaf expression over states and inputs.
                let mut leaves: Vec<NodeId> = Vec::new();
                for _ in 0..(2 + next() % 3) {
                    if next() % 4 == 0 {
                        leaves.push(inputs[(next() % 3) as usize]);
                    } else {
                        leaves.push(n.state_node(states[(next() % 10) as usize]));
                    }
                }
                let mut acc = leaves[0];
                for &l in &leaves[1..] {
                    acc = match next() % 3 {
                        0 => n.and(acc, l),
                        1 => n.add(acc, l),
                        _ => n.xor(acc, l),
                    };
                }
                n.set_next(s, acc);
            }
            let coi = Coi::new(&n);
            // Random target sets, in shuffled order with duplicates.
            for _ in 0..10 {
                let mut targets: Vec<StateId> = (0..(1 + next() % 5))
                    .map(|_| states[(next() % 10) as usize])
                    .collect();
                targets.push(targets[0]); // explicit duplicate

                // Brute force one_step: union of per-target node_support.
                let mut expect = BTreeSet::new();
                for &t in &targets {
                    let (st, _) = node_support(&n, n.next_of(t));
                    expect.extend(st);
                }
                let expect: Vec<StateId> = expect.into_iter().collect();
                let got = coi.one_step(&targets);
                assert_eq!(got, expect, "trial {trial}: one_step != brute force");
                assert!(got.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated");
            }
        }
    }

    #[test]
    fn coi_respects_mux_structure() {
        // next(r) = ite(sel, x, y): all of sel, x, y are in the cone.
        let mut n = Netlist::new("t");
        let r = n.state("r", 4, Bv::zero(4));
        let sel = n.state("sel", 1, Bv::bit(false));
        let x = n.state("x", 4, Bv::zero(4));
        let y = n.state("y", 4, Bv::zero(4));
        let seln = n.state_node(sel);
        let xn = n.state_node(x);
        let yn = n.state_node(y);
        let nxt = n.ite(seln, xn, yn);
        n.set_next(r, nxt);
        n.keep_state(sel);
        n.keep_state(x);
        n.keep_state(y);
        let coi = Coi::new(&n);
        assert_eq!(coi.one_step(&[r]), vec![sel, x, y]);
    }
}
