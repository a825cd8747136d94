//! Property test: equal cone signatures imply observational equivalence.
//!
//! `hh-smt`'s cross-target encoding cache replays one target's CNF for any
//! signature-equal target, so the signature must never collide for cones
//! that can behave differently. This test generates netlists full of
//! renamed-copy cones, then checks every pair of states whose 1-step cone
//! signatures collide: under random stimulus where witness-corresponding
//! leaves carry equal values, the two next-state functions must produce
//! identical values on every simulated cycle.

use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::signature::{ConeSignature, SigBuilder};
use hh_netlist::simp::SimpMap;
use hh_netlist::{Bv, Netlist, NodeId, StateId};
use hh_sim::simulate;
use std::collections::HashMap;

/// Deterministic xorshift64* PRNG (no external deps).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn bv(&mut self, width: u32) -> Bv {
        Bv::new(width, self.next() & (u64::MAX >> (64 - width)))
    }
}

/// Applies one random op recipe step over a leaf/node pool. The same
/// `(op, a, b)` recipe applied to two pools of width-matched nodes builds
/// structurally isomorphic expressions.
fn apply_op(n: &mut Netlist, pool: &mut Vec<NodeId>, op: u64, a: u64, b: u64) {
    let x = pool[(a as usize) % pool.len()];
    let y = pool[(b as usize) % pool.len()];
    let w = n.width(x).max(n.width(y));
    let xe = n.uext(x, w);
    let ye = n.uext(y, w);
    let node = match op % 7 {
        0 => n.and(xe, ye),
        1 => n.or(xe, ye),
        2 => n.xor(xe, ye),
        3 => n.add(xe, ye),
        4 => n.not(xe),
        5 => {
            let c = n.redor(ye);
            n.ite(c, xe, ye)
        }
        _ => n.sub(xe, ye),
    };
    pool.push(node);
}

/// Builds a netlist of `pairs` twin-state groups: each group has two states
/// `p`/`q` of the same width whose next functions apply an identical random
/// recipe over (own state, a shared aux state, a shared input). The twins'
/// cones are renamed copies of each other by construction.
fn build(rng: &mut Rng, pairs: usize) -> (Netlist, Vec<StateId>) {
    let widths = [1u32, 4, 8];
    let mut n = Netlist::new("sigprop");
    let mut all = Vec::new();
    for g in 0..pairs {
        let w = widths[rng.below(3) as usize];
        let p = n.state(format!("p{g}"), w, Bv::zero(w));
        let q = n.state(format!("q{g}"), w, Bv::zero(w));
        let aux = n.state(format!("a{g}"), w, Bv::zero(w));
        let inp = n.input(format!("i{g}"), w);
        n.keep_state(aux);
        let recipe: Vec<(u64, u64, u64)> = (0..1 + rng.below(5))
            .map(|_| (rng.next(), rng.next(), rng.next()))
            .collect();
        let auxn = n.state_node(aux);
        for &s in &[p, q] {
            let own = n.state_node(s);
            let mut pool = vec![own, auxn, inp];
            for &(op, a, b) in &recipe {
                apply_op(&mut n, &mut pool, op, a, b);
            }
            let last = *pool.last().unwrap();
            let nxt = if n.width(last) >= w {
                n.slice(last, w - 1, 0)
            } else {
                n.uext(last, w)
            };
            n.set_next(s, nxt);
        }
        all.extend([p, q, aux]);
    }
    (n, all)
}

/// The signature a session-style caller would build: current-state fetch of
/// the target, then the root of its next function.
fn sig_of(n: &Netlist, simp: &SimpMap, s: StateId) -> ConeSignature {
    let mut b = SigBuilder::new(n, simp);
    b.state(s);
    b.root(n.next_of(s));
    b.finish()
}

#[test]
fn equal_signatures_imply_observational_equivalence() {
    let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
    for _trial in 0..12 {
        let pairs = 1 + rng.below(4) as usize;
        let (n, states) = build(&mut rng, pairs);
        let simp = SimpMap::build(&n);
        let sigs: Vec<ConeSignature> = states.iter().map(|&s| sig_of(&n, &simp, s)).collect();

        // Twins are adjacent (p, q, aux triples): each group's p/q must
        // collide — the generator's guarantee that collisions exist at all.
        for chunk in states.chunks(3) {
            let (p, q) = (chunk[0], chunk[1]);
            let ip = states.iter().position(|&s| s == p).unwrap();
            let iq = states.iter().position(|&s| s == q).unwrap();
            assert_eq!(sigs[ip].key, sigs[iq].key, "twin cones must collide");
        }

        // The property: EVERY colliding pair (twins or accidental) must be
        // observationally equivalent under witness-corresponding stimulus.
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                if sigs[i].key != sigs[j].key {
                    continue;
                }
                check_equiv(&mut rng, &n, states[i], states[j], &sigs[i], &sigs[j]);
            }
        }
    }
}

fn check_equiv(
    rng: &mut Rng,
    n: &Netlist,
    s: StateId,
    t: StateId,
    sig_s: &ConeSignature,
    sig_t: &ConeSignature,
) {
    assert_eq!(sig_s.witness.states.len(), sig_t.witness.states.len());
    assert_eq!(sig_s.witness.inputs.len(), sig_t.witness.inputs.len());
    'stimulus: for _ in 0..8 {
        // Random full assignment, then constrain witness-corresponding
        // leaves to equal values. A leaf shared between the witnesses at
        // different canonical positions can make the constraints
        // unsatisfiable; such stimuli are skipped.
        let mut sv = StateValues::initial(n);
        for sid in n.state_ids() {
            sv.set(sid, rng.bv(n.state_width(sid)));
        }
        let mut iv = InputValues::zeros(n);
        for iid in n.input_ids() {
            let name = n.input_name(iid).to_string();
            iv.set_by_name(n, &name, rng.bv(n.input_width(iid)));
        }
        let mut sfix: HashMap<StateId, Bv> = HashMap::new();
        for (k, &a) in sig_s.witness.states.iter().enumerate() {
            let b = sig_t.witness.states[k];
            let v = *sfix.entry(a).or_insert_with(|| sv.get(a));
            match sfix.get(&b) {
                Some(&existing) if existing != v => continue 'stimulus,
                _ => {
                    sfix.insert(b, v);
                }
            }
        }
        for (&sid, &v) in &sfix {
            sv.set(sid, v);
        }
        let mut ifix: HashMap<hh_netlist::InputId, Bv> = HashMap::new();
        for (k, &a) in sig_s.witness.inputs.iter().enumerate() {
            let b = sig_t.witness.inputs[k];
            let v = *ifix.entry(a).or_insert_with(|| iv.get(a.index()));
            match ifix.get(&b) {
                Some(&existing) if existing != v => continue 'stimulus,
                _ => {
                    ifix.insert(b, v);
                }
            }
        }
        for (&iid, &v) in &ifix {
            let name = n.input_name(iid).to_string();
            iv.set_by_name(n, &name, v);
        }

        // One cycle: `states[1]` holds each next-state function's value.
        let trace = simulate(n, sv, std::slice::from_ref(&iv));
        assert_eq!(
            trace.states[1].get(s),
            trace.states[1].get(t),
            "signature-equal cones diverged under corresponding stimulus \
             (states {s:?} vs {t:?})"
        );
    }
}
