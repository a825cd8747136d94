//! Property tests for the netlist IR:
//!
//! * btor2 serialisation round-trips: a random design written to btor2 and
//!   re-parsed is cycle-equivalent to the original;
//! * miter soundness: with equal initial states and shared inputs, the two
//!   copies of a miter never diverge;
//! * COI completeness: every state whose value can influence a target's
//!   next value in one step is in the reported 1-step cone (Contract 1's
//!   `O_slice` requirement), validated by fault injection;
//! * the compiled tape agrees with `eval_all`/`step`, node for node, on
//!   random netlists that use every operator at widths from 1 to 64;
//! * hostile btor2 — such a netlist's `to_btor2` text with one sort width,
//!   slice bound, constant or reference changed — is `Ok` or `Err` from
//!   `parse_btor2`, never a panic.

use hh_netlist::btor2::{parse_btor2, to_btor2};
use hh_netlist::coi::Coi;
use hh_netlist::eval::{eval_all, step, InputValues, StateValues};
use hh_netlist::miter::Miter;
use hh_netlist::tape::Tape;
use hh_netlist::{Bv, Netlist, NodeId, StateId};
use proptest::prelude::*;

const W: u32 = 6;
const NREGS: usize = 4;

#[derive(Debug, Clone)]
struct Recipe {
    op: u8,
    a: u8,
    b: u8,
    use_input: bool,
}

fn arb_recipes() -> impl Strategy<Value = Vec<Recipe>> {
    proptest::collection::vec(
        (0u8..9, any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(op, a, b, use_input)| {
            Recipe {
                op,
                a,
                b,
                use_input,
            }
        }),
        NREGS,
    )
}

fn build(recipes: &[Recipe]) -> Netlist {
    let mut n = Netlist::new("prop");
    let regs: Vec<_> = (0..NREGS)
        .map(|i| n.state(format!("r{i}"), W, Bv::new(W, i as u64 + 1)))
        .collect();
    let input = n.input("in", W);
    for (i, rec) in recipes.iter().enumerate() {
        let a = n.state_node(regs[rec.a as usize % NREGS]);
        let b = if rec.use_input {
            input
        } else {
            n.state_node(regs[rec.b as usize % NREGS])
        };
        let next = match rec.op {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            3 => n.add(a, b),
            4 => n.sub(a, b),
            5 => n.mul(a, b),
            6 => {
                let c = n.ult(a, b);
                let t = n.not(a);
                n.ite(c, t, b)
            }
            7 => {
                let amt = n.c(W, (rec.b % 5) as u64);
                n.shl(a, amt)
            }
            _ => a,
        };
        n.set_next(regs[i], next);
    }
    n.add_output("o", n.state_node(regs[0]));
    n
}

fn drive(n: &Netlist, vals: &[u64]) -> Vec<InputValues> {
    vals.iter()
        .map(|&v| {
            let mut iv = InputValues::zeros(n);
            iv.set_by_name(n, "in", Bv::new(W, v));
            iv
        })
        .collect()
}

/// Operators [`build_mixed`] can apply; the first `MIXED_OPS` recipes of a
/// netlist use each once, so every case covers every `NodeOp`.
const MIXED_OPS: u8 = 22;
/// Leaf widths: the extremes, a narrow and a byte-sized word.
const LEAF_WIDTHS: [u32; 4] = [1, 5, 8, 64];

#[derive(Debug, Clone)]
struct MixedRecipe {
    op: u8,
    a: u16,
    b: u16,
    c: u16,
    k: u8,
}

fn arb_mixed() -> impl Strategy<Value = Vec<MixedRecipe>> {
    proptest::collection::vec(
        (
            0u8..MIXED_OPS,
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
        )
            .prop_map(|(op, a, b, c, k)| MixedRecipe { op, a, b, c, k }),
        MIXED_OPS as usize..60,
    )
}

/// Values biased towards the sign and carry edges (truncated to each
/// leaf's width when applied).
fn arb_word() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(1u64 << 63),
        Just(0x80u64),
        Just(0x7fu64),
        Just(64u64),
        0u64..70,
        any::<u64>(),
    ]
}

/// A random DAG over inputs, states and constants of [`LEAF_WIDTHS`]. Every
/// state's next function is a random node of its width (possibly another
/// state's current value, which is what makes `latch` order-sensitive).
/// Returns the netlist and the id of every node in it.
fn build_mixed(recipes: &[MixedRecipe]) -> (Netlist, Vec<NodeId>) {
    let mut n = Netlist::new("mixed");
    let mut pool: Vec<NodeId> = Vec::new();
    let mut states: Vec<StateId> = Vec::new();
    for &w in &LEAF_WIDTHS {
        pool.push(n.input(format!("i{w}"), w));
        for k in 0..2u64 {
            let s = n.state(
                format!("s{w}_{k}"),
                w,
                Bv::new(w, 0x9e37_79b9_7f4a_7c15 >> k),
            );
            states.push(s);
            pool.push(n.state_node(s));
        }
        pool.push(n.constant(Bv::ones(w)));
        pool.push(n.c(w, 1u64 << (w - 1)));
    }
    fn of_width(n: &Netlist, pool: &[NodeId], w: u32, sel: u16) -> NodeId {
        let c: Vec<NodeId> = pool.iter().copied().filter(|&x| n.width(x) == w).collect();
        c[sel as usize % c.len()]
    }
    for (i, r) in recipes.iter().enumerate() {
        let op = if i < MIXED_OPS as usize {
            i as u8
        } else {
            r.op
        };
        let a = pool[r.a as usize % pool.len()];
        let w = n.width(a);
        let same = of_width(&n, &pool, w, r.b);
        let any = pool[r.b as usize % pool.len()];
        let node = match op {
            0 => n.not(a),
            1 => n.neg(a),
            2 => n.redor(a),
            3 => n.redand(a),
            4 => n.redxor(a),
            5 => n.and(a, same),
            6 => n.or(a, same),
            7 => n.xor(a, same),
            8 => n.add(a, same),
            9 => n.sub(a, same),
            10 => n.mul(a, same),
            11 => n.eq(a, same),
            12 => n.ult(a, same),
            13 => n.slt(a, same),
            // Shift amounts of any width: 64-bit amounts and the `arb_word`
            // edge values routinely exceed the shifted operand's width.
            14 => n.shl(a, any),
            15 => n.lshr(a, any),
            16 => n.ashr(a, any),
            17 => {
                let cond = of_width(&n, &pool, 1, r.c);
                n.ite(cond, a, same)
            }
            18 if w + n.width(any) <= 64 => n.concat(a, any),
            18 => a,
            19 => {
                let lo = r.k as u32 % w;
                let hi = lo + (r.c as u32 % (w - lo));
                n.slice(a, hi, lo)
            }
            20 => n.uext(a, w + r.k as u32 % (65 - w)),
            _ => n.sext(a, w + r.k as u32 % (65 - w)),
        };
        pool.push(node);
    }
    for (i, &s) in states.iter().enumerate() {
        let sel = recipes[i % recipes.len()].c;
        let next = of_width(&n, &pool, n.state_width(s), sel);
        n.set_next(s, next);
    }
    (n, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled tape is `eval_all` and `step`: every node value, every
    /// cycle, from random states under random inputs.
    #[test]
    fn tape_matches_reference_evaluator(
        recipes in arb_mixed(),
        state_words in proptest::collection::vec(arb_word(), 8),
        input_words in proptest::collection::vec(arb_word(), 12),
    ) {
        let (n, nodes) = build_mixed(&recipes);
        prop_assert_eq!(nodes.iter().map(|x| x.index()).max(), Some(n.num_nodes() - 1));
        let mut s = StateValues::initial(&n);
        for (sid, &v) in n.state_ids().zip(&state_words) {
            s.set(sid, Bv::new(n.state_width(sid), v));
        }
        let tape = Tape::compile(&n);
        let mut m = tape.machine();
        m.load_states(&s);
        for cycle in input_words.chunks(LEAF_WIDTHS.len()) {
            let mut iv = InputValues::zeros(&n);
            for (&w, &v) in LEAF_WIDTHS.iter().zip(cycle) {
                iv.set_by_name(&n, &format!("i{w}"), Bv::new(w, v));
            }
            m.load_inputs(&iv);
            m.eval();
            let want = eval_all(&n, &s, &iv);
            for &id in &nodes {
                prop_assert_eq!(
                    m.node(id),
                    want[id.index()].bits(),
                    "node {:?} differs",
                    n.node(id)
                );
            }
            m.latch();
            s = step(&n, &s, &iv);
            prop_assert_eq!(m.state_values(), s.clone());
        }
    }

    /// btor2 round-trip preserves cycle behaviour.
    #[test]
    fn btor2_roundtrip_is_cycle_equivalent(
        recipes in arb_recipes(),
        inputs in proptest::collection::vec(0u64..64, 1..8),
    ) {
        let a = build(&recipes);
        let text = to_btor2(&a);
        let b = parse_btor2(&text).expect("own output parses");
        prop_assert_eq!(a.num_states(), b.num_states());

        let mut sa = StateValues::initial(&a);
        let mut sb = StateValues::initial(&b);
        let iva = drive(&a, &inputs);
        let ivb = drive(&b, &inputs);
        for (ia, ib) in iva.iter().zip(&ivb) {
            sa = step(&a, &sa, ia);
            sb = step(&b, &sb, ib);
        }
        for sid in a.state_ids() {
            let name = a.state_name(sid).to_string();
            let other = b.find_state(&name).expect("state preserved");
            prop_assert_eq!(sa.get(sid), sb.get(other), "state {} diverged", name);
        }
    }

    /// Miter copies with equal initial state and shared inputs stay equal.
    #[test]
    fn miter_copies_stay_equal_from_equal_states(
        recipes in arb_recipes(),
        inputs in proptest::collection::vec(0u64..64, 1..8),
    ) {
        let base = build(&recipes);
        let m = Miter::build(&base);
        let mut s = StateValues::initial(m.netlist());
        let ivs = drive(m.netlist(), &inputs);
        for iv in &ivs {
            s = step(m.netlist(), &s, iv);
            for b in m.base_state_ids() {
                prop_assert_eq!(s.get(m.left(b)), s.get(m.right(b)));
            }
        }
    }

    /// Fault-injection check of `O_slice` completeness: if flipping a source
    /// state's value changes some target state's next value (under any tried
    /// input), the source must be in the target's reported 1-step COI.
    #[test]
    fn coi_is_complete_under_fault_injection(
        recipes in arb_recipes(),
        base_vals in proptest::collection::vec(0u64..64, NREGS),
        input in 0u64..64,
        flip in 0usize..NREGS,
        flip_bit in 0u32..W,
    ) {
        let n = build(&recipes);
        let coi = Coi::new(&n);
        let mut s = StateValues::initial(&n);
        for (i, &v) in base_vals.iter().enumerate() {
            s.set(n.find_state(&format!("r{i}")).unwrap(), Bv::new(W, v));
        }
        let iv = drive(&n, &[input]).pop().unwrap();
        let next_a = step(&n, &s, &iv);

        // Flip one bit of one source register.
        let src = n.find_state(&format!("r{flip}")).unwrap();
        let mut s2 = s.clone();
        let flipped = Bv::new(W, s.get(src).bits() ^ (1 << flip_bit));
        s2.set(src, flipped);
        let next_b = step(&n, &s2, &iv);

        for t in n.state_ids() {
            if next_a.get(t) != next_b.get(t) {
                prop_assert!(
                    coi.states_of(t).contains(&src),
                    "state {} influenced {} but is not in its COI",
                    n.state_name(src),
                    n.state_name(t)
                );
            }
        }
    }
}

/// splitmix64: the hostile-btor2 property's seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// btor2 text with one number after a line's kind replaced: a sort width,
/// a slice bound, a constant or a sort or operand reference, each set to a
/// value the line's neighbours may not accept.
fn mutate_btor2(text: &str, rng: &mut SplitMix) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .filter(|l| !l.starts_with(';'))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    let ids = lines.len();
    let toks = &mut lines[rng.below(ids)];
    let at = 2 + rng.below(toks.len() - 2);
    if toks[at].parse::<u64>().is_ok() {
        toks[at] = (1 + rng.below(ids.max(70))).to_string();
    }
    let out: Vec<String> = lines.iter().map(|t| t.join(" ")).collect();
    out.join("\n")
}

/// btor2 text with one line repeated right after itself under the same id,
/// an input or state under a new name: a repeated state that shadowed the
/// first would leave that one without a next function.
fn reuse_btor2_id(text: &str, rng: &mut SplitMix) -> String {
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with(';'))
        .map(str::to_string)
        .collect();
    let at = rng.below(lines.len());
    let mut copy = lines[at].clone();
    if matches!(copy.split_whitespace().nth(1), Some("input" | "state")) {
        copy.push_str("_again");
    }
    lines.insert(at + 1, copy);
    lines.join("\n")
}

/// Mutated netlists are refused or accepted, never a panic; and what
/// `parse_btor2` accepts, `Miter::build` builds.
#[test]
fn mutated_btor2_is_an_error_never_a_panic() {
    let mut rng = SplitMix(0x4854_4232);
    let (mut ok, mut rejected) = (0, 0);
    for case in 0..400 {
        let len = MIXED_OPS as usize + rng.below(30);
        let recipes: Vec<MixedRecipe> = (0..len)
            .map(|_| MixedRecipe {
                op: rng.below(MIXED_OPS as usize) as u8,
                a: rng.next() as u16,
                b: rng.next() as u16,
                c: rng.next() as u16,
                k: rng.next() as u8,
            })
            .collect();
        let text = to_btor2(&build_mixed(&recipes).0);
        for text in [
            mutate_btor2(&text, &mut rng),
            reuse_btor2_id(&text, &mut rng),
        ] {
            let parsed = std::panic::catch_unwind(|| parse_btor2(&text).map(|n| Miter::build(&n)));
            match parsed {
                Ok(Ok(_)) => ok += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("case {case}: parse_btor2 or Miter::build panicked on\n{text}"),
            }
        }
    }
    // Both outcomes occur, so the mutations reach the width checks.
    assert!(ok > 0 && rejected > 0, "{ok} parsed, {rejected} rejected");
}
