//! Property-based soundness: on randomly generated sequential designs with
//! randomly generated positive examples, whatever H-Houdini learns must be
//! (a) genuinely inductive — confirmed by an independent monolithic SMT
//! query — and (b) admit every positive example (premise P-S). This is the
//! correct-by-construction claim of §3.1, checked adversarially.

use hh_suite::hhoudini::mine::CoiMiner;
use hh_suite::hhoudini::{EngineConfig, FifoDriver, ParallelEngine};
use hh_suite::netlist::eval::{InputValues, StateValues};
use hh_suite::netlist::miter::Miter;
use hh_suite::netlist::{Bv, Netlist, NodeId};
use hh_suite::sim::product_states;
use hh_suite::smt::Predicate;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static LEARNED: AtomicUsize = AtomicUsize::new(0);
static REFUTED: AtomicUsize = AtomicUsize::new(0);
static SKIPPED: AtomicUsize = AtomicUsize::new(0);

const W: u32 = 4;
const NREGS: usize = 5;

/// Recipe for one register's next-state function.
#[derive(Debug, Clone)]
struct RegRecipe {
    op: u8,
    a: u8,
    b: u8,
    use_input: bool,
}

fn arb_design() -> impl Strategy<Value = Vec<RegRecipe>> {
    proptest::collection::vec(
        (0u8..6, any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(op, a, b, use_input)| {
            RegRecipe {
                op,
                a,
                b,
                use_input,
            }
        }),
        NREGS,
    )
}

/// Builds a random design: NREGS registers, each updated from two other
/// registers (and possibly the shared input) through a random operator.
fn build(recipes: &[RegRecipe]) -> Netlist {
    let mut n = Netlist::new("rand");
    let regs: Vec<_> = (0..NREGS)
        .map(|i| n.state(format!("r{i}"), W, Bv::zero(W)))
        .collect();
    let input = n.input("in", W);
    for (i, rec) in recipes.iter().enumerate() {
        let a = n.state_node(regs[rec.a as usize % NREGS]);
        let b = if rec.use_input {
            input
        } else {
            n.state_node(regs[rec.b as usize % NREGS])
        };
        let next: NodeId = match rec.op {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            3 => n.add(a, b),
            4 => {
                let c = n.ult(a, b);
                n.uext(c, W)
            }
            _ => a, // hold
        };
        n.set_next(regs[i], next);
    }
    n
}

/// Simulates an equal-modulo-secret pair on shared inputs; returns the
/// product states if the observable (r0) stays equal, else None.
fn example_pair(
    base: &Netlist,
    miter: &Miter,
    secrets: &[(u64, u64)],
    inputs: &[u64],
) -> Option<Vec<StateValues>> {
    let r0 = base.find_state("r0").unwrap();
    let ivs: Vec<InputValues> = inputs
        .iter()
        .map(|&v| {
            let mut iv = InputValues::zeros(base);
            iv.set_by_name(base, "in", Bv::new(W, v));
            iv
        })
        .collect();
    let mut left = StateValues::initial(base);
    let mut right = StateValues::initial(base);
    for (i, &(l, r)) in secrets.iter().enumerate() {
        let sid = base.find_state(&format!("r{}", i + 1)).unwrap();
        left.set(sid, Bv::new(W, l));
        right.set(sid, Bv::new(W, r));
    }
    let lt = hh_suite::sim::simulate(base, left, &ivs);
    let rt = hh_suite::sim::simulate(base, right, &ivs);
    // The property must hold along the trace for it to be positive.
    for (ls, rs) in lt.states.iter().zip(&rt.states) {
        if ls.get(r0) != rs.get(r0) {
            return None;
        }
    }
    let mut ps = product_states(miter, &lt, &rt);
    ps.pop();
    Some(ps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn learned_invariants_are_always_sound(
        recipes in arb_design(),
        secrets in proptest::collection::vec((0u64..16, 0u64..16), NREGS - 1),
        inputs in proptest::collection::vec(0u64..16, 6),
    ) {
        let base = build(&recipes);
        let miter = Miter::build(&base);
        let Some(examples) = example_pair(&base, &miter, &secrets, &inputs) else {
            // The pair already violates the property: nothing to learn from.
            SKIPPED.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        prop_assume!(!examples.is_empty());

        let r0 = base.find_state("r0").unwrap();
        let prop = Predicate::eq(miter.left(r0), miter.right(r0));
        let miner = CoiMiner::new(&miter, &examples, None, vec![]);
        // The virtual backend: the whole engine on this thread.
        let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 1);
        match engine.learn_sim(std::slice::from_ref(&prop), &mut FifoDriver) {
            Some(inv) => {
                LEARNED.fetch_add(1, Ordering::Relaxed);
                // (a) Correct by construction: the composed invariant must
                // pass the monolithic inductivity check it never ran.
                prop_assert!(
                    inv.verify_monolithic(miter.netlist()),
                    "learned invariant is not inductive: {}",
                    inv.describe(miter.netlist())
                );
                // The property is part of the invariant (H ⟹ P trivially).
                prop_assert!(inv.contains(&prop));
                // (b) Premise P-S: every positive example is admitted.
                for e in &examples {
                    prop_assert!(inv.holds_on(e));
                }
            }
            None => {
                // Failure is always a legal answer (completeness is relative
                // to the predicate universe); nothing further to check.
                REFUTED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Runs after the proptest (alphabetical ordering is not guaranteed, so this
/// is only a smoke check that the generator produces a meaningful mix when
/// it has run).
#[test]
fn zz_generator_produces_nontrivial_mix() {
    // Force a couple of deterministic interesting cases through the same
    // pipeline to guarantee both outcomes are exercised at least once.
    // Case 1: r0 holds itself -> provable.
    let mut provable = vec![
        RegRecipe {
            op: 5,
            a: 0,
            b: 0,
            use_input: false
        };
        NREGS
    ];
    provable[0] = RegRecipe {
        op: 5,
        a: 0,
        b: 0,
        use_input: false,
    };
    let base = build(&provable);
    let miter = Miter::build(&base);
    let secrets: Vec<(u64, u64)> = vec![(1, 2); NREGS - 1];
    let examples = example_pair(&base, &miter, &secrets, &[0, 1, 2]).expect("holds");
    let r0 = base.find_state("r0").unwrap();
    let prop = Predicate::eq(miter.left(r0), miter.right(r0));
    let miner = CoiMiner::new(&miter, &examples, None, vec![]);
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 1);
    let inv = engine
        .learn_sim(std::slice::from_ref(&prop), &mut FifoDriver)
        .expect("self-holding r0 is provable");
    assert!(inv.verify_monolithic(miter.netlist()));

    // Case 2: r0 <- r1 (a secret) with equal-on-trace but unprovable
    // in general: r0' = r1 and the example has r1 unequal -> property
    // violated at step 1, so the pair is rejected by the generator.
    let mut leaky = provable;
    leaky[0] = RegRecipe {
        op: 5,
        a: 1,
        b: 0,
        use_input: false,
    };
    let base = build(&leaky);
    let miter = Miter::build(&base);
    assert!(example_pair(&base, &miter, &secrets, &[0, 1, 2]).is_none());

    let (l, r, s) = (
        LEARNED.load(Ordering::Relaxed),
        REFUTED.load(Ordering::Relaxed),
        SKIPPED.load(Ordering::Relaxed),
    );
    eprintln!("soundness_prop mix: learned={l} refuted={r} skipped={s}");
}
