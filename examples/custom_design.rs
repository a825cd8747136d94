//! Verifying *your own* hardware with the framework: build a design with the
//! netlist API, mark what the attacker observes and where secrets live, and
//! let H-Houdini prove (or refute) timing safety.
//!
//! ```text
//! cargo run --release --example custom_design
//! ```
//!
//! The design here is a tiny "crypto accelerator" port: a command register
//! selects between an XOR whitening operation (constant time) and a
//! variable-time modular-reduction loop (data-dependent). We prove the
//! XOR-only command alphabet safe, and show that admitting the reduction
//! command is correctly rejected.

use hh_suite::hhoudini::mine::CoiMiner;
use hh_suite::hhoudini::{EngineConfig, ParallelEngine};
use hh_suite::netlist::eval::StateValues;
use hh_suite::netlist::miter::Miter;
use hh_suite::netlist::{Bv, Netlist, StateId};
use hh_suite::sim::{product_states, simulate};
use hh_suite::smt::{Pattern, Predicate};

const W: u32 = 16;

struct Accel {
    netlist: Netlist,
    key: StateId,
    data: StateId,
    busy: StateId,
    done: StateId,
}

/// cmd input: 0 = idle, 1 = xor-whiten (1 cycle), 2 = reduce (data-dependent
/// loop: repeatedly subtract the key while data >= key).
fn build() -> Accel {
    let mut n = Netlist::new("accel");
    let key = n.state("key", W, Bv::zero(W)); // secret
    let data = n.state("data", W, Bv::zero(W)); // secret
    let busy = n.state("busy", 1, Bv::bit(false));
    let done = n.state("done", 1, Bv::bit(false)); // attacker-visible
    let cmd = n.input("cmd", 2);

    let keyn = n.state_node(key);
    let datan = n.state_node(data);
    let busyn = n.state_node(busy);

    n.keep_state(key);

    let is_xor = n.eq_const(cmd, 1);
    let is_reduce = n.eq_const(cmd, 2);
    let idle = n.not(busyn);
    let start_xor = n.and(is_xor, idle);
    let start_reduce = n.and(is_reduce, idle);

    // Reduction step: while data >= key, data -= key (one step per cycle).
    let ge = {
        let lt = n.ult(datan, keyn);
        n.not(lt)
    };
    let sub = n.sub(datan, keyn);
    let reducing = n.and(busyn, ge);
    let still_busy = {
        // Stay busy while another subtraction will be needed.
        let next_ge = {
            let lt = n.ult(sub, keyn);
            n.not(lt)
        };
        n.and(reducing, next_ge)
    };
    let busy_next = n.or(start_reduce, still_busy);
    n.set_next(busy, busy_next);

    let xored = n.xor(datan, keyn);
    let data_after_reduce = n.ite(reducing, sub, datan);
    let data_next = { n.ite(start_xor, xored, data_after_reduce) };
    n.set_next(data, data_next);

    // done pulses when an operation completes.
    let reduce_done = {
        let ns = n.not(still_busy);
        n.and(busyn, ns)
    };
    let done_next = n.or(start_xor, reduce_done);
    n.set_next(done, done_next);
    n.add_output("done", n.state_node(done));
    n.assert_complete();

    Accel {
        netlist: n,
        key,
        data,
        busy,
        done,
    }
}

fn learn(accel: &Accel, allow_reduce: bool) {
    let mut miter = Miter::build(&accel.netlist);
    // Σ: restrict the command alphabet.
    let cmd = miter.netlist().find_input("cmd").unwrap();
    let allowed: Vec<u64> = if allow_reduce {
        vec![0, 1, 2]
    } else {
        vec![0, 1]
    };
    let terms: Vec<_> = allowed
        .iter()
        .map(|&v| miter.netlist_mut().eq_const(cmd, v))
        .collect();
    let c = miter.netlist_mut().or_all(&terms);
    miter.netlist_mut().add_constraint(c);

    // Positive examples: run the allowed commands with differing secrets.
    let mut examples = Vec::new();
    for (kl, kr, dl, dr) in [(3u64, 9u64, 7u64, 5u64), (0x11, 0x22, 0x100, 0x80)] {
        let n = &accel.netlist;
        let mut left = StateValues::initial(n);
        left.set(accel.key, Bv::new(W, kl));
        left.set(accel.data, Bv::new(W, dl));
        let mut right = StateValues::initial(n);
        right.set(accel.key, Bv::new(W, kr));
        right.set(accel.data, Bv::new(W, dr));
        let mut cmds = vec![1u64, 0, 0, 1, 0, 0, 0];
        if allow_reduce {
            cmds.extend([2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        }
        let inputs: Vec<_> = cmds
            .iter()
            .map(|&v| {
                let mut iv = hh_suite::netlist::eval::InputValues::zeros(n);
                iv.set_by_name(n, "cmd", Bv::new(2, v));
                iv
            })
            .collect();
        let lt = simulate(n, left, &inputs);
        let rt = simulate(n, right, &inputs);
        // Keep only timing-equal pairs as positive examples (Def. 4.8).
        let dl_wave: Vec<_> = lt.states.iter().map(|s| s.get(accel.done)).collect();
        let dr_wave: Vec<_> = rt.states.iter().map(|s| s.get(accel.done)).collect();
        if dl_wave != dr_wave {
            println!(
                "  [witness] differing secrets produce different `done` timing — \
                 the reduce command leaks"
            );
            continue;
        }
        let mut ps = product_states(&miter, &lt, &rt);
        ps.pop();
        examples.extend(ps);
    }

    let label = if allow_reduce {
        "xor+reduce"
    } else {
        "xor-only"
    };
    if examples.is_empty() {
        // Every paired execution diverged: generation-time refutation
        // (Def. 4.8 — no positive examples exist for this alphabet).
        println!("[{label}] UNSAFE — refuted by differential execution\n");
        return;
    }
    let patterns: Vec<Pattern> = allowed
        .iter()
        .map(|&v| Pattern {
            mask: 0x3,
            value: v,
        })
        .collect();
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 1);
    let prop = Predicate::eq(miter.left(accel.done), miter.right(accel.done));
    match engine.learn(&[prop]) {
        Some(inv) => {
            assert!(inv.verify_monolithic(miter.netlist()));
            println!(
                "[{label}] SAFE — invariant with {} predicates, monolithically verified:",
                inv.len()
            );
            for line in inv.describe(miter.netlist()).lines() {
                println!("    {line}");
            }
        }
        None => println!("[{label}] UNSAFE — no invariant exists (reduction loop leaks)"),
    }
    println!();
}

fn main() {
    let accel = build();
    println!(
        "custom design: {} ({} state bits)\n",
        accel.netlist.name(),
        accel.netlist.state_bits()
    );
    let _ = accel.busy;
    learn(&accel, false);
    learn(&accel, true);
}
