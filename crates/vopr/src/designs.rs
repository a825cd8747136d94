//! Inline scenario designs the simulator drives the engine over.
//!
//! Three tiny netlists chosen to hit the three qualitatively different
//! engine paths: a *wide* design (many independent cones, so the reorder
//! window has real width), a *backtrack*
//! design (a mux on a secret, so `P_fail` grows and stale sweeps fire),
//! and a *leak* design (genuinely unprovable, exercising the failure
//! path). All are self-contained — no external design files — so a vopr
//! run is a function of the seed alone.

use hh_netlist::eval::StateValues;
use hh_netlist::miter::Miter;
use hh_netlist::{Bv, Netlist};
use hh_smt::Predicate;
use hhoudini::mine::CoiMiner;

/// One self-contained engine workload: a miter, its positive examples,
/// and the property to learn an invariant for.
#[derive(Debug)]
pub struct Scenario {
    /// Short stable name, used in violation messages and run labels.
    pub name: &'static str,
    /// Whether the engine is expected to prove the property (fault-free).
    pub provable: bool,
    base: Netlist,
    /// The two-copy product the engine runs over.
    pub miter: Miter,
    /// Positive examples for the miner.
    pub examples: Vec<StateValues>,
    prop_state: &'static str,
}

impl Scenario {
    /// The equivalence property over the designated output state.
    pub fn property(&self) -> Predicate {
        let s = self
            .base
            .find_state(self.prop_state)
            .expect("scenario property state exists");
        Predicate::eq(self.miter.left(s), self.miter.right(s))
    }

    /// A fresh candidate miner (miners carry per-run mined state, so every
    /// engine run gets its own).
    pub fn miner(&self) -> CoiMiner {
        CoiMiner::new(&self.miter, &self.examples, None, vec![])
    }

    /// All scenarios, in the fixed order the harness runs them.
    pub fn all() -> Vec<Scenario> {
        vec![wide(5), backtrack(), leak()]
    }
}

/// `t' = r0 & r1 & ... & r{k-1}` over `k` independently held registers:
/// the task DAG fans out one cone per register, giving the reorder window
/// genuine width.
fn wide(k: usize) -> Scenario {
    let mut n = Netlist::new("vopr-wide");
    let regs: Vec<_> = (0..k)
        .map(|i| n.state(format!("r{i}"), 1, Bv::bit(true)))
        .collect();
    for &r in &regs {
        n.keep_state(r);
    }
    let t = n.state("t", 1, Bv::bit(true));
    let nodes: Vec<_> = regs.iter().map(|&r| n.state_node(r)).collect();
    let conj = n.and_all(&nodes);
    n.set_next(t, conj);
    let miter = Miter::build(&n);
    let examples = vec![StateValues::initial(miter.netlist())];
    Scenario {
        name: "wide",
        provable: true,
        base: n,
        miter,
        examples,
        prop_state: "t",
    }
}

/// `out' = sel ? secret : pub` — the candidate `left(out) == right(out)`
/// first abducts through the secret, fails, and forces a backtrack onto
/// the `sel`/`pub` support. Exercises `P_fail` growth and stale sweeps.
fn backtrack() -> Scenario {
    let mut n = Netlist::new("vopr-backtrack");
    let sel = n.state("sel", 1, Bv::bit(false));
    let secret = n.state("secret", 4, Bv::zero(4));
    let publ = n.state("pub", 4, Bv::zero(4));
    let out = n.state("out", 4, Bv::zero(4));
    n.keep_state(sel);
    n.keep_state(secret);
    n.keep_state(publ);
    let seln = n.state_node(sel);
    let secn = n.state_node(secret);
    let pubn = n.state_node(publ);
    let muxed = n.ite(seln, secn, pubn);
    n.set_next(out, muxed);
    let miter = Miter::build(&n);
    let mut e = StateValues::initial(miter.netlist());
    let sb = n.find_state("secret").expect("secret state");
    e.set(miter.left(sb), Bv::new(4, 3));
    e.set(miter.right(sb), Bv::new(4, 9));
    Scenario {
        name: "backtrack",
        provable: true,
        base: n,
        miter,
        examples: vec![e],
        prop_state: "out",
    }
}

/// `obs' = secret`: a direct leak, unprovable by construction. The engine
/// must report failure (no invariant) without poisoning.
fn leak() -> Scenario {
    let mut n = Netlist::new("vopr-leak");
    let s = n.state("secret", 4, Bv::zero(4));
    let o = n.state("obs", 4, Bv::zero(4));
    let sn = n.state_node(s);
    n.keep_state(s);
    n.set_next(o, sn);
    let miter = Miter::build(&n);
    let mut e = StateValues::initial(miter.netlist());
    let sb = n.find_state("secret").expect("secret state");
    e.set(miter.left(sb), Bv::new(4, 1));
    e.set(miter.right(sb), Bv::new(4, 2));
    Scenario {
        name: "leak",
        provable: false,
        base: n,
        miter,
        examples: vec![e],
        prop_state: "obs",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhoudini::{EngineConfig, ParallelEngine};

    #[test]
    fn provable_flags_match_the_engine() {
        for sc in Scenario::all() {
            let mut engine =
                ParallelEngine::new(sc.miter.netlist(), sc.miner(), EngineConfig::default(), 2);
            let inv = engine.learn(&[sc.property()]);
            assert_eq!(inv.is_some(), sc.provable, "scenario {}", sc.name);
        }
    }
}
