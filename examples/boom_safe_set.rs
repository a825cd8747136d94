//! Safe-instruction-set synthesis across all BoomLite variants — the
//! paper's headline BOOM result (§6, Tables 1 & 2).
//!
//! ```text
//! cargo run --release --example boom_safe_set
//! ```
//!
//! Expected shape: all four variants verify the same safe set — the ALU
//! instructions plus the `mul` family (the pipelined multiplier has fixed
//! latency) but *not* `auipc` (the jump unit's speculative register probe
//! gives it data-dependent timing, §6.4) — with invariant size and learning
//! effort growing with design size.

use hh_suite::isa::Mnemonic;
use hh_suite::uarch::boomlite::{boom_lite, ALL_VARIANTS};
use hh_suite::veloct::{default_candidates, Veloct, VeloctConfig};
use std::time::Instant;

fn main() {
    println!(
        "{:<16} {:>10} {:>9} {:>7} {:>6} {:>10} {:>8}",
        "design", "state bits", "invariant", "tasks", "bktrk", "time", "mul safe"
    );
    for &variant in ALL_VARIANTS {
        let design = boom_lite(variant, 16);
        let veloct = Veloct::with_config(
            &design,
            VeloctConfig {
                pairs_per_instr: 1,
                ..VeloctConfig::default()
            },
        );
        let t0 = Instant::now();
        let report = veloct.classify(&default_candidates());
        let elapsed = t0.elapsed();
        let mul_safe = report.safe.contains(&Mnemonic::Mul);
        let auipc_safe = report.safe.contains(&Mnemonic::Auipc);
        println!(
            "{:<16} {:>10} {:>9} {:>7} {:>6} {:>10.2?} {:>8}",
            variant.name(),
            design.state_bits(),
            report.invariant.as_ref().map(|i| i.len()).unwrap_or(0),
            report.stats.num_tasks(),
            report.stats.counters.backtracks,
            elapsed,
            mul_safe
        );
        assert!(mul_safe, "mul family must verify on BoomLite");
        assert!(!auipc_safe, "auipc must not verify on BoomLite");
    }
    println!("\n(auipc is rejected on every variant — the §6.4 surprise.)");
}
