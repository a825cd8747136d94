//! Quickstart: synthesize the safe instruction set of the in-order
//! RocketLite core.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This runs the full VeloCT pipeline of the paper (§5): differential
//! prefiltering, positive-example generation, and H-Houdini invariant
//! learning, then independently re-verifies the learned invariant with one
//! monolithic SMT query.

use hh_suite::uarch::rocketlite::rocket_lite;
use hh_suite::veloct::{default_candidates, Veloct, VeloctConfig};
use std::time::Instant;

fn main() {
    // Set HH_TRACE=out.json to capture a Chrome trace of the whole run
    // (plus a plain-text summary next to it); see docs/TRACE_SCHEMA.md.
    let tracing = hh_suite::trace::init_from_env();

    let design = rocket_lite(16);
    println!(
        "design: {} ({} state bits, {} state elements)",
        design.netlist.name(),
        design.state_bits(),
        design.netlist.num_states()
    );

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

    println!("\nverified safe set ({} instructions):", report.safe.len());
    let names: Vec<&str> = report.safe.iter().map(|m| m.name()).collect();
    println!("  {}", names.join(", "));
    println!("\nrejected:");
    for (m, why) in &report.rejected {
        println!("  {:8} {:?}", m.name(), why);
    }
    match &report.invariant {
        Some(inv) => {
            println!(
                "\ninvariant: {} predicates | tasks {} | backtracks {} | SMT queries {} | {elapsed:?}",
                inv.len(),
                report.stats.num_tasks(),
                report.stats.counters.backtracks,
                report.stats.smt_queries
            );
        }
        None => println!("\nno invariant learned"),
    }

    if tracing {
        match hh_suite::trace::finish_to_env() {
            Ok(Some(path)) => println!("trace written to {path}"),
            Ok(None) => {}
            Err(e) => eprintln!("failed to write trace: {e}"),
        }
    }
}
