//! The headline comparison (§6.3): H-Houdini vs the monolithic MLIS
//! learners (HOUDINI / SORCAR, the basis of ConjunCT).
//!
//! ```text
//! cargo run -p hh-bench --release --bin speedup [--full]
//! ```
//!
//! By default the baselines run on RocketLite and Small/Medium BoomLite with
//! a budget; `--full` also runs Large and Mega (minutes). Expected shape:
//! the hierarchical learner wins by a factor that *grows with design size* —
//! the mechanism behind the paper's 2880× Rocketchip speedup and behind
//! monolithic queries "not scaling" to BOOM.

use hh_bench::{all_targets, is_boom, known_safe_set, learn_run, secs, Report};
use hhoudini::baselines::BaselineBudget;
use std::time::Duration;
use veloct::{BaselineKind, Veloct, VeloctConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut report = Report::new();
    println!("Speedup — H-Houdini vs monolithic MLIS baselines");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "Target", "H-Houdini(s)", "Houdini(s)", "Sorcar(s)", "vs Hou", "vs Sor"
    );
    let budget = BaselineBudget {
        max_rounds: 5_000,
        max_time: Duration::from_secs(if full { 1800 } else { 300 }),
    };
    let mut factors = Vec::new();
    for t in all_targets() {
        if !full && (t.name == "LargeBoomLite" || t.name == "MegaBoomLite") {
            println!("{:<16} (skipped; run with --full)", t.name);
            continue;
        }
        let safe = known_safe_set(t.name);
        let run = learn_run(&t.design, &safe, 1);
        assert!(run.invariant.is_some());
        // Compare *learning* time only: example generation is a shared
        // pipeline stage that both approaches consume identically.
        let hh = secs(run.stats.wall_time);

        let v = Veloct::with_config(
            &t.design,
            VeloctConfig {
                threads: 1,
                pairs_per_instr: 1,
                ..VeloctConfig::default()
            },
        );
        let mut times = Vec::new();
        for kind in [BaselineKind::Houdini, BaselineKind::Sorcar] {
            let b = v.learn_baseline(&safe, kind, &budget);
            let label = if b.budget_exceeded {
                f64::INFINITY // did not finish within budget
            } else {
                assert!(
                    b.invariant.is_some(),
                    "{kind:?} must prove the set in budget"
                );
                secs(b.stats.wall_time)
            };
            times.push(label);
            report.push(
                "speedup",
                t.name,
                &format!("{kind:?}_s"),
                if label.is_finite() { label } else { -1.0 },
                "s",
            );
        }
        let f_h = times[0] / hh;
        let f_s = times[1] / hh;
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>8.1}x {:>8.1}x",
            t.name, hh, times[0], times[1], f_h, f_s
        );
        report.push("speedup", t.name, "hhoudini_s", hh, "s");
        report.push("speedup", t.name, "factor_vs_houdini", f_h, "x");
        report.push("speedup", t.name, "factor_vs_sorcar", f_s, "x");
        // Run telemetry under the trace-schema counter names
        // (docs/TRACE_SCHEMA.md): `Stats::counters()` projects the same
        // namespace the `hh-trace` counters are recorded under, so this
        // JSON is a pure projection of a traced run.
        let s = &run.stats;
        for (key, value) in s.counters() {
            report.push("speedup", t.name, key, value as f64, "count");
        }
        report.push(
            "speedup",
            t.name,
            "session_hit_rate",
            s.session_hit_rate(),
            "frac",
        );
        report.push(
            "speedup",
            t.name,
            "encode_cache_hit_rate",
            s.encode_cache_hit_rate(),
            "frac",
        );
        report.push("speedup", t.name, "encode_s", secs(s.encode_time), "s");
        report.push("speedup", t.name, "solve_s", secs(s.solve_time), "s");
        report.push("speedup", t.name, "occupancy", s.occupancy(), "frac");
        // RocketLite is a different (in-order) microarchitecture whose
        // whole learn takes ~10 ms, so its ratio is noise; the size trend
        // is judged within the BoomLite family.
        if is_boom(t.name) {
            factors.push(f_h.min(f_s));
        }
    }
    // Shape: the advantage grows with design size. Asserted over the full
    // Small..Mega range only: since the VMTF queue the monolithic baselines
    // run 1.5-2x faster, the factor is below 1 and flat between Small and
    // Medium (0.6-0.7x either way) and rises from Large on.
    if full {
        assert!(
            factors.last().unwrap() > factors.first().unwrap(),
            "hierarchical advantage must grow with size: {factors:?}"
        );
        println!("\nShape check: H-Houdini's advantage grows with design size (the paper");
        println!("reports 2880x on Rocketchip-scale designs and non-termination on BOOM).");
    } else {
        println!("\nFactors vs the faster baseline: {factors:.2?} (the size trend is asserted");
        println!("with --full, where it spans SmallBoomLite to MegaBoomLite).");
    }

    // Certification cost on RocketLite: emit a proof bundle from a
    // certified run and check it independently, recording proof volume and
    // check time alongside the speedup numbers.
    {
        let targets = all_targets();
        let t = &targets[0];
        let safe = known_safe_set(t.name);
        let v = Veloct::with_config(
            &t.design,
            VeloctConfig {
                threads: 1,
                pairs_per_instr: 1,
                certify: true,
                ..VeloctConfig::default()
            },
        );
        let run = v.learn(&safe);
        let inv = run.invariant.as_ref().expect("certified run must learn");
        let dir = std::path::Path::new("bench_results").join("speedup_proof_bundle");
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = std::time::Instant::now();
        let summary = v
            .emit_certificate(&safe, inv, &run.solutions, &dir)
            .expect("certificate emission succeeds");
        let emit_s = secs(t0.elapsed());
        let t0 = std::time::Instant::now();
        hh_proof::cert::check_bundle(&dir).expect("emitted bundle must check");
        let check_s = secs(t0.elapsed());
        println!(
            "\nCertification: {} obligations, {} proof bytes; emit {emit_s:.3}s, check {check_s:.3}s",
            summary.obligations, summary.proof_bytes
        );
        report.push(
            "speedup",
            t.name,
            "proof_obligations",
            summary.obligations as f64,
            "obligations",
        );
        report.push(
            "speedup",
            t.name,
            "proof_bytes",
            summary.proof_bytes as f64,
            "bytes",
        );
        report.push("speedup", t.name, "proof_emit_s", emit_s, "s");
        report.push("speedup", t.name, "proof_check_s", check_s, "s");
    }
    report.finish("speedup");
}
