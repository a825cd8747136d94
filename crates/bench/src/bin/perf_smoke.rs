//! Perf smoke check for CI: the gates that assert *behaviour* on the fast
//! paths — answers, invariants and byte gauges that must not move. How fast
//! those paths are is judged by the four-workload `benchmark/` run.
//!
//! ```text
//! cargo run -p hh-bench --release --bin perf_smoke
//! ```
//!
//! Gates:
//!
//! * RocketLite: a live session re-asked over a shrinking candidate set
//!   answers exactly like a fresh `abduct` each time;
//! * SmallBoomLite: cross-target cone sharing (DESIGN.md ablation 9) hits
//!   the encode cache, and the learned invariant is bit-identical at 1/2/4
//!   worker threads;
//! * LargeBoomLite: the invariant is the pinned one;
//! * MegaBoomLite with limited examples: backtracking fires and retries
//!   answer minimisation probes from witnesses, the invariant and the byte
//!   gauges are identical at 1/2/4 threads, the parked sessions' high-water
//!   bytes per session stay within 10% of the recorded figure, and every
//!   session of the run's solution table, replayed through a first query
//!   and a retry, ends each query with a watch store that reserves at most
//!   twice the bytes of its live watchers;
//! * a traced SmallBoomLite run produces a parseable Chrome trace with
//!   nonzero `smt.cache.hit` counter events and the untraced invariant.
//!
//! The figures behind the gates are written to
//! `bench_results/perf_smoke.json`.

use hh_bench::{
    all_targets, known_safe_set, learn, prepare, LearnSpec, Report, LIMITED_RDS, RICH_RDS,
};
use hh_smt::{abduct, AbductionConfig, AbductionSession, EncodeCache, Predicate};
use hhoudini::mine::{CoiMiner, Miner};
use hhoudini::{EngineConfig, Invariant, ParallelEngine, PredicateStore};
use std::sync::Arc;

/// First query + simulated backtracking retries.
const RETRIES: usize = 4;
/// `smt.session.resident_bytes` per session on MegaBoomLite with limited
/// examples, as recorded with the current solver layout (DESIGN.md §4
/// decisions 20 and 22 have the earlier figures). Capacities, not RSS: it
/// repeats exactly.
const MEGA_SESSION_BYTES: u64 = 711_382;
/// FNV-1a of LargeBoomLite's invariant, as sorted `Predicate::to_wire` lines
/// joined by newlines (pairs 1, xlen 16, the Table 2 safe set).
const LARGE_INVARIANT_DIGEST: u64 = 0xdf95_ddce_56b7_e660;

fn main() {
    let targets = all_targets();
    let rocket = &targets[0];
    let safe = known_safe_set(rocket.name);
    let (miter, examples, props, patterns) = prepare(&rocket.design, &safe, true, RICH_RDS);
    let target = props[0].clone();
    let mut miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut store = PredicateStore::new();
    let ids = miner.mine(&target, &mut store);
    let cands: Vec<Predicate> = store.resolve(&ids);
    assert!(cands.len() > RETRIES, "candidate pool too small to shrink");
    let config = AbductionConfig::paper_default();

    // A session's answers must match fresh queries.
    let mut session = AbductionSession::new(miter.netlist(), target.clone(), config);
    for k in 0..RETRIES {
        let fresh = abduct(miter.netlist(), &target, &cands[k..], &config);
        let reused = session.solve(&cands[k..]);
        assert_eq!(fresh.abduct, reused.abduct, "retry {k} diverged");
    }
    println!("Perf smoke — {RETRIES} session retries on RocketLite answer like fresh queries");

    // ------------------------------------------------------------------
    // Cross-target cone sharing (DESIGN.md ablation 9) on SmallBoomLite at
    // 1/2/4 worker threads: the encode cache must hit, and the learned
    // invariant must be bit-identical everywhere (replay is an
    // optimisation, never a semantic change).
    // ------------------------------------------------------------------
    let boom = &targets[1];
    let boom_safe = known_safe_set(boom.name);
    let run_boom = |threads: usize| learn(&boom.design, &boom_safe, threads, LearnSpec::paper());
    let fingerprint = |inv: &Invariant| -> Vec<String> {
        let mut v: Vec<String> = inv.preds().iter().map(|p| format!("{p:?}")).collect();
        v.sort();
        v
    };

    println!("\nCross-target sharing on {}", boom.name);
    let run = run_boom(2);
    let reference = fingerprint(run.invariant.as_ref().expect("run must learn"));
    let shared = run.stats;
    let sharing = shared.counters;
    println!(
        "  hits {}, vars saved {}, invariant {} predicates",
        sharing.encode_cache_hits,
        sharing.encode_vars_saved,
        reference.len()
    );
    assert!(
        sharing.encode_cache_hits > 0,
        "cache never hit on {}",
        boom.name
    );
    assert!(sharing.encode_vars_saved > 0 && sharing.encode_clauses_saved > 0);
    for threads in [1usize, 4] {
        let run = run_boom(threads);
        let inv = run.invariant.as_ref().expect("threaded run must learn");
        assert_eq!(
            fingerprint(inv),
            reference,
            "invariant differs at threads={threads}"
        );
    }
    println!("  invariant bit-identical at threads 1/2/4");
    // The smallest builtin whose learn runs past 50 000 conflicts: its
    // invariant is pinned, so a solver change that moves it says so.
    let large = targets
        .iter()
        .find(|t| t.name == "LargeBoomLite")
        .expect("LargeBoomLite is a target");
    let large_safe = known_safe_set(large.name);
    let large_inv = learn(&large.design, &large_safe, 2, LearnSpec::paper())
        .invariant
        .expect("LargeBoomLite must learn");
    let (large_miter, _) = veloct::Veloct::new(&large.design).build_miter(&large_safe);
    let mut wire: Vec<String> = large_inv
        .preds()
        .iter()
        .map(|p| p.to_wire(large_miter.netlist()))
        .collect();
    wire.sort();
    let large_digest = hh_proof::cert::fnv1a(wire.join("\n").as_bytes());
    println!(
        "  {} invariant: {} predicates, digest {large_digest:016x}",
        large.name,
        wire.len()
    );
    assert_eq!(
        (wire.len(), large_digest),
        (124, LARGE_INVARIANT_DIGEST),
        "the LargeBoomLite invariant moved"
    );
    // Retries: MegaBoomLite with rd = x3-only examples is the configuration
    // where backtracking fires at scale, so sessions re-minimise and answer
    // most confirmation probes from stored witness models. Skipped probes
    // change solver state, which must stay a function of the query history
    // alone: same invariant at every thread count.
    let mega = targets.last().expect("MegaBoomLite is the last target");
    let mega_safe = known_safe_set(mega.name);
    let (mega_miter, mega_examples, mega_props, mega_patterns) =
        prepare(&mega.design, &mega_safe, true, LIMITED_RDS);
    let mut mega_reference = None;
    let mut mega_solutions = Vec::new();
    for threads in [1usize, 2, 4] {
        let miner = CoiMiner::new(
            &mega_miter,
            &mega_examples,
            Some(mega_patterns.clone()),
            vec![],
        );
        let mut engine = ParallelEngine::new(
            mega_miter.netlist(),
            miner,
            EngineConfig::default(),
            threads,
        );
        let inv = engine
            .learn(&mega_props)
            .expect("limited-example run must learn");
        let stats = engine.stats().counters;
        assert!(stats.backtracks > 0 && stats.minimize_witness_hits > 0);
        let fp = fingerprint(&inv);
        let bytes = (
            stats.session_resident_bytes,
            stats.encode_cache_resident_bytes,
            stats.session_misses,
        );
        match &mega_reference {
            None => {
                println!(
                    "  {} limited examples: {} backtracks, probes {} sat / {} unsat / {} from witnesses",
                    mega.name,
                    stats.backtracks,
                    stats.minimize_probes_sat,
                    stats.minimize_probes_unsat,
                    stats.minimize_witness_hits
                );
                mega_reference = Some((fp, bytes));
                mega_solutions = engine.solutions();
            }
            Some((expect, expect_bytes)) => {
                assert_eq!(
                    &fp, expect,
                    "limited-example invariant differs at threads={threads}"
                );
                assert_eq!(
                    &bytes, expect_bytes,
                    "byte gauges differ at threads={threads}"
                );
            }
        }
    }
    println!("  limited-example invariant bit-identical at threads 1/2/4");

    // Memory follows the cones (DESIGN.md decision 20). The engine's own
    // gauge first, then every session of the solution table replayed
    // through a first query and a retry without the abduct's first member:
    // a parked watch store is its live watchers plus the per-literal
    // headers, so it must not reserve more than twice the live bytes.
    let (_, (session_bytes, cache_bytes, mega_sessions)) = mega_reference.expect("the sweep ran");
    let bytes_per_session = session_bytes / mega_sessions;
    let mut watch_worst: f64 = 0.0;
    let mut watch_sum = (0u64, 0u64);
    {
        let mut miner = CoiMiner::new(
            &mega_miter,
            &mega_examples,
            Some(mega_patterns.clone()),
            vec![],
        );
        let mut store = PredicateStore::new();
        let cache = Arc::new(EncodeCache::new(mega_miter.netlist()));
        for (target, _) in &mega_solutions {
            let ids = miner.mine(target, &mut store);
            let mut cands: Vec<Predicate> = store.resolve(&ids);
            let mut session = AbductionSession::with_cache(
                mega_miter.netlist(),
                target.clone(),
                AbductionConfig::paper_default(),
                Arc::clone(&cache),
                true,
            );
            for _ in 0..2 {
                let result = session.solve(&cands);
                let (reserved, live) = (
                    result.telemetry.counters.sat_watch_bytes,
                    result.telemetry.watch_live_bytes,
                );
                assert!(
                    reserved <= 2 * live,
                    "{target:?}: watch store reserves {reserved} bytes for {live} live"
                );
                watch_worst = watch_worst.max(reserved as f64 / live as f64);
                watch_sum = (watch_sum.0 + reserved, watch_sum.1 + live);
                match result.abduct.as_deref() {
                    Some([first, ..]) => drop(cands.remove(*first)),
                    _ => break,
                }
            }
        }
    }
    println!(
        "  parked sessions {:.1} MB at the high-water mark = {bytes_per_session} bytes/session \
         (gate: <= {MEGA_SESSION_BYTES} + 10%), encode cache {:.1} MB",
        session_bytes as f64 / 1e6,
        cache_bytes as f64 / 1e6
    );
    println!(
        "  watch stores reserve {:.2}x their live bytes over the replayed queries, \
         {watch_worst:.2}x at worst (gate: <= 2x each)",
        watch_sum.0 as f64 / watch_sum.1 as f64
    );
    assert!(
        bytes_per_session * 10 <= MEGA_SESSION_BYTES * 11,
        "parked sessions grew: {bytes_per_session} bytes/session vs {MEGA_SESSION_BYTES} recorded"
    );

    // ------------------------------------------------------------------
    // A traced run must yield a parseable Chrome trace carrying nonzero
    // cache-hit counters and the reference invariant.
    // ------------------------------------------------------------------
    hh_trace::init(hh_trace::TraceConfig::on());
    let traced = run_boom(2);
    let trace = hh_trace::drain();
    hh_trace::init(hh_trace::TraceConfig::Off);
    let traced_inv = traced.invariant.as_ref().expect("traced run must learn");
    assert_eq!(
        fingerprint(traced_inv),
        reference,
        "tracing changed the learned invariant"
    );
    let json = trace.chrome_json();
    hh_serve::json::Json::parse(&json).expect("traced run must emit valid Chrome JSON");
    let cache_hits = (trace.counter_totals().get("smt.cache.hit").copied()).unwrap_or(0);
    assert!(
        cache_hits > 0,
        "traced run recorded no smt.cache.hit events"
    );
    let trace_events = trace.events.len() as u64 + trace.dropped;
    println!(
        "\nTracing — {trace_events} events, {} bytes JSON, smt.cache.hit total {cache_hits}",
        json.len()
    );

    let mut report = Report::new("perf_smoke");
    for (key, value, unit) in [
        (
            "encode_cache_hits",
            sharing.encode_cache_hits as f64,
            "cones",
        ),
        (
            "encode_vars_saved",
            sharing.encode_vars_saved as f64,
            "vars",
        ),
        (
            "encode_cache_hit_rate",
            shared.encode_cache_hit_rate(),
            "frac",
        ),
        ("thread_invariants_identical", 1.0, "bool"),
        ("trace_events", trace_events as f64, "events"),
        ("trace_json_bytes", json.len() as f64, "bytes"),
        ("trace_cache_hit_events", cache_hits as f64, "hits"),
    ] {
        report.push(boom.name, key, value, unit);
    }
    for (key, value, unit) in [
        ("smt.session.resident_bytes", session_bytes as f64, "bytes"),
        ("smt.cache.resident_bytes", cache_bytes as f64, "bytes"),
        ("sessions", mega_sessions as f64, "sessions"),
        (
            "session_bytes_per_session",
            bytes_per_session as f64,
            "bytes",
        ),
        (
            "session_bytes_per_session_gate",
            MEGA_SESSION_BYTES as f64 * 1.1,
            "bytes",
        ),
        (
            "watch_reserved_over_live",
            watch_sum.0 as f64 / watch_sum.1 as f64,
            "x",
        ),
        ("watch_reserved_over_live_worst", watch_worst, "x"),
    ] {
        report.push("MegaBoomLite-limited", key, value, unit);
    }
    report.finish();
    println!("\nPerf smoke passed.");
}
