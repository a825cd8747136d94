//! Trace-layer integration: a real learning run with `HH_TRACE`-style
//! tracing enabled must produce a structurally sound trace — valid Chrome
//! JSON, per-thread monotone timestamps, balanced (laminar) span nesting —
//! at every worker count, and spans from all four instrumented layers.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use common::{alu_set, setup};
use hh_suite::hhoudini::mine::CoiMiner;
use hh_suite::hhoudini::{EngineConfig, ParallelEngine};
use hh_suite::isa::Mnemonic;
use hh_suite::smt::EncodeCache;
use hh_suite::trace::json::Json;
use hh_suite::trace::{self, Event, EventKind, Trace, TraceConfig};
use hh_suite::uarch::boomlite::{boom_lite, BoomVariant};
use hh_suite::uarch::rocketlite::rocket_lite;
use hh_suite::veloct::examples::generate_examples_custom;
use hh_suite::veloct::{default_candidates, instruction_patterns, Veloct, VeloctConfig};

/// Tracing is process-global state, so tests that toggle it must not
/// interleave.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Groups events by thread, preserving per-thread push order (rings keep
/// push order and [`trace::drain`] concatenates whole rings).
fn per_thread(trace: &Trace) -> BTreeMap<u64, Vec<Event>> {
    let mut by_tid: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
    for e in &trace.events {
        by_tid.entry(e.tid).or_default().push(*e);
    }
    by_tid
}

/// Spans are pushed when they *end*, so within one thread the push-order
/// sequence of `end_us()` values must be nondecreasing.
fn assert_monotone_per_thread(trace: &Trace) {
    for (tid, events) in per_thread(trace) {
        let mut last = 0u64;
        for e in &events {
            assert!(
                e.end_us() >= last,
                "thread {tid}: event {} at end {} precedes previous end {last}",
                e.name,
                e.end_us()
            );
            last = e.end_us();
        }
    }
}

/// Span intervals on one thread must form a laminar family: any two either
/// nest or are disjoint. Guard-based spans guarantee this by construction;
/// this catches any future drift to hand-paired begin/end records.
fn assert_nesting_balances(trace: &Trace) {
    for (tid, events) in per_thread(trace) {
        let mut spans: Vec<(u64, u64, &'static str)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_us } => Some((e.ts_us, e.ts_us + dur_us, e.name)),
                _ => None,
            })
            .collect();
        // Sort by start ascending, longest first: parents come before their
        // children, so a stack sweep detects any partial overlap.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64, &'static str)> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if top.1 <= s.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                assert!(
                    s.1 <= top.1,
                    "thread {tid}: span {} [{}, {}] straddles {} [{}, {}]",
                    s.2,
                    s.0,
                    s.1,
                    top.2,
                    top.0,
                    top.1
                );
            }
            stack.push(s);
        }
    }
}

fn traced_parallel_run(threads: usize) -> (Trace, hh_suite::hhoudini::Stats) {
    let design = rocket_lite(16);
    let safe = alu_set();
    let (miter, examples, props) = setup(&design, &safe);
    let patterns = instruction_patterns(&safe);
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    trace::init(TraceConfig::on());
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), threads);
    let inv = engine.learn(&props).expect("invariant");
    let trace = trace::drain();
    trace::init(TraceConfig::Off);
    assert!(inv.verify_monolithic(miter.netlist()));
    (trace, engine.stats().clone())
}

#[test]
fn parallel_trace_is_sound_at_every_thread_count() {
    let _g = lock();
    for threads in [1usize, 2, 4] {
        let (trace, stats) = traced_parallel_run(threads);
        assert_eq!(
            trace.dropped, 0,
            "{threads} threads: default ring capacity must hold a rocketlite run"
        );
        assert!(
            trace.thread_ids().len() >= threads,
            "{threads} threads: expected worker rings to be harvested"
        );
        assert_monotone_per_thread(&trace);
        assert_nesting_balances(&trace);

        let spans = trace.span_totals();
        for name in [
            "engine.learn",
            "sched.job",
            "smt.session.solve",
            "sat.solve",
        ] {
            assert!(
                spans.contains_key(name),
                "{threads} threads: missing {name}"
            );
        }

        // Chrome JSON must parse and carry the scheduler's commit markers.
        let json = trace.chrome_json();
        Json::parse(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"ph\":\"X\"") && json.contains("sched.commit"));

        // Issue and commit counters cancel: the reorder buffer commits every
        // task exactly once.
        let counters = trace.counter_totals();
        assert_eq!(counters.get("sched.inflight"), Some(&0));

        // Stats is a projection of the trace: shared counter names agree.
        let projected: BTreeMap<&str, u64> = stats.counters().into_iter().collect();
        for name in ["engine.query", "engine.backtrack", "engine.memo.hit"] {
            assert_eq!(
                counters.get(name).copied().unwrap_or(0),
                projected.get(name).copied().unwrap_or(0) as i64,
                "{threads} threads: trace/stats disagree on {name}"
            );
        }

        // Occupancy accounting: busy time is the sum of committed task
        // durations — folded exactly once each. If the reorder buffer also
        // folded at receive time, buffered completions would be counted
        // twice and busy time would exceed this sum.
        let task_sum: std::time::Duration = stats.tasks.iter().map(|t| t.duration).sum();
        assert_eq!(
            stats.worker_busy_time, task_sum,
            "{threads} threads: busy time must equal the task-duration sum"
        );
        let occ = stats.occupancy();
        assert!(
            occ > 0.0 && occ <= 1.0,
            "{threads} threads: occupancy {occ} out of range"
        );
    }
}

/// With one destination register in the examples (rd = x3, the Fig. 5
/// regime) a SmallBoomLite learn of the ALU set without `auipc` backtracks
/// fifteen times. A cold learn, the batch path, records no encoding and
/// replays none: each retry re-blasts its cone. The same learn with an
/// empty encode cache attached, as the daemon's job does, replays once per
/// backtrack. Both paths, traced or not, learn the same invariant and
/// solution table with the same work.
#[test]
fn a_cold_learn_replays_nothing_and_an_attached_cache_replays_each_backtrack() {
    let _g = lock();
    let design = boom_lite(BoomVariant::Small, 16);
    let safe: Vec<Mnemonic> = (alu_set().into_iter())
        .filter(|&m| m != Mnemonic::Auipc)
        .collect();
    let (miter, _, props) = setup(&design, &safe);
    let examples =
        generate_examples_custom(&design, &miter, &safe, 1, 42, true, &[3]).expect("safe set");
    let learn = |cache: Option<Arc<EncodeCache>>| {
        let miner = CoiMiner::new(&miter, &examples, Some(instruction_patterns(&safe)), vec![]);
        let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 2);
        if let Some(cache) = cache {
            engine.set_encode_cache(cache);
        }
        let inv = engine.learn(&props).expect("invariant");
        (
            inv.preds().to_vec(),
            engine.solutions(),
            engine.stats().counters(),
        )
    };
    let traced = |cache: Option<Arc<EncodeCache>>| {
        trace::init(TraceConfig::on());
        let learned = learn(cache);
        let trace = trace::drain();
        trace::init(TraceConfig::Off);
        assert_eq!(trace.dropped, 0);
        Json::parse(&trace.chrome_json()).expect("chrome trace must be valid JSON");
        (learned, trace.counter_totals(), trace.span_totals())
    };
    let untraced = learn(None);
    let (cold, cold_counters, cold_spans) = traced(None);
    let cache = Arc::new(EncodeCache::new(miter.netlist()));
    let (daemon, daemon_counters, daemon_spans) = traced(Some(Arc::clone(&cache)));

    assert_eq!(cold, untraced, "tracing moved the learn");
    assert_eq!(daemon, cold, "an attached cache moved the learn");
    let backtracks = cold_counters.get("engine.backtrack").copied();
    assert_eq!(backtracks, Some(15), "rd = x3 backtracks");
    assert!(
        !cold_counters.keys().any(|k| k.starts_with("smt.cache.")),
        "a cold learn consults no cache: {cold_counters:?}"
    );
    assert!(!cold_spans.contains_key("smt.replay"));
    assert_eq!(daemon_counters.get("smt.cache.hit").copied(), Some(15));
    assert_eq!(daemon_spans.get("smt.replay").map(|&(n, _)| n), Some(15));
    assert_eq!(cache.stats().hits, 15, "one replay per retry");
    let queries = cold_counters["engine.query"] as u64;
    assert_eq!(cache.stats().hits + cache.stats().misses, queries);
}

#[test]
fn veloct_run_covers_all_four_layers() {
    let _g = lock();
    let design = rocket_lite(16);
    let veloct = Veloct::with_config(
        &design,
        VeloctConfig {
            pairs_per_instr: 1,
            ..VeloctConfig::default()
        },
    );
    trace::init(TraceConfig::on());
    let report = veloct.classify(&default_candidates());
    let trace = trace::drain();
    trace::init(TraceConfig::Off);
    assert!(report.invariant.is_some());

    let spans = trace.span_totals();
    for name in [
        "veloct.classify",
        "veloct.learn",
        "engine.learn",
        "smt.session.solve",
        "sat.solve",
    ] {
        assert!(spans.contains_key(name), "missing span {name}");
    }
    Json::parse(&trace.chrome_json()).expect("valid JSON");

    // The text report is deterministic: rendering the same trace twice gives
    // byte-identical output.
    assert_eq!(trace.text_report(), trace.text_report());
}

#[test]
fn tracing_off_records_nothing_during_a_real_run() {
    let _g = lock();
    trace::init(TraceConfig::Off);
    let design = rocket_lite(16);
    let safe = alu_set();
    let (miter, examples, props) = setup(&design, &safe);
    let patterns = instruction_patterns(&safe);
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut engine = ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), 2);
    engine.learn(&props).expect("invariant");
    let trace = trace::drain();
    assert!(trace.events.is_empty(), "Off must record zero events");
    assert_eq!(trace.dropped, 0);
}
