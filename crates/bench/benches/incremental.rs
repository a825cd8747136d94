//! Criterion bench for incremental abduction sessions (DESIGN.md §4.7):
//! retrying an abduction query on a live [`AbductionSession`] vs rebuilding
//! the cone encoding from scratch on every retry.
//!
//! The workload mirrors what the engines do on backtracking: the same
//! target predicate is re-queried several times, each time with a smaller
//! candidate set (simulating `P_fail` growth). The fresh variant pays the
//! bit-blast on every query; the session variant pays it once and answers
//! retries under filtered assumption sets.
//!
//! A second group benches a full OoO learning run, encode cache included
//! (DESIGN.md ablation 9).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hh_bench::{all_targets, known_safe_set, prepare};
use hh_smt::{abduct, AbductionConfig, AbductionSession, Predicate};
use hhoudini::mine::{CoiMiner, Miner};
use hhoudini::PredicateStore;

/// Number of simulated retries per measurement (first query + retries).
const RETRIES: usize = 4;

/// Mines the candidate pool for the first observable property of RocketLite.
fn workload() -> (hh_netlist::miter::Miter, Predicate, Vec<Predicate>) {
    let targets = all_targets();
    let rocket = &targets[0];
    let safe = known_safe_set(rocket.name);
    let (miter, examples, props, patterns) = prepare(&rocket.design, &safe, true);
    let target = props[0].clone();
    let mut miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let mut store = PredicateStore::new();
    let ids = miner.mine(&target, &mut store);
    let cands = store.resolve(&ids);
    assert!(
        cands.len() > RETRIES,
        "need a candidate pool to shrink across retries"
    );
    (miter, target, cands)
}

fn bench(c: &mut Criterion) {
    let (miter, target, cands) = workload();
    let config = AbductionConfig::paper_default();

    // Sanity + telemetry: the session's retries must match fresh queries
    // and must re-encode strictly less.
    let mut session = AbductionSession::new(miter.netlist(), target.clone(), config);
    let mut saved = (0usize, 0usize);
    for k in 0..RETRIES {
        let fresh = abduct(miter.netlist(), &target, &cands[k..], &config);
        let reused = session.solve(&cands[k..]);
        assert_eq!(fresh.abduct, reused.abduct, "retry {k} diverged");
        if k > 0 {
            assert!(reused.telemetry.cached);
            saved.0 += reused.telemetry.vars_reused;
            saved.1 += reused.telemetry.clauses_reused;
        }
    }
    assert!(
        saved.0 > 0 && saved.1 > 0,
        "session reuse saved no encoding work"
    );
    drop(session);

    c.bench_function("incremental/fresh_per_query", |b| {
        b.iter(|| {
            for k in 0..RETRIES {
                let r = abduct(miter.netlist(), &target, &cands[k..], &config);
                black_box(r.abduct);
            }
        })
    });

    c.bench_function("incremental/session_reuse", |b| {
        b.iter(|| {
            let mut s = AbductionSession::new(miter.netlist(), target.clone(), config);
            for k in 0..RETRIES {
                let r = s.solve(&cands[k..]);
                black_box(r.abduct);
            }
        })
    });
}

/// Cross-target cone sharing (DESIGN.md ablation 9): a full learning run on
/// an OoO core. The encode cache is rebuilt inside each iteration, so the
/// measurement includes the (amortised) cost of populating it — exactly
/// what a cold engine run pays.
fn bench_sharing(c: &mut Criterion) {
    let targets = all_targets();
    let boom = &targets[1];
    let safe = known_safe_set(boom.name);
    let run = || hh_bench::learn_run(&boom.design, &safe, 2);

    // Sanity outside the timed region: replay must actually engage.
    assert!(run().stats.encode_cache_hits > 0, "cache never hit");

    c.bench_function("sharing/full", |b| {
        b.iter(|| black_box(run().invariant.expect("must learn").len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_group! {
    name = sharing_benches;
    config = Criterion::default().sample_size(5);
    targets = bench_sharing
}
criterion_main!(benches, sharing_benches);
