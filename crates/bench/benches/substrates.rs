//! Micro-benchmarks of the substrates: SAT solving, bit-blasting, abduction
//! queries, simulation and miter construction. These are the primitive
//! costs every experiment decomposes into.

use criterion::{criterion_group, criterion_main, Criterion};
use hh_bench::all_targets;
use hh_netlist::miter::Miter;
use hh_netlist::tape::Tape;
use hh_sat::{SolveResult, Solver};
use hh_smt::{abduct, AbductionConfig, Predicate, TransitionEncoding};

#[allow(clippy::needless_range_loop)] // index pairs are clearer here
fn pigeonhole(n: usize) -> Solver {
    let mut s = Solver::new();
    let holes = n - 1;
    let vars: Vec<Vec<_>> = (0..n)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &vars {
        s.add_clause(row);
    }
    for i in 0..n {
        for k in (i + 1)..n {
            for j in 0..holes {
                s.add_clause(&[!vars[i][j], !vars[k][j]]);
            }
        }
    }
    s
}

fn bench_sat(c: &mut Criterion) {
    c.bench_function("sat/pigeonhole_7", |b| {
        b.iter(|| {
            let mut s = pigeonhole(7);
            assert_eq!(s.solve(), SolveResult::Unsat);
        })
    });
}

fn bench_blast(c: &mut Criterion) {
    let targets = all_targets();
    let rocket = &targets[0].design;
    let miter = Miter::build(&rocket.netlist);
    c.bench_function("smt/blast_full_rocketlite_miter", |b| {
        b.iter(|| {
            let mut enc = TransitionEncoding::new(miter.netlist());
            enc.encode_everything();
            enc.size()
        })
    });
    let wb = rocket.observable[0];
    c.bench_function("smt/blast_wbvalid_cone", |b| {
        b.iter(|| {
            let mut enc = TransitionEncoding::new(miter.netlist());
            enc.next_state_lits(miter.left(wb));
            enc.size()
        })
    });
}

fn bench_abduction(c: &mut Criterion) {
    let targets = all_targets();
    let rocket = &targets[0].design;
    let miter = Miter::build(&rocket.netlist);
    let wb = rocket.observable[0];
    let dec_valid = rocket.netlist.find_state("dec_valid").unwrap();
    let target = Predicate::eq(miter.left(wb), miter.right(wb));
    let cands = vec![Predicate::eq(miter.left(dec_valid), miter.right(dec_valid))];
    c.bench_function("smt/abduction_query_rocketlite", |b| {
        b.iter(|| {
            abduct(
                miter.netlist(),
                &target,
                &cands,
                &AbductionConfig::paper_default(),
            )
        })
    });
}

fn bench_sim(c: &mut Criterion) {
    let targets = all_targets();
    let boom = &targets[1].design;
    // The stepping loop every multi-cycle caller runs: one compiled tape,
    // one value buffer, all-zero (bubble) inputs.
    let tape = Tape::compile(&boom.netlist);
    let mut machine = tape.machine();
    c.bench_function("sim/boomlite_small_100_cycles", |b| {
        b.iter(|| {
            machine.reset();
            for _ in 0..100 {
                machine.step();
            }
            machine.state(boom.observable[0])
        })
    });
}

fn bench_miter(c: &mut Criterion) {
    let targets = all_targets();
    let boom = &targets[1].design;
    c.bench_function("netlist/miter_boomlite_small", |b| {
        b.iter(|| Miter::build(&boom.netlist))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sat, bench_blast, bench_abduction, bench_sim, bench_miter
}
criterion_main!(benches);
