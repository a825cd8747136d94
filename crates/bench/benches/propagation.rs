//! Criterion microbench for the SAT solver's unit-propagation hot loop
//! (DESIGN.md ablation 11).
//!
//! Two workloads, both deterministic:
//!
//! * `propagation` — a dense implication ladder: assuming one literal
//!   cascades through every variable, and each implication is witnessed by
//!   one binary clause (the inlined-watcher fast path) plus several longer
//!   redundant clauses (the blocker-check path). Each measured call is one
//!   `solve_with_assumptions` that is pure propagation — no conflicts, no
//!   decisions — so the number is propagations per second.
//! * `search` — a fixed random 3-CNF near the satisfiability phase
//!   transition, solved from scratch: conflict analysis, learnt-tier
//!   bookkeeping and restarts all engage.
//!
//! Both run the one solver configuration there is; the numbers are
//! diagnostics for reading a `benchmark/` result, not results themselves.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hh_sat::{Lit, SolveResult, Solver, Var};

/// Chain length of the implication ladder (also its variable count).
const LADDER_VARS: usize = 2_000;
/// Redundant long clauses added per ladder link (density knob).
const LADDER_EXTRA: usize = 3;
/// Variables in the random 3-CNF search workload.
const SEARCH_VARS: usize = 120;
/// Clause/variable ratio of the search workload (near the 3-SAT phase
/// transition, where CDCL heuristics matter most).
const SEARCH_RATIO: f64 = 4.1;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds the implication-ladder solver: x0 -> x1 -> ... -> x_{n-1}, each
/// link a binary clause, plus `LADDER_EXTRA` longer clauses per link that
/// are satisfied by the cascade (their watched/blocker literals get hit
/// without ever becoming units).
fn ladder() -> (Solver, Lit) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..LADDER_VARS).map(|_| s.new_var()).collect();
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for i in 0..LADDER_VARS - 1 {
        s.add_clause(&[vars[i].negative(), vars[i + 1].positive()]);
        for _ in 0..LADDER_EXTRA {
            let j = i + 1 + rng.below(LADDER_VARS - i - 1);
            let k = rng.below(LADDER_VARS);
            s.add_clause(&[vars[i].negative(), vars[j].positive(), vars[k].positive()]);
        }
    }
    (s, vars[0].positive())
}

/// The fixed random 3-CNF used by the search workload.
fn search_formula() -> Vec<Vec<Lit>> {
    let mut rng = Rng(0xD1B54A32D192ED03);
    let m = (SEARCH_VARS as f64 * SEARCH_RATIO) as usize;
    let mut clauses = Vec::with_capacity(m);
    for _ in 0..m {
        let mut c = Vec::with_capacity(3);
        while c.len() < 3 {
            let v = Var::from_index(rng.below(SEARCH_VARS));
            if c.iter().any(|l: &Lit| l.var() == v) {
                continue;
            }
            c.push(v.lit(rng.next() & 1 == 0));
        }
        clauses.push(c);
    }
    clauses
}

fn bench(c: &mut Criterion) {
    let (mut s, trigger) = ladder();
    // Sanity: the cascade must engage — one assumption propagates the
    // entire ladder, conflict-free.
    assert_eq!(s.solve_with_assumptions(&[trigger]), SolveResult::Sat);
    let stats = s.stats();
    assert!(
        stats.propagations >= LADDER_VARS as u64 - 1,
        "ladder cascade did not propagate: {stats:?}"
    );
    assert_eq!(stats.conflicts, 0, "ladder must be conflict-free");
    c.bench_function("propagation", |b| {
        b.iter(|| black_box(s.solve_with_assumptions(black_box(&[trigger]))))
    });

    let formula = search_formula();
    c.bench_function("search", |b| {
        b.iter(|| {
            let mut s = Solver::new();
            for _ in 0..SEARCH_VARS {
                s.new_var();
            }
            for cl in &formula {
                s.add_clause(cl);
            }
            black_box(s.solve())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
