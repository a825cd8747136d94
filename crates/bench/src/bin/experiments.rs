//! Every table and figure of the paper's evaluation (§6), from one process.
//!
//! ```text
//! cargo run -p hh-bench --release --bin experiments -- all
//! cargo run -p hh-bench --release --bin experiments -- table1 fig5
//! ```
//!
//! Each experiment is a projection — printed rows, shape assertions and a
//! `bench_results/<name>.json` file — over learning runs that [`Runs`]
//! makes once per design and hands to every experiment that asks: one run
//! with rich examples (Table 1, Figs. 2–4, Fig. 5 rich, the hierarchical
//! side of the speedup, the reference arm of each ablation) and one with
//! rd = x3 examples (Fig. 5 limited), both on one thread of the
//! `ParallelEngine` every product path runs. Table 2 classifies, the
//! speedup adds the two monolithic baselines per design, and two ablation
//! arms learn under a changed configuration.
//!
//! Every invariant whose digest Table 1 pins, and Fig. 5's
//! MegaBoomLite-limited one, is re-checked with one monolithic induction
//! query (§6.4).
//!
//! Exit code: 1 if a re-checked invariant is not inductive, or if a
//! committed `bench_results/<name>.json` held other counts or other rows
//! than this run measured (the file is overwritten first, so a second run
//! exits 0); 101 if a shape assertion fails; 2 on bad usage.

use hh_bench::{
    all_targets, is_boom, known_safe_set, learn, secs, LearnSpec, Report, RunResult, Target,
    LIMITED_RDS,
};
use hh_isa::Mnemonic;
use hh_smt::Predicate;
use hhoudini::baselines::BaselineBudget;
use std::cell::{Cell, OnceCell, RefCell};
use std::time::{Duration, Instant};
use veloct::{default_candidates, BaselineKind, Veloct, VeloctConfig};

/// The runs more than one experiment reads.
#[derive(Clone, Copy)]
enum Shared {
    /// The paper's configuration: rich examples.
    Rich,
    /// rd = x3 examples only.
    Limited,
}

impl Shared {
    fn spec(self) -> LearnSpec {
        match self {
            Shared::Rich => LearnSpec::paper(),
            Shared::Limited => LearnSpec {
                rds: LIMITED_RDS,
                ..LearnSpec::paper()
            },
        }
    }
}

/// The evaluated designs and the learns made on them so far.
struct Runs {
    targets: Vec<Target>,
    safe: Vec<Vec<Mnemonic>>,
    /// Indexed by `Shared`, then by target.
    shared: [Vec<OnceCell<RunResult>>; 2],
    learns: Cell<usize>,
    /// The runs whose invariant [`Runs::verify`] found not inductive.
    unsound: RefCell<Vec<String>>,
}

impl Runs {
    fn new() -> Runs {
        let targets = all_targets();
        let cells = || targets.iter().map(|_| OnceCell::new()).collect();
        Runs {
            safe: targets.iter().map(|t| known_safe_set(t.name)).collect(),
            shared: [cells(), cells()],
            learns: Cell::new(0),
            unsound: RefCell::new(Vec::new()),
            targets,
        }
    }

    /// Learns target `i`'s known safe set under `spec`, on one thread.
    fn learn(&self, i: usize, spec: LearnSpec) -> RunResult {
        self.count_learn();
        learn(&self.targets[i].design, &self.safe[i], 1, spec)
    }

    /// The shared run of target `i`, made on first use. The known safe set
    /// is provable under both specs.
    fn shared(&self, i: usize, which: Shared) -> &RunResult {
        self.shared[which as usize][i].get_or_init(|| {
            let run = self.learn(i, which.spec());
            assert!(
                run.invariant.is_some(),
                "{}: the known safe set must be provable",
                self.targets[i].name
            );
            run
        })
    }

    /// Every target beside its shared run.
    fn each(&self, which: Shared) -> impl Iterator<Item = (&Target, &RunResult)> {
        (self.targets.iter().enumerate()).map(move |(i, t)| (t, self.shared(i, which)))
    }

    /// The full pipeline on target `i`, with one example pair per
    /// instruction as in [`hh_bench::learn`]. The learns it makes are the
    /// caller's to [`Runs::count_learn`].
    fn veloct(&self, i: usize, config: VeloctConfig) -> Veloct<'_> {
        Veloct::with_config(
            &self.targets[i].design,
            VeloctConfig {
                pairs_per_instr: 1,
                ..config
            },
        )
    }

    fn count_learn(&self) {
        self.learns.set(self.learns.get() + 1);
    }

    /// Re-checks the invariant `run` learned on target `i` with one
    /// monolithic induction query over the whole miter; `label` names the
    /// run in the list a failure is recorded in, which makes `main` exit 1.
    fn verify(&self, i: usize, run: &RunResult, label: &str) {
        let inv = run.invariant.as_ref().expect("verified runs learn");
        let (miter, _) = Veloct::new(&self.targets[i].design).build_miter(&self.safe[i]);
        if !inv.verify_monolithic(miter.netlist()) {
            self.unsound.borrow_mut().push(label.to_string());
        }
    }
}

fn one_thread() -> VeloctConfig {
    VeloctConfig {
        threads: 1,
        ..VeloctConfig::default()
    }
}

fn invariant_size(run: &RunResult) -> usize {
    run.invariant.as_ref().map_or(usize::MAX, |inv| inv.len())
}

/// FNV-1a of target `i`'s invariant as sorted, newline-joined
/// `Predicate::to_wire` lines, kept to its low 52 bits so that the row's
/// f64 holds it exactly.
fn invariant_digest(runs: &Runs, i: usize, run: &RunResult) -> u64 {
    let inv = run.invariant.as_ref().expect("shared runs learn");
    let (miter, _) = Veloct::new(&runs.targets[i].design).build_miter(&runs.safe[i]);
    let mut wire: Vec<String> = (inv.preds().iter())
        .map(|p| p.to_wire(miter.netlist()))
        .collect();
    wire.sort();
    hh_proof::cert::fnv1a(wire.join("\n").as_bytes()) & ((1 << 52) - 1)
}

/// Command-line name (and `bench_results/<name>.json`), heading, projection.
type Experiment = (&'static str, &'static str, fn(&Runs, &mut Report));

#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 8] = [
    ("table1", "Table 1 — design complexity and invariant sizes", table1),
    ("table2", "Table 2 — verified safe instruction sets", table2),
    ("fig2", "Figure 2 — simulated learning time (s) vs core count", fig2),
    ("fig3", "Figure 3 — time vs design size", fig3),
    ("fig4", "Figure 4 — per-query / per-task time vs design size", fig4),
    ("fig5", "Figure 5 — tasks and backtracks vs design size", fig5),
    ("speedup", "Speedup (§6.3) — H-Houdini vs monolithic MLIS baselines", speedup),
    ("ablation", "Ablations of H-Houdini's design choices (DESIGN.md §4)", ablation),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!("usage: experiments all | <name>...");
    eprintln!("names: {}", names.join(" "));
    std::process::exit(2)
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = if names == ["all"] {
        EXPERIMENTS.iter().collect()
    } else {
        let find = |n| EXPERIMENTS.iter().find(|e| e.0 == n);
        names
            .iter()
            .map(|n| find(n).unwrap_or_else(|| usage()))
            .collect()
    };
    if selected.is_empty() {
        usage();
    }

    let started = Instant::now();
    let runs = Runs::new();
    let mut stale = Vec::new();
    for &(name, title, run) in selected {
        println!("\n{title}");
        let mut report = Report::new(name);
        run(&runs, &mut report);
        let committed = Report::load(name);
        report.finish();
        stale.extend(report.differences(&committed));
    }
    println!(
        "\n{} hierarchical learns (Table 2's classification and the baselines apart) in {:.1} s",
        runs.learns.get(),
        secs(started.elapsed())
    );
    let unsound = runs.unsound.borrow();
    for label in unsound.iter() {
        eprintln!("\n{label}: the learned invariant is not inductive");
    }
    if !stale.is_empty() {
        eprintln!("\nbench_results/ was stale (now rewritten); commit the new files:");
        for line in &stale {
            eprintln!("  {line}");
        }
    }
    if !unsound.is_empty() || !stale.is_empty() {
        std::process::exit(1);
    }
}

/// Table 1: design sizes (state bits) and learned invariant sizes
/// (# predicates), beside the paper's.
fn table1(runs: &Runs, report: &mut Report) {
    println!(
        "{:<16} {:>12} {:>14} {:>14} | {:>12} {:>14}",
        "Target", "size (bits)", "invariant", "digest", "paper (bits)", "paper inv."
    );
    for (i, (t, run)) in runs.each(Shared::Rich).enumerate() {
        let bits = t.design.state_bits();
        let inv = invariant_size(run);
        let digest = invariant_digest(runs, i, run);
        runs.verify(i, run, t.name);
        println!(
            "{:<16} {:>12} {:>14} {digest:>14x} | {:>12} {:>14}",
            t.name, bits, inv, t.paper.0, t.paper.1
        );
        report.push(t.name, "state_bits", bits as f64, "bits");
        report.push(t.name, "invariant_size", inv as f64, "predicates");
        report.push(t.name, "invariant_digest", digest as f64, "digest");
        report.push(t.name, "paper_state_bits", t.paper.0 as f64, "bits");
        report.push(
            t.name,
            "paper_invariant_size",
            t.paper.1 as f64,
            "predicates",
        );
    }
    println!("\nShape check: both size and invariant grow monotonically Small→Mega,");
    println!("as in the paper (absolute numbers differ: synthetic cores are smaller).");
    println!("The digest pins each invariant predicate for predicate, and each");
    println!("invariant is re-checked by one monolithic induction query (§6.4).");
}

/// Table 2: the synthesized safe instruction sets. The mul family is unsafe
/// on the in-order core (zero-skip iterative multiplier) but safe on the
/// out-of-order ones (pipelined multiplier); `auipc` verifies on the
/// in-order core but not on BOOM-style cores; loads/stores and control flow
/// are always excluded.
fn table2(runs: &Runs, report: &mut Report) {
    for (i, t) in runs.targets.iter().enumerate() {
        let r = runs
            .veloct(i, VeloctConfig::default())
            .classify(&default_candidates());
        let names: Vec<&str> = r.safe.iter().map(|m| m.name()).collect();
        let rejected: Vec<String> = r
            .rejected
            .iter()
            .map(|(m, why)| format!("{} ({why:?})", m.name()))
            .collect();
        println!("{}:", t.name);
        println!("  safe  : {}", names.join(", "));
        println!("  unsafe: {}\n", rejected.join(", "));
        for m in &r.safe {
            report.push(t.name, m.name(), 1.0, "safe");
        }
        for (m, _) in &r.rejected {
            report.push(t.name, m.name(), 0.0, "safe");
        }
        let mul_safe = r.safe.contains(&Mnemonic::Mul);
        let auipc_safe = r.safe.contains(&Mnemonic::Auipc);
        if is_boom(t.name) {
            assert!(mul_safe && !auipc_safe, "BoomLite rows must match Table 2");
        } else {
            assert!(!mul_safe && auipc_safe, "RocketLite row must match Table 2");
        }
    }
    println!("mul: unsafe on RocketLite / safe on all BoomLite variants (as in the paper)");
    println!("auipc: safe on RocketLite / unverifiable on BoomLite (the §6.4 finding)");
}

/// Figure 2: the run's task DAG, with per-task durations, replayed on
/// 1..=256 virtual cores with greedy list scheduling (the paper's
/// parallelisation structure). Time halves with each doubling until the
/// span saturates, and larger designs saturate later.
fn fig2(runs: &Runs, report: &mut Report) {
    let cores = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    print!("{:<16}", "Target");
    for c in cores {
        print!(" {c:>9}");
    }
    println!(" {:>9}", "span");
    for (t, run) in runs.each(Shared::Rich) {
        let times: Vec<f64> = cores
            .iter()
            .map(|&c| secs(run.stats.simulated_time(c)))
            .collect();
        let span = secs(run.stats.span());
        print!("{:<16}", t.name);
        for (c, time) in cores.iter().zip(&times) {
            print!(" {time:>9.3}");
            report.push(t.name, &format!("cores_{c}"), *time, "s");
        }
        println!(" {span:>9.3}");
        report.push(t.name, "span", span, "s");
        // Monotone non-increasing, saturating at the span.
        assert!(times.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        assert!((times.last().unwrap() - span).abs() < 1e-6);
    }
    println!("\nShape check: halving-with-cores until saturation; larger designs");
    println!("saturate later (their spans are longer), matching the paper.");
}

/// Figure 3: learning time vs design size, for a fixed core budget and for
/// "infinite" cores (the task-DAG span). The growth check is on the span
/// in SAT propagations, which repeats exactly: the spans in seconds are a
/// few millisecond-long tasks, too short to compare across runs.
fn fig3(runs: &Runs, report: &mut Report) {
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Target", "bits", "80 cores (s)", "inf (s)", "span (props)", "wall 1T (s)"
    );
    let mut rows = Vec::new();
    for (t, run) in runs.each(Shared::Rich) {
        let bits = t.design.state_bits();
        let t80 = secs(run.stats.simulated_time(80));
        let tinf = secs(run.stats.span());
        let props = span_propagations(&run.stats);
        let wall = secs(run.total_time);
        println!(
            "{:<16} {bits:>12} {t80:>12.3} {tinf:>12.3} {props:>12} {wall:>12.3}",
            t.name
        );
        report.push(t.name, "state_bits", bits as f64, "bits");
        report.push(t.name, "time_80cores", t80, "s");
        report.push(t.name, "time_inf_cores", tinf, "s");
        report.push(t.name, "span_propagations", props as f64, "count");
        report.push(t.name, "wall_1thread", wall, "s");
        rows.push((bits as f64, props as f64));
    }
    // Growth across the Boom variants (RocketLite's tiny invariant sits
    // below the trend).
    for w in rows[1..].windows(2) {
        let size_ratio = w[1].0 / w[0].0;
        let span_ratio = w[1].1 / w[0].1;
        assert!(
            span_ratio > size_ratio * 0.5,
            "the span should grow at least with size (got {span_ratio:.2}x vs size {size_ratio:.2}x)"
        );
    }
    println!("\nShape check: superlinear growth of the 1-thread time with size; the");
    println!("span, counted in SAT propagations, grows at least half as fast as the");
    println!("state bits between BoomLite variants — as in the paper.");
}

/// The SAT propagations along the heaviest discovery chain of the run's
/// task DAG: the span measured in solver work, the same on every run.
/// Parents precede their children in `tasks`.
fn span_propagations(stats: &hhoudini::Stats) -> u64 {
    let mut chain = Vec::with_capacity(stats.tasks.len());
    for t in &stats.tasks {
        chain.push(t.propagations + t.parent.map_or(0, |p| chain[p]));
    }
    chain.into_iter().max().unwrap_or(0)
}

/// Figure 4: median SAT solve time per query and median task time (one
/// query: encode + solve) vs design size, the solve share of task time and
/// the long-tail percentiles the paper quotes for MegaBOOM.
fn fig4(runs: &Runs, report: &mut Report) {
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "Target", "bits", "med. SAT (ms)", "med. task (ms)", "SAT %", "p95 (ms)", "p99 (ms)"
    );
    let mut med_queries = Vec::new();
    for (t, run) in runs.each(Shared::Rich) {
        let mq = secs(run.stats.median_smt_query()) * 1e3;
        let mt = secs(run.stats.median_task()) * 1e3;
        let frac = run.stats.smt_fraction() * 100.0;
        let p95 = secs(run.stats.task_percentile(95.0)) * 1e3;
        let p99 = secs(run.stats.task_percentile(99.0)) * 1e3;
        println!(
            "{:<16} {:>10} {mq:>14.3} {mt:>14.3} {frac:>8.1}% {p95:>10.3} {p99:>10.3}",
            t.name,
            t.design.state_bits()
        );
        report.push(t.name, "median_smt_query_ms", mq, "ms");
        report.push(t.name, "median_task_ms", mt, "ms");
        report.push(t.name, "smt_fraction", frac, "%");
        report.push(t.name, "task_p95_ms", p95, "ms");
        report.push(t.name, "task_p99_ms", p99, "ms");
        med_queries.push(mq);
    }
    let boom = &med_queries[1..];
    assert!(
        boom.windows(2).all(|w| w[1] >= w[0] * 0.8),
        "median query time should track design size: {boom:?}"
    );
    println!("\nShape check: per-query time grows with design size; tasks show a");
    println!("long tail (p99 ≫ median), matching the paper's MegaBOOM observation.");
}

/// Figure 5: tasks and backtracks vs design size, in two regimes. With
/// limited examples (one destination register, as a minimal harness would
/// generate — the paper's regime) backtracks are a small, bounded fraction
/// of tasks; with rich examples the paper's prediction "if the set of
/// positive examples was exhaustive, the number of backtracks would be 0"
/// holds exactly. Every limited run's `Stats::counters()` is pinned as
/// `<target>-limited` rows — solver calls per learned predicate in the
/// terms of Feldman et al., and the parked sessions' bytes — and the
/// MegaBoomLite one, where sessions re-trim their cores on retries, passes
/// a monolithic induction check and is learned again on two workers, where
/// it must not move.
fn fig5(runs: &Runs, report: &mut Report) {
    println!("Limited examples (rd = x3 only; the paper's regime):");
    println!(
        "{:<16} {:>10} {:>8} {:>11} {:>12}",
        "Target", "bits", "tasks", "backtracks", "bt fraction"
    );
    for (t, run) in runs.each(Shared::Limited) {
        let tasks = run.stats.num_tasks();
        let bt = run.stats.counters.backtracks;
        println!(
            "{:<16} {:>10} {tasks:>8} {bt:>11} {:>11.1}%",
            t.name,
            t.design.state_bits(),
            bt as f64 / tasks.max(1) as f64 * 100.0
        );
        report.push(t.name, "tasks_limited", tasks as f64, "tasks");
        report.push(t.name, "backtracks_limited", bt as f64, "backtracks");
        let limited = format!("{}-limited", t.name);
        for (key, value) in run.stats.counters() {
            report.push(&limited, key, value as f64, "count");
        }
    }
    let mega = runs.targets.len() - 1;
    let one = runs.shared(mega, Shared::Limited);
    let c = one.stats.counters;
    assert!(
        c.backtracks > 0 && c.session_hits > 0,
        "limited examples must backtrack on MegaBoomLite, and retries reuse sessions"
    );
    let (t, safe) = (&runs.targets[mega], &runs.safe[mega]);
    runs.verify(mega, one, &format!("{}-limited", t.name));
    runs.count_learn();
    let two = learn(&t.design, safe, 2, Shared::Limited.spec());
    let preds = |run: &RunResult| run.invariant.as_ref().map(|inv| inv.preds().to_vec());
    assert_eq!(
        preds(&two),
        preds(one),
        "2 workers learned another invariant"
    );
    assert_eq!(
        two.stats.counters(),
        one.stats.counters(),
        "2 workers did other work"
    );
    println!(
        "{}: {} backtracks, {} session retries; invariant re-checked monolithically, and identical with its counters on 2 workers",
        t.name, c.backtracks, c.session_hits
    );

    println!("\nRich examples (full rd rotation — near-exhaustive coverage):");
    println!(
        "{:<16} {:>10} {:>8} {:>11} {:>10}",
        "Target", "bits", "tasks", "backtracks", "memo hits"
    );
    let mut prev_tasks = 0usize;
    for (t, run) in runs.each(Shared::Rich) {
        let tasks = run.stats.num_tasks();
        let bt = run.stats.counters.backtracks;
        println!(
            "{:<16} {:>10} {tasks:>8} {bt:>11} {:>10}",
            t.name,
            t.design.state_bits(),
            run.stats.counters.memo_hits
        );
        report.push(t.name, "tasks_rich", tasks as f64, "tasks");
        report.push(t.name, "backtracks_rich", bt as f64, "backtracks");
        assert!(
            bt <= tasks as u64 / 10,
            "rich examples should nearly eliminate backtracking"
        );
        assert!(tasks >= prev_tasks, "task count grows with design size");
        prev_tasks = tasks;
    }
    println!("\nShape check: tasks grow with design size; with limited examples the");
    println!("backtrack fraction stays bounded, and with exhaustive examples it");
    println!("collapses to ~0 — both as the paper describes (§3.2.1, Fig. 5).");
}

/// The headline comparison (§6.3): the hierarchical learner against the
/// monolithic MLIS learners (HOUDINI / SORCAR, the basis of ConjunCT) on
/// the same miter and examples, *learning* time only — example generation
/// is a stage both sides consume identically. Then the cost of certifying
/// the RocketLite run.
fn speedup(runs: &Runs, report: &mut Report) {
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "Target", "H-Houdini(s)", "Houdini(s)", "Sorcar(s)", "vs Hou", "vs Sor"
    );
    let budget = BaselineBudget {
        max_time: Duration::from_secs(1800),
    };
    let mut factors = Vec::new();
    for (i, (t, run)) in runs.each(Shared::Rich).enumerate() {
        let hh = secs(run.stats.wall_time);
        let v = runs.veloct(i, one_thread());
        let mut times = Vec::new();
        for kind in [BaselineKind::Houdini, BaselineKind::Sorcar] {
            let b = v.learn_baseline(&runs.safe[i], kind, &budget);
            let time = if b.budget_exceeded {
                f64::INFINITY
            } else {
                assert!(
                    b.invariant.is_some(),
                    "{kind:?} must prove the set in budget"
                );
                secs(b.stats.wall_time)
            };
            let row = if time.is_finite() { time } else { -1.0 };
            report.push(t.name, &format!("{kind:?}_s"), row, "s");
            times.push(time);
        }
        let f_h = times[0] / hh;
        let f_s = times[1] / hh;
        println!(
            "{:<16} {hh:>12.3} {:>12.3} {:>12.3} {f_h:>8.1}x {f_s:>8.1}x",
            t.name, times[0], times[1]
        );
        report.push(t.name, "hhoudini_s", hh, "s");
        report.push(t.name, "factor_vs_houdini", f_h, "x");
        report.push(t.name, "factor_vs_sorcar", f_s, "x");
        // Run telemetry under the trace-schema counter names
        // (docs/TRACE_SCHEMA.md): `Stats::counters()` projects the
        // namespace the `hh-trace` counters are recorded under.
        let s = &run.stats;
        for (key, value) in s.counters() {
            report.push(t.name, key, value as f64, "count");
        }
        report.push(t.name, "session_hit_rate", s.session_hit_rate(), "frac");
        report.push(
            t.name,
            "encode_cache_hit_rate",
            s.encode_cache_hit_rate(),
            "frac",
        );
        report.push(t.name, "encode_s", secs(s.encode_time), "s");
        report.push(t.name, "solve_s", secs(s.solve_time), "s");
        report.push(t.name, "occupancy", s.occupancy(), "frac");
        // RocketLite is another (in-order) microarchitecture whose whole
        // learn takes ~10 ms, so its ratio is noise; the size trend is
        // judged within the BoomLite family.
        if is_boom(t.name) {
            factors.push(f_h.min(f_s));
        }
    }
    println!("\nFaster baseline / H-Houdini, SmallBoomLite to MegaBoomLite: {factors:.2?}");
    println!("(above 1 the hierarchical learner wins; the paper reports 2880x on");
    println!("Rocketchip-scale designs and non-termination on BOOM).");
    assert!(
        factors.last().unwrap() > factors.first().unwrap(),
        "hierarchical advantage must grow with size: {factors:?}"
    );

    let v = runs.veloct(
        0,
        VeloctConfig {
            certify: true,
            ..one_thread()
        },
    );
    let (t, safe) = (&runs.targets[0], &runs.safe[0]);
    runs.count_learn();
    let run = v.learn(safe);
    let inv = run.invariant.as_ref().expect("certified run must learn");
    let dir = std::path::Path::new("bench_results").join("speedup_proof_bundle");
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let summary = v
        .emit_certificate(safe, inv, &run.solutions, &dir)
        .expect("certificate emission succeeds");
    let emit_s = secs(t0.elapsed());
    let t0 = Instant::now();
    hh_proof::cert::check_bundle(&dir).expect("emitted bundle must check");
    let check_s = secs(t0.elapsed());
    println!(
        "\nCertification: {} obligations, {} proof bytes; emit {emit_s:.3}s, check {check_s:.3}s",
        summary.obligations, summary.proof_bytes
    );
    report.push(
        t.name,
        "proof_obligations",
        summary.obligations as f64,
        "obligations",
    );
    report.push(t.name, "proof_bytes", summary.proof_bytes as f64, "bytes");
    report.push(t.name, "proof_emit_s", emit_s, "s");
    report.push(t.name, "proof_check_s", check_s, "s");
}

/// Ablations: each arm changes one field of the shared 1-thread run's spec.
fn ablation(runs: &Runs, report: &mut Report) {
    let small = 1;
    let paper = Shared::Rich.spec();

    println!("1. Trimmed vs raw UNSAT cores (SmallBoomLite)");
    let trimmed = runs.shared(small, Shared::Rich);
    let mut raw_cores = paper;
    raw_cores.abduction.minimize = false;
    let raw = runs.learn(small, raw_cores);
    let (a, b) = (invariant_size(trimmed), invariant_size(&raw));
    println!(
        "  trimmed cores: {a} predicates, {} tasks",
        trimmed.stats.num_tasks()
    );
    println!(
        "  raw cores    : {b} predicates, {} tasks",
        raw.stats.num_tasks()
    );
    assert!(a <= b, "trimmed cores must not grow the invariant");
    report.push("trim_cores", "inv_trimmed", a as f64, "predicates");
    report.push("trim_cores", "inv_raw", b as f64, "predicates");

    println!("\n2. Example masking on an OoO core (SmallBoomLite)");
    let mut no_mask = paper;
    no_mask.mask = false;
    let unmasked = runs.learn(small, no_mask);
    println!(
        "  masked  : invariant with {} predicates",
        invariant_size(trimmed)
    );
    match &unmasked.invariant {
        Some(inv) => println!("  unmasked: invariant with {} predicates", inv.len()),
        None => println!("  unmasked: FAILED (stale-uop residue blocks InSafeSet mining)"),
    }
    assert!(
        unmasked.invariant.is_none(),
        "without masking, stale uops must prevent the invariant (paper §5.2.1)"
    );
    report.push("masking", "masked_ok", 1.0, "bool");
    report.push("masking", "unmasked_ok", 0.0, "bool");

    println!("\n3. Impl predicates replace masking (SmallBoomLite; §5.2.1 future work)");
    let v = runs.veloct(
        small,
        VeloctConfig {
            impl_predicates: true,
            ..one_thread()
        },
    );
    runs.count_learn();
    let with_impl = v.learn(&runs.safe[small]);
    let inv = with_impl
        .invariant
        .as_ref()
        .expect("Impl predicates must recover learnability without masking");
    let n_impl = (inv.preds().iter())
        .filter(|p| matches!(p, Predicate::Impl { .. }))
        .count();
    println!(
        "  unmasked + Impl predicates: invariant with {} predicates ({n_impl} conditional)",
        inv.len()
    );
    assert!(
        n_impl >= 1,
        "the invariant should use the conditional predicate"
    );
    report.push("impl_preds", "unmasked_with_impl_ok", 1.0, "bool");

    println!("\nAll ablations behaved as DESIGN.md §4 predicts.");
}
