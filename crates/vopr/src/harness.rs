//! The per-seed simulation harness.
//!
//! [`run_seed`] executes one fully deterministic simulation: a fault plan
//! is drawn from the seed, each scenario design is run three times on the
//! engine's virtual backend (an unfaulted serial reference, a faulted
//! reordered run, and a bit-exact replay of the faulted run), the SAT
//! budget/proof-sink scenario and the serve checkpoint-crash scenario are
//! driven from the same seed, and every artifact flows through the
//! [`Registry`] of invariant checkers. The returned [`SeedReport`] is a
//! pure function of `(seed, options)` — byte-for-byte, including the trace
//! event-log hashes.
//!
//! Trace rings are process-global, so the harness serialises trace-using
//! sections behind an internal mutex: concurrent [`run_seed`] calls (e.g.
//! from the test runner) are safe, just not concurrent *inside* the traced
//! sections.

use crate::designs::Scenario;
use crate::fault::FaultPlan;
use crate::invariants::{InvariantResult, Registry, RunArtifacts};
use crate::rng::SplitMix64;
use hh_sat::{DratLog, LimitedResult, SolveResult, Solver};
use hh_trace::{EventKind, TraceConfig};
use hhoudini::sim::{SchedEvent, SimDriver};
use hhoudini::{EngineConfig, ParallelEngine};
use std::sync::{Mutex, PoisonError};

/// Serialises access to the process-global trace rings.
static TRACE_GATE: Mutex<()> = Mutex::new(());

/// Harness options. CI uses the default: no canary, every scenario.
#[derive(Debug, Clone)]
pub struct VoprOptions {
    /// Reintroduce the commit-order shuffle bug ([`ParallelEngine::
    /// enable_commit_shuffle`]); the checkers must then report violations.
    pub canary: bool,
    /// Run the serve checkpoint scenario (one real learn per seed; the
    /// slowest part of a seed — tests that only target the engine loop
    /// turn it off).
    pub serve: bool,
}

impl Default for VoprOptions {
    fn default() -> VoprOptions {
        VoprOptions {
            canary: false,
            serve: true,
        }
    }
}

/// Everything one simulated seed produced.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// The fault schedule injected.
    pub plan: FaultPlan,
    /// Checker violations (empty on a healthy engine).
    pub violations: Vec<String>,
    /// Checker applications performed.
    pub checks: usize,
    /// Per-run trace hashes, `(label, hash)`, in execution order.
    pub scenario_hashes: Vec<(String, u64)>,
}

impl SeedReport {
    /// One digest over the whole seed: chained FNV over the run hashes.
    /// Two bit-identical simulations produce equal digests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (label, hash) in &self.scenario_hashes {
            for &b in label.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            for &b in &hash.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

// ---------------------------------------------------------------------------
// The seeded driver
// ---------------------------------------------------------------------------

/// The [`SimDriver`] owning all scheduler nondeterminism: window picks come
/// from the seed's RNG, worker deaths from the fault plan. Records the
/// scheduler event log for the checkers.
#[derive(Debug)]
struct VoprDriver {
    rng: SplitMix64,
    death_job: Option<usize>,
    events: Vec<SchedEvent>,
}

impl VoprDriver {
    fn new(rng: SplitMix64, plan: &FaultPlan) -> VoprDriver {
        VoprDriver {
            rng,
            death_job: plan.worker_death(),
            events: Vec::new(),
        }
    }
}

impl SimDriver for VoprDriver {
    fn pick(&mut self, eligible: &[usize]) -> usize {
        self.rng.below(eligible.len() as u64) as usize
    }

    fn worker_dies(&mut self, job: usize) -> bool {
        self.death_job == Some(job)
    }

    fn observe(&mut self, ev: &SchedEvent) {
        self.events.push(*ev);
    }
}

// ---------------------------------------------------------------------------
// Engine scenario execution
// ---------------------------------------------------------------------------

/// Runs one scenario once on the virtual backend and captures everything
/// the checkers need. Caller must hold the trace gate.
fn engine_run(
    sc: &Scenario,
    window: usize,
    driver_rng: SplitMix64,
    plan: &FaultPlan,
    canary: bool,
    label: &str,
) -> RunArtifacts {
    hh_trace::init(TraceConfig::on());
    let _ = hh_trace::drain(); // discard residue from earlier sections

    let mut engine = ParallelEngine::new(
        sc.miter.netlist(),
        sc.miner(),
        EngineConfig::default(),
        window,
    );
    if canary {
        engine.enable_commit_shuffle();
    }
    let mut driver = VoprDriver::new(driver_rng, plan);
    let invariant = engine.learn_sim(&[sc.property()], &mut driver).map(|inv| {
        let mut preds: Vec<String> = inv
            .preds()
            .iter()
            .map(|p| p.to_wire(sc.miter.netlist()))
            .collect();
        preds.sort();
        preds
    });
    let solutions = engine
        .solutions()
        .into_iter()
        .map(|(t, prems)| {
            (
                t.to_wire(sc.miter.netlist()),
                prems
                    .iter()
                    .map(|p| p.to_wire(sc.miter.netlist()))
                    .collect(),
            )
        })
        .collect();

    hh_trace::flush();
    let trace = hh_trace::drain();
    hh_trace::init(TraceConfig::Off);

    let spans = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .map(|e| (e.tid, e.ts_us, e.end_us()))
        .collect();
    RunArtifacts {
        label: label.to_string(),
        invariant,
        solutions,
        stats: engine.stats().clone(),
        trace_hash: trace.event_log_hash(),
        counters: trace.counter_totals(),
        spans,
        events: driver.events,
    }
}

// ---------------------------------------------------------------------------
// SAT scenario: budget rounds + proof-sink detach
// ---------------------------------------------------------------------------

/// Drives one deterministic random 3-CNF through two solvers: a reference
/// solved in one call, and a faulted solver solved in RNG-sized budget
/// slices with a DRAT sink attached — detached mid-stream when the plan
/// says so. The verdicts must agree, and the solver must have counted
/// exactly the rounds the loop ran.
fn sat_scenario(rng: &mut SplitMix64, plan: &FaultPlan, registry: &mut Registry) {
    let nvars = 16 + rng.below(8) as usize;
    let nclauses = nvars * 4 + rng.below(nvars as u64) as usize;
    let clauses: Vec<[(usize, bool); 3]> = (0..nclauses)
        .map(|_| [(); 3].map(|()| (rng.below(nvars as u64) as usize, rng.chance(1, 2))))
        .collect();
    let build = |s: &mut Solver| {
        let vars: Vec<_> = (0..nvars).map(|_| s.new_var()).collect();
        for c in &clauses {
            let lits: Vec<_> = c.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            s.add_clause(&lits);
        }
    };

    let mut reference = Solver::new();
    build(&mut reference);
    let want = reference.solve();

    let mut faulted = Solver::new();
    build(&mut faulted);
    faulted.set_proof_sink(Box::new(DratLog::new()));
    let detach_at = plan.sink_detach();
    let mut detached = false;
    let mut rounds_run: u64 = 0;
    let verdict = loop {
        // Small RNG-sized slices force several budget-round boundaries —
        // the seam the sink detach races against. Escalate after a while
        // so a hard instance still terminates.
        let budget = if rounds_run > 64 {
            u64::MAX
        } else {
            8 + rng.below(32)
        };
        match faulted.solve_limited(&[], budget) {
            LimitedResult::Sat => break SolveResult::Sat,
            LimitedResult::Unsat => break SolveResult::Unsat,
            LimitedResult::Unknown => {
                rounds_run += 1;
                if let Some(at) = detach_at {
                    if !detached && rounds_run >= at {
                        // Mid-stream detach: learnt clauses already went to
                        // the sink; the rest of the solve streams nowhere.
                        let _ = faulted.take_proof_sink();
                        detached = true;
                    }
                }
            }
        }
    };

    let verdicts = if verdict == want {
        InvariantResult::Ok
    } else {
        InvariantResult::Violation(format!(
            "budget-sliced solve with sink fault returned {verdict:?}, \
             reference returned {want:?}"
        ))
    };
    registry.record_external("sat", "verdict-stability", verdicts);

    // Every `solve_limited` call is one round: those that ran out of
    // budget, plus the one that returned the verdict.
    let solver_rounds = faulted.stats().budget_rounds;
    registry.record_external(
        "sat",
        "budget-round-agreement",
        if solver_rounds == rounds_run + 1 {
            InvariantResult::Ok
        } else {
            InvariantResult::Violation(format!(
                "the loop ran {} rounds, the solver counted {solver_rounds}",
                rounds_run + 1
            ))
        },
    );
}

// ---------------------------------------------------------------------------
// Serve scenario: checkpoint crash between tmp-write and rename
// ---------------------------------------------------------------------------

/// Minimal btor2 design for the serve scenario: held secrets the
/// observables never read, so every safe set proves quickly.
const SERVE_TOY: &str = "\
1 sort bitvec 8
2 sort bitvec 32
3 input 2 instr
4 state 1 sec1
5 state 1 sec2
6 state 1 sec3
7 state 1 sec4
8 state 1 a
9 state 1 b
10 state 1 obs_a
11 state 1 obs_b
12 zero 1
13 one 1
14 init 1 4 12
15 init 1 5 12
16 init 1 6 12
17 init 1 7 12
18 init 1 8 12
19 init 1 9 12
20 init 1 10 12
21 init 1 11 12
22 next 1 4 4
23 next 1 5 5
24 next 1 6 6
25 next 1 7 7
26 add 1 8 13
27 next 1 8 26
28 xor 1 9 13
29 next 1 9 28
30 next 1 10 8
31 next 1 11 9
";

/// Learns a design in a `ServeState`, checkpoints, crashes a re-checkpoint
/// mid-write where the plan says so, then boots a fresh state from disk:
/// the restored state must answer bit-identically and warm (zero solving),
/// and no `.tmp` debris may survive the sweep.
fn serve_scenario(seed: u64, plan: &FaultPlan, registry: &mut Registry) {
    use hh_serve::json::Json;
    use hh_serve::request::{resolve_safe_set, DesignSpec, JobKey, RunOptions};
    use hh_serve::state::ServeState;

    let dir = std::env::temp_dir().join(format!("hh-vopr-serve-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec_json = Json::obj(vec![
        ("name", Json::Str("vopr-toy".to_string())),
        ("btor2", Json::Str(SERVE_TOY.to_string())),
        ("instr_input", Json::Str("instr".to_string())),
        (
            "observables",
            Json::Arr(vec![
                Json::Str("obs_a".to_string()),
                Json::Str("obs_b".to_string()),
            ]),
        ),
        (
            "secret_regs",
            Json::Arr(
                ["sec1", "sec2", "sec3", "sec4"]
                    .iter()
                    .map(|s| Json::Str(s.to_string()))
                    .collect(),
            ),
        ),
        ("xlen", Json::Int(8)),
        ("max_latency", Json::Int(2)),
    ]);
    let spec = || DesignSpec::from_json(&spec_json).expect("valid inline spec");
    let key = JobKey {
        safe: resolve_safe_set(&Json::Str("alu".to_string())).expect("alu shorthand"),
        pairs_per_instr: 1,
        seed: 0,
        impl_predicates: false,
    };
    let opts = RunOptions {
        threads: 1,
        certify: false,
        require_baseline: false,
    };

    let mut state = ServeState::new(Some(dir.clone()));
    let pre = state
        .learn(spec(), key.clone(), opts)
        .expect("toy learn succeeds");
    state.checkpoint().expect("clean checkpoint");
    if let Some(at_write) = plan.checkpoint_crash() {
        let crashed = state.checkpoint_crash_after(at_write);
        if crashed.is_ok() {
            registry.record_external(
                "serve",
                "checkpoint-crash",
                InvariantResult::Violation(format!(
                    "injected crash at write {at_write} did not surface"
                )),
            );
        }
    }
    drop(state);

    let mut restored = ServeState::new(Some(dir.clone()));
    let (_, _warnings) = restored.restore();
    let post = restored
        .learn(spec(), key, opts)
        .expect("restored learn succeeds");
    let identical = post.invariant == pre.invariant && post.result == pre.result;
    registry.record_external(
        "serve",
        "restore-answers-identically",
        if identical {
            InvariantResult::Ok
        } else {
            InvariantResult::Violation(format!(
                "restored answer differs: {:?} vs pre-crash {:?}",
                post.result, pre.result
            ))
        },
    );
    registry.record_external(
        "serve",
        "restore-is-warm",
        if post.counters.smt_queries == 0 {
            InvariantResult::Ok
        } else {
            InvariantResult::Violation(format!(
                "restored state re-solved {} queries",
                post.counters.smt_queries
            ))
        },
    );
    let debris = walk_tmp(&dir);
    registry.record_external(
        "serve",
        "debris-swept",
        if debris.is_empty() {
            InvariantResult::Ok
        } else {
            InvariantResult::Violation(format!("{} .tmp file(s) survived restore", debris.len()))
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_tmp(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "tmp") {
                found.push(p);
            }
        }
    }
    found
}

// ---------------------------------------------------------------------------
// The per-seed entry points
// ---------------------------------------------------------------------------

/// Simulates one seed with its generated fault plan. See the module docs.
pub fn run_seed(seed: u64, opts: &VoprOptions) -> SeedReport {
    run_seed_with_plan(seed, opts, None)
}

/// Like [`run_seed`], but with an explicit fault plan (the `--minimize`
/// probe). The plan override replaces the generated plan without shifting
/// any other RNG stream, so the schedule stays comparable.
pub fn run_seed_with_plan(
    seed: u64,
    opts: &VoprOptions,
    plan_override: Option<&FaultPlan>,
) -> SeedReport {
    let _gate = TRACE_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut root = SplitMix64::new(seed);
    // The plan draws from its own fork so an override never perturbs the
    // scenario streams below.
    let generated = FaultPlan::generate(&mut root.fork(0xFA));
    let plan = plan_override.cloned().unwrap_or(generated);

    let mut registry = Registry::default();
    let mut scenario_hashes = Vec::new();

    for (i, sc) in Scenario::all().into_iter().enumerate() {
        let mut srng = root.fork(1 + i as u64);
        let window = 2 + srng.below(3) as usize;
        let driver_seed = srng.next_u64();

        // Unfaulted serial reference: window 1 replays the serial schedule.
        let reference = engine_run(
            &sc,
            1,
            SplitMix64::new(driver_seed),
            &FaultPlan::default(),
            false,
            "reference",
        );
        // Faulted, reordered run — and a bit-exact replay of it.
        let faulted = engine_run(
            &sc,
            window,
            SplitMix64::new(driver_seed),
            &plan,
            opts.canary,
            "faulted",
        );
        let replay = engine_run(
            &sc,
            window,
            SplitMix64::new(driver_seed),
            &plan,
            opts.canary,
            "replay",
        );

        registry.record_run(sc.name, &reference);
        registry.record_run(sc.name, &faulted);
        registry.record_pair(sc.name, &reference, &faulted);
        registry.record_replay(sc.name, &faulted, &replay);

        scenario_hashes.push((format!("{}/reference", sc.name), reference.trace_hash));
        scenario_hashes.push((format!("{}/faulted@w{window}", sc.name), faulted.trace_hash));
    }

    sat_scenario(&mut root.fork(0x5A7), &plan, &mut registry);
    if opts.serve {
        serve_scenario(seed, &plan, &mut registry);
    }

    SeedReport {
        seed,
        plan,
        violations: registry.violations,
        checks: registry.checks,
        scenario_hashes,
    }
}

/// Runs one unfaulted engine scenario at an explicit reorder window and
/// returns the run's artifacts. This is the fixed-thread-count probe the
/// replay-determinism tests drive directly: same `(scenario, window,
/// seed)` must be bit-identical, and the learned invariant must not depend
/// on `window` at all.
pub fn probe(scenario: usize, window: usize, seed: u64) -> RunArtifacts {
    let _gate = TRACE_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let sc = &Scenario::all()[scenario];
    engine_run(
        sc,
        window,
        SplitMix64::new(seed),
        &FaultPlan::default(),
        false,
        "probe",
    )
}

/// Bisects the fault schedule of a failing seed to the shortest prefix
/// that still produces a violation. Returns `(prefix_len, plan_prefix,
/// violations_under_prefix)`. A zero-length result means the failure does
/// not need any injected fault (schedule-only — or a canary).
pub fn minimize(seed: u64, opts: &VoprOptions) -> (usize, FaultPlan, Vec<String>) {
    let full = run_seed(seed, opts);
    let plan = full.plan.clone();
    let mut best_len = plan.faults.len();
    let mut best_violations = full.violations;
    // Plans are tiny (≤ ~8 faults); a linear scan from the empty prefix
    // finds the true minimum, not just a local one.
    for len in 0..plan.faults.len() {
        let probe = run_seed_with_plan(seed, opts, Some(&plan.prefix(len)));
        if !probe.violations.is_empty() {
            best_len = len;
            best_violations = probe.violations;
            break;
        }
    }
    (best_len, plan.prefix(best_len), best_violations)
}
