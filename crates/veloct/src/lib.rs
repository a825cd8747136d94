//! # veloct — safe-instruction-set synthesis by relational invariant learning
//!
//! The paper's VeloCT framework (§4–5): given a processor design (RTL-style
//! transition system), an attacker-observable output annotation, and a
//! proposed set of safe instructions, VeloCT either learns an inductive
//! relational invariant proving that any program composed of those
//! instructions is timing-indistinguishable w.r.t. secrets, or reports that
//! no such invariant exists.
//!
//! The pipeline:
//!
//! 1. build the **miter** (product circuit) of the design,
//! 2. constrain the instruction input alphabet to the proposed safe set
//!    plus the null instruction (Σ of §4),
//! 3. **generate positive examples**: paired executions differing only in
//!    secret register values, NOP-padded, masked (§5.2),
//! 4. run **H-Houdini** with the Algorithm-2 miner (`Eq`/`EqConst`/
//!    `InSafeSet` + validated expert annotations) on the property
//!    `Eq(observable)` for every observable,
//! 5. for full synthesis, classify candidate instructions by adversarial
//!    differential testing first, then prove the surviving set.
//!
//! ```no_run
//! use hh_uarch::rocketlite::rocket_lite;
//! use veloct::{Veloct, default_candidates};
//!
//! let design = rocket_lite(16);
//! let veloct = Veloct::new(&design);
//! let report = veloct.classify(&default_candidates());
//! println!("safe set: {:?}", report.safe);
//! assert!(report.invariant.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod examples;

use examples::{differential_tests, generate_examples, Divergence};
use hh_isa::{safe_set_patterns, InstrClass, Instruction, Mnemonic, ALL_MNEMONICS};
use hh_netlist::miter::Miter;
use hh_smt::EncodeCache;
use hh_smt::{Pattern, Predicate};
use hh_uarch::Design;
use hhoudini::baselines::{houdini, sorcar, BaselineBudget, BaselineOutcome, BaselineStats};
use hhoudini::mine::CoiMiner;
use hhoudini::{EngineConfig, Invariant, ParallelEngine, PredicateStore, Stats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the VeloCT pipeline.
#[derive(Debug, Clone)]
pub struct VeloctConfig {
    /// Worker threads: for the parallel engine, for the work in front of it
    /// (simulating the example pairs of a learn, differential-testing the
    /// candidates of [`Veloct::classify`]) and for proving a certificate's
    /// obligations in [`Veloct::emit_certificate`]. No result depends on it.
    pub threads: usize,
    /// Engine configuration (abduction scope, memoisation).
    pub engine: EngineConfig,
    /// Paired executions per instruction during example generation.
    pub pairs_per_instr: usize,
    /// RNG seed for secret values.
    pub seed: u64,
    /// Maximum greedy drop attempts when learning fails for a set that
    /// passed differential testing.
    pub fallback_drops: usize,
    /// Enable Impl-type conditional predicates (the paper's §5.2.1
    /// future-work extension). When set, example masking is *disabled* and
    /// the miner instead emits `Impl(valid → InSafeSet(field))` predicates
    /// from the masking annotations, constraining table payloads only while
    /// their entries are valid.
    pub impl_predicates: bool,
    /// Marks a run whose memoised solutions the caller will hand to
    /// [`Veloct::emit_certificate`]. The learn itself is the same engine
    /// run with the flag on or off — same queries, same solver work, same
    /// invariant — so nothing in [`Veloct::learn`] reads it: emission
    /// re-proves every obligation from the solution table. Proofs logged
    /// during the learn could not stand in for that, because a session's CNF
    /// (indicator-guarded candidates) is not the obligation CNF the checker
    /// re-derives.
    pub certify: bool,
}

impl Default for VeloctConfig {
    fn default() -> VeloctConfig {
        VeloctConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            engine: EngineConfig::default(),
            pairs_per_instr: 2,
            seed: 0xD1CE,
            fallback_drops: 4,
            impl_predicates: false,
            certify: false,
        }
    }
}

/// Why an instruction was excluded from the safe set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsafeReason {
    /// Adversarial differential testing produced observably different
    /// timing (with the first diverging cycle).
    TimingDivergence(usize),
    /// Example generation for the final set diverged.
    ExampleDivergence(usize),
    /// No inductive invariant exists with this instruction included (the
    /// paper's `auipc`-on-BOOM situation: possibly safe, but unverifiable).
    LearningFailed,
}

/// Result of proving one proposed safe set.
#[derive(Debug)]
pub struct LearnReport {
    /// The invariant, if one was learned.
    pub invariant: Option<Invariant>,
    /// Engine telemetry (`stats.wall_time` is the engine's learn alone),
    /// with the `examples_*` counters filled in from example generation.
    pub stats: Stats,
    /// Time spent generating the positive examples (zero when the answer
    /// came from a closed memo table: see [`Veloct::learn_warm`]).
    pub examples_time: Duration,
    /// Time spent building the miner (COI tables and per-variable facts
    /// over the examples).
    pub mine_time: Duration,
    /// Number of positive examples generated — zero when none was needed
    /// because the answer came from a closed memo table.
    pub num_examples: usize,
    /// Divergence evidence if generation already refuted the set.
    pub divergence: Option<Divergence>,
    /// Design size (state bits) for reporting.
    pub state_bits: u64,
    /// The engine's memoised solution table: per invariant predicate, the
    /// premise set that made it relatively inductive. This is the raw
    /// material for [`Veloct::emit_certificate`].
    pub solutions: Vec<(Predicate, Vec<Predicate>)>,
    /// Memo entries preloaded from a [`WarmContext`] before solving.
    pub memo_seeded: usize,
    /// Preloaded entries that survived into the final solution table (the
    /// rest were swept stale and re-learned).
    pub memo_reused: usize,
}

/// Warm state carried into [`Veloct::learn_warm`] / [`Veloct::learn_seeded`]
/// by a resident service: an engine-external [`EncodeCache`] that outlives
/// the call, plus memoised solutions from an earlier run to preload. Both
/// are optional; the default context reproduces the cold [`Veloct::learn`]
/// behaviour exactly.
///
/// Soundness contract: the cache must have been built over a netlist whose
/// content is identical to the miter this run constructs, and every seeded
/// solution's target must have an unchanged cone signature (see
/// `hh_netlist::signature`) — `hh-serve` enforces both before calling.
#[derive(Debug, Default)]
pub struct WarmContext {
    /// Resident encode cache (replay streams), or `None` to build a
    /// per-run cache as usual.
    pub encode_cache: Option<Arc<EncodeCache>>,
    /// `(target, premises)` solutions to preload into the engine memo.
    pub seeds: Vec<(Predicate, Vec<Predicate>)>,
}

/// Result of full safe-set synthesis (classification).
#[derive(Debug)]
pub struct SafeSetReport {
    /// The verified safe set.
    pub safe: Vec<Mnemonic>,
    /// Excluded instructions with reasons.
    pub rejected: Vec<(Mnemonic, UnsafeReason)>,
    /// The invariant proving the safe set.
    pub invariant: Option<Invariant>,
    /// Telemetry of the final (successful) learning run.
    pub stats: Stats,
    /// Example-generation time of the final run — see
    /// [`LearnReport::examples_time`].
    pub examples_time: Duration,
    /// Miner-construction time of the final run.
    pub mine_time: Duration,
    /// Positive examples used by the final run.
    pub num_examples: usize,
    /// Solution table of the final (successful) learning run — see
    /// [`LearnReport::solutions`].
    pub solutions: Vec<(Predicate, Vec<Predicate>)>,
}

/// Which monolithic baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Classic HOUDINI: start from the full pool, drop per counterexample.
    Houdini,
    /// SORCAR-style: property-directed growth from the property outward.
    Sorcar,
}

/// Result of a baseline run.
#[derive(Debug)]
pub struct BaselineReport {
    /// The invariant, if proved within budget.
    pub invariant: Option<Invariant>,
    /// Baseline telemetry (rounds, SMT time, wall time).
    pub stats: BaselineStats,
    /// Size of the global predicate pool.
    pub pool_size: usize,
    /// Whether the run hit its budget (the paper's "does not scale" case).
    pub budget_exceeded: bool,
}

/// The default candidate set: ALU, multiplier and memory instructions.
/// Control-flow instructions are excluded by policy, as in the paper
/// (§6.4 considers non-memory, non-control instructions; FP/CSR classes are
/// "categorized manually as unsafe").
pub fn default_candidates() -> Vec<Mnemonic> {
    ALL_MNEMONICS
        .iter()
        .copied()
        .filter(|m| m.class() != InstrClass::Control)
        .collect()
}

/// The VeloCT analysis for one design.
#[derive(Debug)]
pub struct Veloct<'a> {
    design: &'a Design,
    config: VeloctConfig,
}

impl<'a> Veloct<'a> {
    /// Creates the analysis with default configuration.
    pub fn new(design: &'a Design) -> Veloct<'a> {
        Veloct::with_config(design, VeloctConfig::default())
    }

    /// Creates the analysis with explicit configuration.
    pub fn with_config(design: &'a Design, config: VeloctConfig) -> Veloct<'a> {
        Veloct { design, config }
    }

    /// The design under analysis.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// Builds the miter with the safe-set input constraint installed.
    ///
    /// Delegates to [`hh_uarch::decode::constrained_miter`] — the single
    /// construction shared with `hh-proof`'s certificate verifier and with
    /// `hh-serve`'s resident warm state, so that an emitted obligation CNF,
    /// its independent re-derivation, and a daemon's resident product
    /// netlist are all byte-identical. The build is deterministic: two
    /// calls with equal designs and safe sets produce netlists with
    /// identical state numbering, which is what lets warm-state predicates
    /// (resolved against a resident miter) be seeded into an engine that
    /// builds its own.
    pub fn build_miter(&self, safe: &[Mnemonic]) -> (Miter, Vec<Pattern>) {
        let patterns = instruction_patterns(safe);
        let miter =
            hh_uarch::decode::constrained_miter(self.design, &pattern_mask_matches(&patterns));
        (miter, patterns)
    }

    /// The property predicates: `Eq(o)` for each observable (§5).
    pub fn property(&self, miter: &Miter) -> Vec<Predicate> {
        self.design
            .observable
            .iter()
            .map(|&o| Predicate::eq(miter.left(o), miter.right(o)))
            .collect()
    }

    /// Attempts to learn an invariant proving the proposed safe set.
    pub fn learn(&self, safe: &[Mnemonic]) -> LearnReport {
        self.learn_seeded(safe, WarmContext::default())
    }

    /// [`Veloct::learn`] for a caller that holds the memo table of an
    /// earlier, successful learn of this *identical* problem (same design
    /// content, safe set and example configuration): the memo table is
    /// consulted before anything is mined (paper Algorithm 1), and positive
    /// examples exist only to prune what is mined, so when the seeds are
    /// closed ([`Invariant::from_closed_table`]) the report is assembled
    /// from them alone — no example simulated, no miner, no worker pool.
    /// It is the report [`Veloct::learn_seeded`] would return (the same
    /// invariant, solution table, [`LearnReport::memo_seeded`] /
    /// [`LearnReport::memo_reused`], zero tasks and queries) with
    /// `num_examples`, the `examples_*` counters and every time left at
    /// zero. Seeds that are not closed — an entry invalidated, flushed or
    /// lost — go through `learn_seeded` unchanged.
    ///
    /// Skipping generation skips its divergence check, which is only right
    /// because the earlier learn ran it on these very examples. Seeds that
    /// merely survived a design delta do not qualify: pass those to
    /// [`Veloct::learn_seeded`].
    pub fn learn_warm(&self, safe: &[Mnemonic], warm: WarmContext) -> LearnReport {
        let _span = hh_trace::span!("veloct", "veloct.learn");
        let (miter, patterns) = self.build_miter(safe);
        let Some(invariant) = Invariant::from_closed_table(&self.property(&miter), &warm.seeds)
        else {
            return self.learn_on(safe, miter, patterns, warm);
        };
        let mut solutions = warm.seeds;
        solutions.sort_by(|a, b| a.0.cmp(&b.0));
        LearnReport {
            invariant: Some(invariant),
            stats: Stats::default(),
            examples_time: Duration::ZERO,
            mine_time: Duration::ZERO,
            num_examples: 0,
            divergence: None,
            state_bits: self.design.state_bits(),
            memo_seeded: solutions.len(),
            memo_reused: solutions.len(),
            solutions,
        }
    }

    /// [`Veloct::learn`] over externally owned warm state: the resident
    /// encode cache and memo seeds of a long-running service. The examples
    /// are always regenerated (and checked for divergence) and the engine
    /// always runs; seeded targets skip their own solve. With the default
    /// context this *is* `learn`; with warm state the learned invariant is
    /// bit-identical to the cold run (encode-cache replay rebuilds the
    /// solver state a fresh blast would produce, and seeds are solutions of
    /// unchanged cones) — only the amount of fresh work differs, reported
    /// through [`LearnReport::memo_seeded`] / [`LearnReport::memo_reused`].
    pub fn learn_seeded(&self, safe: &[Mnemonic], warm: WarmContext) -> LearnReport {
        let _span = hh_trace::span!("veloct", "veloct.learn");
        let (miter, patterns) = self.build_miter(safe);
        self.learn_on(safe, miter, patterns, warm)
    }

    /// Examples, miner and engine run over an already built miter.
    fn learn_on(
        &self,
        safe: &[Mnemonic],
        miter: Miter,
        patterns: Vec<Pattern>,
        warm: WarmContext,
    ) -> LearnReport {
        let state_bits = self.design.state_bits();
        // With Impl predicates on, masking is unnecessary (that is the
        // point of the extension) — generate raw examples instead.
        let mask = !self.config.impl_predicates;
        let example_span = hh_trace::span!("veloct", "veloct.examples");
        let t0 = Instant::now();
        let generated = examples::generate_example_set(
            self.design,
            &miter,
            safe,
            self.config.pairs_per_instr,
            self.config.seed,
            mask,
            &examples::EXAMPLE_RDS,
            self.config.threads,
        );
        let examples_time = t0.elapsed();
        let example_set = match generated {
            Ok(set) => set,
            Err(div) => {
                return LearnReport {
                    invariant: None,
                    stats: Stats::default(),
                    examples_time,
                    mine_time: Duration::ZERO,
                    num_examples: 0,
                    divergence: Some(div),
                    state_bits,
                    solutions: Vec::new(),
                    memo_seeded: 0,
                    memo_reused: 0,
                }
            }
        };
        drop(example_span);
        let examples = &example_set.states;
        let num_examples = examples.len();
        let t0 = Instant::now();
        let miner = if self.config.impl_predicates {
            let guards: Vec<_> = self
                .design
                .masking
                .iter()
                .flat_map(|rule| rule.fields.iter().map(|&f| (rule.valid, f)))
                .collect();
            CoiMiner::new_with_guards(&miter, examples, Some(patterns), vec![], &guards)
        } else {
            CoiMiner::new(&miter, examples, Some(patterns), vec![])
        };
        let mine_time = t0.elapsed();
        // The miner keeps facts about the examples, not the examples: free
        // them before the engine's sessions grow.
        let (examples_cycles, examples_raw) = (example_set.cycles, example_set.raw);
        drop(example_set);
        let mut engine = ParallelEngine::new(
            miter.netlist(),
            miner,
            self.config.engine.clone(),
            self.config.threads,
        );
        if let Some(cache) = warm.encode_cache {
            engine.set_encode_cache(cache);
        }
        let memo_seeded = engine.seed_solutions(&warm.seeds);
        let props = self.property(&miter);
        let invariant = engine.learn(&props);
        let mut stats = engine.stats().clone();
        stats.counters.examples_cycles = examples_cycles;
        stats.counters.examples_raw = examples_raw;
        stats.counters.examples_unique = num_examples as u64;
        LearnReport {
            invariant,
            stats,
            examples_time,
            mine_time,
            num_examples,
            divergence: None,
            state_bits,
            solutions: engine.solutions(),
            memo_seeded,
            memo_reused: engine.seeds_reused(),
        }
    }

    /// Replays a learning run's memoised solutions into an `hh-proof`
    /// certificate bundle at `dir`: one DRAT-certified relative-induction
    /// obligation per invariant predicate, re-derivable and checkable by
    /// the standalone `certify` binary with no trust in this process. The
    /// obligations are proved on [`VeloctConfig::threads`] workers; the
    /// bundle is byte-identical at every thread count.
    pub fn emit_certificate(
        &self,
        safe: &[Mnemonic],
        invariant: &Invariant,
        solutions: &[(Predicate, Vec<Predicate>)],
        dir: &std::path::Path,
    ) -> Result<hh_proof::cert::EmitSummary, hh_proof::cert::CertError> {
        let patterns = instruction_patterns(safe);
        let cert = hh_proof::cert::build_certificate(
            self.design,
            &pattern_mask_matches(&patterns),
            invariant.preds(),
            solutions,
            self.config.threads,
        )?;
        hh_proof::cert::write_bundle(&cert, dir)
    }

    /// Runs a *monolithic* MLIS baseline (HOUDINI or SORCAR, §2.2) on the
    /// same problem: same miter, same examples, but the predicate pool is
    /// the global "kitchen sink" universe and every inductivity check spans
    /// the whole design. Used for the paper's speedup comparison.
    pub fn learn_baseline(
        &self,
        safe: &[Mnemonic],
        kind: BaselineKind,
        budget: &BaselineBudget,
    ) -> BaselineReport {
        let _span = hh_trace::span!("veloct", "veloct.baseline");
        let (miter, patterns) = self.build_miter(safe);
        let examples = match generate_examples(
            self.design,
            &miter,
            safe,
            self.config.pairs_per_instr,
            self.config.seed,
        ) {
            Ok(e) => e,
            Err(_) => {
                return BaselineReport {
                    invariant: None,
                    stats: BaselineStats::default(),
                    pool_size: 0,
                    budget_exceeded: false,
                }
            }
        };
        let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
        let mut store = PredicateStore::new();
        let pool_ids = miner.mine_global(&mut store);
        let pool = store.resolve(&pool_ids);
        let props = self.property(&miter);
        let (outcome, stats) = match kind {
            BaselineKind::Houdini => houdini(miter.netlist(), &pool, &props, budget),
            BaselineKind::Sorcar => sorcar(miter.netlist(), &pool, &props, budget),
        };
        let budget_exceeded = matches!(outcome, BaselineOutcome::BudgetExceeded);
        BaselineReport {
            invariant: match outcome {
                BaselineOutcome::Proved(inv) => Some(inv),
                _ => None,
            },
            stats,
            pool_size: pool.len(),
            budget_exceeded,
        }
    }

    /// Full safe-instruction-set synthesis: adversarial differential
    /// prefilter, then invariant learning over the surviving set, with a
    /// bounded greedy-drop fallback if learning fails.
    pub fn classify(&self, candidates: &[Mnemonic]) -> SafeSetReport {
        let _span = hh_trace::span!("veloct", "veloct.classify");
        let (probe_miter, _) = self.build_miter(candidates);
        let mut rejected: Vec<(Mnemonic, UnsafeReason)> = Vec::new();
        let mut survivors: Vec<Mnemonic> = Vec::new();
        {
            let _difftest = hh_trace::span!("veloct", "veloct.difftest");
            let verdicts =
                differential_tests(self.design, &probe_miter, candidates, self.config.threads);
            for (&m, verdict) in candidates.iter().zip(verdicts) {
                match verdict {
                    Some(div) => rejected.push((m, UnsafeReason::TimingDivergence(div.cycle))),
                    None => survivors.push(m),
                }
            }
        }

        let mut drops = 0;
        loop {
            if survivors.is_empty() {
                return SafeSetReport {
                    safe: vec![],
                    rejected,
                    invariant: None,
                    stats: Stats::default(),
                    examples_time: Duration::ZERO,
                    mine_time: Duration::ZERO,
                    num_examples: 0,
                    solutions: Vec::new(),
                };
            }
            let report = self.learn(&survivors);
            if let Some(div) = &report.divergence {
                let m = div.mnemonic;
                survivors.retain(|&x| x != m);
                rejected.push((m, UnsafeReason::ExampleDivergence(div.cycle)));
                continue;
            }
            match report.invariant {
                Some(inv) => {
                    return SafeSetReport {
                        safe: survivors,
                        rejected,
                        invariant: Some(inv),
                        stats: report.stats,
                        examples_time: report.examples_time,
                        mine_time: report.mine_time,
                        num_examples: report.num_examples,
                        solutions: report.solutions,
                    };
                }
                None => {
                    if drops >= self.config.fallback_drops {
                        return SafeSetReport {
                            safe: vec![],
                            rejected,
                            invariant: None,
                            stats: report.stats,
                            examples_time: report.examples_time,
                            mine_time: report.mine_time,
                            num_examples: report.num_examples,
                            solutions: Vec::new(),
                        };
                    }
                    drops += 1;
                    // Greedy fallback: drop the least-plausible survivor
                    // (multiplier class first, then from the back).
                    let victim = survivors
                        .iter()
                        .position(|m| m.class() == InstrClass::Mul)
                        .unwrap_or(survivors.len() - 1);
                    let m = survivors.remove(victim);
                    rejected.push((m, UnsafeReason::LearningFailed));
                }
            }
        }
    }
}

/// Converts ISA mask/match pairs into SMT patterns, always including the
/// canonical NOP and the all-zero *null instruction* ε (the cores treat
/// undecodable words as bubbles, following the paper's Σ = instructions ∪
/// {ε}).
pub fn instruction_patterns(safe: &[Mnemonic]) -> Vec<Pattern> {
    let mut patterns: Vec<Pattern> = safe_set_patterns(safe)
        .into_iter()
        .map(|mm| Pattern {
            mask: mm.mask as u64,
            value: mm.matches as u64,
        })
        .collect();
    let nop = Instruction::nop().encode() as u64;
    patterns.push(Pattern {
        mask: 0xffff_ffff,
        value: nop,
    });
    patterns.push(Pattern {
        mask: 0xffff_ffff,
        value: examples::BUBBLE as u64,
    });
    patterns.sort();
    patterns.dedup();
    patterns
}

/// Converts SMT patterns back into the ISA mask/match form consumed by
/// [`hh_uarch::decode::constrained_miter`] (and recorded verbatim in
/// certificate bundles).
fn pattern_mask_matches(patterns: &[Pattern]) -> Vec<hh_isa::MaskMatch> {
    patterns
        .iter()
        .map(|p| hh_isa::MaskMatch {
            mask: p.mask as u32,
            matches: p.value as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_uarch::rocketlite::rocket_lite;

    /// The Rocket-style ALU safe set used across tests.
    pub(crate) fn alu_safe_set() -> Vec<Mnemonic> {
        ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| m.class() == InstrClass::Alu)
            .collect()
    }

    #[test]
    fn learns_invariant_for_rocketlite_alu_set() {
        let d = rocket_lite(16);
        let v = Veloct::with_config(
            &d,
            VeloctConfig {
                threads: 2,
                pairs_per_instr: 1,
                ..VeloctConfig::default()
            },
        );
        let report = v.learn(&alu_safe_set());
        let inv = report
            .invariant
            .expect("ALU-only safe set must be provable on RocketLite");
        assert!(inv.len() >= 3);
        assert!(report.stats.num_tasks() >= inv.len() / 2);
        // The paper's §6.4 cross-check: monolithically verify the learned
        // invariant.
        let (miter, _) = v.build_miter(&alu_safe_set());
        assert!(inv.verify_monolithic(miter.netlist()));
    }

    #[test]
    fn mul_inclusion_fails_learning_on_rocketlite() {
        let d = rocket_lite(16);
        let v = Veloct::with_config(
            &d,
            VeloctConfig {
                threads: 2,
                pairs_per_instr: 1,
                ..VeloctConfig::default()
            },
        );
        let mut set = alu_safe_set();
        set.push(Mnemonic::Mul);
        let report = v.learn(&set);
        // Either example generation caught it (if a random operand hit the
        // fast path) or learning must fail via backtracking.
        assert!(report.invariant.is_none(), "mul must not be provable");
    }

    #[test]
    fn patterns_include_nop() {
        let p = instruction_patterns(&[Mnemonic::Xor]);
        let nop = Instruction::nop().encode() as u64;
        assert!(p.iter().any(|pat| pat.matches(nop)));
        let xor = hh_isa::asm::exemplar(Mnemonic::Xor, 3, 1, 2).encode() as u64;
        assert!(p.iter().any(|pat| pat.matches(xor)));
        let mul = hh_isa::asm::mul(3, 1, 2).encode() as u64;
        assert!(!p.iter().any(|pat| pat.matches(mul)));
    }

    #[test]
    fn default_candidates_exclude_control() {
        let c = default_candidates();
        assert!(!c.contains(&Mnemonic::Beq));
        assert!(!c.contains(&Mnemonic::Jal));
        assert!(c.contains(&Mnemonic::Add));
        assert!(c.contains(&Mnemonic::Mul));
        assert!(c.contains(&Mnemonic::Lw));
    }
}
