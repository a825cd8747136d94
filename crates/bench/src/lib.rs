//! # hh-bench — the experiment harness
//!
//! Shared machinery for regenerating the paper's tables and figures: the
//! evaluated designs, the known-correct safe sets, one learning entry point
//! that returns full telemetry, and machine-readable result rows.
//!
//! Two binaries use it: `experiments` (`cargo run -p hh-bench --release
//! --bin experiments -- all`) regenerates every table and figure of the
//! paper's §6 from a few learns per design, and `perf_smoke` is the CI gate
//! on the session, tracing, proof and memory fast paths.

#![warn(missing_docs)]

use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_netlist::miter::Miter;
use hh_serve::json::Json;
use hh_smt::{AbductionConfig, Predicate};
use hh_uarch::boomlite::{boom_lite, boom_lite_scaled, BoomVariant, ALL_VARIANTS};
use hh_uarch::decode::matches_pattern;
use hh_uarch::rocketlite::rocket_lite;
use hh_uarch::Design;
use hhoudini::mine::CoiMiner;
use hhoudini::{EngineConfig, Invariant, ParallelEngine, SerialEngine, Stats};
use std::time::{Duration, Instant};
use veloct::instruction_patterns;

/// A named evaluated design.
#[derive(Debug)]
pub struct Target {
    /// Display name (Table 1 row label).
    pub name: &'static str,
    /// The design.
    pub design: Design,
    /// The paper's reported numbers for the analogous target, for
    /// side-by-side reporting: (state bits, invariant size).
    pub paper: (u64, usize),
}

/// All evaluated designs: RocketLite plus the four BoomLite variants.
pub fn all_targets() -> Vec<Target> {
    let mut v = vec![Target {
        name: "RocketLite",
        design: rocket_lite(16),
        paper: (10_358, 145),
    }];
    let paper = [
        (48_465u64, 1609usize),
        (74_072, 2560),
        (100_009, 4002),
        (133_417, 4640),
    ];
    for (i, &variant) in ALL_VARIANTS.iter().enumerate() {
        v.push(Target {
            name: match variant {
                BoomVariant::Small => "SmallBoomLite",
                BoomVariant::Medium => "MediumBoomLite",
                BoomVariant::Large => "LargeBoomLite",
                BoomVariant::Mega => "MegaBoomLite",
            },
            design: boom_lite(variant, 16),
            paper: paper[i],
        });
    }
    v
}

/// Whether a target is a BoomLite (OoO) design.
pub fn is_boom(name: &str) -> bool {
    name.contains("Boom")
}

/// The largest synthetic design (MegaBoomLite), deepened by `scale`: the
/// issue queues and reorder buffer grow `scale`-fold, so the control-path
/// cones — and the SAT queries under them — grow with it. `scale = 1` is
/// exactly the Table 1 MegaBoomLite; `scale` must be a power of two (ROB
/// index arithmetic wraps).
///
/// Solver-time gates need this headroom: at the default depth the per-query
/// solve time is saturated by fixed overhead (ROADMAP notes RocketLite
/// speedups pinned at ≈1.0x), which hides propagation-level wins.
pub fn scaled_target(scale: u32) -> Target {
    assert!(scale >= 1, "scale must be >= 1");
    Target {
        name: "MegaBoomLite",
        design: boom_lite_scaled(BoomVariant::Mega, 16, scale as usize),
        paper: (133_417, 4640),
    }
}

/// Parses a `--scale N` argument from `args` (default 1).
pub fn parse_scale(args: &[String]) -> u32 {
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--scale takes a positive integer"))
        .unwrap_or(1)
}

/// The verified-safe instruction set for a target (Table 2): used by
/// learning-only experiments that skip classification.
pub fn known_safe_set(name: &str) -> Vec<Mnemonic> {
    if is_boom(name) {
        ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| {
                (m.class() == InstrClass::Alu && *m != Mnemonic::Auipc)
                    || m.class() == InstrClass::Mul
            })
            .collect()
    } else {
        ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| m.class() == InstrClass::Alu)
            .collect()
    }
}

/// Everything a learning run produces.
#[derive(Debug)]
pub struct RunResult {
    /// The learned invariant (None = unprovable).
    pub invariant: Option<Invariant>,
    /// Engine telemetry.
    pub stats: Stats,
    /// Positive example count.
    pub num_examples: usize,
    /// Wall-clock including example generation.
    pub total_time: Duration,
}

/// The full destination-register rotation: near-exhaustive positive
/// examples, under which learning does not backtrack.
pub const RICH_RDS: &[u8] = &[3, 5, 6, 7, 1, 2, 4];
/// One destination register, as a minimal harness would generate. Fewer
/// registers = less exhaustive examples = more backtracking (the paper's
/// Figure 5 regime).
pub const LIMITED_RDS: &[u8] = &[3];

/// Builds the constrained miter, examples and property for a target.
/// `rds` is the destination-register rotation of example generation
/// ([`RICH_RDS`] or [`LIMITED_RDS`]).
pub fn prepare(
    design: &Design,
    safe: &[Mnemonic],
    mask: bool,
    rds: &[u8],
) -> (
    Miter,
    Vec<hh_netlist::eval::StateValues>,
    Vec<Predicate>,
    Vec<hh_smt::Pattern>,
) {
    let mut miter = Miter::build(&design.netlist);
    let patterns = instruction_patterns(safe);
    let instr = miter.netlist().find_input(&design.instr_input).unwrap();
    let terms: Vec<_> = patterns
        .iter()
        .map(|p| {
            let mm = hh_isa::MaskMatch {
                mask: p.mask as u32,
                matches: p.value as u32,
            };
            matches_pattern(miter.netlist_mut(), instr, mm)
        })
        .collect();
    let c = miter.netlist_mut().or_all(&terms);
    miter.netlist_mut().add_constraint(c);
    let examples =
        veloct::examples::generate_examples_custom(design, &miter, safe, 1, 0xBEEF, mask, rds)
            .expect("safe set examples");
    let props: Vec<Predicate> = design
        .observable
        .iter()
        .map(|&o| Predicate::eq(miter.left(o), miter.right(o)))
        .collect();
    (miter, examples, props, patterns)
}

/// Which engine a [`learn`] runs.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// [`ParallelEngine`] on this many worker threads (what `veloct`, the
    /// daemon and the benchmark run).
    Parallel(usize),
    /// [`SerialEngine`], the depth-first reference: per-task times without
    /// scheduler interleaving (Figure 4) and the paper's backtrack
    /// accounting (Figure 5).
    Serial,
}

/// Everything the experiments vary about a learning run.
#[derive(Debug, Clone, Copy)]
pub struct LearnSpec {
    /// The engine (and its thread count).
    pub engine: Engine,
    /// Core minimisation and encoding scope.
    pub abduction: AbductionConfig,
    /// Example masking through the design's valid-bit annotations (§5.2.1).
    pub mask: bool,
    /// Destination-register rotation of example generation.
    pub rds: &'static [u8],
}

impl LearnSpec {
    /// The paper's configuration on `threads` workers of the parallel
    /// engine: minimal cores over cone-scoped encodings, masked rich
    /// examples. The other specs are this one with a field changed.
    pub fn parallel(threads: usize) -> LearnSpec {
        LearnSpec {
            engine: Engine::Parallel(threads),
            abduction: AbductionConfig::paper_default(),
            mask: true,
            rds: RICH_RDS,
        }
    }
}

/// Runs H-Houdini on a target's known safe set.
pub fn learn(design: &Design, safe: &[Mnemonic], spec: LearnSpec) -> RunResult {
    let t0 = Instant::now();
    let (miter, examples, props, patterns) = prepare(design, safe, spec.mask, spec.rds);
    let num_examples = examples.len();
    let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
    let config = EngineConfig {
        abduction: spec.abduction,
    };
    let (invariant, stats) = match spec.engine {
        Engine::Parallel(threads) => {
            let mut engine = ParallelEngine::new(miter.netlist(), miner, config, threads);
            (engine.learn(&props), engine.stats().clone())
        }
        Engine::Serial => {
            let mut engine = SerialEngine::new(miter.netlist(), miner, config);
            (engine.learn(&props), engine.stats().clone())
        }
    };
    RunResult {
        invariant,
        stats,
        num_examples,
        total_time: t0.elapsed(),
    }
}

/// One machine-readable experiment row (EXPERIMENTS.md cites these).
#[derive(Debug, PartialEq)]
struct Row {
    target: String,
    /// Free-form.
    key: String,
    value: f64,
    unit: String,
}

/// The units whose rows are counts: the same on every run of the same
/// tree, so a committed file that disagrees with a fresh run is stale.
/// Every other unit is a time, a rate or a ratio.
const EXACT_UNITS: [&str; 9] = [
    "bits",
    "predicates",
    "tasks",
    "backtracks",
    "safe",
    "bool",
    "count",
    "bytes",
    "obligations",
];

/// The rows of one experiment, kept in `bench_results/<experiment>.json`.
#[derive(Debug, PartialEq)]
pub struct Report {
    experiment: String,
    rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report for the experiment of this id.
    pub fn new(experiment: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn push(&mut self, target: &str, key: &str, value: f64, unit: &str) {
        self.rows.push(Row {
            target: target.to_string(),
            key: key.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    fn path(&self) -> String {
        format!("bench_results/{}.json", self.experiment)
    }

    /// Reads the experiment's committed file; an absent or malformed file
    /// is a report without rows.
    pub fn load(experiment: &str) -> Report {
        let empty = Report::new(experiment);
        std::fs::read_to_string(empty.path())
            .ok()
            .and_then(|text| Report::from_json(experiment, &text))
            .unwrap_or(empty)
    }

    /// Writes the report to `bench_results/<experiment>.json` (best effort)
    /// and prints the path.
    pub fn finish(&self) {
        let _ = std::fs::create_dir_all("bench_results");
        let path = self.path();
        if std::fs::write(&path, self.to_json()).is_ok() {
            println!("\n[results written to {path}]");
        }
    }

    /// Serialises the rows as a JSON array, one row object per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                Json::obj(vec![
                    ("experiment", Json::Str(self.experiment.clone())),
                    ("target", Json::Str(row.target.clone())),
                    ("key", Json::Str(row.key.clone())),
                    ("value", Json::Float(row.value)),
                    ("unit", Json::Str(row.unit.clone())),
                ])
                .to_string()
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Parses what [`Report::to_json`] wrote; `None` if any row lacks a
    /// field.
    pub fn from_json(experiment: &str, text: &str) -> Option<Report> {
        let doc = Json::parse(text).ok()?;
        let field = |row: &Json, name: &str| Some(row.get(name)?.as_str()?.to_string());
        let rows = doc
            .as_arr()?
            .iter()
            .map(|row| {
                Some(Row {
                    target: field(row, "target")?,
                    key: field(row, "key")?,
                    // A non-finite value is written as `null`.
                    value: row.get("value")?.as_f64().unwrap_or(f64::NAN),
                    unit: field(row, "unit")?,
                })
            })
            .collect::<Option<Vec<Row>>>()?;
        Some(Report {
            experiment: experiment.to_string(),
            rows,
        })
    }

    /// How this fresh report disagrees with the committed one: a row either
    /// side lacks, or a count (see `EXACT_UNITS`) with another value.
    /// Timings, rates and ratios differ on every run and are not compared.
    pub fn differences(&self, committed: &Report) -> Vec<String> {
        fn find<'a>(rows: &'a [Row], r: &Row) -> Option<&'a Row> {
            rows.iter().find(|o| o.target == r.target && o.key == r.key)
        }
        let mut out = Vec::new();
        for row in &self.rows {
            let at = format!("{} {} {}", self.experiment, row.target, row.key);
            match find(&committed.rows, row) {
                None => out.push(format!("{at}: not in the committed file")),
                Some(old) if EXACT_UNITS.contains(&row.unit.as_str()) && old != row => {
                    out.push(format!(
                        "{at}: committed {} {}, measured {} {}",
                        old.value, old.unit, row.value, row.unit
                    ));
                }
                Some(_) => {}
            }
        }
        for old in &committed.rows {
            if find(&self.rows, old).is_none() {
                out.push(format!(
                    "{} {} {}: committed, no longer measured",
                    self.experiment, old.target, old.key
                ));
            }
        }
        out
    }
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_enumerate_all_designs() {
        let t = all_targets();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].name, "RocketLite");
        assert!(t[4].design.state_bits() > t[1].design.state_bits());
    }

    #[test]
    fn known_safe_sets_match_table2_structure() {
        let rocket = known_safe_set("RocketLite");
        assert!(rocket.contains(&Mnemonic::Auipc));
        assert!(!rocket.contains(&Mnemonic::Mul));
        let boom = known_safe_set("SmallBoomLite");
        assert!(!boom.contains(&Mnemonic::Auipc));
        assert!(boom.contains(&Mnemonic::Mul));
    }

    #[test]
    fn both_engines_learn_rocketlite() {
        let t = &all_targets()[0];
        let safe = known_safe_set(t.name);
        let parallel = learn(&t.design, &safe, LearnSpec::parallel(1));
        let serial = learn(
            &t.design,
            &safe,
            LearnSpec {
                engine: Engine::Serial,
                ..LearnSpec::parallel(1)
            },
        );
        assert!(parallel.num_examples > 0);
        assert_eq!(parallel.num_examples, serial.num_examples);
        assert_eq!(
            parallel.invariant.expect("provable").len(),
            serial.invariant.expect("provable").len()
        );
    }

    fn committed() -> Report {
        let mut r = Report::new("fig5");
        r.push("SmallBoomLite", "tasks_rich", 58.0, "tasks");
        r.push("SmallBoomLite", "backtracks_rich", 0.0, "backtracks");
        r.push("SmallBoomLite", "wall", 0.25, "s");
        r
    }

    #[test]
    fn reports_round_trip_through_json() {
        let r = committed();
        assert_eq!(Report::from_json("fig5", &r.to_json()), Some(r));
        assert_eq!(Report::from_json("fig5", "[{\"target\":\"x\"}]"), None);
    }

    #[test]
    fn only_counts_and_the_row_set_make_a_report_stale() {
        let old = committed();
        assert!(committed().differences(&old).is_empty());

        let mut count_changed = committed();
        count_changed.rows[0].value = 59.0;
        let d = count_changed.differences(&old);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("tasks_rich") && d[0].contains("58") && d[0].contains("59"));

        let mut timing_changed = committed();
        timing_changed.rows[2].value = 0.31;
        assert!(timing_changed.differences(&old).is_empty());

        // A missing row is stale in both directions, whatever its unit.
        let mut row_missing = committed();
        row_missing.rows.pop();
        assert_eq!(row_missing.differences(&old).len(), 1);
        assert_eq!(old.differences(&row_missing).len(), 1);
    }
}
