//! # hh-bench — the experiment harness
//!
//! Shared machinery for regenerating the paper's tables and figures: the
//! evaluated designs, the known-correct safe sets and machine-readable
//! result rows. It learns nothing itself: every learn of the experiments is
//! a [`veloct::Veloct`] learn, and what it is asked to do (threads, seed,
//! example spec, core trimming) is one [`veloct::VeloctConfig`].
//!
//! Its one binary, `experiments` (`cargo run -p hh-bench --release --bin
//! experiments -- all`), regenerates every table and figure of the paper's
//! §6 from a few learns per design and checks the committed counts in
//! `bench_results/`. How fast the learner runs is the `benchmark/`
//! package's question; whether its paths compute the right thing is
//! `cargo test`'s and those committed counts'.

#![warn(missing_docs)]

use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_serve::json::Json;
use hh_uarch::boomlite::{boom_lite, BoomVariant, ALL_VARIANTS};
use hh_uarch::rocketlite::rocket_lite;
use hh_uarch::Design;
use std::time::Duration;

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

/// One machine-readable experiment row (EXPERIMENTS.md cites these).
#[derive(Debug, PartialEq)]
struct Row {
    target: String,
    /// Free-form.
    key: String,
    value: f64,
    unit: String,
}

/// The units whose rows are counts, or a ratio of two counts (`1/pred`):
/// the same on every run of the same tree, so a committed file that
/// disagrees with a fresh run is stale. Every other unit is a time, a rate
/// or another ratio.
const EXACT_UNITS: [&str; 11] = [
    "bits",
    "predicates",
    "tasks",
    "backtracks",
    "safe",
    "bool",
    "count",
    "bytes",
    "obligations",
    "digest",
    "1/pred",
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
    use veloct::examples::LIMITED_RDS;
    use veloct::{Veloct, VeloctConfig};

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

    /// The experiments' RocketLite target and safe set learn the same
    /// invariant with the same work on one and two workers, on examples
    /// limited to one destination register (the regime with backtracks).
    #[test]
    fn one_and_two_threads_learn_rocketlite() {
        let t = &all_targets()[0];
        let safe = known_safe_set(t.name);
        let learn = |threads| {
            let config = VeloctConfig {
                threads,
                pairs_per_instr: 1,
                rds: LIMITED_RDS,
                ..VeloctConfig::default()
            };
            Veloct::with_config(&t.design, config).learn(&safe)
        };
        let (one, two) = (learn(1), learn(2));
        assert!(one.num_examples > 0);
        assert_eq!(one.stats.counters(), two.stats.counters());
        assert_eq!(
            one.invariant.expect("provable").preds(),
            two.invariant.expect("provable").preds()
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
