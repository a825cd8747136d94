//! Result files: the machine fingerprint plus every workload's metrics,
//! written and read through `hh_serve::json::Json`.

use crate::metrics::{self, Better};
use crate::procstat;
use crate::runner::{Row, RunOutput};
use crate::stats::Summary;
use hh_serve::json::Json;
use std::collections::BTreeMap;

/// Spin-loop CV above which the machine counts as noisy.
pub const QUIET_CV: f64 = 0.05;

/// Where and how a result file was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Whether the spin-loop CV stayed within [`QUIET_CV`].
    pub quiet: bool,
    /// Coefficient of variation of 20 timings of a fixed spin loop.
    pub spin_cv: f64,
    /// Hardware threads.
    pub nproc: usize,
    /// 1/5/15-minute load averages when the run started.
    pub loadavg: [f64; 3],
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub git_rev: String,
    /// Example-generation seed.
    pub seed: u64,
    /// Seconds each timed loop measured for.
    pub seconds: f64,
    /// Whether this was a `--quick` self-check.
    pub quick: bool,
}

impl Fingerprint {
    /// Measures the machine: the noise guard runs first, before any
    /// workload has warmed or loaded anything.
    pub fn measure(seed: u64, seconds: f64, quick: bool) -> Fingerprint {
        let spin_cv = procstat::spin_cv(20);
        Fingerprint {
            quiet: spin_cv <= QUIET_CV,
            spin_cv,
            nproc: procstat::nproc(),
            loadavg: procstat::loadavg(),
            rustc: procstat::command_line("rustc", &["-V"]),
            git_rev: procstat::command_line("git", &["rev-parse", "HEAD"]),
            seed,
            seconds,
            quick,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("quiet", Json::Bool(self.quiet)),
            ("spin_cv", Json::Float(self.spin_cv)),
            ("nproc", Json::Int(self.nproc as i64)),
            (
                "loadavg",
                Json::Arr(self.loadavg.iter().map(|&l| Json::Float(l)).collect()),
            ),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Float(self.seconds)),
            ("quick", Json::Bool(self.quick)),
        ])
    }

    fn from_json(j: &Json) -> Result<Fingerprint, String> {
        let load = j
            .get("loadavg")
            .and_then(Json::as_arr)
            .ok_or("fingerprint.loadavg missing")?;
        let mut loadavg = [0.0; 3];
        for (slot, v) in loadavg.iter_mut().zip(load) {
            *slot = num(v).ok_or("fingerprint.loadavg entry is not a number")?;
        }
        Ok(Fingerprint {
            quiet: field(j, "quiet", Json::as_bool)?,
            spin_cv: field(j, "spin_cv", num)?,
            nproc: field(j, "nproc", Json::as_u64)? as usize,
            loadavg,
            rustc: field(j, "rustc", Json::as_str)?.to_string(),
            git_rev: field(j, "git_rev", Json::as_str)?.to_string(),
            seed: field(j, "seed", Json::as_i64)? as u64,
            seconds: field(j, "seconds", num)?,
            quick: field(j, "quick", Json::as_bool)?,
        })
    }
}

/// A JSON number as `f64` (the writer prints integral floats without a
/// fraction, so they read back as integers).
pub fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn field<'a, T>(j: &'a Json, key: &str, get: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
    j.get(key)
        .and_then(get)
        .ok_or_else(|| format!("field {key:?} missing or ill-typed"))
}

/// One end-to-end metric as stored in a result file: self-describing, so
/// `compare` judges a file by the bounds it was recorded under.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    /// Unit label.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
    /// The measurement.
    pub summary: Summary,
}

/// One workload's section of a result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Ops attempted over the untraced and traced runs.
    pub ops: usize,
    /// Ops that failed.
    pub failed_ops: usize,
    /// Failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Recorded>,
    /// Per-layer metrics by name; `None` = absent on this workload.
    pub per_layer: BTreeMap<String, Option<f64>>,
    /// The layer table.
    pub table: Vec<Row>,
    /// Median traced op seconds.
    pub traced_wall_s: f64,
}

impl WorkloadResult {
    /// The section one run (untraced or traced) of the workload fills in.
    pub fn from_run(run: &RunOutput) -> WorkloadResult {
        let end_to_end = run
            .end_to_end
            .iter()
            .map(|(&name, &summary)| {
                let m = metrics::end_to_end(name).expect("runner reports only table metrics");
                let recorded = Recorded {
                    unit: m.unit.to_string(),
                    better: m.better,
                    bound: m.bound,
                    summary,
                };
                (name.to_string(), recorded)
            })
            .collect();
        WorkloadResult {
            ops: run.attempted,
            failed_ops: run.failed,
            failures: run.failures.clone(),
            end_to_end,
            per_layer: run
                .per_layer
                .iter()
                .map(|(&name, &value)| (name.to_string(), value))
                .collect(),
            table: run.table.clone(),
            traced_wall_s: run.traced_wall_s,
        }
    }

    /// Folds another run's section of the same workload in: op counts add
    /// up, and each run contributes the metrics it measured.
    pub fn merge(&mut self, other: WorkloadResult) {
        self.ops += other.ops;
        self.failed_ops += other.failed_ops;
        self.failures.extend(other.failures);
        self.end_to_end.extend(other.end_to_end);
        self.per_layer.extend(other.per_layer);
        if !other.table.is_empty() {
            self.table = other.table;
            self.traced_wall_s = other.traced_wall_s;
        }
    }

    /// Serialises the section.
    pub fn to_json(&self) -> Json {
        let e2e: Vec<(&str, Json)> = self
            .end_to_end
            .iter()
            .map(|(name, r)| {
                (
                    name.as_str(),
                    Json::obj(vec![
                        ("unit", Json::Str(r.unit.clone())),
                        ("better", Json::Str(r.better.as_str().to_string())),
                        ("bound", Json::Float(r.bound)),
                        ("n", Json::Int(r.summary.n as i64)),
                        ("q1", Json::Float(r.summary.q1)),
                        ("median", Json::Float(r.summary.median)),
                        ("q3", Json::Float(r.summary.q3)),
                    ]),
                )
            })
            .collect();
        let layers: Vec<(&str, Json)> = self
            .per_layer
            .iter()
            .map(|(name, v)| (name.as_str(), v.map_or(Json::Null, Json::Float)))
            .collect();
        let table: Vec<Json> = self
            .table
            .iter()
            .map(|row| {
                Json::obj(vec![
                    ("name", Json::Str(row.name.clone())),
                    ("seconds", Json::Float(row.seconds)),
                    ("share", Json::Float(row.share)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("ops", Json::Int(self.ops as i64)),
            ("failed_ops", Json::Int(self.failed_ops as i64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
            ("layer_table", Json::Arr(table)),
            ("traced_wall_s", Json::Float(self.traced_wall_s)),
        ])
    }

    /// Parses a section written by [`WorkloadResult::to_json`].
    pub fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let Some(Json::Obj(e2e)) = j.get("end_to_end") else {
            return Err("end_to_end missing".to_string());
        };
        let mut end_to_end = BTreeMap::new();
        for (name, m) in e2e {
            let better = Better::parse(field(m, "better", Json::as_str)?)
                .ok_or_else(|| format!("{name}: unknown direction"))?;
            end_to_end.insert(
                name.clone(),
                Recorded {
                    unit: field(m, "unit", Json::as_str)?.to_string(),
                    better,
                    bound: field(m, "bound", num)?,
                    summary: Summary {
                        n: field(m, "n", Json::as_u64)? as usize,
                        q1: field(m, "q1", num)?,
                        median: field(m, "median", num)?,
                        q3: field(m, "q3", num)?,
                    },
                },
            );
        }
        let Some(Json::Obj(layers)) = j.get("per_layer") else {
            return Err("per_layer missing".to_string());
        };
        let per_layer = layers.iter().map(|(k, v)| (k.clone(), num(v))).collect();
        let table = field(j, "layer_table", Json::as_arr)?
            .iter()
            .map(|row| {
                Ok(Row {
                    name: field(row, "name", Json::as_str)?.to_string(),
                    seconds: field(row, "seconds", num)?,
                    share: field(row, "share", num)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            ops: field(j, "ops", Json::as_u64)? as usize,
            failed_ops: field(j, "failed_ops", Json::as_u64)? as usize,
            failures: field(j, "failures", Json::as_arr)?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            end_to_end,
            per_layer,
            table,
            traced_wall_s: field(j, "traced_wall_s", num)?,
        })
    }
}

/// A whole result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Machine fingerprint and run parameters.
    pub fingerprint: Fingerprint,
    /// Per-workload sections, by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl ResultFile {
    /// Serialises the file.
    pub fn to_json(&self) -> Json {
        let workloads: Vec<(&str, Json)> = self
            .workloads
            .iter()
            .map(|(name, w)| (name.as_str(), w.to_json()))
            .collect();
        Json::obj(vec![
            ("schema", Json::Int(1)),
            ("fingerprint", self.fingerprint.to_json()),
            ("workloads", Json::obj(workloads)),
        ])
    }

    /// Parses a file written by [`ResultFile::to_json`].
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        if j.get("schema").and_then(Json::as_i64) != Some(1) {
            return Err("not a schema-1 benchmark result file".to_string());
        }
        let Some(Json::Obj(sections)) = j.get("workloads") else {
            return Err("workloads missing".to_string());
        };
        let mut workloads = BTreeMap::new();
        for (name, section) in sections {
            let parsed = WorkloadResult::from_json(section).map_err(|e| format!("{name}: {e}"))?;
            workloads.insert(name.clone(), parsed);
        }
        Ok(ResultFile {
            fingerprint: Fingerprint::from_json(
                j.get("fingerprint").ok_or("fingerprint missing")?,
            )?,
            workloads,
        })
    }

    /// Reads and parses `path`.
    pub fn read(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_file() -> ResultFile {
        let mut run = RunOutput {
            attempted: 5,
            failed: 1,
            failures: vec!["op 3: \"quoted\" failure".to_string()],
            ..RunOutput::default()
        };
        run.end_to_end.insert(
            "wall_s",
            Summary {
                n: 4,
                q1: 1.0,
                median: 2.0,
                q3: 3.5,
            },
        );
        run.end_to_end.insert("peak_rss_mb", Summary::single(64.0));
        let mut traced = RunOutput {
            attempted: 2,
            traced_wall_s: 2.25,
            ..RunOutput::default()
        };
        traced.per_layer.insert("hh-sat.solve_s", Some(0.75));
        traced.per_layer.insert("hh-proof.emit_s", None);
        traced.table = vec![Row {
            name: "hh-sat.solve_s".to_string(),
            seconds: 0.75,
            share: 1.0 / 3.0,
        }];
        let mut w = WorkloadResult::from_run(&run);
        w.merge(WorkloadResult::from_run(&traced));
        ResultFile {
            fingerprint: Fingerprint {
                quiet: true,
                spin_cv: 0.0125,
                nproc: 2,
                loadavg: [0.5, 0.25, 1.0],
                rustc: "rustc 1.0.0".to_string(),
                git_rev: "unknown".to_string(),
                seed: 48879,
                seconds: 40.0,
                quick: false,
            },
            workloads: BTreeMap::from([("versus_small".to_string(), w)]),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let file = sample_file();
        let w = &file.workloads["versus_small"];
        assert_eq!((w.ops, w.failed_ops), (7, 1));
        assert_eq!(w.end_to_end["wall_s"].bound, 0.25);
        let text = file.to_json().to_string();
        let back = ResultFile::parse(&text).expect("own output parses");
        assert_eq!(back, file);
        // Integral floats are written without a fraction and still read back.
        assert!(text.contains("\"median\":2,"));
        assert!(text.contains("\"hh-proof.emit_s\":null"));
    }

    #[test]
    fn committed_baseline_is_a_clean_result_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
        let file = ResultFile::read(path).expect("baseline.json parses");
        let mut names: Vec<&str> = crate::workloads::NAMES.to_vec();
        names.sort_unstable();
        assert_eq!(file.workloads.keys().collect::<Vec<_>>(), names);
        for (name, w) in &file.workloads {
            assert_eq!(w.failed_ops, 0, "{name}");
            for m in metrics::end_to_end_for(name) {
                assert_eq!(w.end_to_end[m.name].bound, m.bound, "{name} {}", m.name);
            }
        }
    }

    #[test]
    fn foreign_json_is_rejected() {
        assert!(ResultFile::parse("[]").is_err());
        assert!(ResultFile::parse("{\"schema\":2}").is_err());
        assert!(ResultFile::parse("{\"schema\":1,\"workloads\":{}}").is_err());
        assert!(ResultFile::parse("not json").is_err());
    }
}
