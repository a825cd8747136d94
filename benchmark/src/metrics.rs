//! The metric tables: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, factors).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` / result-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`Better::as_str`].
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// The one workload that reports it, or `None` for all of them.
    pub only_on: Option<&'static str>,
}

/// Every end-to-end metric, measured with tracing off.
///
/// The six with `only_on: None` are reported by every workload and are the
/// `end_to_end` list of `BENCHMARK.json`. The harness that reads that file
/// has no *unresolved* verdict: it refuses a benchmark whose ten-run
/// inter-quartile spread exceeds a metric's bound. So those bounds are set
/// from the spreads measured on the shared 2-vCPU host the baseline was
/// recorded on (seven ten-seed series, README *How the bounds were set*), not
/// from the issue's 10%/15%. The four timings are one measurement seen four
/// ways and share one bound: the noisiest workload of a series typically
/// spread 11-13% and at worst 21.7%, so just above worst is the 25% cap.
/// `setup_s` is one sample per process and noisier still (worst 26.9%); it
/// takes the cap too. `peak_rss_mb` never spread more than 5.9% (typically
/// 3%): twice the worst.
///
/// The two workload-specific metrics exist only where their mechanism runs,
/// which the `BENCHMARK.json` contract has no way to say, so that harness
/// does **not** gate them: only [`crate::compare`] judges them, and since it
/// can answer *unresolved* on a noisy host they keep the issue's bounds. The
/// traced run shows them as `hhoudini.baselines.hier_factor` and
/// `hh-serve.warm_ms_p50` / `_p90`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        only_on: None,
    },
    EndToEnd {
        name: "learn_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        only_on: None,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        only_on: None,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
        only_on: None,
    },
    EndToEnd {
        name: "bits_per_s",
        unit: "bit/s",
        better: Better::Higher,
        bound: 0.25,
        only_on: None,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        only_on: None,
    },
    EndToEnd {
        name: "hier_factor",
        unit: "x",
        better: Better::Higher,
        bound: 0.10,
        only_on: Some("versus_small"),
    },
    EndToEnd {
        name: "req_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        only_on: Some("serve_medium"),
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The end-to-end metrics `workload` reports.
pub fn end_to_end_for(workload: &str) -> impl Iterator<Item = &'static EndToEnd> + '_ {
    END_TO_END
        .iter()
        .filter(move |m| m.only_on.is_none_or(|w| w == workload))
}

/// A per-layer metric of the traced run: `(name, unit, better)`. The layer
/// is the name's prefix up to the metric's last dot-separated word group
/// (`hh-sat.solve_s` belongs to layer `hh-sat`).
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Every per-layer metric. `_s`/`_ms`/`_us` are time per op; counts are per
/// op; `_med`/`_p50`/`_p90` are order statistics over the op's queries.
pub const PER_LAYER: &[PerLayer] = &[
    ("hh-uarch.build_s", "s", Lower),
    ("hh-uarch.state_bits", "bit", Higher),
    ("hh-netlist.miter_s", "s", Lower),
    ("hh-netlist.miter_nodes", "count", Lower),
    ("hh-netlist.simp_s", "s", Lower),
    ("hh-netlist.coi_s", "s", Lower),
    ("hh-netlist.cone_states_med", "count", Lower),
    ("veloct.examples_s", "s", Lower),
    ("veloct.examples_n", "count", Higher),
    ("veloct.difftest_s", "s", Lower),
    ("hh-sim.cycles_per_s", "1/s", Higher),
    ("hhoudini.mine.new_s", "s", Lower),
    ("hhoudini.mine.mine_s", "s", Lower),
    ("hhoudini.mine.cands_med", "count", Lower),
    ("hhoudini.mine.global_s", "s", Lower),
    ("hhoudini.mine.global_pool", "count", Lower),
    ("hh-smt.encode_s", "s", Lower),
    ("hh-smt.vars_med", "count", Lower),
    ("hh-smt.clauses_med", "count", Lower),
    ("hh-smt.query_ms_p50", "ms", Lower),
    ("hh-smt.query_ms_p90", "ms", Lower),
    ("hh-smt.session.hit", "count", Higher),
    ("hh-smt.session.miss", "count", Lower),
    ("hh-smt.session.hit_frac", "frac", Higher),
    ("hh-smt.cache.hit", "count", Higher),
    ("hh-smt.cache.miss", "count", Lower),
    ("hh-smt.cache.hit_frac", "frac", Higher),
    ("hh-smt.pool.imported", "count", Higher),
    ("hh-sat.solve_s", "s", Lower),
    ("hh-sat.load_s", "s", Lower),
    ("hh-sat.solves", "count", Lower),
    ("hh-sat.solves_per_query", "1/query", Lower),
    ("hh-sat.conflicts", "count", Lower),
    ("hh-sat.conflicts_per_query", "1/query", Lower),
    ("hh-sat.propagations", "count", Lower),
    ("hh-sat.props_per_s", "1/s", Higher),
    ("hh-sat.arena_bytes", "B", Lower),
    ("hh-sat.watch_bytes", "B", Lower),
    ("hh-sat.simplify.runs", "count", Lower),
    ("hhoudini.tasks", "count", Lower),
    ("hhoudini.queries", "count", Lower),
    ("hhoudini.backtracks", "count", Lower),
    ("hhoudini.memo.hit", "count", Higher),
    ("hhoudini.inv_size", "count", Lower),
    ("hhoudini.queries_per_pred", "1/pred", Lower),
    ("hhoudini.busy_s", "s", Lower),
    ("hhoudini.idle_s", "s", Lower),
    ("hhoudini.occupancy", "frac", Higher),
    ("hhoudini.span_s", "s", Lower),
    ("hhoudini.work_s", "s", Lower),
    ("hhoudini.unattributed_frac", "frac", Lower),
    ("hhoudini.baselines.houdini_s", "s", Lower),
    ("hhoudini.baselines.sorcar_s", "s", Lower),
    ("hhoudini.baselines.houdini_rounds", "count", Lower),
    ("hhoudini.baselines.sorcar_rounds", "count", Lower),
    ("hhoudini.baselines.hier_factor", "x", Higher),
    ("hh-proof.emit_s", "s", Lower),
    ("hh-proof.check_s", "s", Lower),
    ("hh-proof.bytes", "B", Lower),
    ("hh-proof.obligations", "count", Lower),
    ("hh-serve.cold_ms", "ms", Lower),
    ("hh-serve.warm_ms_p50", "ms", Lower),
    ("hh-serve.warm_ms_p90", "ms", Lower),
    ("hh-serve.replay_ms", "ms", Lower),
    ("hh-serve.restored_warm_ms", "ms", Lower),
    ("hh-serve.checkpoint_ms", "ms", Lower),
    ("hh-serve.restore_ms", "ms", Lower),
    ("hh-serve.checkpoint_bytes", "B", Lower),
    ("hh-serve.frame_rtt_us", "us", Lower),
    ("hh-serve.warm_hit_frac", "frac", Higher),
    ("hh-trace.overhead_frac", "frac", Lower),
    ("hh-trace.events", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use hh_serve::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).expect("string field")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let m = manifest();
        let e2e = m.get("end_to_end").and_then(Json::as_arr).unwrap();
        let universal: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.only_on.is_none()).collect();
        assert_eq!(e2e.len(), universal.len());
        for (j, ours) in e2e.iter().zip(universal) {
            assert_eq!(field(j, "name"), ours.name);
            assert_eq!(field(j, "unit"), ours.unit);
            assert_eq!(field(j, "better"), ours.better.as_str());
            let bound = match j.get("bound") {
                Some(Json::Float(f)) => *f,
                Some(Json::Int(i)) => *i as f64,
                other => panic!("bound of {} is {other:?}", ours.name),
            };
            assert_eq!(bound, ours.bound, "bound of {}", ours.name);
        }
        let layers = m.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), ours.0);
            assert_eq!(field(j, "unit"), ours.1);
            assert_eq!(field(j, "better"), ours.2.as_str());
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let m = manifest();
        let listed: Vec<&str> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
        for m in END_TO_END {
            if let Some(w) = m.only_on {
                assert!(listed.contains(&w));
            }
        }
    }
}
