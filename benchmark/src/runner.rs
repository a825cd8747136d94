//! Runs one workload in this process: set-up, a cold op, then either the
//! timed closed loop(s) with tracing off (end-to-end metrics) or the traced
//! ops plus layer replay (per-layer metrics).

use crate::metrics::PER_LAYER;
use crate::procstat;
use crate::samples::{timed, Samples};
use crate::stats::{self, Summary};
use crate::workloads::{self, Ctx, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a workload run is bounded.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds the timed loop measures for.
    pub seconds: f64,
    /// Run exactly one op per phase (`--quick`).
    pub single_op: bool,
}

/// At least this many timed ops, so quartiles exist however slow the box.
const MIN_OPS: usize = 3;
/// An op slower than this multiple of the cold op counts as timed out.
const TIMEOUT_FACTOR: f64 = 10.0;
/// Per-thread trace ring: large enough that no op wraps it.
const TRACE_CAPACITY: usize = 1 << 22;

/// One row of a layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Per-layer sample name (or a synthetic `(…)` label).
    pub name: String,
    /// Wall-clock seconds per op the row accounts for.
    pub seconds: f64,
    /// `seconds` as a share of the traced `wall_s`.
    pub share: f64,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Ops attempted (the cold op included).
    pub attempted: usize,
    /// Ops that errored, timed out or failed a verdict check.
    pub failed: usize,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics (traced run); `None` = the program reported nothing
    /// under that name on this workload.
    pub per_layer: BTreeMap<&'static str, Option<f64>>,
    /// The layer table (traced run): rows inside the op, then the
    /// unattributed remainder.
    pub table: Vec<Row>,
    /// Median op seconds with tracing on (traced run).
    pub traced_wall_s: f64,
}

/// Op counts of one client.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    fn add_to(self, out: &mut RunOutput) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.failures.extend(self.failures);
    }
}

/// One closed-loop client: a workload instance that has been set up and has
/// run its cold op, plus its op tally.
struct Client {
    workload: Box<dyn Workload>,
    /// Wall seconds of the cold op; the timeout reference.
    cold_wall_s: f64,
    tally: Tally,
}

impl Client {
    /// Set-up plus the cold op. A set-up failure is a failed op of a client
    /// that never ran.
    fn start(name: &str, ctx: Ctx) -> Result<Client, Tally> {
        let workload = workloads::build(name, ctx).map_err(|why| Tally {
            attempted: 1,
            failed: 1,
            failures: vec![format!("set-up: {why}")],
        })?;
        let mut client = Client {
            workload,
            cold_wall_s: 0.0,
            tally: Tally::default(),
        };
        let mut cold = Samples::default();
        client.op(&mut cold);
        client.cold_wall_s = cold.median("wall_s").unwrap_or(0.0);
        Ok(client)
    }

    /// Runs one op; merges its samples into `into` only if it passed.
    fn op(&mut self, into: &mut Samples) -> bool {
        self.tally.attempted += 1;
        let mut local = Samples::default();
        let verdict = self.workload.op(&mut local).and_then(|()| {
            let wall = local.median("wall_s").ok_or("op recorded no wall_s")?;
            if self.cold_wall_s > 0.0 && wall > TIMEOUT_FACTOR * self.cold_wall_s {
                return Err(format!(
                    "op took {wall:.2} s, over {TIMEOUT_FACTOR}x the cold op's {:.2} s",
                    self.cold_wall_s
                ));
            }
            Ok(())
        });
        match verdict {
            Ok(()) => {
                into.merge(local);
                true
            }
            Err(why) => {
                let n = self.tally.attempted;
                self.tally.fail(format!("op {n}: {why}"));
                false
            }
        }
    }

    /// Closed loop: ops back to back until `seconds` have been measured.
    /// An op starts only if at least half of it is expected to fit, so runs
    /// neither stop far short nor overshoot by a whole op.
    fn ops_for(&mut self, seconds: f64, min_ops: usize, single_op: bool, into: &mut Samples) {
        let start = Instant::now();
        let mut done = 0usize;
        loop {
            self.op(into);
            done += 1;
            let elapsed = start.elapsed().as_secs_f64();
            let per_op = elapsed / done as f64;
            if single_op || (done >= min_ops && elapsed + per_op / 2.0 > seconds) {
                return;
            }
        }
    }
}

/// Runs `name` and reports its metrics. `started` is the process start.
pub fn run(name: &str, ctx: Ctx, budget: Budget, trace: bool, started: Instant) -> RunOutput {
    if trace {
        traced(name, ctx, budget)
    } else {
        untraced(name, ctx, budget, started)
    }
}

/// What one client's timed loop hands back.
struct Timed {
    tally: Tally,
    samples: Samples,
    /// Ops of the timed loop (the cold op excluded).
    timed_ops: usize,
    state_bits: u64,
}

/// A client that never got to report: its thread panicked.
fn panicked(phase: &str) -> Tally {
    Tally {
        attempted: 1,
        failed: 1,
        failures: vec![format!("{phase}: client thread panicked")],
    }
}

fn untraced(name: &str, ctx: Ctx, budget: Budget, started: Instant) -> RunOutput {
    let clients = workloads::clients(name, ctx);
    // Every client sets up and runs its cold op; only when all have finished
    // (or failed) do the timed loops start, together.
    let ready: Vec<Result<Client, Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| Client::start(name, ctx)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(panicked("set-up"))))
            .collect()
    });
    let setup_s = started.elapsed().as_secs_f64();
    let cpu_before = procstat::cpu_seconds();

    let mut out = RunOutput::default();
    let parts: Vec<Timed> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in ready {
            match client {
                Err(tally) => tally.add_to(&mut out),
                Ok(mut client) => handles.push(scope.spawn(move || {
                    let cold_ops = client.tally.attempted;
                    let mut samples = Samples::default();
                    client.ops_for(budget.seconds, MIN_OPS, budget.single_op, &mut samples);
                    Timed {
                        timed_ops: client.tally.attempted - cold_ops,
                        state_bits: client.workload.state_bits(),
                        tally: client.tally,
                        samples,
                    }
                })),
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Timed {
                    tally: panicked("timed loop"),
                    samples: Samples::default(),
                    timed_ops: 0,
                    state_bits: 0,
                })
            })
            .collect()
    });
    let cpu_after = procstat::cpu_seconds();

    let mut samples = Samples::default();
    let mut timed_ops = 0;
    let mut bits = 0.0f64;
    for part in parts {
        part.tally.add_to(&mut out);
        samples.merge(part.samples);
        timed_ops += part.timed_ops;
        bits = bits.max(part.state_bits as f64);
    }
    if timed_ops == 0 {
        return out;
    }

    let e2e = &mut out.end_to_end;
    let mut set = |metric: &'static str, summary: Option<Summary>| {
        if let Some(s) = summary {
            e2e.insert(metric, s);
        }
    };
    set("wall_s", samples.summary("wall_s"));
    set("learn_s", samples.summary("learn_s"));
    let cpu_s = (cpu_after - cpu_before) / timed_ops as f64;
    set("cpu_s", Some(Summary::single(cpu_s)));
    set(
        "peak_rss_mb",
        Some(Summary::single(procstat::peak_rss_mb())),
    );
    let throughput: Vec<f64> = samples.get("wall_s").iter().map(|w| bits / w).collect();
    set("bits_per_s", Summary::of(&throughput));
    set("setup_s", Some(Summary::single(setup_s)));
    // Only `versus_small` records baseline times and only `serve_medium`
    // warm-hit latencies; elsewhere these two stay unset.
    set("hier_factor", Summary::of(&hier_factors(&samples)));
    let warm = samples.get("warm_ms");
    if !warm.is_empty() {
        let p90 = stats::percentile(warm, 90.0);
        set(
            "req_p90_ms",
            Some(Summary {
                n: warm.len(),
                q1: p90,
                median: p90,
                q3: p90,
            }),
        );
    }
    out
}

/// Per op: the faster monolithic baseline over the hierarchical learn.
fn hier_factors(samples: &Samples) -> Vec<f64> {
    let (h, s, l) = (
        samples.get("houdini_s"),
        samples.get("sorcar_s"),
        samples.get("learn_s"),
    );
    h.iter()
        .zip(s)
        .zip(l)
        .map(|((h, s), l)| h.min(*s) / l)
        .collect()
}

/// The traced run: one client. Untraced reference ops, traced ops, then the
/// layer replay; per-layer metrics are medians over the traced ops.
fn traced(name: &str, ctx: Ctx, budget: Budget) -> RunOutput {
    let mut out = RunOutput::default();
    let mut client = match Client::start(name, ctx) {
        Ok(client) => client,
        Err(tally) => {
            tally.add_to(&mut out);
            return out;
        }
    };
    // Untraced reference ops first: the tracing overhead is the difference.
    let mut reference = Samples::default();
    client.ops_for(budget.seconds * 0.35, 1, budget.single_op, &mut reference);

    hh_trace::init(hh_trace::TraceConfig::On {
        capacity: TRACE_CAPACITY,
    });
    let mut samples = Samples::default();
    let mut kept = hh_trace::Trace::default();
    let phase = Instant::now();
    let phase_len = Duration::from_secs_f64(budget.seconds * 0.35);
    loop {
        let mut local = Samples::default();
        let passed = client.op(&mut local);
        let trace = hh_trace::drain();
        if passed {
            local.push("hh-trace.events", trace.events.len() as f64);
            local.push_span_self_times(&trace);
            samples.merge(local);
            kept = trace;
        }
        if budget.single_op || phase.elapsed() >= phase_len {
            break;
        }
    }

    let mut probe = Samples::default();
    let (probed, _) = timed("bench.probe", || client.workload.probe(&mut probe));
    let probe_trace = hh_trace::drain();
    hh_trace::init(hh_trace::TraceConfig::Off);
    match probed {
        Ok(()) => {
            probe.push_span_self_times(&probe_trace);
            // Stage spans the op itself runs (e.g. `hhoudini.mine.new`) are
            // taken from the ops; the probe fills in what the ops hide.
            samples.merge_new(probe);
        }
        Err(why) => {
            client.tally.attempted += 1;
            client.tally.fail(format!("layer replay: {why}"));
        }
    }
    kept.events.extend(probe_trace.events);
    kept.dropped += probe_trace.dropped;
    if let Err(e) = write_trace(name, &kept) {
        eprintln!("warning: could not write the Chrome trace: {e}");
    }

    derive_layers(name, &mut samples, &reference);
    out.traced_wall_s = samples.median("wall_s").unwrap_or(0.0);
    for &(metric, _, _) in PER_LAYER {
        out.per_layer.insert(metric, samples.median(metric));
    }
    out.table = layer_table(&client.workload.rows(), &samples);
    client.tally.add_to(&mut out);
    out
}

/// The per-layer metrics that are functions of other samples.
fn derive_layers(name: &str, samples: &mut Samples, reference: &Samples) {
    if let (Some(traced), Some(plain)) = (samples.median("wall_s"), reference.median("wall_s")) {
        samples.push("hh-trace.overhead_frac", traced / plain - 1.0);
    }
    if let (Some(busy), Some(encode), Some(solve)) = (
        samples.median("hhoudini.busy_s"),
        samples.median("hh-smt.encode_s"),
        samples.median("hh-sat.solve_s"),
    ) {
        let unattributed = busy - encode - solve;
        samples.push("hhoudini.busy_unattributed_s", unattributed);
        if busy > 0.0 {
            samples.push("hhoudini.unattributed_frac", unattributed / busy);
        }
    }
    if name == "versus_small" {
        let factors = hier_factors(samples);
        if !factors.is_empty() {
            samples.push("hhoudini.baselines.hier_factor", stats::median(&factors));
        }
    }
    if let Some(p50) = samples.median("warm_ms") {
        samples.push("hh-serve.warm_ms_p50", p50);
        // The traced ops give a few dozen warm hits, fewer than the hundred
        // a p90 wants: an indication of the tail, where `req_p90_ms` of the
        // untraced run is the measurement.
        let p90 = stats::percentile(samples.get("warm_ms"), 90.0);
        samples.push("hh-serve.warm_ms_p90", p90);
    }
}

/// Builds the layer table: one row per in-op layer sample, scaled to wall
/// seconds, then the remainder of the traced `wall_s` nobody observes.
fn layer_table(rows: &[&str], samples: &Samples) -> Vec<Row> {
    let wall = samples.median("wall_s").unwrap_or(0.0);
    let workers = samples.median("hhoudini.workers").unwrap_or(1.0).max(1.0);
    let share = |seconds: f64| if wall > 0.0 { seconds / wall } else { 0.0 };
    let mut table = Vec::new();
    let mut covered = 0.0;
    for &name in rows {
        let Some(value) = samples.median(name) else {
            continue;
        };
        let mut seconds = if name.ends_with("_ms") {
            value / 1e3
        } else {
            value
        };
        if workloads::LEARN_ROWS.contains(&name) {
            seconds /= workers;
        }
        covered += seconds;
        table.push(Row {
            name: name.to_string(),
            seconds,
            share: share(seconds),
        });
    }
    table.push(Row {
        name: "(unattributed)".to_string(),
        seconds: wall - covered,
        share: share(wall - covered),
    });
    table
}

fn write_trace(name: &str, trace: &hh_trace::Trace) -> std::io::Result<()> {
    let dir = crate::results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("trace_{name}.json")),
    )?);
    trace.write_chrome_json(&mut file)?;
    std::io::Write::flush(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_rows_and_remainder_sum_to_wall() {
        let mut s = Samples::default();
        s.push("wall_s", 2.0);
        s.push("hhoudini.workers", 2.0);
        s.push("hhoudini.mine.new_s", 0.2);
        s.push("hh-sat.solve_s", 2.0); // thread-seconds: 1.0 s of wall
        s.push("hh-serve.cold_ms", 300.0);
        let table = layer_table(
            &[
                "hhoudini.mine.new_s",
                "hh-sat.solve_s",
                "hh-serve.cold_ms",
                "hh-proof.emit_s", // never recorded: no row
            ],
            &s,
        );
        assert_eq!(table.len(), 4);
        assert_eq!(table[1].seconds, 1.0);
        assert_eq!(table[2].seconds, 0.3);
        assert_eq!(table[3].name, "(unattributed)");
        assert!((table[3].seconds - 0.5).abs() < 1e-12);
        let total: f64 = table.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derived_layer_metrics() {
        let mut s = Samples::default();
        for (name, v) in [
            ("wall_s", 1.1),
            ("hhoudini.busy_s", 1.0),
            ("hh-smt.encode_s", 0.2),
            ("hh-sat.solve_s", 0.7),
            ("houdini_s", 0.6),
            ("sorcar_s", 0.9),
            ("learn_s", 0.3),
        ] {
            s.push(name, v);
        }
        let mut reference = Samples::default();
        reference.push("wall_s", 1.0);
        derive_layers("versus_small", &mut s, &reference);
        let close = |name: &str, want: f64| {
            let got = s.median(name).unwrap();
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        };
        close("hh-trace.overhead_frac", 0.1);
        close("hhoudini.unattributed_frac", 0.1);
        close("hhoudini.busy_unattributed_s", 0.1);
        close("hhoudini.baselines.hier_factor", 2.0);
        assert_eq!(s.median("hh-serve.warm_ms_p50"), None);
    }
}
