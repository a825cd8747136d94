//! `hh-benchmark` — the time-to-verdict benchmark of the H-Houdini
//! reproduction: four workloads, end-to-end metrics with tracing off, a
//! per-layer table from a separate traced run, every answer checked.
//!
//! ```text
//! hh-benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]
//! hh-benchmark compare A.json B.json
//! hh-benchmark workload --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `workload` measures one workload in this process and prints one JSON
//! object as the last line of stdout; `run` calls it once untraced and once
//! traced per workload, each in its own child process. See `README.md`.

mod compare;
mod expected;
mod metrics;
mod pipeline;
mod procstat;
mod results;
mod runner;
mod samples;
mod spans;
mod stats;
mod workloads;

use hh_serve::json::Json;
use metrics::{END_TO_END, PER_LAYER};
use results::{Fingerprint, ResultFile, WorkloadResult};
use runner::{Budget, RunOutput};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::Ctx;

/// The example-generation seed when none is given (0xBEEF).
const DEFAULT_SEED: u64 = 48879;
/// Seconds `run` measures each workload for: enough for ~12 serve cycles,
/// i.e. the >= 100 warm-hit samples a p90 needs.
const RUN_SECONDS: f64 = 40.0;
/// Wall-clock limit of one `workload` process: this many seconds plus twice
/// the seconds it measures for (170 s for the 25 s of `BENCHMARK.json`,
/// inside the 180 s its harness allows). The slowest healthy run, the traced
/// MegaBoomLite one, needs under half of it.
const WATCHDOG_BASE_S: f64 = 120.0;
/// Stack of the thread a workload runs on: what the main thread has.
const MAIN_STACK_BYTES: usize = 8 << 20;

/// `results/` next to this package's manifest: traces, result files and
/// per-process scratch state all live there (it is git-ignored).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A scratch directory private to this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    results_dir().join(format!("tmp-{tag}-{}", std::process::id()))
}

/// `--key value` options after the subcommand; bare `--flag`s read as "1".
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        match self.0.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => Some("1"),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} takes a number, got {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        Ok(self.parsed::<u8>(key, 0)? != 0)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), Args(rest.to_vec())),
        None => ("", Args(Vec::new())),
    };
    let outcome = match command {
        "workload" => workload_command(&rest, started),
        "run" => run_command(&rest),
        "compare" => compare_command(&rest.0),
        _ => Err(
            "usage: hh-benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]\n       \
             hh-benchmark compare A.json B.json\n       \
             hh-benchmark workload --workload NAME --seed N --seconds S --trace 0|1"
                .to_string(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// workload: one workload, this process, one JSON line
// ---------------------------------------------------------------------------

fn workload_command(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&name) {
        return Err(format!(
            "unknown workload {name:?} (expected one of {:?})",
            workloads::NAMES
        ));
    }
    let trace = args.flag("--trace")?;
    let quick = args.flag("--quick")?;
    let detail = args.flag("--detail")?;
    let ctx = Ctx {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        quick,
        nproc: procstat::nproc(),
    };
    let budget = Budget {
        seconds: args.parsed("--seconds", RUN_SECONDS)?,
        single_op: quick,
    };
    // The workload runs on its own thread so that a hang inside the engine
    // or the daemon cannot hang this process: past the limit it exits
    // without a result, which `run` records as a failed op.
    let limit = Duration::from_secs_f64(WATCHDOG_BASE_S + 2.0 * budget.seconds);
    let (done, result) = mpsc::channel();
    let owned = name.to_string();
    let worker = std::thread::Builder::new()
        .stack_size(MAIN_STACK_BYTES)
        .spawn(move || {
            let _ = done.send(runner::run(&owned, ctx, budget, trace, started));
        })
        .map_err(|e| format!("cannot start the workload thread: {e}"))?;
    let run = match result.recv_timeout(limit) {
        Ok(run) => run,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            eprintln!("{name}: no result within {limit:?}: an op hangs; giving up");
            std::process::exit(3);
        }
        // The worker died before sending: joining it below re-raises why.
        Err(mpsc::RecvTimeoutError::Disconnected) => RunOutput::default(),
    };
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
    for failure in &run.failures {
        eprintln!("{name}: FAILED {failure}");
    }

    let metrics = if trace {
        // A layer that does not run on this workload, or a counter the
        // program no longer reports, has no sample. The one-line contract
        // wants every per-layer name on every workload, so it reads 0 there
        // and is named on stderr; result files record it as null.
        let absent: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| run.per_layer.get(m.0).copied().flatten().is_none())
            .map(|m| m.0)
            .collect();
        if !(absent.is_empty() || detail) {
            eprintln!("{name}: absent on this workload (printed as 0): {absent:?}");
        }
        PER_LAYER
            .iter()
            .map(|&(metric, unit, _)| {
                let value = run.per_layer.get(metric).copied().flatten();
                (metric, metric_json(value.unwrap_or(0.0), unit))
            })
            .collect()
    } else {
        // Every workload measures every contract end-to-end metric. One that
        // is missing means the timed loop never ran: for the one-line
        // contract that is an error, never a 0 that would read as an
        // improvement (`run` reads the failures from the detail instead).
        let mut metrics = Vec::new();
        for m in END_TO_END.iter().filter(|m| m.only_on.is_none()) {
            match run.end_to_end.get(m.name) {
                Some(summary) => metrics.push((m.name, metric_json(summary.median, m.unit))),
                None if detail => {}
                None => {
                    return Err(format!(
                        "{name}: {} was not measured ({} of {} ops failed)",
                        m.name, run.failed, run.attempted
                    ))
                }
            }
        }
        metrics
    };
    let mut line = vec![
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::Int(run.attempted as i64)),
        ("failed", Json::Int(run.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ];
    if detail {
        line.push(("detail", WorkloadResult::from_run(&run).to_json()));
    }
    println!("{}", Json::obj(line));
    Ok(ExitCode::SUCCESS)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

// ---------------------------------------------------------------------------
// run: every workload, untraced then traced, each in a child process
// ---------------------------------------------------------------------------

fn run_command(args: &Args) -> Result<ExitCode, String> {
    let quick = args.flag("--quick")?;
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds = args.parsed("--seconds", RUN_SECONDS)?;
    let fingerprint = Fingerprint::measure(seed, seconds, quick);
    if !fingerprint.quiet {
        eprintln!(
            "warning: spin-loop CV {:.1}% exceeds {:.0}%: this machine is noisy, the result \
             file is marked \"quiet\": false and `compare` will not resolve its timings",
            fingerprint.spin_cv * 100.0,
            results::QUIET_CV * 100.0
        );
    }
    println!(
        "machine: {} threads, load {:.2}, spin CV {:.2}%, {}, rev {}, seed {seed}",
        fingerprint.nproc,
        fingerprint.loadavg[0],
        fingerprint.spin_cv * 100.0,
        fingerprint.rustc,
        fingerprint.git_rev
    );

    let mut file = ResultFile {
        fingerprint,
        workloads: Default::default(),
    };
    for &name in workloads::NAMES {
        let mut result = WorkloadResult::default();
        for trace in [false, true] {
            // A child that dies, hangs past its limit or prints no result is
            // one failed op of its workload; the other workloads still run.
            result.merge(
                child(name, seed, seconds, quick, trace).unwrap_or_else(|why| WorkloadResult {
                    ops: 1,
                    failed_ops: 1,
                    failures: vec![why],
                    ..WorkloadResult::default()
                }),
            );
        }
        print_workload(name, &result);
        file.workloads.insert(name.to_string(), result);
    }

    let path = match args.value("--out") {
        Some(p) => PathBuf::from(p),
        None => {
            let stamp = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            results_dir().join(format!("run_{stamp}.json"))
        }
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_json().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());

    let failed: usize = file.workloads.values().map(|w| w.failed_ops).sum();
    let ops: usize = file.workloads.values().map(|w| w.ops).sum();
    println!("failed_ops {failed} of {ops} ops");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its detailed result.
fn child(
    name: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .arg("workload")
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--quick", if quick { "1" } else { "0" }])
        .args(["--detail", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {name} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let line = Json::parse(last).map_err(|e| format!("child output: {e}"))?;
    WorkloadResult::from_json(line.get("detail").ok_or("child output carries no detail")?)
}

fn print_workload(name: &str, w: &WorkloadResult) {
    println!("\n== {name}: {} ops, {} failed ==", w.ops, w.failed_ops);
    for failure in &w.failures {
        println!("  FAILED {failure}");
    }
    println!("  end to end (tracing off):");
    for m in metrics::end_to_end_for(name) {
        match w.end_to_end.get(m.name) {
            Some(r) => println!(
                "    {:<12} {:>10} {:<6} [{}, {}] n={:<4} spread {:>5.1}%  bound {:.0}% ({} is better)",
                m.name,
                stats::number(r.summary.median),
                r.unit,
                stats::number(r.summary.q1),
                stats::number(r.summary.q3),
                r.summary.n,
                r.summary.spread() * 100.0,
                r.bound * 100.0,
                r.better.as_str()
            ),
            None => println!("    {:<12} not measured", m.name),
        }
    }
    let overhead = w.per_layer.get("hh-trace.overhead_frac").copied().flatten();
    println!(
        "  layer table (traced wall_s {:.4} s, tracing overhead {}):",
        w.traced_wall_s,
        overhead.map_or("unknown".to_string(), |o| format!("{:+.1}%", o * 100.0))
    );
    for row in &w.table {
        println!(
            "    {:<34} {:>10.4} s {:>6.1}%",
            row.name,
            row.seconds,
            row.share * 100.0
        );
    }
    println!("  per layer (traced run; per op):");
    for &(metric, unit, _) in PER_LAYER {
        match w.per_layer.get(metric).copied().flatten() {
            Some(v) => println!("    {metric:<34} {:>12} {unit}", stats::number(v)),
            None => println!("    {metric:<34} {:>12}", "absent"),
        }
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

fn compare_command(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("usage: hh-benchmark compare A.json B.json".to_string());
    };
    let comparison = compare::compare(&ResultFile::read(a)?, &ResultFile::read(b)?);
    print!("{}", comparison.report);
    Ok(if comparison.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
