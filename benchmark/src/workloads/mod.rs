//! The four workloads. Each is a closed loop in one process: the next op
//! starts only when the previous one has completed and been checked.

mod classify_large;
mod learn_mega_t2;
mod serve_medium;
mod versus_small;

use crate::samples::Samples;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "versus_small",
    "learn_mega_t2",
    "classify_large",
    "serve_medium",
];

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Example-generation seed; the program sees only the generated inputs.
    pub seed: u64,
    /// `--quick`: the same ops on RocketLite / SmallBoomLite, as a
    /// self-check that finishes in seconds.
    pub quick: bool,
    /// Hardware threads available; engine threads never exceed it.
    pub nproc: usize,
}

impl Ctx {
    /// Engine threads for a workload that asks for `want`.
    pub fn threads(&self, want: usize) -> usize {
        want.min(self.nproc).max(1)
    }
}

/// One workload, set up and ready to run ops.
pub trait Workload: Send {
    /// State bits of the design (the throughput numerator).
    fn state_bits(&self) -> u64;

    /// Runs one op under benchmark spans and checks every verdict. Records
    /// `wall_s` (the op, checks excluded), `learn_s` and the op's layer
    /// samples into `out`; an `Err` is a failed op.
    fn op(&mut self, out: &mut Samples) -> Result<(), String>;

    /// Traced run only: replays, under benchmark spans, the stages and
    /// cones the op's public entry points hide, recording layer samples.
    fn probe(&mut self, out: &mut Samples) -> Result<(), String>;

    /// The layer samples that lie inside one op's wall time and are disjoint
    /// from each other — the rows of the layer table.
    fn rows(&self) -> Vec<&'static str>;
}

/// Closed-loop clients the untraced run drives concurrently, each with its
/// own workload instance.
///
/// The single-threaded `versus_small` gets one client per hardware thread
/// (at most two). On a shared host a lone single-threaded client flips
/// between two core clocks a quarter apart for tens of seconds at a time;
/// with every hardware thread busy with the benchmark's own work the op time
/// stays in one regime (README, *Noise*). The other workloads already keep
/// two engine threads busy.
pub fn clients(name: &str, ctx: Ctx) -> usize {
    if name == "versus_small" {
        ctx.threads(2)
    } else {
        1
    }
}

/// Sets up the named workload: design construction, prepared inputs and
/// reference answers — everything but the first (cold) op.
pub fn build(name: &str, ctx: Ctx) -> Result<Box<dyn Workload>, String> {
    match name {
        "versus_small" => Ok(Box::new(versus_small::VersusSmall::new(ctx)?)),
        "learn_mega_t2" => Ok(Box::new(learn_mega_t2::LearnMega::new(ctx)?)),
        "classify_large" => Ok(Box::new(classify_large::ClassifyLarge::new(ctx)?)),
        "serve_medium" => Ok(Box::new(serve_medium::ServeMedium::new(ctx)?)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

/// The four layer-table rows of a hierarchical learn inside the op, in worker
/// thread-seconds (the table divides them by the worker count): the engine's
/// own encode/solve split of its workers' busy time, the busy time neither
/// covers, and the time workers sat idle — which is where the scheduler
/// thread's mining shows.
pub const LEARN_ROWS: [&str; 4] = [
    "hh-smt.encode_s",
    "hh-sat.solve_s",
    "hhoudini.busy_unattributed_s",
    "hhoudini.idle_s",
];
