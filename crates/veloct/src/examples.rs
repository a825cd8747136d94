//! Positive-example generation (paper §5.2) and differential timing tests.
//!
//! For each proposed-safe instruction we simulate a *pair* of executions
//! that run the same NOP-padded program but start from equal-modulo-secret
//! states (the architectural registers differ). Each cycle of the paired
//! trace yields a product state; if the observable waveforms ever diverge,
//! the pair is direct evidence the instruction is unsafe (Def. 4.2/4.8 —
//! a positive example must satisfy the property). Otherwise the product
//! states are *cleaned* by example masking (§5.2.1) and become the positive
//! example set `E`.
//!
//! Every entry point shares one streamed runner (`PairRunner`): the two
//! executions step in lockstep on a compiled [`Tape`], observables are
//! compared each cycle (a divergent pair stops there), masking is applied
//! per side to a copy of the base state, and each product state leaves the
//! runner as one row of raw `u64`s. [`generate_examples`] drops duplicate
//! rows pair by pair and materialises only the survivors.
//!
//! Pairs are independent of each other, so the two loops over them — one
//! pair per `(instruction, secret configuration)` in example generation, one
//! candidate per step in differential testing — run on the stack's indexed
//! queue ([`hh_trace::run_indexed`]): each worker owns a `PairRunner` over
//! the one shared tape, all of them insert into one row set (a pair's rows
//! under one lock, into an arena the caller reserved before they started),
//! and the final sort makes the example set independent of arrival order.
//! The public entry points here run it on one worker; `Veloct::learn` and
//! `Veloct::classify` pass `VeloctConfig::threads`.

use hh_isa::{asm, Instruction, Mnemonic};
use hh_netlist::eval::StateValues;
use hh_netlist::miter::{Miter, Side};
use hh_netlist::tape::{Machine, Tape};
use hh_netlist::Bv;
use hh_uarch::Design;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Mutex;

/// A left/right assignment of the architectural registers: the paired
/// executions differ exactly here (equal-modulo-secret initial states).
#[derive(Debug, Clone)]
pub struct SecretConfig {
    /// Left-side values for registers x1..x(n-1).
    pub left: Vec<u64>,
    /// Right-side values.
    pub right: Vec<u64>,
}

impl SecretConfig {
    fn uniform(design: &Design, left: &[(usize, u64)], right: &[(usize, u64)]) -> SecretConfig {
        let n = design.secret_regs.len();
        let mut l = vec![0u64; n];
        let mut r = vec![0u64; n];
        for &(reg, v) in left {
            l[reg - 1] = v;
        }
        for &(reg, v) in right {
            r[reg - 1] = v;
        }
        SecretConfig { left: l, right: r }
    }
}

/// The register that example programs use as a *public* (side-equal) memory
/// base address.
pub const PUBLIC_BASE_REG: usize = 4;
/// The public base address value.
pub const PUBLIC_BASE_ADDR: u64 = 0x40;

/// The null instruction ε: an undecodable word that the cores drop at the
/// front end (a fetch bubble). Programs pad with ε so the machine *drains*
/// between instructions — a stream of real NOPs would keep deep reorder
/// buffers saturated and architecturally hide downstream latency variation.
pub const BUBBLE: u32 = 0;

/// Curated secret configurations for *differential testing*: chosen to
/// trigger the operand-dependent fast/slow paths real microarchitectures
/// have (zero operands for zero-skip multipliers and probed registers,
/// equal/unequal operands for branches, cache hit-vs-miss address pairs).
pub fn adversarial_configs(design: &Design) -> Vec<SecretConfig> {
    let base = PUBLIC_BASE_ADDR;
    vec![
        // r1 differs, both nonzero.
        SecretConfig::uniform(
            design,
            &[(1, 3), (2, 7), (PUBLIC_BASE_REG, base)],
            &[(1, 9), (2, 7), (PUBLIC_BASE_REG, base)],
        ),
        // r2 differs with a zero (zero-skip / probe fast paths).
        SecretConfig::uniform(
            design,
            &[(1, 4), (2, 0), (PUBLIC_BASE_REG, base)],
            &[(1, 4), (2, 6), (PUBLIC_BASE_REG, base)],
        ),
        // r1 differs with a zero.
        SecretConfig::uniform(
            design,
            &[(1, 0), (2, 5), (PUBLIC_BASE_REG, base)],
            &[(1, 8), (2, 5), (PUBLIC_BASE_REG, base)],
        ),
        // Equal vs unequal operand pair (branch direction).
        SecretConfig::uniform(
            design,
            &[(1, 5), (2, 5), (PUBLIC_BASE_REG, base)],
            &[(1, 5), (2, 6), (PUBLIC_BASE_REG, base)],
        ),
        // Cache collision: left address equals the warmed public line,
        // right maps to the same set with a different tag.
        SecretConfig::uniform(
            design,
            &[(1, base), (2, base), (PUBLIC_BASE_REG, base)],
            &[(1, base + 0x40), (2, base + 0x40), (PUBLIC_BASE_REG, base)],
        ),
    ]
}

/// Random nonzero secret configurations for example generation. Zero is
/// excluded deliberately: the paper's generator only needs the values to
/// *differ*, and genuinely safe instructions are timing-equal for any
/// values; unsafe ones are weeded out by the adversarial configs first.
pub fn random_configs(design: &Design, count: usize, seed: u64) -> Vec<SecretConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = if design.xlen >= 64 {
        u64::MAX
    } else {
        (1u64 << design.xlen) - 1
    };
    (0..count)
        .map(|_| {
            let mut draw = |exclude: u64| loop {
                let v = rng.gen::<u64>() & mask;
                if v != 0 && v != exclude {
                    return v;
                }
            };
            let l1 = draw(0);
            let r1 = draw(l1);
            let l2 = draw(0);
            let r2 = draw(l2);
            SecretConfig::uniform(
                design,
                &[(1, l1), (2, l2), (PUBLIC_BASE_REG, PUBLIC_BASE_ADDR)],
                &[(1, r1), (2, r2), (PUBLIC_BASE_REG, PUBLIC_BASE_ADDR)],
            )
        })
        .collect()
}

/// The canonical operand binding of example programs: `rd = x3, rs1 = x1,
/// rs2 = x2`.
pub fn exemplar(m: Mnemonic) -> Instruction {
    asm::exemplar(m, 3, 1, 2)
}

/// Destination registers rotated across the copies of the instruction under
/// analysis. Coverage matters (paper §3.2.1: backtracking is caused by
/// deficiencies in positive examples): every architectural register must be
/// written by some example, otherwise spurious `EqConst(busy_r, 0)`-style
/// predicates survive mining, get picked into abducts, fail, and force
/// backtracks. The public base register (x4) is written last, after the
/// memory system no longer needs it.
pub(crate) const EXAMPLE_RDS: [u8; 7] = [3, 5, 6, 7, 1, 2, 4];

/// Builds the adversarial *probe* program for differential testing: a
/// cache-warming public access, NOP padding, the instruction under test,
/// drain padding. The warm access gives cache-timing channels something to
/// hit or miss against.
pub fn probe_program(design: &Design, m: Mnemonic) -> Vec<u32> {
    let pad = design.max_latency + 2;
    let mut prog = Vec::new();
    // Warm the cache at the public base so cache state is probe-visible.
    prog.push(asm::lw(6, PUBLIC_BASE_REG as u8, 0).encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    prog.push(exemplar(m).encode());
    prog.extend(std::iter::repeat_n(BUBBLE, 2 * pad));
    prog
}

/// Builds the example program for positive-example generation and returns
/// `(program, window_start)`.
///
/// As in the paper (§5.2), the infrastructure's start-up code contains an
/// *unsafe* instruction — a store that initialises the memory system at the
/// public base address. Example extraction therefore starts at
/// `window_start` (the cycle the instruction under analysis is fed), so no
/// extracted state has the unsafe instruction concurrently in flight; what
/// remains of it is *residue* in the out-of-order structures, which example
/// masking (§5.2.1) scrubs.
pub fn example_program(design: &Design, m: Mnemonic) -> (Vec<u32>, usize) {
    example_program_with_rds(design, m, &EXAMPLE_RDS)
}

/// [`example_program`] with an explicit destination-register rotation —
/// passing fewer registers yields deliberately *less* exhaustive examples
/// (more spurious predicates survive mining, more backtracking), which is
/// how the benchmarks reproduce the paper's Figure 5 regime.
pub fn example_program_with_rds(design: &Design, m: Mnemonic, rds: &[u8]) -> (Vec<u32>, usize) {
    let pad = design.max_latency + 2;
    let mut prog = Vec::new();
    // Unsafe start-up: a store to the public base (identical on both sides).
    prog.push(asm::sw(PUBLIC_BASE_REG as u8, PUBLIC_BASE_REG as u8, 0).encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    // A real NOP so examples cover NOP execution states.
    prog.push(asm::nop().encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    let window_start = prog.len();
    // Several copies of the instruction under analysis with rotating
    // destination registers and alternating source bindings: this exercises
    // every scoreboard bit, wraps the reorder buffer and reuses issue-queue
    // slots, so that values which are *not* architectural constants vary in
    // the example set. The rotation repeats until the deepest structure of
    // the design has wrapped at least once.
    let copies = rds.len().max(design.example_depth);
    for i in 0..copies {
        let rd = rds[i % rds.len()];
        let (rs1, rs2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
        prog.push(asm::exemplar(m, rd, rs1, rs2).encode());
        prog.extend(std::iter::repeat_n(BUBBLE, pad));
    }
    prog.push(asm::nop().encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    (prog, window_start)
}

/// Evidence that an instruction pair diverged: the observable waveforms
/// differ at `cycle`.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The instruction under test.
    pub mnemonic: Mnemonic,
    /// The earliest cycle at which any observable differs between the two
    /// executions (0 is the initial state). The pair run ends there.
    pub cycle: usize,
}

/// The lockstep pair runner: both executions of one design on one compiled
/// tape, everything that does not depend on the program resolved up front.
struct PairRunner<'a> {
    design: &'a Design,
    /// Left and right execution.
    sides: [Machine<'a>; 2],
    /// Index of the instruction input.
    instr_input: usize,
    /// For each product state, which side's which base state it copies.
    layout: Vec<(usize, usize)>,
    /// Masking rules as base-state indices: the valid bit, then each field
    /// with its reset value.
    rules: Vec<(usize, Vec<(usize, u64)>)>,
    /// Scratch: each side's (masked) base state of the current cycle.
    base: [Vec<u64>; 2],
    /// Scratch: the current product row.
    row: Vec<u64>,
    /// Base-design cycles stepped so far, both sides counted.
    cycles: u64,
}

impl<'a> PairRunner<'a> {
    fn new(design: &'a Design, miter: &Miter, tape: &'a Tape) -> PairRunner<'a> {
        let netlist = &design.netlist;
        let instr_input = netlist
            .input_ids()
            .find(|&i| netlist.input_name(i) == design.instr_input)
            .unwrap_or_else(|| panic!("no input named {}", design.instr_input));
        assert_eq!(
            netlist.input_width(instr_input),
            32,
            "instruction input must be 32 bits"
        );
        for &reg in &design.secret_regs {
            assert_eq!(
                netlist.state_width(reg),
                design.xlen,
                "secret register width mismatch"
            );
        }
        let layout = miter
            .netlist()
            .state_ids()
            .map(|p| match miter.origin(p) {
                (base, Side::Left) => (0, base.index()),
                (base, Side::Right) => (1, base.index()),
            })
            .collect();
        let rules = design
            .masking
            .iter()
            .map(|rule| {
                let fields = rule
                    .fields
                    .iter()
                    .map(|&f| (f.index(), netlist.init_of(f).bits()))
                    .collect();
                (rule.valid.index(), fields)
            })
            .collect();
        let nbase = netlist.num_states();
        PairRunner {
            design,
            sides: [tape.machine(), tape.machine()],
            instr_input: instr_input.index(),
            layout,
            rules,
            base: [vec![0; nbase], vec![0; nbase]],
            row: vec![0; miter.netlist().num_states()],
            cycles: 0,
        }
    }

    /// Runs `prog` from the equal-modulo-secret states of `config` and hands
    /// `emit` the product row of every cycle from `window_start` on, except
    /// the final state's (Def. 4.8: each example must step to another
    /// positive example, and the last state's successor was not observed).
    /// Rows are example-masked (§5.2.1) when `mask` is set. The observable
    /// check covers every cycle including the start-up ones and the last.
    fn run(
        &mut self,
        m: Mnemonic,
        prog: &[u32],
        config: &SecretConfig,
        window_start: usize,
        mask: bool,
        mut emit: impl FnMut(&[u64]),
    ) -> Result<(), Divergence> {
        for (machine, values) in self.sides.iter_mut().zip([&config.left, &config.right]) {
            machine.reset();
            for (&reg, &v) in self.design.secret_regs.iter().zip(values) {
                machine.set_state(reg, v);
            }
        }
        let cycles = prog.len() + self.design.max_latency;
        for cycle in 0..=cycles {
            // Trace indistinguishability on the observables (Def. 4.2).
            let [left, right] = &self.sides;
            if self
                .design
                .observable
                .iter()
                .any(|&o| left.state(o) != right.state(o))
            {
                return Err(Divergence { mnemonic: m, cycle });
            }
            if cycle == cycles {
                break;
            }
            if cycle >= window_start {
                self.fill_row(mask);
                emit(&self.row);
            }
            let word = prog.get(cycle).copied().unwrap_or(BUBBLE);
            for machine in &mut self.sides {
                machine.set_input(self.instr_input, u64::from(word));
                machine.step();
            }
            self.cycles += 2;
        }
        Ok(())
    }

    /// Assembles the current product row. Example masking (§5.2.1) works on
    /// a copy of each side's base state — entries whose valid bit is 0 are
    /// reset to their initial values so stale uop/operand residue cannot
    /// block predicate mining — while the machines keep running unmasked.
    fn fill_row(&mut self, mask: bool) {
        for (machine, base) in self.sides.iter().zip(&mut self.base) {
            machine.read_states(base);
            if mask {
                for (valid, fields) in &self.rules {
                    if base[*valid] == 0 {
                        for &(field, init) in fields {
                            base[field] = init;
                        }
                    }
                }
            }
        }
        for (slot, &(side, b)) in self.row.iter_mut().zip(&self.layout) {
            *slot = self.base[side][b];
        }
    }
}

/// Widths of the product states, in state order — what turns a raw product
/// row back into a [`StateValues`].
fn product_widths(miter: &Miter) -> Vec<u32> {
    let n = miter.netlist();
    n.state_ids().map(|s| n.state_width(s)).collect()
}

fn materialise(widths: &[u32], row: &[u64]) -> StateValues {
    StateValues::from_vec(
        widths
            .iter()
            .zip(row)
            .map(|(&w, &bits)| Bv::new(w, bits))
            .collect(),
    )
}

/// Differentially tests `m` with the adversarial configurations; returns
/// divergence evidence if any pair's observable timing differs. Only the
/// observables are looked at: no product state is assembled, and a diverging
/// pair is not simulated past its divergence.
pub fn differential_test(design: &Design, miter: &Miter, m: Mnemonic) -> Option<Divergence> {
    differential_tests(design, miter, &[m], 1).pop().flatten()
}

/// [`differential_test`] of every candidate, on `threads` workers over one
/// compiled tape; verdicts come back in candidate order.
pub(crate) fn differential_tests(
    design: &Design,
    miter: &Miter,
    candidates: &[Mnemonic],
    threads: usize,
) -> Vec<Option<Divergence>> {
    let tape = Tape::compile(&design.netlist);
    let configs = adversarial_configs(design);
    let Ok(verdicts) = hh_trace::run_indexed(
        candidates.len(),
        threads,
        || PairRunner::new(design, miter, &tape),
        |runner, i| {
            let m = candidates[i];
            let prog = probe_program(design, m);
            Ok::<_, Infallible>(configs.iter().find_map(|config| {
                runner
                    .run(m, &prog, config, usize::MAX, false, |_| {})
                    .err()
            }))
        },
    );
    verdicts
}

/// Smallest reservation of a [`RowSet`] arena, in words: just over 32 MiB,
/// the largest size glibc's malloc will ever serve from a heap. At or under
/// it, where a freed arena's pages go depends on its size — the first such
/// free raises the allocator's mmap and trim thresholds to that size for the
/// rest of the process, the next arena of that size comes out of the calling
/// thread's heap and nothing is returned to the system any more. Over it,
/// every arena is a mapping of its own, unmapped when the set is dropped.
const ROW_ARENA_MIN_WORDS: usize = (32 << 17) + 512;

/// Product rows deduplicated on arrival: each distinct row is stored once,
/// in a flat arena, found again through a hash of its words.
struct RowSet {
    stride: usize,
    /// The distinct rows, `stride` words each, in arrival order.
    rows: Vec<u64>,
    /// Row hash → indices (in units of rows) of the stored rows with it.
    by_hash: HashMap<u64, Vec<u32>>,
    /// Rows offered, duplicates included.
    offered: u64,
}

impl RowSet {
    /// A set of `stride`-word rows that is offered at most `offered` of them.
    ///
    /// The arena is reserved here, once, for every row that can arrive (and
    /// never less than [`ROW_ARENA_MIN_WORDS`]): pages no row reaches cost
    /// address space, not memory. An arena grown on demand left some tens of
    /// MiB to chance. Each regrowth landed in the allocator arena of whichever
    /// worker held the lock, and the final capacity, a power of two times the
    /// stride, fell on one side or the other of the 32 MiB above —
    /// LargeBoomLite yields 8 090 to 8 392 distinct rows around the 8 192
    /// boundary, so the seed decided between 31 and 62 MB. Peak RSS of a
    /// process that learns repeatedly read 170 or 227 MiB. If the
    /// reservation is refused the arena grows on demand.
    fn with_capacity(stride: usize, offered: usize) -> RowSet {
        let mut rows = Vec::new();
        let words = stride.saturating_mul(offered).max(ROW_ARENA_MIN_WORDS);
        let _ = rows.try_reserve_exact(words);
        RowSet {
            stride,
            rows,
            by_hash: HashMap::new(),
            offered: 0,
        }
    }

    fn row(&self, index: u32) -> &[u64] {
        &self.rows[index as usize * self.stride..][..self.stride]
    }

    fn len(&self) -> usize {
        self.rows.len() / self.stride
    }

    fn insert(&mut self, row: &[u64]) {
        self.offered += 1;
        // FxHash-style fold; equal hashes are confirmed word by word, so a
        // collision costs a comparison, never a lost example.
        let hash = row.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let stride = self.stride;
        let rows = &self.rows;
        let same = self.by_hash.entry(hash).or_default();
        if same
            .iter()
            .any(|&i| rows[i as usize * stride..][..stride] == *row)
        {
            return;
        }
        same.push((rows.len() / stride) as u32);
        self.rows.extend_from_slice(row);
    }
}

/// A generated example set with the work it took.
#[derive(Debug, PartialEq)]
pub(crate) struct ExampleSet {
    /// The examples: cleaned, sorted, distinct.
    pub(crate) states: Vec<StateValues>,
    /// Base-design cycles simulated, both executions counted.
    pub(crate) cycles: u64,
    /// Product states extracted before deduplication.
    pub(crate) raw: u64,
}

/// Generates the positive example set for a proposed safe set: paired traces
/// for every instruction (random nonzero secrets), cleaned and deduplicated.
///
/// # Errors
///
/// Returns the first [`Divergence`] encountered — generation-time proof that
/// some proposed instruction is unsafe.
pub fn generate_examples(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
) -> Result<Vec<StateValues>, Divergence> {
    generate_examples_custom(
        design,
        miter,
        safe,
        pairs_per_instr,
        seed,
        true,
        &EXAMPLE_RDS,
    )
}

/// [`generate_examples`] with an explicit destination-register rotation
/// (example-richness knob) and example masking optionally disabled — the
/// ablation of §5.2.1: without masking, stale-uop residue in out-of-order
/// structures blocks the `InSafeSet` predicates the invariant needs.
#[allow(clippy::too_many_arguments)]
pub fn generate_examples_custom(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
    mask: bool,
    rds: &[u8],
) -> Result<Vec<StateValues>, Divergence> {
    generate_example_set(design, miter, safe, pairs_per_instr, seed, mask, rds, 1)
        .map(|set| set.states)
}

/// [`generate_examples_custom`] together with its work counts, the pairs
/// simulated on `threads` workers. The set, the counts and — when several
/// pairs diverge — the [`Divergence`] reported (the lowest pair in
/// `(instruction, configuration)` order) are the same at every thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_example_set(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
    mask: bool,
    rds: &[u8],
    threads: usize,
) -> Result<ExampleSet, Divergence> {
    let tape = Tape::compile(&design.netlist);
    let widths = product_widths(miter);
    let programs: Vec<_> = safe
        .iter()
        .map(|&m| example_program_with_rds(design, m, rds))
        .collect();
    let pairs: Vec<(usize, SecretConfig)> = (0..safe.len())
        .flat_map(|k| {
            random_configs(design, pairs_per_instr, seed ^ ((k as u64) << 8))
                .into_iter()
                .map(move |config| (k, config))
        })
        .collect();
    // One row set for all workers, so the idle-cycle rows every pair shares
    // are held once. A worker collects the rows of a pair in its own buffer
    // and inserts them under one lock: simulating a row costs an order of
    // magnitude more than inserting it, but a lock per row has two workers
    // collide often enough to cost a third of the speed-up.
    let stride = widths.len();
    // A pair emits one row per cycle from its window's start to its last
    // step (see `PairRunner::run`), so the rows on offer are known here and
    // the calling thread reserves the arena: no worker regrows it.
    let offered: usize = pairs
        .iter()
        .map(|(k, _)| {
            let (prog, window) = &programs[*k];
            (prog.len() + design.max_latency).saturating_sub(*window)
        })
        .sum();
    let unique = Mutex::new(RowSet::with_capacity(stride, offered));
    let cycles = hh_trace::run_indexed(
        pairs.len(),
        threads,
        || (PairRunner::new(design, miter, &tape), Vec::new()),
        |(runner, rows), i| {
            let (k, config) = &pairs[i];
            let (prog, window) = &programs[*k];
            let before = runner.cycles;
            rows.clear();
            runner.run(safe[*k], prog, config, *window, mask, |row| {
                rows.extend_from_slice(row)
            })?;
            let mut unique = unique.lock().expect("no worker panics holding the row set");
            rows.chunks_exact(stride).for_each(|row| unique.insert(row));
            Ok(runner.cycles - before)
        },
    )?;
    let unique = unique
        .into_inner()
        .expect("no worker panics holding the row set");
    debug_assert_eq!(unique.offered, offered as u64);
    // Widths are equal position by position, so ordering the raw rows is
    // ordering the `Bv` rows they stand for — and sorting distinct rows
    // forgets the order they arrived in.
    let mut order: Vec<u32> = (0..unique.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| unique.row(a).cmp(unique.row(b)));
    Ok(ExampleSet {
        states: order
            .iter()
            .map(|&i| materialise(&widths, unique.row(i)))
            .collect(),
        cycles: cycles.iter().sum(),
        raw: unique.offered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_uarch::boomlite::{boom_lite, BoomVariant};
    use hh_uarch::rocketlite::rocket_lite;

    /// One masked paired execution of `prog`, every product state it emits
    /// materialised in cycle order.
    fn run_program_pair(
        design: &Design,
        miter: &Miter,
        m: Mnemonic,
        prog: &[u32],
        config: &SecretConfig,
    ) -> Result<Vec<StateValues>, Divergence> {
        let tape = Tape::compile(&design.netlist);
        let widths = product_widths(miter);
        let mut states = Vec::new();
        PairRunner::new(design, miter, &tape).run(m, prog, config, 0, true, |row| {
            states.push(materialise(&widths, row))
        })?;
        Ok(states)
    }

    #[test]
    fn safe_alu_instruction_generates_examples() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        let cfgs = random_configs(&d, 2, 7);
        for c in cfgs {
            let prog = probe_program(&d, Mnemonic::Add);
            let states =
                run_program_pair(&d, &m, Mnemonic::Add, &prog, &c).expect("add is timing-safe");
            assert!(states.len() > 10);
            // Property holds on every example: observables equal.
            for s in &states {
                for &o in &d.observable {
                    assert_eq!(s.get(m.left(o)), s.get(m.right(o)));
                }
            }
        }
    }

    #[test]
    fn mul_diverges_on_rocketlite() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        let div = differential_test(&d, &m, Mnemonic::Mul);
        assert!(div.is_some(), "zero-skip multiplier must be caught");
    }

    #[test]
    fn mul_is_clean_on_boomlite() {
        let d = boom_lite(BoomVariant::Small, 16);
        let m = Miter::build(&d.netlist);
        assert!(differential_test(&d, &m, Mnemonic::Mul).is_none());
        assert!(differential_test(&d, &m, Mnemonic::Mulhu).is_none());
    }

    #[test]
    fn auipc_diverges_on_boomlite_but_not_rocketlite() {
        let db = boom_lite(BoomVariant::Small, 16);
        let mb = Miter::build(&db.netlist);
        assert!(
            differential_test(&db, &mb, Mnemonic::Auipc).is_some(),
            "the jump-unit probe quirk must surface"
        );
        let dr = rocket_lite(16);
        let mr = Miter::build(&dr.netlist);
        assert!(differential_test(&dr, &mr, Mnemonic::Auipc).is_none());
    }

    #[test]
    fn memory_ops_diverge() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        assert!(differential_test(&d, &m, Mnemonic::Lw).is_some());
        assert!(differential_test(&d, &m, Mnemonic::Sw).is_some());
        let db = boom_lite(BoomVariant::Small, 16);
        let mb = Miter::build(&db.netlist);
        assert!(differential_test(&db, &mb, Mnemonic::Lw).is_some());
    }

    #[test]
    fn branches_diverge() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        assert!(differential_test(&d, &m, Mnemonic::Beq).is_some());
        assert!(differential_test(&d, &m, Mnemonic::Bne).is_some());
    }

    #[test]
    fn masking_scrubs_invalid_entries() {
        let d = boom_lite(BoomVariant::Small, 16);
        let m = Miter::build(&d.netlist);
        // Run a mul, then inspect post-issue states: the stale muliq uop
        // must be masked back to the NOP reset value.
        let cfg = &random_configs(&d, 1, 3)[0];
        let prog = probe_program(&d, Mnemonic::Mul);
        let states = run_program_pair(&d, &m, Mnemonic::Mul, &prog, cfg).unwrap();
        let uop0 = d.netlist.find_state("muliq$uop0").unwrap();
        let v0 = d.netlist.find_state("muliq$v0").unwrap();
        let nopw = hh_isa::Instruction::nop().encode() as u64;
        for s in &states {
            if !s.get(m.left(v0)).is_nonzero() {
                assert_eq!(
                    s.get(m.left(uop0)).bits(),
                    nopw,
                    "invalid entry must be masked to reset"
                );
            }
        }
        // And at least one state *did* have the entry valid with a real mul.
        let mulw = exemplar(Mnemonic::Mul).encode() as u64;
        assert!(states
            .iter()
            .any(|s| s.get(m.left(v0)).is_nonzero() && s.get(m.left(uop0)).bits() == mulw));
    }

    #[test]
    fn generate_examples_for_small_safe_set() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        let safe = [Mnemonic::Add, Mnemonic::Addi, Mnemonic::Xor];
        let ex = generate_examples(&d, &m, &safe, 1, 11).expect("all safe");
        // Idle (ε-padded) cycles dedup heavily; what matters is coverage:
        // at least one state per instruction with it in the decode register.
        assert!(ex.len() > 5, "got {}", ex.len());
        let dec = d.netlist.find_state("dec_instr").unwrap();
        for &mn in &safe {
            let w = exemplar(mn).encode() as u64;
            assert!(
                ex.iter().any(|s| s.get(m.left(dec)).bits() == w),
                "no example with {mn} in flight"
            );
        }
    }

    #[test]
    fn generate_examples_fails_fast_on_unsafe_member() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        // With nonzero random secrets, mul does NOT diverge (both slow):
        // generation succeeds even though mul is unsafe — that is exactly
        // why learning must still be able to fail (and why the adversarial
        // prefilter exists).
        let safe = [Mnemonic::Mul];
        let r = generate_examples(&d, &m, &safe, 1, 5);
        assert!(r.is_ok(), "nonzero operands hide the zero-skip path");
        // But lw diverges even under random secrets (cold/warm cache).
        let safe2 = [Mnemonic::Lw];
        let _ = generate_examples(&d, &m, &safe2, 1, 5); // may or may not diverge
    }

    #[test]
    fn the_row_arena_is_reserved_once_and_never_regrown() {
        let (stride, offered) = (7, 1000);
        let mut set = RowSet::with_capacity(stride, offered);
        let (arena, capacity) = (set.rows.as_ptr(), set.rows.capacity());
        assert!(capacity >= ROW_ARENA_MIN_WORDS);
        // Every row on offer twice over: 1 000 distinct rows arrive.
        for i in 0..2 * offered as u64 {
            set.insert(&[i % offered as u64; 7]);
        }
        assert_eq!((set.len(), set.offered), (offered, 2 * offered as u64));
        assert_eq!((set.rows.as_ptr(), set.rows.capacity()), (arena, capacity));
        // A large set reserves what it is offered, not a power of two.
        let large = RowSet::with_capacity(474, 25_000);
        assert!((474 * 25_000..474 * 32_768).contains(&large.rows.capacity()));
    }

    #[test]
    fn example_sets_do_not_depend_on_the_thread_count() {
        let mut designs = vec![rocket_lite(16)];
        designs.extend(
            [
                BoomVariant::Small,
                BoomVariant::Medium,
                BoomVariant::Large,
                BoomVariant::Mega,
            ]
            .map(|v| boom_lite(v, 16)),
        );
        // Six pairs, so four workers all get some.
        let safe = [Mnemonic::Add, Mnemonic::Sltiu, Mnemonic::Mulhu];
        for d in &designs {
            let m = Miter::build(&d.netlist);
            let set = |rds: &[u8], threads| {
                generate_example_set(d, &m, &safe, 2, 0xD1CE, true, rds, threads)
                    .expect("no divergence under random secrets")
            };
            let one = set(&EXAMPLE_RDS, 1);
            assert!(one.raw > one.states.len() as u64 && one.cycles > 0);
            for threads in [2, 4] {
                assert_eq!(set(&EXAMPLE_RDS, threads), one, "{}", d.netlist.name());
            }
            assert_eq!(set(&[3], 2), set(&[3], 1), "{}", d.netlist.name());
            // The public forms are the one-worker run.
            let public = generate_examples(d, &m, &safe, 2, 0xD1CE).unwrap();
            assert_eq!(public, one.states);
        }
    }

    /// A core where exactly `leaky` instructions latch a secret register
    /// into the observable, whatever the operand values.
    fn leaky_core(leaky: &[Mnemonic]) -> Design {
        let mut n = hh_netlist::Netlist::new("leaky");
        let instr = n.input("instr", 32);
        let regs: Vec<_> = (1..=4)
            .map(|i| n.state(format!("x{i}"), 8, Bv::zero(8)))
            .collect();
        for &r in &regs {
            n.keep_state(r);
        }
        let hits: Vec<_> = hh_isa::safe_set_patterns(leaky)
            .iter()
            .map(|p| {
                let mask = n.c(32, u64::from(p.mask));
                let masked = n.and(instr, mask);
                n.eq_const(masked, u64::from(p.matches))
            })
            .collect();
        let leak = n.or_all(&hits);
        let obs = n.state("obs", 8, Bv::zero(8));
        let (secret, hold) = (n.state_node(regs[0]), n.state_node(obs));
        let next = n.ite(leak, secret, hold);
        n.set_next(obs, next);
        Design {
            netlist: n,
            instr_input: "instr".to_string(),
            observable: vec![obs],
            secret_regs: regs,
            masking: vec![],
            nregs: 5,
            xlen: 8,
            max_latency: 2,
            example_depth: 1,
        }
    }

    #[test]
    fn the_lowest_diverging_pair_is_reported_at_every_thread_count() {
        let d = leaky_core(&[Mnemonic::Mul, Mnemonic::Xor]);
        let m = Miter::build(&d.netlist);
        let mut safe = vec![
            Mnemonic::Add,
            Mnemonic::Sub,
            Mnemonic::Mul,
            Mnemonic::And,
            Mnemonic::Or,
            Mnemonic::Xor,
            Mnemonic::Sll,
        ];
        for first in [Mnemonic::Mul, Mnemonic::Xor] {
            let serial = generate_example_set(&d, &m, &safe, 2, 9, true, &EXAMPLE_RDS, 1)
                .expect_err("two members leak");
            assert_eq!(serial.mnemonic, first);
            for threads in [2, 4] {
                let div = generate_example_set(&d, &m, &safe, 2, 9, true, &EXAMPLE_RDS, threads)
                    .expect_err("two members leak");
                assert_eq!(
                    (div.mnemonic, div.cycle),
                    (serial.mnemonic, serial.cycle),
                    "threads={threads}"
                );
            }
            safe.reverse();
        }
        // Without the leaky members the same core generates a set.
        safe.retain(|m| ![Mnemonic::Mul, Mnemonic::Xor].contains(m));
        assert!(generate_example_set(&d, &m, &safe, 2, 9, true, &EXAMPLE_RDS, 4).is_ok());
    }

    #[test]
    fn differential_verdicts_keep_candidate_order_at_every_thread_count() {
        let candidates = crate::default_candidates();
        for d in [rocket_lite(16), boom_lite(BoomVariant::Small, 16)] {
            let m = Miter::build(&d.netlist);
            let cycles = |threads| -> Vec<Option<usize>> {
                differential_tests(&d, &m, &candidates, threads)
                    .iter()
                    .map(|v| v.as_ref().map(|div| div.cycle))
                    .collect()
            };
            let one = cycles(1);
            assert!(one.iter().any(Option::is_some) && one.iter().any(Option::is_none));
            for (&c, verdict) in candidates.iter().zip(&one) {
                let alone = differential_test(&d, &m, c).map(|div| div.cycle);
                assert_eq!(alone, *verdict, "{c:?}");
            }
            assert_eq!(cycles(2), one);
            assert_eq!(cycles(4), one);
        }
    }

    #[test]
    fn divergence_is_the_earliest_cycle_over_all_observables() {
        // Two observables latch one secret bit each: `late` (listed first)
        // at cycle 2, `early` at cycle 0, so they first differ entering
        // cycles 3 and 1.
        let mut n = hh_netlist::Netlist::new("toy");
        n.input("instr", 32);
        let x1 = n.state("x1", 8, Bv::zero(8));
        n.keep_state(x1);
        let cnt = n.state("cnt", 4, Bv::zero(4));
        let cur = n.state_node(cnt);
        let one = n.c(4, 1);
        let inc = n.add(cur, one);
        n.set_next(cnt, inc);
        let secret = n.state_node(x1);
        let mut latch_at = |name: &str, at: u64, bit: u32| {
            let s = n.state(name, 1, Bv::bit(false));
            let now = n.eq_const(cur, at);
            let b = n.bit(secret, bit);
            let hold = n.state_node(s);
            let next = n.ite(now, b, hold);
            n.set_next(s, next);
            s
        };
        let late = latch_at("late", 2, 0);
        let early = latch_at("early", 0, 1);
        let d = Design {
            netlist: n,
            instr_input: "instr".to_string(),
            observable: vec![late, early],
            secret_regs: vec![x1],
            masking: vec![],
            nregs: 2,
            xlen: 8,
            max_latency: 2,
            example_depth: 1,
        };
        let m = Miter::build(&d.netlist);
        let config = SecretConfig {
            left: vec![0b00],
            right: vec![0b11],
        };
        let tape = Tape::compile(&d.netlist);
        let mut runner = PairRunner::new(&d, &m, &tape);
        let mut rows = 0;
        let div = runner
            .run(Mnemonic::Add, &[BUBBLE; 6], &config, 0, true, |_| rows += 1)
            .unwrap_err();
        assert_eq!(div.cycle, 1);
        // The run ended at the divergence: one cycle stepped per side, one
        // product state (the initial one) extracted before it.
        assert_eq!((runner.cycles, rows), (2, 1));
        // Equal secrets never diverge and run the whole program.
        let same = SecretConfig {
            left: vec![0b11],
            right: vec![0b11],
        };
        let states = run_program_pair(&d, &m, Mnemonic::Add, &[BUBBLE; 6], &same).unwrap();
        assert_eq!(states.len(), 6 + d.max_latency);
    }
}
