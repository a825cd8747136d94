//! Resident warm state: designs, per-job memo tables, encode caches, and
//! their persistence to a state directory.
//!
//! The unit of warmth is a **job**: one (design, safe set, example
//! configuration) triple. Each job keeps resident, across requests:
//!
//! * the product **miter** (deterministically rebuilt by every engine run,
//!   so resident predicates resolve against identical state numbering),
//! * a shared [`EncodeCache`] — recorded Tseitin replay streams,
//! * the **solution table** (`target ⊢ premises` memo entries) of the last
//!   successful learn, and the learned invariant.
//!
//! On a **design delta** (same design key, different content) the job is
//! migrated: every memoised target's renaming-invariant cone signature
//! (`hh_netlist::signature`) is recomputed against the new netlist and
//! compared with its value on the old one. Entries whose signature is
//! unchanged blast to a byte-identical obligation CNF, so their relative-
//! inductivity result carries over; the rest are invalidated and re-learned.
//!
//! Persistence (SERVE.md §5) stores the *reconstructible* core — design
//! specs, solution tables as [`Predicate::to_wire`] text and invariants.
//! Encoding replay streams are deliberately not persisted: a restored memo
//! answers repeat requests with zero solver work anyway, and cone shapes
//! re-record on first miss.

use crate::json::Json;
use crate::proto::ErrorCode;
use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_netlist::btor2::{parse_btor2, to_btor2};
use hh_netlist::miter::Miter;
use hh_proof::cert::fnv1a;
use hh_smt::{EncodeCache, Predicate};
use hh_uarch::boomlite::{boom_lite_scaled, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use hh_uarch::{Design, MaskRule};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use veloct::examples::PUBLIC_BASE_REG;
use veloct::{Veloct, VeloctConfig, WarmContext};

/// A request-level failure: protocol error code plus a message.
pub type ServeError = (ErrorCode, String);

fn bad_design(msg: impl Into<String>) -> ServeError {
    (ErrorCode::BadDesign, msg.into())
}

fn bad_request(msg: impl Into<String>) -> ServeError {
    (ErrorCode::BadRequest, msg.into())
}

/// Looks up a mnemonic by its assembly name. Also accepts `"sltui"`, which
/// [`Mnemonic::name`] used to print for `sltiu` and which state directories
/// and client scripts written before the fix still contain.
pub fn mnemonic_by_name(name: &str) -> Option<Mnemonic> {
    if name == "sltui" {
        return Some(Mnemonic::Sltiu);
    }
    ALL_MNEMONICS.iter().copied().find(|m| m.name() == name)
}

/// Resolves a protocol safe-set specification: the literal shorthands
/// `"alu"` (ALU-class instructions) and `"default"` (every non-control
/// candidate), or an explicit array of mnemonic names.
pub fn resolve_safe_set(spec: &Json) -> Result<Vec<Mnemonic>, ServeError> {
    let mut out = match spec {
        Json::Str(s) if s == "alu" => ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| m.class() == InstrClass::Alu)
            .collect(),
        Json::Str(s) if s == "default" => veloct::default_candidates(),
        Json::Str(s) => return Err(bad_request(format!("unknown safe-set shorthand {s:?}"))),
        Json::Arr(items) => {
            let mut v = Vec::with_capacity(items.len());
            for it in items {
                let name = it
                    .as_str()
                    .ok_or_else(|| bad_request("safe-set entries must be strings"))?;
                v.push(
                    mnemonic_by_name(name)
                        .ok_or_else(|| bad_request(format!("unknown mnemonic {name:?}")))?,
                );
            }
            v
        }
        _ => {
            return Err(bad_request(
                "safe must be \"alu\", \"default\", or an array",
            ))
        }
    };
    out.sort_by_key(|m| m.name());
    out.dedup();
    if out.is_empty() {
        return Err(bad_request("safe set must not be empty"));
    }
    Ok(out)
}

/// How a design is specified on the wire and in `spec.json` — either a
/// builtin core from `hh-uarch` or an inlined btor2 source plus the
/// annotations the batch CLI takes as flags.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSource {
    /// A builtin core constructor.
    Builtin {
        /// `rocketlite`, `boom-small`, `boom-medium`, `boom-large`, `boom-mega`.
        kind: String,
        /// Datapath width.
        xlen: u32,
        /// Structure scale factor (BOOM variants only; 1 = paper size).
        scale: usize,
    },
    /// An inlined btor2 design with verification annotations.
    Btor2 {
        /// The btor2 source text.
        src: String,
        /// Name of the 32-bit instruction input.
        instr_input: String,
        /// Observable state names.
        observables: Vec<String>,
        /// Secret register state names.
        secret_regs: Vec<String>,
        /// Masking rules as `(valid, fields)` name tuples.
        masks: Vec<(String, Vec<String>)>,
        /// Datapath width.
        xlen: u32,
        /// Worst-case single-instruction latency.
        max_latency: usize,
        /// Example-program depth override (`0` = derive from latency).
        example_depth: usize,
    },
}

/// A named design specification.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    /// The client-chosen design key (directory-safe, validated).
    pub name: String,
    /// How to build it.
    pub source: DesignSource,
}

/// Datapath widths the builtin cores can be built at (the range
/// `hh_uarch::decode` asserts).
pub(crate) const BUILTIN_XLEN: std::ops::RangeInclusive<u32> = 8..=32;

/// Largest structure scale factor a request may ask for (16× MegaBoomLite
/// is already a 512-entry reorder buffer).
const MAX_SCALE: usize = 16;

/// Largest `max_latency` a btor2 design may declare. Every example program
/// pads each instruction with this many bubbles, so the field sizes an
/// allocation; the builtin cores use 16–36.
pub(crate) const MAX_LATENCY: usize = 512;

/// Largest `example_depth` a btor2 design may declare: the number of
/// instruction copies per example program. The deepest builtin
/// (MegaBoomLite at [`MAX_SCALE`]) needs 772.
const MAX_EXAMPLE_DEPTH: usize = 8192;

/// Most paired executions per instruction a request may ask for. Zero is
/// refused too: a learn with no example panics in the miner.
pub(crate) const MAX_PAIRS: usize = 64;

/// Most worker threads a request may ask for (every one is a spawn).
pub(crate) const MAX_THREADS: usize = 256;

/// An optional count field of a `learn`/`verify` frame: an integer in
/// `1..=max`, or `default` when the frame does not carry the key.
pub(crate) fn count_field(
    frame: &Json,
    key: &str,
    default: usize,
    max: usize,
) -> Result<usize, ServeError> {
    match frame.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|x| usize::try_from(x).ok())
            .filter(|x| (1..=max).contains(x))
            .ok_or_else(|| bad_request(format!("{key} must be an integer in 1..={max}"))),
    }
}

/// An optional non-negative integer field of the `design` object, which
/// must fit `T`: `as` would wrap `2^32 + 16` into a plausible width.
fn uint_field<T: TryFrom<u64>>(j: &Json, key: &str, default: T) -> Result<T, ServeError> {
    match j.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|x| T::try_from(x).ok())
            .ok_or_else(|| bad_design(format!("design.{key} is not an integer in range"))),
    }
}

/// [`uint_field`] with a ceiling, for the fields that size a buffer.
fn bounded_field(j: &Json, key: &str, default: usize, max: usize) -> Result<usize, ServeError> {
    let value: usize = uint_field(j, key, default)?;
    if value > max {
        return Err(bad_design(format!(
            "design.{key} must be at most {max}, got {value}"
        )));
    }
    Ok(value)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl DesignSpec {
    /// Parses the protocol `design` object (SERVE.md §3.2).
    pub fn from_json(j: &Json) -> Result<DesignSpec, ServeError> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("design.name is required"))?
            .to_string();
        if !valid_name(&name) {
            return Err(bad_request(
                "design.name must be 1-64 chars of [A-Za-z0-9_-]",
            ));
        }
        let source = if let Some(builtin) = j.get("builtin").and_then(Json::as_str) {
            // The core builders assert on both; a panic under the state
            // lock would take the daemon down, so refuse here.
            let xlen: u32 = uint_field(j, "xlen", 16)?;
            if !BUILTIN_XLEN.contains(&xlen) {
                return Err(bad_design(format!(
                    "design.xlen must be in {BUILTIN_XLEN:?} for a builtin core, got {xlen}"
                )));
            }
            let scale: usize = uint_field(j, "scale", 1)?;
            if !scale.is_power_of_two() || scale > MAX_SCALE {
                return Err(bad_design(format!(
                    "design.scale must be a power of two up to {MAX_SCALE}, got {scale}"
                )));
            }
            DesignSource::Builtin {
                kind: builtin.to_string(),
                xlen,
                scale,
            }
        } else if let Some(src) = j.get("btor2").and_then(Json::as_str) {
            let strings = |key: &str| -> Result<Vec<String>, ServeError> {
                match j.get(key) {
                    None => Ok(Vec::new()),
                    Some(Json::Arr(a)) => a
                        .iter()
                        .map(|e| {
                            e.as_str().map(str::to_string).ok_or_else(|| {
                                bad_request(format!("{key} entries must be strings"))
                            })
                        })
                        .collect(),
                    Some(_) => Err(bad_request(format!("{key} must be an array"))),
                }
            };
            let mut masks = Vec::new();
            if let Some(Json::Arr(entries)) = j.get("masks") {
                for e in entries {
                    let pair = e
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| bad_request("masks entries must be [valid, [fields]]"))?;
                    let valid = pair[0]
                        .as_str()
                        .ok_or_else(|| bad_request("mask valid must be a string"))?;
                    let fields: Result<Vec<String>, ServeError> = pair[1]
                        .as_arr()
                        .ok_or_else(|| bad_request("mask fields must be an array"))?
                        .iter()
                        .map(|f| {
                            f.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| bad_request("mask fields must be strings"))
                        })
                        .collect();
                    masks.push((valid.to_string(), fields?));
                }
            }
            DesignSource::Btor2 {
                src: src.to_string(),
                instr_input: j
                    .get("instr_input")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad_request("design.instr_input is required for btor2"))?
                    .to_string(),
                observables: strings("observables")?,
                secret_regs: strings("secret_regs")?,
                masks,
                xlen: uint_field(j, "xlen", 16)?,
                max_latency: bounded_field(j, "max_latency", 8, MAX_LATENCY)?,
                example_depth: bounded_field(j, "example_depth", 0, MAX_EXAMPLE_DEPTH)?,
            }
        } else {
            return Err(bad_request("design needs either builtin or btor2"));
        };
        Ok(DesignSpec { name, source })
    }

    /// Serializes back to the protocol/persistence JSON object.
    pub fn to_json(&self) -> Json {
        match &self.source {
            DesignSource::Builtin { kind, xlen, scale } => Json::obj(vec![
                ("name", Json::Str(self.name.clone())),
                ("builtin", Json::Str(kind.clone())),
                ("xlen", Json::Int(*xlen as i64)),
                ("scale", Json::Int(*scale as i64)),
            ]),
            DesignSource::Btor2 {
                src,
                instr_input,
                observables,
                secret_regs,
                masks,
                xlen,
                max_latency,
                example_depth,
            } => Json::obj(vec![
                ("name", Json::Str(self.name.clone())),
                ("btor2", Json::Str(src.clone())),
                ("instr_input", Json::Str(instr_input.clone())),
                (
                    "observables",
                    Json::Arr(observables.iter().cloned().map(Json::Str).collect()),
                ),
                (
                    "secret_regs",
                    Json::Arr(secret_regs.iter().cloned().map(Json::Str).collect()),
                ),
                (
                    "masks",
                    Json::Arr(
                        masks
                            .iter()
                            .map(|(v, fs)| {
                                Json::Arr(vec![
                                    Json::Str(v.clone()),
                                    Json::Arr(fs.iter().cloned().map(Json::Str).collect()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("xlen", Json::Int(*xlen as i64)),
                ("max_latency", Json::Int(*max_latency as i64)),
                ("example_depth", Json::Int(*example_depth as i64)),
            ]),
        }
    }

    /// Builds the concrete [`Design`].
    pub fn build(&self) -> Result<Design, ServeError> {
        match &self.source {
            DesignSource::Builtin { kind, xlen, scale } => {
                let variant = |v: BoomVariant| Ok(boom_lite_scaled(v, *xlen, *scale));
                match kind.as_str() {
                    "rocketlite" => Ok(rocket_lite(*xlen)),
                    "boom-small" => variant(BoomVariant::Small),
                    "boom-medium" => variant(BoomVariant::Medium),
                    "boom-large" => variant(BoomVariant::Large),
                    "boom-mega" => variant(BoomVariant::Mega),
                    other => Err(bad_design(format!("unknown builtin design {other:?}"))),
                }
            }
            DesignSource::Btor2 {
                src,
                instr_input,
                observables,
                secret_regs,
                masks,
                xlen,
                max_latency,
                example_depth,
            } => {
                let netlist = parse_btor2(src).map_err(|e| bad_design(e.to_string()))?;
                match netlist.find_input(instr_input) {
                    None => return Err(bad_design(format!("no input named {instr_input:?}"))),
                    Some(node) if netlist.width(node) != 32 => {
                        return Err(bad_design("the instruction input must be 32 bits wide"))
                    }
                    Some(_) => {}
                }
                let find = |name: &str| {
                    netlist
                        .find_state(name)
                        .ok_or_else(|| bad_design(format!("no state named {name:?}")))
                };
                if observables.is_empty() {
                    return Err(bad_design("at least one observable is required"));
                }
                // Example programs read x1 and x2 and keep a public base
                // address in x4 (`veloct::examples::PUBLIC_BASE_REG`).
                if secret_regs.len() < PUBLIC_BASE_REG {
                    return Err(bad_design(format!(
                        "at least {PUBLIC_BASE_REG} secret_regs (x1..x{PUBLIC_BASE_REG}) are required, got {}",
                        secret_regs.len()
                    )));
                }
                let observable = observables
                    .iter()
                    .map(|o| find(o))
                    .collect::<Result<_, _>>()?;
                let secrets: Vec<_> = secret_regs
                    .iter()
                    .map(|s| find(s))
                    .collect::<Result<_, _>>()?;
                // The example generator asserts this.
                if let Some(&s) = secrets.iter().find(|&&s| netlist.state_width(s) != *xlen) {
                    return Err(bad_design(format!(
                        "secret register {:?} is {} bits wide, but xlen is {xlen}",
                        netlist.state_name(s),
                        netlist.state_width(s)
                    )));
                }
                let mut masking = Vec::new();
                for (valid, fields) in masks {
                    masking.push(MaskRule {
                        valid: find(valid)?,
                        fields: fields.iter().map(|f| find(f)).collect::<Result<_, _>>()?,
                    });
                }
                let nregs = secret_regs.len() + 1;
                Ok(Design {
                    netlist,
                    instr_input: instr_input.clone(),
                    observable,
                    secret_regs: secrets,
                    masking,
                    nregs,
                    xlen: *xlen,
                    max_latency: *max_latency,
                    example_depth: if *example_depth > 0 {
                        *example_depth
                    } else {
                        (*max_latency).max(8)
                    },
                })
            }
        }
    }
}

/// Content fingerprint of a built design: structure (canonical btor2
/// serialization) plus every annotation that influences learning. Equal
/// fingerprints mean the resident warm state applies verbatim; a change
/// triggers signature-directed invalidation.
pub fn design_fingerprint(design: &Design) -> u64 {
    let mut text = to_btor2(&design.netlist);
    text.push('\x1f');
    text.push_str(&design.instr_input);
    for &o in &design.observable {
        text.push('\x1f');
        text.push_str(design.netlist.state_name(o));
    }
    for &s in &design.secret_regs {
        text.push('\x1f');
        text.push_str(design.netlist.state_name(s));
    }
    for rule in &design.masking {
        text.push('\x1f');
        text.push_str(design.netlist.state_name(rule.valid));
        for &f in &rule.fields {
            text.push(',');
            text.push_str(design.netlist.state_name(f));
        }
    }
    use std::fmt::Write as _;
    let _ = write!(
        text,
        "\x1f{}:{}:{}:{}",
        design.nregs, design.xlen, design.max_latency, design.example_depth
    );
    fnv1a(text.as_bytes())
}

/// The per-job portion of a warm learn configuration that changes the
/// learning *problem* (and therefore keys warm state). Thread count and
/// certification mode deliberately excluded: both are gated bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobKey {
    /// Sorted safe set.
    pub safe: Vec<Mnemonic>,
    /// Paired executions per instruction.
    pub pairs_per_instr: usize,
    /// Example RNG seed.
    pub seed: u64,
    /// Impl-predicate (ConjunCT §5.2.1) mode.
    pub impl_predicates: bool,
}

impl JobKey {
    /// Stable human-readable key string.
    pub fn key_string(&self) -> String {
        let names: Vec<&str> = self.safe.iter().map(|m| m.name()).collect();
        format!(
            "safe={};pairs={};seed={:#x};impl={}",
            names.join("+"),
            self.pairs_per_instr,
            self.seed,
            self.impl_predicates
        )
    }

    /// Directory-safe job id: FNV-1a of [`JobKey::key_string`].
    pub fn id(&self) -> String {
        format!("{:016x}", fnv1a(self.key_string().as_bytes()))
    }
}

/// One warm job: resident miter, encode cache, memo table, invariant.
#[derive(Debug)]
pub struct JobState {
    /// The job key.
    pub key: JobKey,
    /// Resident product netlist (identical to what every engine run builds).
    pub miter: Miter,
    /// Resident encode cache: replay streams.
    pub cache: Arc<EncodeCache>,
    /// Memoised solution table of the last successful learn, over
    /// [`JobState::miter`]'s netlist.
    pub solutions: Vec<(Predicate, Vec<Predicate>)>,
    /// The learned invariant (sorted predicates), if the last learn proved.
    pub invariant: Option<Vec<Predicate>>,
    /// Positive examples used by the last learn.
    pub num_examples: usize,
}

impl JobState {
    fn fresh(key: JobKey, veloct: &Veloct<'_>) -> JobState {
        let (miter, _) = veloct.build_miter(&key.safe);
        let cache = Arc::new(EncodeCache::new(miter.netlist()));
        JobState {
            key,
            miter,
            cache,
            solutions: Vec::new(),
            invariant: None,
            num_examples: 0,
        }
    }
}

/// One named design plus its warm jobs.
#[derive(Debug)]
pub struct DesignEntry {
    /// The durable specification (rebuilds the design from nothing).
    pub spec: DesignSpec,
    /// The built design.
    pub design: Design,
    /// Content fingerprint of `design`.
    pub fingerprint: u64,
    /// Warm jobs keyed by [`JobKey::id`].
    pub jobs: HashMap<String, JobState>,
}

/// Counters describing one warm learn/verify run (SERVE.md §3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounters {
    /// Memo entries seeded from warm state before solving.
    pub memo_seeded: usize,
    /// Seeded entries that survived (were reused by) the run.
    pub memo_reused: usize,
    /// Warm entries invalidated by a design delta before the run.
    pub invalidated: usize,
    /// Fresh abduction tasks the run had to solve.
    pub relearned: usize,
    /// SMT queries issued by the run.
    pub smt_queries: usize,
    /// Encode-cache replays served during the run (delta).
    pub cache_hits: u64,
    /// Fresh cone blasts during the run (delta). Zero on a warm hit.
    pub cache_misses: u64,
}

/// Outcome classification of a learn/verify run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnResult {
    /// An invariant was learned (or fully reused).
    Proved,
    /// No invariant exists within the predicate language.
    Unprovable,
    /// Example generation refuted the safe set at the given cycle.
    Diverged(usize),
}

/// Everything a learn/verify response reports.
#[derive(Debug)]
pub struct LearnOutcome {
    /// Proved / unprovable / diverged.
    pub result: LearnResult,
    /// The invariant in [`Predicate::to_wire`] form, sorted (empty unless
    /// proved).
    pub invariant: Vec<String>,
    /// Run counters.
    pub counters: RunCounters,
    /// Positive examples used.
    pub num_examples: usize,
    /// Where the certificate bundle was written, if requested.
    pub certificate: Option<PathBuf>,
}

/// Per-request options that do *not* key warm state.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads for the engine.
    pub threads: usize,
    /// Emit an `hh-proof` certificate bundle after a successful learn.
    pub certify: bool,
    /// `verify` semantics: require an existing warm baseline.
    pub require_baseline: bool,
}

/// The server's complete resident state.
#[derive(Debug)]
pub struct ServeState {
    /// Persistence root (`None` = memory-only daemon).
    pub state_dir: Option<PathBuf>,
    /// Resident designs by key.
    pub designs: HashMap<String, DesignEntry>,
}

/// Summary of a checkpoint write.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointSummary {
    /// Designs written.
    pub designs: usize,
    /// Jobs written.
    pub jobs: usize,
    /// Memo entries written.
    pub solutions: usize,
}

/// Summary of a restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreSummary {
    /// Designs restored.
    pub designs: usize,
    /// Jobs restored.
    pub jobs: usize,
    /// Memo entries restored.
    pub solutions: usize,
}

const STATE_VERSION: &str = "hh-serve state v1";

/// Per-job learnt-clause pool dump that daemons before the removal of
/// clause transfer wrote. Its content is never opened — pooled clauses went
/// into solvers unchecked, so the file was a way to forge a proof — and the
/// next checkpoint deletes it.
const STALE_POOLS_FILE: &str = "pools.txt";

impl ServeState {
    /// Creates empty state (no persistence).
    pub fn new(state_dir: Option<PathBuf>) -> ServeState {
        ServeState {
            state_dir,
            designs: HashMap::new(),
        }
    }

    /// Builds the per-request [`VeloctConfig`] for a job.
    fn veloct_config(key: &JobKey, opts: RunOptions) -> VeloctConfig {
        VeloctConfig {
            threads: opts.threads.max(1),
            pairs_per_instr: key.pairs_per_instr,
            seed: key.seed,
            impl_predicates: key.impl_predicates,
            certify: opts.certify,
            ..VeloctConfig::default()
        }
    }

    /// Handles a learn/verify request end to end: design registration or
    /// delta migration, warm seeding, the engine run, and warm-state
    /// update. This is the request lifecycle documented in
    /// `docs/ARCHITECTURE.md`.
    pub fn learn(
        &mut self,
        spec: DesignSpec,
        key: JobKey,
        opts: RunOptions,
    ) -> Result<LearnOutcome, ServeError> {
        // A certificate's design reference must be re-derivable by the
        // independent checker, which only knows builtin constructors; an
        // inlined btor2 source has no durable reference. Reject up front
        // rather than after a full learn.
        if opts.certify && !matches!(spec.source, DesignSource::Builtin { .. }) {
            return Err((
                ErrorCode::BadRequest,
                "certify requires a builtin design: certificate bundles \
                 reference the design by constructor name"
                    .to_string(),
            ));
        }
        let name = spec.name.clone();

        // Register the design or migrate resident jobs across a delta. A
        // spec equal to the resident one builds the very design that is
        // resident, so neither the build nor its fingerprint is repeated.
        let mut invalidated = 0usize;
        if self.designs.get(&name).is_none_or(|e| e.spec != spec) {
            let design = spec.build()?;
            let fingerprint = design_fingerprint(&design);
            match self.designs.get_mut(&name) {
                None => {
                    if opts.require_baseline {
                        return Err((
                            ErrorCode::UnknownDesign,
                            format!("design {name:?} has never been learned on this server"),
                        ));
                    }
                    self.designs.insert(
                        name.clone(),
                        DesignEntry {
                            spec,
                            design,
                            fingerprint,
                            jobs: HashMap::new(),
                        },
                    );
                }
                Some(entry) if entry.fingerprint == fingerprint => {
                    // Identical content under another spelling: resident
                    // state applies verbatim.
                }
                Some(entry) => {
                    // Design delta: migrate every resident job before
                    // swapping the design in, so signatures can be compared
                    // old-vs-new.
                    invalidated = migrate_entry(entry, spec, design, fingerprint, opts);
                }
            }
        }

        let entry = self.designs.get_mut(&name).expect("just ensured");
        let job_id = key.id();
        // `verify` re-checks against warm state: it needs a prior learn for
        // this exact job (whose memo a delta may have partially invalidated
        // — that is the incremental case), never a cold start.
        if opts.require_baseline && !entry.jobs.contains_key(&job_id) {
            return Err((
                ErrorCode::NoBaseline,
                format!(
                    "no prior learn for job {} on design {name:?}",
                    key.key_string()
                ),
            ));
        }
        let veloct_cfg = Self::veloct_config(&key, opts);
        let veloct = Veloct::with_config(&entry.design, veloct_cfg);
        let job = entry
            .jobs
            .entry(job_id.clone())
            .or_insert_with(|| JobState::fresh(key.clone(), &veloct));

        let before = job.cache.stats();
        let warm = WarmContext {
            encode_cache: Some(Arc::clone(&job.cache)),
            seeds: job.solutions.clone(),
        };
        hh_trace::counter!("serve", "serve.seeded", warm.seeds.len());
        // A job that holds an invariant holds the table of a learn that
        // proved it on this very design, examples checked: if that table is
        // still closed it is the answer. Without one — never learned,
        // flushed, unprovable, or carried across a design delta — the
        // examples are regenerated and the engine runs.
        let report = if job.invariant.is_some() {
            veloct.learn_warm(&key.safe, warm)
        } else {
            veloct.learn_seeded(&key.safe, warm)
        };
        let after = job.cache.stats();

        let (result, invariant_preds) = match (&report.divergence, &report.invariant) {
            (Some(div), _) => (LearnResult::Diverged(div.cycle), Vec::new()),
            (None, None) => (LearnResult::Unprovable, Vec::new()),
            (None, Some(inv)) => {
                let mut preds = inv.preds().to_vec();
                preds.sort();
                (LearnResult::Proved, preds)
            }
        };

        // Update warm state: keep the last *successful* memo (seeding from
        // a failed run would be wasted work — its entries reference
        // predicates in P_fail).
        if result == LearnResult::Proved {
            job.solutions = report.solutions.clone();
            job.invariant = Some(invariant_preds.clone());
            // A closed-table answer generated none: the count stays that
            // of the learn which produced the table.
            if report.num_examples > 0 {
                job.num_examples = report.num_examples;
            }
        } else {
            job.solutions.clear();
            job.invariant = None;
        }

        let counters = RunCounters {
            memo_seeded: report.memo_seeded,
            memo_reused: report.memo_reused,
            invalidated,
            relearned: report.stats.num_tasks(),
            smt_queries: report.stats.smt_queries,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
        };
        hh_trace::counter!("serve", "serve.reused", counters.memo_reused);
        hh_trace::counter!("serve", "serve.invalidated", counters.invalidated);
        hh_trace::counter!("serve", "serve.relearned", counters.relearned);
        if counters.memo_seeded > 0 && counters.smt_queries == 0 {
            hh_trace::counter!("serve", "serve.warm_hit", 1);
        }

        // Certificates are served from (and re-derived into) the resident
        // store: the bundle lives under the job's state directory.
        let mut certificate = None;
        if opts.certify && result == LearnResult::Proved {
            let dir = self
                .job_dir(&name, &job_id)
                .ok_or_else(|| {
                    (
                        ErrorCode::Internal,
                        "certify requires the daemon to run with a state directory".to_string(),
                    )
                })?
                .join("cert");
            let entry = self.designs.get(&name).expect("present");
            let job = entry.jobs.get(&job_id).expect("present");
            let veloct = Veloct::with_config(&entry.design, Self::veloct_config(&key, opts));
            let inv = hhoudini::Invariant::new(invariant_preds.clone());
            std::fs::create_dir_all(&dir)
                .map_err(|e| (ErrorCode::Internal, format!("creating {dir:?}: {e}")))?;
            veloct
                .emit_certificate(&key.safe, &inv, &job.solutions, &dir)
                .map_err(|e| (ErrorCode::Internal, format!("certificate emission: {e}")))?;
            certificate = Some(dir);
        }

        let entry = self.designs.get(&name).expect("present");
        let job = entry.jobs.get(&job_id).expect("present");
        Ok(LearnOutcome {
            result,
            invariant: invariant_preds
                .iter()
                .map(|p| p.to_wire(job.miter.netlist()))
                .collect(),
            counters,
            num_examples: job.num_examples,
            certificate,
        })
    }

    /// Drops warm state. `scope` is `"memo"` (clear solution tables and
    /// invariants, keep encode caches) or `"all"` (drop designs
    /// entirely). Returns `(designs_dropped, jobs_cleared, entries_dropped)`.
    pub fn flush(
        &mut self,
        scope: &str,
        design: Option<&str>,
    ) -> Result<(usize, usize, usize), ServeError> {
        let names: Vec<String> = match design {
            Some(d) => {
                if !self.designs.contains_key(d) {
                    return Err((ErrorCode::UnknownDesign, format!("unknown design {d:?}")));
                }
                vec![d.to_string()]
            }
            None => self.designs.keys().cloned().collect(),
        };
        let mut jobs = 0usize;
        let mut entries = 0usize;
        match scope {
            "memo" => {
                for n in &names {
                    let e = self.designs.get_mut(n).expect("listed");
                    for job in e.jobs.values_mut() {
                        jobs += 1;
                        entries += job.solutions.len();
                        job.solutions.clear();
                        job.invariant = None;
                    }
                }
                Ok((0, jobs, entries))
            }
            "all" => {
                let mut designs = 0usize;
                for n in &names {
                    let e = self.designs.remove(n).expect("listed");
                    designs += 1;
                    for job in e.jobs.values() {
                        jobs += 1;
                        entries += job.solutions.len();
                    }
                }
                Ok((designs, jobs, entries))
            }
            other => Err(bad_request(format!(
                "unknown flush scope {other:?} (expected \"memo\" or \"all\")"
            ))),
        }
    }

    fn job_dir(&self, design: &str, job_id: &str) -> Option<PathBuf> {
        self.state_dir
            .as_ref()
            .map(|d| d.join("designs").join(design).join("jobs").join(job_id))
    }

    /// Writes the full warm state to the state directory (no-op without
    /// one). The `designs/` subtree is replaced wholesale — it is owned by
    /// this daemon and marked by the VERSION file; partially written
    /// checkpoints are prevented by writing every file to a `.tmp` sibling
    /// and renaming.
    pub fn checkpoint(&self) -> std::io::Result<CheckpointSummary> {
        self.checkpoint_inner(None)
    }

    /// Fault-injection seam (hh-vopr checkpoint-crash fault): runs a
    /// normal checkpoint until the `crash_after`-th atomic file write
    /// (0-based), which writes its `.tmp` sibling, syncs it, and then
    /// fails **before** the rename — byte-for-byte the on-disk state a
    /// process killed between tmp-write and rename leaves behind. Returns
    /// the injected error; [`ServeState::restore`] must clean the debris
    /// and come back warm from the last completed checkpoint.
    #[doc(hidden)]
    pub fn checkpoint_crash_after(&self, crash_after: usize) -> std::io::Result<CheckpointSummary> {
        self.checkpoint_inner(Some(crash_after))
    }

    fn checkpoint_inner(&self, crash_after: Option<usize>) -> std::io::Result<CheckpointSummary> {
        let mut fault = WriteFault {
            until_crash: crash_after,
        };
        let Some(root) = &self.state_dir else {
            return Ok(CheckpointSummary::default());
        };
        std::fs::create_dir_all(root)?;
        let version_path = root.join("VERSION");
        let designs_root = root.join("designs");
        if designs_root.exists() {
            // Refuse to prune a directory we do not own.
            if !version_path.exists() {
                return Err(std::io::Error::other(format!(
                    "{} exists but {} does not; refusing to overwrite a \
                     directory hh-serve did not create",
                    designs_root.display(),
                    version_path.display()
                )));
            }
            // Prune stale entries but never blanket-wipe: `cert/` bundles
            // under surviving jobs are re-derivable yet expensive, and a
            // checkpoint must not destroy them.
            prune_dir(&designs_root, |name| self.designs.contains_key(name))?;
            for (name, entry) in &self.designs {
                let jobs_root = designs_root.join(name).join("jobs");
                if jobs_root.exists() {
                    prune_dir(&jobs_root, |id| entry.jobs.contains_key(id))?;
                }
            }
        }
        fault.write(&version_path, STATE_VERSION.as_bytes())?;
        let mut summary = CheckpointSummary::default();
        let mut names: Vec<&String> = self.designs.keys().collect();
        names.sort();
        for name in names {
            let entry = &self.designs[name];
            let ddir = designs_root.join(name);
            std::fs::create_dir_all(&ddir)?;
            let mut spec = entry.spec.to_json();
            if let Json::Obj(m) = &mut spec {
                m.insert(
                    "fingerprint".to_string(),
                    Json::Str(format!("{:016x}", entry.fingerprint)),
                );
            }
            fault.write(&ddir.join("spec.json"), spec.to_string().as_bytes())?;
            summary.designs += 1;
            let mut job_ids: Vec<&String> = entry.jobs.keys().collect();
            job_ids.sort();
            for id in job_ids {
                let job = &entry.jobs[id];
                let jdir = ddir.join("jobs").join(id);
                std::fs::create_dir_all(&jdir)?;
                summary.jobs += 1;

                let meta = Json::obj(vec![
                    (
                        "safe",
                        Json::Arr(
                            job.key
                                .safe
                                .iter()
                                .map(|m| Json::Str(m.name().to_string()))
                                .collect(),
                        ),
                    ),
                    ("pairs", Json::Int(job.key.pairs_per_instr as i64)),
                    ("seed", Json::Int(job.key.seed as i64)),
                    ("impl_predicates", Json::Bool(job.key.impl_predicates)),
                    ("proved", Json::Bool(job.invariant.is_some())),
                    ("num_examples", Json::Int(job.num_examples as i64)),
                ]);
                fault.write(&jdir.join("job.json"), meta.to_string().as_bytes())?;

                let nl = job.miter.netlist();
                let mut sol = String::new();
                for (t, prem) in &job.solutions {
                    sol.push_str("T ");
                    sol.push_str(&t.to_wire(nl));
                    sol.push('\n');
                    for p in prem {
                        sol.push_str("P ");
                        sol.push_str(&p.to_wire(nl));
                        sol.push('\n');
                    }
                    sol.push_str(".\n");
                    summary.solutions += 1;
                }
                fault.write(&jdir.join("solutions.txt"), sol.as_bytes())?;

                let mut inv = String::new();
                if let Some(preds) = &job.invariant {
                    for p in preds {
                        inv.push_str(&p.to_wire(nl));
                        inv.push('\n');
                    }
                }
                fault.write(&jdir.join("invariant.txt"), inv.as_bytes())?;

                // Learnt-clause pools are no longer written or read; drop
                // the file an older daemon left so the job dir shrinks.
                match std::fs::remove_file(jdir.join(STALE_POOLS_FILE)) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
        }
        hh_trace::counter!("serve", "serve.checkpoint", 1);
        Ok(summary)
    }

    /// Restores warm state from the state directory. Malformed entries are
    /// skipped (the daemon boots cold for them) rather than failing the
    /// whole boot; the error strings are returned for logging.
    pub fn restore(&mut self) -> (RestoreSummary, Vec<String>) {
        let mut summary = RestoreSummary::default();
        let mut warnings = Vec::new();
        let Some(root) = self.state_dir.clone() else {
            return (summary, warnings);
        };
        let version_path = root.join("VERSION");
        // Claim-at-boot hygiene: a `VERSION.tmp` carrying our own marker is
        // debris from a checkpoint killed before its very first rename.
        // Reject and remove it so it can never be mistaken for a claim.
        let version_tmp = version_path.with_extension("tmp");
        if std::fs::read_to_string(&version_tmp).is_ok_and(|s| s.trim() == STATE_VERSION) {
            match std::fs::remove_file(&version_tmp) {
                Ok(()) => warnings.push(format!(
                    "removed half-written checkpoint debris {}",
                    version_tmp.display()
                )),
                Err(e) => warnings.push(format!("removing {}: {e}", version_tmp.display())),
            }
        }
        let version = std::fs::read_to_string(&version_path).unwrap_or_default();
        if version.trim() != STATE_VERSION {
            if !version.is_empty() {
                warnings.push(format!(
                    "state dir version {:?} != {:?}; booting cold",
                    version.trim(),
                    STATE_VERSION
                ));
            } else if root.join("designs").exists() {
                warnings.push(format!(
                    "{} has a designs/ subtree but no VERSION marker; booting \
                     cold and leaving it untouched",
                    root.display()
                ));
            } else {
                // Fresh directory: claim it now, so files written before the
                // first checkpoint (certificate bundles) land inside an
                // owned tree.
                let claim = std::fs::create_dir_all(&root)
                    .and_then(|_| write_atomic(&root.join("VERSION"), STATE_VERSION.as_bytes()));
                if let Err(e) = claim {
                    warnings.push(format!("claiming {}: {e}", root.display()));
                }
            }
            return (summary, warnings);
        }
        // The tree is ours: clear any `*.tmp` siblings a mid-checkpoint
        // crash left behind, so a half-written file can never shadow the
        // last completed one.
        sweep_tmp_debris(&root, &mut warnings);
        let designs_root = root.join("designs");
        let Ok(dirs) = std::fs::read_dir(&designs_root) else {
            return (summary, warnings);
        };
        let mut paths: Vec<PathBuf> = dirs.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        let mut stale_pools = 0usize;
        for ddir in paths {
            match self.restore_design(&ddir, &mut summary, &mut stale_pools) {
                Ok(()) => {}
                Err(msg) => warnings.push(format!("{}: {msg}", ddir.display())),
            }
        }
        if stale_pools > 0 {
            warnings.push(format!(
                "learnt-clause pools are no longer used: ignoring {stale_pools} \
                 {STALE_POOLS_FILE} file(s); the next checkpoint removes them"
            ));
        }
        hh_trace::counter!("serve", "serve.restored_jobs", summary.jobs);
        (summary, warnings)
    }

    fn restore_design(
        &mut self,
        ddir: &Path,
        summary: &mut RestoreSummary,
        stale_pools: &mut usize,
    ) -> Result<(), String> {
        let spec_text =
            std::fs::read_to_string(ddir.join("spec.json")).map_err(|e| e.to_string())?;
        let spec_json = Json::parse(&spec_text).map_err(|e| e.to_string())?;
        let spec = DesignSpec::from_json(&spec_json).map_err(|(_, m)| m)?;
        let design = spec.build().map_err(|(_, m)| m)?;
        let fingerprint = design_fingerprint(&design);
        if let Some(stored) = spec_json.get("fingerprint").and_then(Json::as_str) {
            if stored != format!("{fingerprint:016x}") {
                return Err("stored fingerprint does not match rebuilt design".to_string());
            }
        }
        let mut entry = DesignEntry {
            spec,
            design,
            fingerprint,
            jobs: HashMap::new(),
        };
        summary.designs += 1;
        let jobs_root = ddir.join("jobs");
        if let Ok(dirs) = std::fs::read_dir(&jobs_root) {
            let mut paths: Vec<PathBuf> = dirs.filter_map(|e| e.ok().map(|e| e.path())).collect();
            paths.sort();
            for jdir in paths {
                *stale_pools += usize::from(jdir.join(STALE_POOLS_FILE).exists());
                match restore_job(&entry.design, &jdir, summary) {
                    Ok(job) => {
                        entry.jobs.insert(job.key.id(), job);
                    }
                    Err(msg) => return Err(format!("{}: {msg}", jdir.display())),
                }
            }
        }
        self.designs.insert(entry.spec.name.clone(), entry);
        Ok(())
    }
}

/// Migrates every job of `entry` onto the new design: signature-directed
/// invalidation of memo entries, miter/cache rebuild.
/// Returns the number of invalidated memo entries across all jobs.
fn migrate_entry(
    entry: &mut DesignEntry,
    spec: DesignSpec,
    design: Design,
    fingerprint: u64,
    opts: RunOptions,
) -> usize {
    let mut invalidated = 0usize;
    let old_jobs = std::mem::take(&mut entry.jobs);
    let mut new_jobs = HashMap::new();
    for (id, old) in old_jobs {
        let veloct = Veloct::with_config(&design, ServeState::veloct_config(&old.key, opts));
        let mut fresh = JobState::fresh(old.key.clone(), &veloct);
        let old_nl = old.miter.netlist();
        let new_nl = fresh.miter.netlist();
        for (target, premises) in &old.solutions {
            // Remap by state name; a predicate that no longer resolves is
            // invalid by construction.
            let remap = |p: &Predicate| Predicate::from_wire(&p.to_wire(old_nl), new_nl).ok();
            let Some(new_target) = remap(target) else {
                invalidated += 1;
                continue;
            };
            let new_premises: Option<Vec<Predicate>> = premises.iter().map(remap).collect();
            let Some(new_premises) = new_premises else {
                invalidated += 1;
                continue;
            };
            // The decisive check: the target's obligation encoding is
            // unchanged iff its cone signature is.
            let old_sig = old.cache.signature(old_nl, target);
            let new_sig = fresh.cache.signature(new_nl, &new_target);
            if old_sig.key == new_sig.key {
                fresh.solutions.push((new_target, new_premises));
            } else {
                invalidated += 1;
            }
        }
        // The invariant itself is re-derived by the next learn; carrying a
        // stale one across a delta would misreport "proved".
        fresh.invariant = None;
        fresh.num_examples = old.num_examples;
        new_jobs.insert(id, fresh);
    }
    entry.jobs = new_jobs;
    entry.spec = spec;
    entry.design = design;
    entry.fingerprint = fingerprint;
    invalidated
}

fn restore_job(
    design: &Design,
    jdir: &Path,
    summary: &mut RestoreSummary,
) -> Result<JobState, String> {
    let meta_text = std::fs::read_to_string(jdir.join("job.json")).map_err(|e| e.to_string())?;
    let meta = Json::parse(&meta_text).map_err(|e| e.to_string())?;
    let safe_json = meta.get("safe").ok_or("job.json missing safe")?;
    let mut safe = Vec::new();
    for s in safe_json.as_arr().ok_or("safe must be an array")? {
        let name = s.as_str().ok_or("safe entries must be strings")?;
        safe.push(mnemonic_by_name(name).ok_or_else(|| format!("unknown mnemonic {name:?}"))?);
    }
    // Same order `resolve_safe_set` gives a request, so a job stored under
    // the legacy `sltui` spelling (which sorted elsewhere) keys identically.
    safe.sort_by_key(|m| m.name());
    let key = JobKey {
        safe,
        pairs_per_instr: meta.get("pairs").and_then(Json::as_u64).unwrap_or(1) as usize,
        seed: meta.get("seed").and_then(Json::as_i64).unwrap_or(0) as u64,
        impl_predicates: meta
            .get("impl_predicates")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    };
    let proved = meta.get("proved").and_then(Json::as_bool).unwrap_or(false);
    let opts = RunOptions {
        threads: 1,
        certify: false,
        require_baseline: false,
    };
    let veloct = Veloct::with_config(design, ServeState::veloct_config(&key, opts));
    let mut job = JobState::fresh(key, &veloct);
    job.num_examples = meta.get("num_examples").and_then(Json::as_u64).unwrap_or(0) as usize;
    summary.jobs += 1;

    let nl = job.miter.netlist();
    let sol_text = std::fs::read_to_string(jdir.join("solutions.txt")).unwrap_or_default();
    let mut target: Option<(Predicate, Vec<Predicate>)> = None;
    for line in sol_text.lines() {
        if let Some(rest) = line.strip_prefix("T ") {
            target = Some((Predicate::from_wire(rest, nl)?, Vec::new()));
        } else if let Some(rest) = line.strip_prefix("P ") {
            let t = target.as_mut().ok_or("premise before target")?;
            t.1.push(Predicate::from_wire(rest, nl)?);
        } else if line == "." {
            let t = target.take().ok_or("terminator before target")?;
            job.solutions.push(t);
            summary.solutions += 1;
        } else if !line.trim().is_empty() {
            return Err(format!("bad solutions line {line:?}"));
        }
    }

    if proved {
        let inv_text = std::fs::read_to_string(jdir.join("invariant.txt")).unwrap_or_default();
        let mut preds = Vec::new();
        for line in inv_text.lines().filter(|l| !l.trim().is_empty()) {
            preds.push(Predicate::from_wire(line, nl)?);
        }
        if !preds.is_empty() {
            job.invariant = Some(preds);
        }
    }
    Ok(job)
}

/// Removes every child directory of `dir` whose (UTF-8) name fails `keep`.
fn prune_dir(dir: &Path, keep: impl Fn(&str) -> bool) -> std::io::Result<()> {
    for e in std::fs::read_dir(dir)? {
        let e = e?;
        let name = e.file_name();
        let kept = name.to_str().is_some_and(&keep);
        if !kept && e.path().is_dir() {
            std::fs::remove_dir_all(e.path())?;
        }
    }
    Ok(())
}

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Counts down atomic writes and, on the fatal one, stops between the
/// tmp-write and the rename — exactly the on-disk state a process killed
/// mid-[`write_atomic`] leaves behind. `until_crash: None` is a plain
/// pass-through, so the production path pays nothing.
struct WriteFault {
    until_crash: Option<usize>,
}

impl WriteFault {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if let Some(n) = self.until_crash.as_mut() {
            if *n == 0 {
                let tmp = path.with_extension("tmp");
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(bytes)?;
                f.sync_all()?;
                return Err(std::io::Error::other(
                    "injected checkpoint crash (tmp written, rename skipped)",
                ));
            }
            *n -= 1;
        }
        write_atomic(path, bytes)
    }
}

/// Removes `*.tmp` debris that a checkpoint killed between tmp-write and
/// rename leaves behind. Only ever called on a tree this daemon owns (the
/// VERSION marker, or its own half-written marker, is present).
fn sweep_tmp_debris(dir: &Path, warnings: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            sweep_tmp_debris(&path, warnings);
        } else if path.extension().is_some_and(|e| e == "tmp") {
            match std::fs::remove_file(&path) {
                Ok(()) => warnings.push(format!(
                    "removed half-written checkpoint debris {}",
                    path.display()
                )),
                Err(e) => warnings.push(format!("removing {}: {e}", path.display())),
            }
        }
    }
}
