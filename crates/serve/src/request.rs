//! What counts as a valid request: the one reader of every design, job and
//! run field, whichever way it arrives — a `learn`/`verify` frame, a
//! restored `spec.json` / `job.json`, `veloct connect` flags or batch flags
//! (SERVE.md §3.2 and §5).
//!
//! Each field is parsed, bounded and defaulted here and nowhere else, by
//! [`DesignSpec::from_json`], [`JobKey::from_json`] and
//! [`RunOptions::from_json`]. Every
//! refusal of a field starts with the field's wire path (`design.xlen …`,
//! `pairs …`), which the CLI turns into its flag (`--xlen …`).

use crate::json::Json;
use crate::proto::ErrorCode;
use hh_isa::{InstrClass, Mnemonic, ALL_MNEMONICS};
use hh_netlist::btor2::parse_btor2;
use hh_proof::cert::fnv1a;
use hh_uarch::boomlite::{boom_lite_scaled, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use hh_uarch::{Design, MaskRule};
use std::fmt::Display;
use std::ops::RangeInclusive;
use veloct::examples::PUBLIC_BASE_REG;
use veloct::{DEFAULT_PAIRS_PER_INSTR, DEFAULT_SEED};

/// A request-level failure: protocol error code plus a message.
pub type ServeError = (ErrorCode, String);

fn bad_design(msg: impl Into<String>) -> ServeError {
    (ErrorCode::BadDesign, msg.into())
}

fn bad_request(msg: impl Into<String>) -> ServeError {
    (ErrorCode::BadRequest, msg.into())
}

/// Datapath widths the builtin cores can be built at (the range
/// `hh_uarch::decode` asserts).
const BUILTIN_XLEN: RangeInclusive<u32> = 8..=32;

/// Largest structure scale factor a request may ask for (16× MegaBoomLite
/// is already a 512-entry reorder buffer).
const MAX_SCALE: usize = 16;

/// Largest `max_latency` a btor2 design may declare. Every example program
/// pads each instruction with this many bubbles, so the field sizes an
/// allocation; the builtin cores use 16–36.
const MAX_LATENCY: usize = 512;

/// `max_latency` of a btor2 design that does not declare one. Longer
/// example programs never weaken a verdict, and 24 is within the builtin
/// cores' 16–36.
const DEFAULT_MAX_LATENCY: usize = 24;

/// Largest `example_depth` a btor2 design may declare: the number of
/// instruction copies per example program. The deepest builtin
/// (MegaBoomLite at [`MAX_SCALE`]) needs 772.
const MAX_EXAMPLE_DEPTH: usize = 8192;

/// Most paired executions per instruction a request may ask for. Zero is
/// refused too: a learn with no example panics in the miner.
const MAX_PAIRS: usize = 64;

/// Most worker threads a request may ask for (every one is a spawn).
const MAX_THREADS: usize = 256;

/// The optional integer field `key` of `obj`: `default` when absent,
/// otherwise an integer in `range`. A wrong type, a value out of range and
/// one that does not fit `T` (`as` would wrap `2^32 + 16` into a plausible
/// width) are all refused with the same message.
pub(crate) fn int_field<T>(
    obj: &Json,
    key: &str,
    default: T,
    range: RangeInclusive<T>,
) -> Result<T, String>
where
    T: TryFrom<i64> + PartialOrd + Display + Copy,
{
    let Some(value) = obj.get(key) else {
        return Ok(default);
    };
    value
        .as_i64()
        .and_then(|x| T::try_from(x).ok())
        .filter(|x| range.contains(x))
        .ok_or_else(|| {
            format!(
                "{key} must be an integer in {}..={}",
                range.start(),
                range.end()
            )
        })
}

/// The optional boolean field `key` of `obj`, false when absent.
pub(crate) fn bool_field(obj: &Json, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("{key} must be true or false")),
    }
}

/// [`int_field`] of the `design` object, refused as `bad-design`.
fn design_int<T>(j: &Json, key: &str, default: T, range: RangeInclusive<T>) -> Result<T, ServeError>
where
    T: TryFrom<i64> + PartialOrd + Display + Copy,
{
    int_field(j, key, default, range).map_err(|m| bad_design(format!("design.{m}")))
}

/// The `threads` default of a daemon (`veloct serve --threads`,
/// `ServerConfig::threads`): at most 256, the bound on the frame field, and
/// 0 = all available cores up to the same bound.
pub(crate) fn default_threads(configured: usize) -> Result<usize, String> {
    match configured {
        0 => Ok(std::thread::available_parallelism()
            .map(|n| n.get().min(MAX_THREADS))
            .unwrap_or(1)),
        n if n <= MAX_THREADS => Ok(n),
        _ => Err(format!(
            "threads must be in 0..={MAX_THREADS} (0 = all cores)"
        )),
    }
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
/// candidate), or an explicit array of mnemonic names. The result is
/// sorted by name and free of duplicates, so every spelling of a set keys
/// one job.
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

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// The optional string-array field `key` of the `design` object.
fn strings(j: &Json, key: &str) -> Result<Vec<String>, ServeError> {
    match j.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Arr(a)) => a
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad_request(format!("design.{key} entries must be strings")))
            })
            .collect(),
        Some(_) => Err(bad_request(format!("design.{key} must be an array"))),
    }
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().cloned().map(Json::Str).collect())
}

impl DesignSpec {
    /// Parses the protocol `design` object (SERVE.md §3.2). The btor2
    /// sizes `max_latency` and `example_depth` are bounded for a builtin
    /// core too, which ignores them.
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
        let builtin = j.get("builtin").and_then(Json::as_str);
        // The core builders assert on a builtin's width and scale; a panic
        // under the state lock would take the daemon down, so refuse here.
        // A btor2 design's width is every secret register's, which `build`
        // checks.
        let xlen_range = if builtin.is_some() {
            BUILTIN_XLEN
        } else {
            0..=u32::MAX
        };
        let xlen = design_int(j, "xlen", 16, xlen_range)?;
        let max_latency = design_int(j, "max_latency", DEFAULT_MAX_LATENCY, 0..=MAX_LATENCY)?;
        let example_depth = design_int(j, "example_depth", 0, 0..=MAX_EXAMPLE_DEPTH)?;
        let source = if let Some(builtin) = builtin {
            let scale = design_int(j, "scale", 1, 1..=MAX_SCALE)?;
            if !scale.is_power_of_two() {
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
            let mut masks = Vec::new();
            if let Some(Json::Arr(entries)) = j.get("masks") {
                for e in entries {
                    let pair = e.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        bad_request("design.masks entries must be [valid, [fields]]")
                    })?;
                    let valid = pair[0]
                        .as_str()
                        .ok_or_else(|| bad_request("design.masks valid must be a string"))?;
                    let fields: Result<Vec<String>, ServeError> = pair[1]
                        .as_arr()
                        .ok_or_else(|| bad_request("design.masks fields must be an array"))?
                        .iter()
                        .map(|f| {
                            f.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| bad_request("design.masks fields must be strings"))
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
                observables: strings(j, "observables")?,
                secret_regs: strings(j, "secret_regs")?,
                masks,
                xlen,
                max_latency,
                example_depth,
            }
        } else {
            return Err(bad_request("design needs either builtin or btor2"));
        };
        Ok(DesignSpec { name, source })
    }

    /// Serializes back to the protocol/persistence JSON object, every
    /// default spelled out.
    pub fn to_json(&self) -> Json {
        let name = ("name", Json::Str(self.name.clone()));
        match &self.source {
            DesignSource::Builtin { kind, xlen, scale } => Json::obj(vec![
                name,
                ("builtin", Json::Str(kind.clone())),
                ("xlen", Json::Int(i64::from(*xlen))),
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
                name,
                ("btor2", Json::Str(src.clone())),
                ("instr_input", Json::Str(instr_input.clone())),
                ("observables", str_arr(observables)),
                ("secret_regs", str_arr(secret_regs)),
                (
                    "masks",
                    Json::Arr(
                        masks
                            .iter()
                            .map(|(v, fs)| Json::Arr(vec![Json::Str(v.clone()), str_arr(fs)]))
                            .collect(),
                    ),
                ),
                ("xlen", Json::Int(i64::from(*xlen))),
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
    /// Reads the job fields of a `learn`/`verify` frame or a `job.json`
    /// (SERVE.md §3.2): `safe` (default `"default"`), `pairs` in `1..=64`
    /// and `seed`, both defaulting to `VeloctConfig`'s, and
    /// `impl_predicates` (default false). The seed travels as a signed
    /// 64-bit integer, its two's-complement bits.
    pub fn from_json(j: &Json) -> Result<JobKey, ServeError> {
        let safe = match j.get("safe") {
            Some(spec) => resolve_safe_set(spec)?,
            None => resolve_safe_set(&Json::Str("default".to_string()))?,
        };
        let pairs = int_field(j, "pairs", DEFAULT_PAIRS_PER_INSTR, 1..=MAX_PAIRS);
        let seed = int_field(j, "seed", DEFAULT_SEED.cast_signed(), i64::MIN..=i64::MAX);
        Ok(JobKey {
            safe,
            pairs_per_instr: pairs.map_err(bad_request)?,
            seed: seed.map_err(bad_request)?.cast_unsigned(),
            impl_predicates: bool_field(j, "impl_predicates").map_err(bad_request)?,
        })
    }

    /// The fields [`JobKey::from_json`] reads, every one spelled out.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "safe",
                Json::Arr(
                    self.safe
                        .iter()
                        .map(|m| Json::Str(m.name().to_string()))
                        .collect(),
                ),
            ),
            ("pairs", Json::Int(self.pairs_per_instr as i64)),
            ("seed", Json::Int(self.seed.cast_signed())),
            ("impl_predicates", Json::Bool(self.impl_predicates)),
        ])
    }

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

impl RunOptions {
    /// Reads the run fields of a `learn`/`verify` frame or of batch flags:
    /// `threads` in `1..=256` (default `default_threads`) and `certify`
    /// (default false).
    pub fn from_json(
        frame: &Json,
        default_threads: usize,
        require_baseline: bool,
    ) -> Result<RunOptions, ServeError> {
        Ok(RunOptions {
            threads: int_field(frame, "threads", default_threads, 1..=MAX_THREADS)
                .map_err(bad_request)?,
            certify: bool_field(frame, "certify").map_err(bad_request)?,
            require_baseline,
        })
    }
}
