//! End-to-end invariant certificates.
//!
//! A learned invariant `H` is inductive iff for every predicate `p ∈ H`
//! there is a premise set `P(p) ⊆ H` with `⋀P(p) ∧ p ∧ ¬p′` unsatisfiable
//! (the standard Houdini decomposition; H-Houdini's memo table records
//! exactly these sets). A *certificate* packages everything an independent
//! checker needs to confirm this without trusting the learner or the
//! solver:
//!
//! * a durable **design reference** (builtin netlist name — the constructor
//!   is re-run at check time, so the certified circuit cannot be swapped),
//! * the **safe-set patterns** that constrain the instruction alphabet Σ,
//! * the **predicate set** in the wire format of
//!   [`Predicate::to_wire`],
//! * one **obligation** per predicate: its premise indices, the shape
//!   (variable/clause counts + FNV hash) of the obligation CNF, and a
//!   binary-DRAT refutation of that CNF.
//!
//! Checking re-derives each obligation CNF from the netlist via `hh-smt`
//! (the encoding is deterministic), confirms the shape matches what the
//! proof was logged against, and runs the independent RUP checker of
//! [`crate::check`]. Structural closure — premises drawn from the predicate
//! set, every predicate discharged exactly once, the design's observable
//! properties present — is verified on top, so the checked statement really
//! is "this predicate set is a 1-step inductive relational invariant of
//! this design containing the timing-equality properties".
//!
//! Initiation (the invariant holding on paired reset states) is *not* part
//! of the certificate, mirroring `Invariant::verify_monolithic`, which also
//! certifies consecution only.
//!
//! On disk a certificate is a directory: a `MANIFEST` text file plus one
//! `obligation-NNN.drat` (binary DRAT) per obligation. See
//! `docs/PROOF_FORMAT.md` for the grammar.

use crate::check::{check_refutation, CheckStats};
use crate::drat::{self, MemoryProof};
use hh_isa::MaskMatch;
use hh_netlist::miter::Miter;
use hh_netlist::simp::SimpMap;
use hh_sat::dimacs::{self, Cnf};
use hh_sat::{Lit, SolveResult};
use hh_smt::{Predicate, TransitionEncoding};
use hh_uarch::decode::constrained_miter;
use hh_uarch::Design;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// One discharged relative-induction obligation.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Index of the target predicate in the certificate's predicate list.
    pub target: usize,
    /// Indices of the premise predicates (strictly ascending).
    pub premises: Vec<usize>,
    /// Variable count of the obligation CNF the proof refutes.
    pub num_vars: usize,
    /// Clause count of the obligation CNF.
    pub num_clauses: usize,
    /// FNV-1a hash of the obligation CNF's DIMACS text.
    pub cnf_hash: u64,
    /// The DRAT refutation: the clauses the solver added, in order.
    pub proof: Vec<Vec<Lit>>,
}

/// A complete invariant certificate (in-memory form of a bundle).
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Builtin design reference: the product-base netlist's name
    /// (resolvable via [`hh_uarch::builtin_by_netlist_name`]).
    pub design: String,
    /// Safe-set instruction patterns (the Σ constraint).
    pub patterns: Vec<MaskMatch>,
    /// Predicates in wire format, sorted by their structural order.
    pub predicates: Vec<String>,
    /// Indices of the property predicates (`Eq(observable)`).
    pub properties: Vec<usize>,
    /// One obligation per predicate, in target-index order.
    pub obligations: Vec<Obligation>,
}

/// Everything that can go wrong when building or checking a certificate.
#[derive(Debug)]
pub enum CertError {
    /// Filesystem trouble reading or writing a bundle.
    Io(String),
    /// The MANIFEST (or a proof file) is malformed.
    Parse(String),
    /// The design reference does not resolve to a builtin design.
    UnknownDesign(String),
    /// The certificate's structure is inconsistent (bad indices, missing
    /// or duplicate obligations, property set mismatch, unsorted
    /// predicates).
    Structure(String),
    /// A re-derived obligation CNF does not match the certified shape —
    /// the proof was logged against a different formula.
    CnfMismatch {
        /// Obligation index.
        obligation: usize,
        /// Human-readable discrepancy.
        detail: String,
    },
    /// An obligation's DRAT proof failed the independent check.
    ProofRejected {
        /// Obligation index.
        obligation: usize,
        /// The checker's verdict.
        error: crate::check::CheckError,
    },
    /// During emission: an obligation query came back SAT, i.e. the claimed
    /// premises do not make the target relatively inductive.
    NotInductive {
        /// Index of the target predicate.
        target: usize,
    },
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::Io(e) => write!(f, "i/o error: {e}"),
            CertError::Parse(e) => write!(f, "malformed certificate: {e}"),
            CertError::UnknownDesign(d) => {
                write!(f, "design {d:?} is not a builtin design reference")
            }
            CertError::Structure(e) => write!(f, "certificate structure: {e}"),
            CertError::CnfMismatch { obligation, detail } => {
                write!(f, "obligation {obligation}: CNF mismatch: {detail}")
            }
            CertError::ProofRejected { obligation, error } => {
                write!(f, "obligation {obligation}: proof rejected: {error}")
            }
            CertError::NotInductive { target } => {
                write!(
                    f,
                    "predicate {target} is not inductive relative to its premises"
                )
            }
        }
    }
}

impl std::error::Error for CertError {}

/// Summary of a successful bundle emission.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitSummary {
    /// Obligations written.
    pub obligations: usize,
    /// Total DRAT proof lines across all obligations.
    pub proof_lines: usize,
    /// Total bytes of binary DRAT written.
    pub proof_bytes: u64,
}

/// Summary of a successful end-to-end check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckReport {
    /// Obligations re-derived and checked.
    pub obligations: usize,
    /// Total predicates in the certified invariant.
    pub predicates: usize,
    /// Aggregated checker statistics.
    pub stats: CheckStats,
    /// Worker threads the obligations were checked on.
    pub threads: usize,
}

/// FNV-1a over a byte string; used to fingerprint obligation CNFs as
/// defense-in-depth on top of the variable/clause counts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// Running FNV-1a state. It is also a text sink, so a CNF's DIMACS
/// rendering is hashed as it is produced instead of being collected into a
/// `String` first.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// `fnv1a(to_dimacs(cnf).as_bytes())` without materialising the text.
fn cnf_fingerprint(cnf: &Cnf) -> u64 {
    let mut h = Fnv1a::default();
    dimacs::write_dimacs(cnf, &mut h).expect("the hasher never reports an error");
    h.0
}

/// What every obligation of one bundle shares, built once per bundle: the
/// safe-set-constrained miter, its word-level simplification map (a pass
/// over the whole netlist — the reason this is not rebuilt per obligation)
/// and the sorted predicate table the obligations index into. The emitter
/// and the checker each build their own from the design reference and hand
/// it to their workers by shared reference.
struct ObligationContext {
    miter: Miter,
    simp: Arc<SimpMap>,
    preds: Vec<Predicate>,
}

impl ObligationContext {
    fn new(miter: Miter, preds: Vec<Predicate>) -> ObligationContext {
        let simp = Arc::new(SimpMap::build(miter.netlist()));
        ObligationContext { miter, simp, preds }
    }

    /// Encodes one relative-induction obligation `⋀premises ∧ target ∧
    /// ¬target′` into a fresh solver, in a fixed order (target-now first,
    /// premises in list order, then the negated next-state target), and
    /// snapshots its CNF. Both the emitter and the
    /// checker go through this single function, which is what makes the CNF
    /// reproducible.
    fn encode(&self, target: usize, premises: &[usize]) -> (TransitionEncoding<'_>, Cnf) {
        let mut enc = TransitionEncoding::with_simp(self.miter.netlist(), self.simp.clone());
        let target = &self.preds[target];
        let now = target.encode_current(&mut enc);
        enc.assert_lit(now);
        for &j in premises {
            let l = self.preds[j].encode_current(&mut enc);
            enc.assert_lit(l);
        }
        let next = target.encode_next(&mut enc);
        enc.assert_lit(!next);
        let cnf = dimacs::from_solver(enc.cnf_mut().solver_mut());
        (enc, cnf)
    }

    /// Proves obligation `target`, returning it with its CNF shape and DRAT
    /// refutation.
    fn prove(&self, target: usize, premises: &[usize]) -> Result<Obligation, CertError> {
        let _span = hh_trace::span!("proof", "proof.log");
        let (mut enc, cnf) = self.encode(target, premises);
        let solver = enc.cnf_mut().solver_mut();
        let mem = MemoryProof::new();
        solver.set_proof_sink(Box::new(mem.handle()));
        let res = solver.solve();
        solver.take_proof_sink();
        if res != SolveResult::Unsat {
            return Err(CertError::NotInductive { target });
        }
        if hh_trace::enabled() {
            hh_trace::counter!("proof", "proof.obligations", 1);
        }
        Ok(Obligation {
            target,
            premises: premises.to_vec(),
            num_vars: cnf.num_vars,
            num_clauses: cnf.clauses.len(),
            cnf_hash: cnf_fingerprint(&cnf),
            proof: mem.take_lines(),
        })
    }

    /// Checks obligation number `k` of a bundle: re-derives its CNF,
    /// compares it with the certified shape and runs the independent
    /// checker over the attached proof.
    fn check(&self, k: usize, ob: &Obligation) -> Result<CheckStats, CertError> {
        let (_, cnf) = self.encode(ob.target, &ob.premises);
        if cnf.num_vars != ob.num_vars || cnf.clauses.len() != ob.num_clauses {
            return Err(CertError::CnfMismatch {
                obligation: k,
                detail: format!(
                    "expected {} vars / {} clauses, re-derived {} / {}",
                    ob.num_vars,
                    ob.num_clauses,
                    cnf.num_vars,
                    cnf.clauses.len()
                ),
            });
        }
        let hash = cnf_fingerprint(&cnf);
        if hash != ob.cnf_hash {
            return Err(CertError::CnfMismatch {
                obligation: k,
                detail: format!("hash {:016x} != certified {:016x}", hash, ob.cnf_hash),
            });
        }
        check_refutation(cnf.clauses, &[], &ob.proof).map_err(|error| CertError::ProofRejected {
            obligation: k,
            error,
        })
    }
}

/// The one loop both [`build_certificate`] and [`verify_certificate`] run
/// their per-obligation step through: the stack's shared indexed queue
/// ([`hh_trace::run_indexed`]) with no per-worker state. Results come back
/// in index order and the lowest failing obligation is the error reported,
/// at any worker count and interleaving.
fn run_obligations<T: Send>(
    n: usize,
    workers: usize,
    step: impl Fn(usize) -> Result<T, CertError> + Sync,
) -> Result<Vec<T>, CertError> {
    hh_trace::run_indexed(n, workers, || (), |(), i| step(i))
}

/// Workers the queue runs for `n` obligations when asked for `threads` —
/// what [`CheckReport::threads`] reports.
fn worker_count(threads: usize, n: usize) -> usize {
    threads.clamp(1, n.max(1))
}

/// Builds a certificate for `invariant` on `design` with the instruction
/// alphabet constrained to `patterns`, proving the obligations on `threads`
/// worker threads. The certificate does not depend on `threads`.
///
/// `solutions` supplies per-predicate premise sets (H-Houdini's memo table,
/// via the engines' `solutions()` accessor). Predicates without an entry
/// fall back to the full invariant as premise — always sound, just a larger
/// obligation. Every obligation is (re-)proved here with proof logging on;
/// nothing from the learning run is trusted.
///
/// # Errors
///
/// [`CertError::NotInductive`] if some obligation is SAT (the invariant or
/// the supplied premise sets are wrong; the lowest such predicate index is
/// the one named), [`CertError::Structure`] if the design's property
/// predicates are missing from the invariant, or
/// [`CertError::UnknownDesign`] for non-builtin designs.
pub fn build_certificate(
    design: &Design,
    patterns: &[MaskMatch],
    invariant: &[Predicate],
    solutions: &[(Predicate, Vec<Predicate>)],
    threads: usize,
) -> Result<Certificate, CertError> {
    let _span = hh_trace::span!("proof", "proof.emit");
    if hh_uarch::builtin_by_netlist_name(design.netlist.name()).is_none() {
        return Err(CertError::UnknownDesign(design.netlist.name().to_string()));
    }
    let mut preds: Vec<Predicate> = invariant.to_vec();
    preds.sort();
    preds.dedup();
    let ctx = ObligationContext::new(constrained_miter(design, patterns), preds);
    let (miter, netlist, preds) = (&ctx.miter, ctx.miter.netlist(), &ctx.preds);
    let index: HashMap<&Predicate, usize> = preds.iter().zip(0..).collect();

    let mut properties = Vec::new();
    for &o in &design.observable {
        let prop = Predicate::eq(miter.left(o), miter.right(o));
        match index.get(&prop) {
            Some(&i) => properties.push(i),
            None => {
                return Err(CertError::Structure(format!(
                    "invariant does not contain the property predicate {}",
                    prop.describe(netlist)
                )))
            }
        }
    }

    let memo: HashMap<&Predicate, &Vec<Predicate>> =
        solutions.iter().map(|(p, ab)| (p, ab)).collect();
    // Premise indices per target: the memoised abduct when available
    // (small, cone-scoped obligation), otherwise every *other* predicate.
    let premises: Vec<Vec<usize>> = preds
        .iter()
        .enumerate()
        .map(|(i, target)| {
            let everything_else = || (0..preds.len()).filter(|&j| j != i).collect();
            // A memo premise outside the invariant would be unsound to
            // cite; fall back to the full set.
            let mut premise_idx: Vec<usize> = memo
                .get(target)
                .and_then(|ab| ab.iter().map(|p| index.get(p).copied()).collect())
                .unwrap_or_else(everything_else);
            premise_idx.sort_unstable();
            premise_idx.dedup();
            premise_idx
        })
        .collect();

    let obligations = run_obligations(preds.len(), threads, |i| ctx.prove(i, &premises[i]))?;

    Ok(Certificate {
        design: design.netlist.name().to_string(),
        patterns: patterns.to_vec(),
        predicates: preds.iter().map(|p| p.to_wire(netlist)).collect(),
        properties,
        obligations,
    })
}

/// Verifies a certificate end to end: re-derives the design and every
/// obligation CNF, checks structure, shapes, and all DRAT proofs.
///
/// Obligations are independent, so they are checked on
/// [`std::thread::available_parallelism`] worker threads; what is checked —
/// every CNF re-derived and compared, every added clause RUP-checked —
/// and which failure is reported (the lowest-numbered failing obligation)
/// are the same at every thread count.
pub fn verify_certificate(cert: &Certificate) -> Result<CheckReport, CertError> {
    let _span = hh_trace::span!("proof", "proof.verify");
    let design = hh_uarch::builtin_by_netlist_name(&cert.design)
        .ok_or_else(|| CertError::UnknownDesign(cert.design.clone()))?;
    let miter = constrained_miter(&design, &cert.patterns);
    let netlist = miter.netlist();

    let mut preds = Vec::with_capacity(cert.predicates.len());
    for (i, wire) in cert.predicates.iter().enumerate() {
        let p = Predicate::from_wire(wire, netlist)
            .map_err(|e| CertError::Parse(format!("predicate {i}: {e}")))?;
        preds.push(p);
    }
    let n = preds.len();
    if n == 0 {
        return Err(CertError::Structure("empty predicate set".into()));
    }
    // Canonical order: sorted and duplicate-free. This makes the predicate
    // list itself tamper-evident (no hidden reordering games) and is what
    // the emitter produces.
    if !preds.windows(2).all(|w| w[0] < w[1]) {
        return Err(CertError::Structure(
            "predicate list is not strictly sorted".into(),
        ));
    }

    // The properties must be exactly the design's observable equalities —
    // a certificate for the wrong property is worthless.
    let mut expected: Vec<usize> = Vec::new();
    for &o in &design.observable {
        let prop = Predicate::eq(miter.left(o), miter.right(o));
        match preds.binary_search(&prop) {
            Ok(i) => expected.push(i),
            Err(_) => {
                return Err(CertError::Structure(format!(
                    "predicate set lacks the property {}",
                    prop.describe(netlist)
                )))
            }
        }
    }
    let mut claimed = cert.properties.clone();
    claimed.sort_unstable();
    expected.sort_unstable();
    if claimed != expected {
        return Err(CertError::Structure(
            "property indices do not match the design's observables".into(),
        ));
    }

    // Every predicate must be discharged exactly once.
    let mut covered = vec![false; n];
    for ob in &cert.obligations {
        if ob.target >= n {
            return Err(CertError::Structure(format!(
                "obligation target {} out of range",
                ob.target
            )));
        }
        if covered[ob.target] {
            return Err(CertError::Structure(format!(
                "predicate {} discharged twice",
                ob.target
            )));
        }
        covered[ob.target] = true;
        if !ob.premises.windows(2).all(|w| w[0] < w[1]) {
            return Err(CertError::Structure(format!(
                "obligation {} premises not strictly sorted",
                ob.target
            )));
        }
        if ob.premises.iter().any(|&j| j >= n) {
            return Err(CertError::Structure(format!(
                "obligation {} cites an out-of-range premise",
                ob.target
            )));
        }
    }
    if let Some(missing) = covered.iter().position(|&c| !c) {
        return Err(CertError::Structure(format!(
            "predicate {missing} has no obligation"
        )));
    }

    let ctx = ObligationContext::new(miter, preds);
    let threads = worker_count(
        std::thread::available_parallelism().map_or(1, |t| t.get()),
        cert.obligations.len(),
    );
    let checked = run_obligations(cert.obligations.len(), threads, |k| {
        ctx.check(k, &cert.obligations[k])
    })?;
    let mut report = CheckReport {
        obligations: cert.obligations.len(),
        predicates: n,
        stats: CheckStats::default(),
        threads,
    };
    for stats in checked {
        report.stats.lines += stats.lines;
        report.stats.adds += stats.adds;
    }
    Ok(report)
}

const MANIFEST: &str = "MANIFEST";

fn proof_file_name(i: usize) -> String {
    format!("obligation-{i:03}.drat")
}

/// Writes a certificate bundle: `MANIFEST` plus one binary-DRAT file per
/// obligation.
///
/// # Errors
///
/// [`CertError::Io`] on filesystem failure.
pub fn write_bundle(cert: &Certificate, dir: &Path) -> Result<EmitSummary, CertError> {
    let io = |e: std::io::Error| CertError::Io(e.to_string());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut summary = EmitSummary {
        obligations: cert.obligations.len(),
        ..EmitSummary::default()
    };
    let mut m = String::new();
    let _ = writeln!(m, "hh-certificate v1");
    let _ = writeln!(m, "design {}", cert.design);
    let _ = writeln!(m, "patterns {}", cert.patterns.len());
    for p in &cert.patterns {
        let _ = writeln!(m, "pattern {:x} {:x}", p.mask, p.matches);
    }
    let _ = writeln!(m, "predicates {}", cert.predicates.len());
    for p in &cert.predicates {
        let _ = writeln!(m, "pred {p}");
    }
    let props: Vec<String> = cert.properties.iter().map(|i| i.to_string()).collect();
    let _ = writeln!(
        m,
        "properties {} {}",
        cert.properties.len(),
        props.join(" ")
    );
    let _ = writeln!(m, "obligations {}", cert.obligations.len());
    for (i, ob) in cert.obligations.iter().enumerate() {
        let prem: Vec<String> = ob.premises.iter().map(|j| j.to_string()).collect();
        let _ = writeln!(
            m,
            "obligation {} {} {} vars {} clauses {} hash {:016x} proof {}",
            ob.target,
            ob.premises.len(),
            prem.join(" "),
            ob.num_vars,
            ob.num_clauses,
            ob.cnf_hash,
            proof_file_name(i)
        );
        let bin = drat::to_binary(&ob.proof);
        summary.proof_bytes += bin.len() as u64;
        summary.proof_lines += ob.proof.len();
        std::fs::write(dir.join(proof_file_name(i)), bin).map_err(io)?;
    }
    std::fs::write(dir.join(MANIFEST), &m).map_err(io)?;
    if hh_trace::enabled() {
        hh_trace::counter!("proof", "proof.bytes", summary.proof_bytes);
    }
    Ok(summary)
}

/// Reads a certificate bundle from disk.
///
/// # Errors
///
/// [`CertError::Io`] on filesystem failure, [`CertError::Parse`] on a
/// malformed MANIFEST or proof file.
pub fn read_bundle(dir: &Path) -> Result<Certificate, CertError> {
    let io = |e: std::io::Error| CertError::Io(e.to_string());
    let parse = |msg: String| CertError::Parse(msg);
    let text = std::fs::read_to_string(dir.join(MANIFEST)).map_err(io)?;
    let mut lines = text.lines().enumerate();
    let mut next = || {
        lines
            .next()
            .map(|(i, l)| (i + 1, l))
            .ok_or_else(|| parse("unexpected end of MANIFEST".into()))
    };

    let (_, header) = next()?;
    if header != "hh-certificate v1" {
        return Err(parse(format!("bad header {header:?}")));
    }
    let (ln, design_line) = next()?;
    let design = design_line
        .strip_prefix("design ")
        .ok_or_else(|| parse(format!("line {ln}: expected design")))?
        .to_string();

    let (ln, pat_hdr) = next()?;
    let npat: usize = pat_hdr
        .strip_prefix("patterns ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse(format!("line {ln}: expected patterns <n>")))?;
    let mut patterns = Vec::with_capacity(npat.min(4096));
    for _ in 0..npat {
        let (ln, l) = next()?;
        let body = l
            .strip_prefix("pattern ")
            .ok_or_else(|| parse(format!("line {ln}: expected pattern")))?;
        let (mask, matches) = body
            .split_once(' ')
            .ok_or_else(|| parse(format!("line {ln}: bad pattern")))?;
        let mask = u32::from_str_radix(mask, 16)
            .map_err(|e| parse(format!("line {ln}: bad mask: {e}")))?;
        let matches = u32::from_str_radix(matches, 16)
            .map_err(|e| parse(format!("line {ln}: bad match: {e}")))?;
        patterns.push(MaskMatch { mask, matches });
    }

    let (ln, pred_hdr) = next()?;
    let npred: usize = pred_hdr
        .strip_prefix("predicates ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse(format!("line {ln}: expected predicates <n>")))?;
    let mut predicates = Vec::with_capacity(npred.min(65536));
    for _ in 0..npred {
        let (ln, l) = next()?;
        let p = l
            .strip_prefix("pred ")
            .ok_or_else(|| parse(format!("line {ln}: expected pred")))?;
        predicates.push(p.to_string());
    }

    let (ln, prop_line) = next()?;
    let mut toks = prop_line
        .strip_prefix("properties ")
        .ok_or_else(|| parse(format!("line {ln}: expected properties")))?
        .split_whitespace();
    let nprops: usize = toks
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse(format!("line {ln}: bad property count")))?;
    let properties: Vec<usize> = toks
        .map(|s| s.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| parse(format!("line {ln}: bad property index: {e}")))?;
    if properties.len() != nprops {
        return Err(parse(format!("line {ln}: property count mismatch")));
    }

    let (ln, ob_hdr) = next()?;
    let nobs: usize = ob_hdr
        .strip_prefix("obligations ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse(format!("line {ln}: expected obligations <n>")))?;
    let mut obligations = Vec::with_capacity(nobs.min(65536));
    for _ in 0..nobs {
        let (ln, l) = next()?;
        let body = l
            .strip_prefix("obligation ")
            .ok_or_else(|| parse(format!("line {ln}: expected obligation")))?;
        let toks: Vec<&str> = body.split_whitespace().collect();
        let bad = || parse(format!("line {ln}: malformed obligation"));
        let target: usize = toks.first().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let k: usize = toks.get(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        // `<target> <k>`, k premises, then eight fixed tokens. `k` is
        // hostile input: compare without adding to it.
        if toks.len().checked_sub(10) != Some(k) {
            return Err(bad());
        }
        let (premises, rest) = toks[2..].split_at(k);
        let premises: Vec<usize> = premises
            .iter()
            .map(|s| s.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad())?;
        let &["vars", num_vars, "clauses", num_clauses, "hash", cnf_hash, "proof", file] = rest
        else {
            return Err(bad());
        };
        let num_vars: usize = num_vars.parse().map_err(|_| bad())?;
        let num_clauses: usize = num_clauses.parse().map_err(|_| bad())?;
        let cnf_hash = u64::from_str_radix(cnf_hash, 16).map_err(|_| bad())?;
        if file.contains(['/', '\\']) || file.contains("..") {
            return Err(parse(format!("line {ln}: unsafe proof path {file:?}")));
        }
        let bytes = std::fs::read(dir.join(file)).map_err(io)?;
        let proof = drat::parse_binary(&bytes)
            .map_err(|e| parse(format!("{file}: bad binary DRAT: {e}")))?;
        obligations.push(Obligation {
            target,
            premises,
            num_vars,
            num_clauses,
            cnf_hash,
            proof,
        });
    }

    Ok(Certificate {
        design,
        patterns,
        predicates,
        properties,
        obligations,
    })
}

/// Reads and fully verifies a bundle — the one-call form the `certify`
/// binary and CI use.
///
/// # Errors
///
/// Any [`CertError`]; a bundle is only trustworthy when this returns `Ok`.
pub fn check_bundle(dir: &Path) -> Result<CheckReport, CertError> {
    let cert = read_bundle(dir)?;
    verify_certificate(&cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_netlist::{Bv, Netlist};

    #[test]
    fn fnv_is_stable() {
        // Reference values pin the hash function; changing it invalidates
        // every existing certificate.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn obligation_encoding_is_deterministic_and_matches_the_one_shot_form() {
        let mut base = Netlist::new("t");
        let r = base.state("r", 4, Bv::zero(4));
        base.keep_state(r);
        let m = hh_netlist::miter::Miter::build(&base);
        let target = Predicate::eq(m.left(r), m.right(r));
        // The same obligation through `TransitionEncoding::new`, which
        // builds its own simplification map.
        let one_shot = {
            let mut enc = TransitionEncoding::new(m.netlist());
            let now = target.encode_current(&mut enc);
            enc.assert_lit(now);
            let next = target.encode_next(&mut enc);
            enc.assert_lit(!next);
            dimacs::from_solver(enc.cnf_mut().solver_mut())
        };
        let ctx = ObligationContext::new(m, vec![target]);
        let (_, first) = ctx.encode(0, &[]);
        let (_, second) = ctx.encode(0, &[]);
        assert_eq!(first, second);
        assert_eq!(first, one_shot);
    }

    #[test]
    fn streamed_fingerprint_is_the_hash_of_the_dimacs_text() {
        let v = |i: usize, pos: bool| hh_sat::Var::from_index(i).lit(pos);
        let cnfs = [
            Cnf {
                num_vars: 0,
                clauses: vec![],
            },
            Cnf {
                num_vars: 3,
                clauses: vec![vec![]],
            },
            Cnf {
                num_vars: 1200,
                clauses: vec![
                    vec![v(0, true), v(1199, false)],
                    vec![v(7, false)],
                    vec![v(99, true), v(100, true), v(101, false)],
                ],
            },
        ];
        for cnf in &cnfs {
            assert_eq!(
                cnf_fingerprint(cnf),
                fnv1a(dimacs::to_dimacs(cnf).as_bytes())
            );
        }
    }

    #[test]
    fn obligation_queue_keeps_index_order_and_reports_the_lowest_failure() {
        // The queue itself is tested where it lives (`hh_trace::run_indexed`);
        // this pins what the wrapper promises about `CertError`s.
        for workers in [1, 2, 4] {
            let out = run_obligations(37, workers, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
            let result = run_obligations(58, workers, |i| match i {
                3 | 41 => Err(CertError::NotInductive { target: i }),
                _ => Ok(i),
            });
            assert!(
                matches!(result, Err(CertError::NotInductive { target: 3 })),
                "workers={workers}: {result:?}"
            );
        }
        assert_eq!(worker_count(0, 37), 1);
        assert_eq!(worker_count(100, 37), 37);
        assert_eq!(worker_count(4, 0), 1);
    }

    #[test]
    fn manifest_roundtrip_and_tamper_detection() {
        let dir = std::env::temp_dir().join(format!("hh-cert-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cert = Certificate {
            design: "rocketlite_x16".into(),
            patterns: vec![MaskMatch {
                mask: 0xffff_ffff,
                matches: 0x13,
            }],
            predicates: vec!["eq l$a r$a".into(), "eq l$b r$b".into()],
            properties: vec![0],
            obligations: vec![
                Obligation {
                    target: 0,
                    premises: vec![1],
                    num_vars: 10,
                    num_clauses: 20,
                    cnf_hash: 0xdead_beef,
                    proof: vec![vec![Lit::from_code(0)], vec![]],
                },
                Obligation {
                    target: 1,
                    premises: vec![],
                    num_vars: 5,
                    num_clauses: 6,
                    cnf_hash: 1,
                    proof: vec![vec![]],
                },
            ],
        };
        let summary = write_bundle(&cert, &dir).unwrap();
        assert_eq!(summary.obligations, 2);
        assert!(summary.proof_bytes > 0);
        let back = read_bundle(&dir).unwrap();
        assert_eq!(back.design, cert.design);
        assert_eq!(back.patterns, cert.patterns);
        assert_eq!(back.predicates, cert.predicates);
        assert_eq!(back.properties, cert.properties);
        assert_eq!(back.obligations.len(), 2);
        assert_eq!(back.obligations[0].premises, vec![1]);
        assert_eq!(back.obligations[0].cnf_hash, 0xdead_beef);
        assert_eq!(back.obligations[0].proof, cert.obligations[0].proof);

        // Tampering with the manifest must be detected at parse or verify.
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let bad = manifest.replace("hash 00000000deadbeef", "hash 00000000deadbeee");
        assert_ne!(manifest, bad);
        std::fs::write(dir.join(MANIFEST), &bad).unwrap();
        let tampered = read_bundle(&dir).unwrap();
        assert_ne!(tampered.obligations[0].cnf_hash, 0xdead_beef);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_path_traversal() {
        let dir = std::env::temp_dir().join(format!("hh-cert-trav-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = "hh-certificate v1\n\
                        design rocketlite_x16\n\
                        patterns 0\n\
                        predicates 0\n\
                        properties 0 \n\
                        obligations 1\n\
                        obligation 0 0 vars 1 clauses 1 hash 0 proof ../../etc/passwd\n";
        std::fs::write(dir.join(MANIFEST), manifest).unwrap();
        assert!(matches!(read_bundle(&dir), Err(CertError::Parse(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_with_an_overflowing_premise_count_is_a_parse_error() {
        let dir = std::env::temp_dir().join(format!("hh-cert-premise-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for obligation in [
            "obligation 0 18446744073709551615 vars 1 clauses 1 hash 0 proof",
            "obligation 0 18446744073709551607 vars 1 clauses 1 hash 0 proof x.drat",
            "obligation 0 3 1 2 vars 1 clauses 1 hash 0 proof x.drat",
            "obligation 0 0 vars 1 clauses 1 hash 0 evidence x.drat",
            "obligation 0",
        ] {
            let manifest = format!(
                "hh-certificate v1\ndesign rocketlite_x16\npatterns 0\npredicates 0\n\
                 properties 0 \nobligations 1\n{obligation}\n"
            );
            std::fs::write(dir.join(MANIFEST), manifest).unwrap();
            match check_bundle(&dir) {
                Err(CertError::Parse(msg)) => assert!(msg.contains("line 7"), "{msg}"),
                other => panic!("{obligation:?}: expected a parse error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
