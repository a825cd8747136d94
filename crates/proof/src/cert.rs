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
//!   [`Predicate::to_wire`], and a **candidate table** of the other
//!   predicates the obligations' queries registered,
//! * one **obligation** per predicate: the abduction query that proved it —
//!   its target, its candidates in registration order and its premises
//!   (the abduct, a subset of the invariant) — with the shape (variable and
//!   clause counts, fingerprint) of the query's session CNF and that
//!   query's own binary-DRAT refutation under the premises' indicators.
//!
//! The proofs come from the learn: a certified engine run logs each query
//! ([`hh_smt::SessionLog`]) and [`build_certificate`] writes the log of
//! every memo entry whose abduct is the entry's premises. Any other entry
//! (a seeded or restored table, a missing memo entry) is proved here by the
//! same session over its premises, so there is one obligation form and one
//! checker path.
//!
//! Checking re-derives each session CNF from the netlist through
//! [`AbductionSession::encode`] (the encoding is deterministic), confirms
//! the shape matches what the proof was logged against, and runs the
//! independent RUP checker of [`crate::check`] with the premises'
//! indicators assumed. Each candidate clause `¬a ∨ c` is satisfied by
//! `a = false` and Tseitin variables are definitional, so "session CNF ∧
//! premise indicators ⊢ ⊥" is "⋀premises ∧ target ∧ ¬target′ is UNSAT".
//! Structural closure — premises drawn from the predicate set, every
//! predicate discharged exactly once, the design's observable properties
//! present — is verified on top, so the checked statement really is "this
//! predicate set is a 1-step inductive relational invariant of this design
//! containing the timing-equality properties".
//!
//! Initiation (the invariant holding on paired reset states) is *not* part
//! of the certificate, mirroring `Invariant::verify_monolithic`, which also
//! certifies consecution only.
//!
//! On disk a certificate is a directory: a `MANIFEST` text file plus one
//! `obligation-NNN.drat` (binary DRAT) per obligation. See
//! `docs/PROOF_FORMAT.md` for the grammar.

use crate::check::{check_refutation, CheckStats};
use crate::drat;
use hh_isa::MaskMatch;
use hh_netlist::miter::Miter;
use hh_netlist::simp::SimpMap;
use hh_sat::dimacs::{Fnv1a, ShapeHasher};
use hh_sat::Lit;
use hh_smt::{AbductionConfig, AbductionSession, LoggedSolution, Predicate};
use hh_uarch::decode::constrained_miter;
use hh_uarch::Design;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One discharged relative-induction obligation: an abduction query and its
/// refutation.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Index of the target predicate in the certificate's predicate list.
    pub target: usize,
    /// The query's candidates in registration order, duplicate-free:
    /// indices into the certificate's predicates followed by its candidate
    /// table (index `predicates.len() + j` is candidate `j`).
    pub candidates: Vec<usize>,
    /// Indices of the premise predicates (strictly ascending), each among
    /// `candidates`: the indicators the proof assumes.
    pub premises: Vec<usize>,
    /// Variable count of the session CNF the proof refutes.
    pub num_vars: usize,
    /// Clause count of the session CNF.
    pub num_clauses: usize,
    /// Fingerprint of the session CNF ([`hh_sat::dimacs::CnfShape::hash`]).
    pub cnf_hash: u64,
    /// The refutation in binary DRAT, as logged.
    pub proof: Vec<u8>,
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
    /// Candidates registered by some obligation's query that are not
    /// predicates, in wire format, sorted.
    pub candidates: Vec<String>,
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
    /// A re-derived session CNF does not match the certified shape — the
    /// proof was logged against a different formula.
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

/// FNV-1a over a byte string ([`hh_sat::dimacs::Fnv1a`], the hash session
/// CNFs are fingerprinted with).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// What every obligation of one bundle is built from, built once per
/// bundle: the safe-set-constrained miter, its word-level simplification
/// map (a pass over the whole netlist, built on first use) and the table
/// the obligations index into — the predicates, then the candidates. The
/// emitter and the checker each build their own from the design reference
/// and hand it to their workers by shared reference.
struct SessionContext {
    miter: Miter,
    simp: OnceLock<Arc<SimpMap>>,
    table: Vec<Predicate>,
}

impl SessionContext {
    fn new(miter: Miter, table: Vec<Predicate>) -> SessionContext {
        SessionContext {
            miter,
            simp: OnceLock::new(),
            table,
        }
    }

    /// The abduction session of `target`, blasting fresh over the shared
    /// simplification map: the session a cold learn runs (a resident job's
    /// replay is byte-identical to it).
    fn session(&self, target: usize) -> AbductionSession<'_> {
        let netlist = self.miter.netlist();
        let simp = self.simp.get_or_init(|| Arc::new(SimpMap::build(netlist)));
        AbductionSession::with_simp(
            netlist,
            self.table[target].clone(),
            AbductionConfig::default(),
            Arc::clone(simp),
        )
    }

    /// The obligation of a memo entry without a logged proof: the session
    /// the learn runs, asked with the premises as its candidates and its
    /// proof logged. An UNSAT answer's wrapper assumes a subset of them.
    fn log(&self, target: usize, premises: Vec<usize>) -> Result<Obligation, CertError> {
        let _span = hh_trace::span!("proof", "proof.log");
        let cands: Vec<&Predicate> = premises.iter().map(|&j| &self.table[j]).collect();
        let answer = self.session(target).log_proofs(true).solve(&cands);
        let log = answer.log.ok_or(CertError::NotInductive { target })?;
        Ok(Obligation {
            target,
            candidates: premises.clone(),
            premises,
            num_vars: log.shape.num_vars,
            num_clauses: log.shape.num_clauses,
            cnf_hash: log.shape.hash,
            proof: log.drat,
        })
    }

    /// Checks obligation number `k` of a bundle whose structure has been
    /// verified: re-derives its session CNF, compares it with the certified
    /// shape and runs the independent checker over the attached proof with
    /// the premises' indicators assumed.
    fn check(&self, k: usize, ob: &Obligation) -> Result<CheckStats, CertError> {
        let cands: Vec<&Predicate> = ob.candidates.iter().map(|&j| &self.table[j]).collect();
        let session = self.session(ob.target);
        let cnf = session.encode(&cands);
        let solver = cnf.enc.cnf().solver();
        let mut shape = ShapeHasher::default();
        let mut formula = Vec::new();
        solver.visit_formula_clauses(|c| {
            shape.clause(c);
            formula.push(c.to_vec());
        });
        let shape = shape.finish(solver.num_vars());
        if shape.num_vars != ob.num_vars || shape.num_clauses != ob.num_clauses {
            return Err(CertError::CnfMismatch {
                obligation: k,
                detail: format!(
                    "expected {} vars / {} clauses, re-derived {} / {}",
                    ob.num_vars, ob.num_clauses, shape.num_vars, shape.num_clauses
                ),
            });
        }
        if shape.hash != ob.cnf_hash {
            return Err(CertError::CnfMismatch {
                obligation: k,
                detail: format!("hash {:016x} != certified {:016x}", shape.hash, ob.cnf_hash),
            });
        }
        // Candidates are distinct table entries, so slot `i` of the list is
        // the session's `i`-th indicator.
        let slot: HashMap<usize, usize> = ob
            .candidates
            .iter()
            .zip(0..)
            .map(|(&c, i)| (c, i))
            .collect();
        let assumptions: Vec<Lit> = (ob.premises.iter())
            .map(|p| cnf.indicators[slot[p]])
            .collect();
        drop(cnf);
        let proof = drat::parse_binary(&ob.proof)
            .map_err(|e| CertError::Parse(format!("obligation {k}: bad binary DRAT: {e}")))?;
        check_refutation(formula, &assumptions, &proof).map_err(|error| CertError::ProofRejected {
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
/// alphabet constrained to `patterns`. The certificate does not depend on
/// `threads`.
///
/// `solutions` supplies per-predicate premise sets (H-Houdini's memo table,
/// via the engines' `solutions()` accessor). Predicates without an entry
/// fall back to the full invariant as premise — always sound, just a larger
/// obligation. `logged` holds the proofs the learn's queries logged: an
/// entry whose abduct is its target's premises becomes that target's
/// obligation, its proof moved in as it stands. Every other obligation is
/// proved here, on `threads` workers, by the same session over its
/// premises. Nothing is trusted: the checker re-derives every formula and
/// checks every proof.
///
/// # Errors
///
/// [`CertError::NotInductive`] if some obligation proved here is SAT (the
/// invariant or the supplied premise sets are wrong; the lowest such
/// predicate index is the one named), [`CertError::Structure`] if the
/// design's property predicates are missing from the invariant, or
/// [`CertError::UnknownDesign`] for non-builtin designs.
pub fn build_certificate(
    design: &Design,
    patterns: &[MaskMatch],
    invariant: &[Predicate],
    solutions: &[(Predicate, Vec<Predicate>)],
    logged: Vec<LoggedSolution>,
    threads: usize,
) -> Result<Certificate, CertError> {
    let _span = hh_trace::span!("proof", "proof.emit");
    if hh_uarch::builtin_by_netlist_name(design.netlist.name()).is_none() {
        return Err(CertError::UnknownDesign(design.netlist.name().to_string()));
    }
    let mut preds: Vec<Predicate> = invariant.to_vec();
    preds.sort();
    preds.dedup();
    let n = preds.len();
    let miter = constrained_miter(design, patterns);
    let index: HashMap<&Predicate, usize> = preds.iter().zip(0..).collect();

    let mut properties = Vec::new();
    for &o in &design.observable {
        let prop = Predicate::eq(miter.left(o), miter.right(o));
        match index.get(&prop) {
            Some(&i) => properties.push(i),
            None => {
                return Err(CertError::Structure(format!(
                    "invariant does not contain the property predicate {}",
                    prop.describe(miter.netlist())
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
            let everything_else = || (0..n).filter(|&j| j != i).collect();
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
    // The learn's proof of a target, when its abduct is exactly the
    // target's premises.
    let mut by_target: HashMap<Arc<Predicate>, LoggedSolution> = (logged.into_iter())
        .map(|l| (Arc::clone(&l.target), l))
        .collect();
    let proofs: Vec<Option<LoggedSolution>> = preds
        .iter()
        .zip(&premises)
        .map(|(target, premises)| {
            let entry = by_target.remove(target)?;
            let abduct: Option<Vec<usize>> = entry
                .abduct
                .iter()
                .map(|p| index.get(&**p).copied())
                .collect();
            let mut abduct = abduct?;
            abduct.sort_unstable();
            abduct.dedup();
            (abduct == *premises).then_some(entry)
        })
        .collect();
    drop((index, by_target));

    // The candidate table: what those queries registered outside the
    // invariant.
    let mut extra: Vec<&Predicate> = (proofs.iter().flatten())
        .flat_map(|entry| entry.candidates.iter().map(|c| &**c))
        .filter(|c| preds.binary_search(c).is_err())
        .collect();
    extra.sort();
    extra.dedup();
    let extra: Vec<Predicate> = extra.into_iter().cloned().collect();
    let mut table = preds;
    table.extend(extra);
    let ctx = SessionContext::new(miter, table);
    let slot: HashMap<&Predicate, usize> = ctx.table.iter().zip(0..).collect();

    let mut obligations: Vec<Option<Obligation>> = (proofs.into_iter().zip(&premises))
        .enumerate()
        .map(|(i, (entry, premises))| {
            let entry = entry?;
            Some(Obligation {
                target: i,
                candidates: entry.candidates.iter().map(|c| slot[&**c]).collect(),
                premises: premises.clone(),
                num_vars: entry.log.shape.num_vars,
                num_clauses: entry.log.shape.num_clauses,
                cnf_hash: entry.log.shape.hash,
                proof: entry.log.drat,
            })
        })
        .collect();
    // In ascending order, so the lowest failing target is the one named.
    let unlogged: Vec<usize> = (0..n).filter(|&i| obligations[i].is_none()).collect();
    let proved = run_obligations(unlogged.len(), threads, |k| {
        ctx.log(unlogged[k], premises[unlogged[k]].clone())
    })?;
    for (i, obligation) in unlogged.into_iter().zip(proved) {
        obligations[i] = Some(obligation);
    }
    let obligations: Vec<Obligation> = obligations.into_iter().flatten().collect();
    if hh_trace::enabled() {
        hh_trace::counter!("proof", "proof.obligations", obligations.len());
    }

    let netlist = ctx.miter.netlist();
    let wire = |p: &Predicate| p.to_wire(netlist);
    Ok(Certificate {
        design: design.netlist.name().to_string(),
        patterns: patterns.to_vec(),
        predicates: ctx.table[..n].iter().map(wire).collect(),
        candidates: ctx.table[n..].iter().map(wire).collect(),
        properties,
        obligations,
    })
}

/// Parses a sorted, duplicate-free wire-format predicate list against
/// `netlist`; `what` names the list in errors.
fn parse_sorted(
    wires: &[String],
    netlist: &hh_netlist::Netlist,
    what: &str,
) -> Result<Vec<Predicate>, CertError> {
    let mut out = Vec::with_capacity(wires.len());
    for (i, wire) in wires.iter().enumerate() {
        let p = Predicate::from_wire(wire, netlist)
            .map_err(|e| CertError::Parse(format!("{what} {i}: {e}")))?;
        out.push(p);
    }
    // Canonical order: sorted and duplicate-free. This makes the list
    // itself tamper-evident (no hidden reordering games) and is what the
    // emitter produces.
    if !out.windows(2).all(|w| w[0] < w[1]) {
        return Err(CertError::Structure(format!(
            "{what} list is not strictly sorted"
        )));
    }
    Ok(out)
}

/// Verifies a certificate end to end: re-derives the design and every
/// obligation's session CNF, checks structure, shapes, and all DRAT proofs.
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

    let preds = parse_sorted(&cert.predicates, netlist, "predicate")?;
    let n = preds.len();
    if n == 0 {
        return Err(CertError::Structure("empty predicate set".into()));
    }
    let cands = parse_sorted(&cert.candidates, netlist, "candidate")?;
    if let Some(c) = cands.iter().position(|c| preds.binary_search(c).is_ok()) {
        return Err(CertError::Structure(format!(
            "candidate {c} is also a predicate"
        )));
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

    // Every predicate must be discharged exactly once, by a query whose
    // candidates are distinct table entries and whose premises are
    // predicates among them.
    let table_len = n + cands.len();
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
        let mut seen = HashSet::with_capacity(ob.candidates.len());
        if !ob
            .candidates
            .iter()
            .all(|&c| c < table_len && seen.insert(c))
        {
            return Err(CertError::Structure(format!(
                "obligation {} lists an out-of-range or repeated candidate",
                ob.target
            )));
        }
        if !ob.premises.windows(2).all(|w| w[0] < w[1]) {
            return Err(CertError::Structure(format!(
                "obligation {} premises not strictly sorted",
                ob.target
            )));
        }
        if ob.premises.iter().any(|&j| j >= n || !seen.contains(&j)) {
            return Err(CertError::Structure(format!(
                "obligation {} cites a premise that is not one of its candidate predicates",
                ob.target
            )));
        }
    }
    if let Some(missing) = covered.iter().position(|&c| !c) {
        return Err(CertError::Structure(format!(
            "predicate {missing} has no obligation"
        )));
    }

    let mut table = preds;
    table.extend(cands);
    let ctx = SessionContext::new(miter, table);
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

/// The first line of a MANIFEST of this format.
const HEADER: &str = "hh-certificate v3";

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
    let _ = writeln!(m, "{HEADER}");
    let _ = writeln!(m, "design {}", cert.design);
    let _ = writeln!(m, "patterns {}", cert.patterns.len());
    for p in &cert.patterns {
        let _ = writeln!(m, "pattern {:x} {:x}", p.mask, p.matches);
    }
    let _ = writeln!(m, "predicates {}", cert.predicates.len());
    for p in &cert.predicates {
        let _ = writeln!(m, "pred {p}");
    }
    let _ = writeln!(m, "candidates {}", cert.candidates.len());
    for c in &cert.candidates {
        let _ = writeln!(m, "cand {c}");
    }
    let _ = write!(m, "properties {}", cert.properties.len());
    for i in &cert.properties {
        let _ = write!(m, " {i}");
    }
    let _ = writeln!(m, "\nobligations {}", cert.obligations.len());
    for (i, ob) in cert.obligations.iter().enumerate() {
        let _ = write!(
            m,
            "obligation {} candidates {}",
            ob.target,
            ob.candidates.len()
        );
        for c in &ob.candidates {
            let _ = write!(m, " {c}");
        }
        let _ = write!(m, " premises {}", ob.premises.len());
        for p in &ob.premises {
            let _ = write!(m, " {p}");
        }
        let _ = writeln!(
            m,
            " vars {} clauses {} hash {:016x} proof {}",
            ob.num_vars,
            ob.num_clauses,
            ob.cnf_hash,
            proof_file_name(i)
        );
        summary.proof_bytes += ob.proof.len() as u64;
        // Every step ends in the one 0x00 byte it holds.
        summary.proof_lines += ob.proof.iter().filter(|&&b| b == 0).count();
        std::fs::write(dir.join(proof_file_name(i)), &ob.proof).map_err(io)?;
    }
    std::fs::write(dir.join(MANIFEST), &m).map_err(io)?;
    if hh_trace::enabled() {
        hh_trace::counter!("proof", "proof.bytes", summary.proof_bytes);
    }
    Ok(summary)
}

/// Reads `<keyword> <k>` and then exactly `k` indices from `toks`. `k` is
/// hostile input: it sizes nothing, and the read stops at the first token
/// that is missing or not an index.
fn index_list<'t>(toks: &mut impl Iterator<Item = &'t str>, keyword: &str) -> Option<Vec<usize>> {
    if toks.next()? != keyword {
        return None;
    }
    let k: usize = toks.next()?.parse().ok()?;
    let mut out = Vec::new();
    for _ in 0..k {
        out.push(toks.next()?.parse().ok()?);
    }
    Some(out)
}

/// Reads a certificate bundle from disk. The whole MANIFEST is parsed and
/// its proof file names checked — plain names, none named twice, no more
/// obligations than predicates — before any proof file is opened, so a
/// bundle cannot make the reader load one file more than once. Proofs are
/// read as bytes and parsed by the checker, one obligation per worker at a
/// time.
///
/// # Errors
///
/// [`CertError::Io`] on filesystem failure, [`CertError::Parse`] on a
/// malformed MANIFEST.
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
    if header != HEADER {
        return Err(parse(format!("bad header {header:?}, expected {HEADER:?}")));
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

    let mut wire_list = |keyword: &str, tag: &str| -> Result<Vec<String>, CertError> {
        let (ln, hdr) = next()?;
        let count: usize = hdr
            .strip_prefix(keyword)
            .and_then(|s| s.strip_prefix(' '))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse(format!("line {ln}: expected {keyword} <n>")))?;
        let mut out = Vec::with_capacity(count.min(65536));
        for _ in 0..count {
            let (ln, l) = next()?;
            let p = l
                .strip_prefix(tag)
                .and_then(|s| s.strip_prefix(' '))
                .ok_or_else(|| parse(format!("line {ln}: expected {tag}")))?;
            out.push(p.to_string());
        }
        Ok(out)
    };
    let predicates = wire_list("predicates", "pred")?;
    let candidates = wire_list("candidates", "cand")?;

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
    if nobs > predicates.len() {
        return Err(parse(format!(
            "line {ln}: {nobs} obligations for {} predicates",
            predicates.len()
        )));
    }
    let mut obligations = Vec::with_capacity(nobs);
    let mut files: Vec<&str> = Vec::with_capacity(nobs);
    let mut named: HashSet<&str> = HashSet::with_capacity(nobs);
    for _ in 0..nobs {
        let (ln, l) = next()?;
        let body = l
            .strip_prefix("obligation ")
            .ok_or_else(|| parse(format!("line {ln}: expected obligation")))?;
        let bad = || parse(format!("line {ln}: malformed obligation"));
        let mut toks = body.split_whitespace();
        let target: usize = toks.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let candidates = index_list(&mut toks, "candidates").ok_or_else(bad)?;
        let premises = index_list(&mut toks, "premises").ok_or_else(bad)?;
        let rest: Vec<&str> = toks.collect();
        let &["vars", num_vars, "clauses", num_clauses, "hash", cnf_hash, "proof", file] =
            &rest[..]
        else {
            return Err(bad());
        };
        let num_vars: usize = num_vars.parse().map_err(|_| bad())?;
        let num_clauses: usize = num_clauses.parse().map_err(|_| bad())?;
        let cnf_hash = u64::from_str_radix(cnf_hash, 16).map_err(|_| bad())?;
        if file.contains(['/', '\\']) || file.contains("..") {
            return Err(parse(format!("line {ln}: unsafe proof path {file:?}")));
        }
        if !named.insert(file) {
            return Err(parse(format!(
                "line {ln}: proof file {file:?} is named twice"
            )));
        }
        files.push(file);
        obligations.push(Obligation {
            target,
            candidates,
            premises,
            num_vars,
            num_clauses,
            cnf_hash,
            proof: Vec::new(),
        });
    }
    for (ob, file) in obligations.iter_mut().zip(files) {
        ob.proof = std::fs::read(dir.join(file)).map_err(io)?;
    }

    Ok(Certificate {
        design,
        patterns,
        predicates,
        candidates,
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

    /// The paper's AND-gate, `A <= B & C` with `B`, `C` and an unrelated
    /// `D` holding, as a builtin-free context: the target `Eq(A)`, then the
    /// candidates `Eq(C)`, `Eq(B)` and `Eq(D)`.
    fn and_gate() -> (Miter, Vec<Predicate>) {
        let mut n = Netlist::new("and_gate");
        let b = n.state("B", 1, Bv::bit(true));
        let c = n.state("C", 1, Bv::bit(true));
        let a = n.state("A", 1, Bv::bit(true));
        let d = n.state("D", 1, Bv::bit(true));
        let band = n.and(n.state_node(b), n.state_node(c));
        n.set_next(a, band);
        for s in [b, c, d] {
            n.keep_state(s);
        }
        let m = Miter::build(&n);
        let eq = |s| Predicate::eq(m.left(s), m.right(s));
        let table = vec![eq(a), eq(c), eq(b), eq(d)];
        (m, table)
    }

    /// A query the learn would run — trimming, proof logged — checks
    /// against the session CNF a fresh context re-derives, under its
    /// abduct's indicators and no fewer. (A resident job's replayed query
    /// logs the same bytes: `a_replayed_encoding_is_the_fresh_one` in
    /// hh-smt.)
    #[test]
    fn a_logged_query_checks_against_the_re_derived_session() {
        let (m, table) = and_gate();
        let cfg = AbductionConfig::paper_default();
        let answer = AbductionSession::new(m.netlist(), table[0].clone(), cfg)
            .log_proofs(true)
            .solve(&table[1..]);
        assert_eq!(answer.abduct, Some(vec![0, 1]));
        let log = answer.log.expect("an UNSAT answer carries its log");
        let ctx = SessionContext::new(m.clone(), table.clone());
        let mut ob = Obligation {
            target: 0,
            candidates: vec![1, 2, 3],
            premises: vec![1, 2],
            num_vars: log.shape.num_vars,
            num_clauses: log.shape.num_clauses,
            cnf_hash: log.shape.hash,
            proof: log.drat,
        };
        ctx.check(0, &ob).expect("the learn's own proof checks");
        // One premise fewer: the wrapper's unit is no longer RUP.
        ob.premises = vec![1];
        assert!(matches!(
            ctx.check(0, &ob),
            Err(CertError::ProofRejected { obligation: 0, .. })
        ));
        // One candidate fewer: a different formula.
        ob.premises = vec![1, 2];
        ob.candidates = vec![1, 2];
        assert!(matches!(
            ctx.check(0, &ob),
            Err(CertError::CnfMismatch { obligation: 0, .. })
        ));
        // A SAT answer logs nothing, and an unlogged entry fails to prove.
        let sat = AbductionSession::new(m.netlist(), table[0].clone(), cfg)
            .log_proofs(true)
            .solve(&table[1..2]);
        assert_eq!((sat.abduct, sat.log), (None, None));
        let ctx = SessionContext::new(m, table);
        assert!(matches!(
            ctx.log(0, vec![1]),
            Err(CertError::NotInductive { target: 0 })
        ));
        let ob = ctx.log(0, vec![1, 2]).expect("Eq(B) and Eq(C) prove Eq(A)");
        assert_eq!(
            (ob.candidates.as_slice(), ob.premises.as_slice()),
            (&[1, 2][..], &[1, 2][..])
        );
        ctx.check(0, &ob).expect("an emit-time proof checks");
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

    fn temp_bundle(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hh-cert-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A MANIFEST over one predicate, ending in `tail` (the obligations
    /// header and lines); its obligation lines start at line 9.
    fn manifest(tail: &str) -> String {
        format!(
            "{HEADER}\ndesign rocketlite_x16\npatterns 0\npredicates 1\npred eq l$a r$a\n\
             candidates 0\nproperties 0\n{tail}"
        )
    }

    #[test]
    fn manifest_roundtrip_and_tamper_detection() {
        let dir = temp_bundle("roundtrip");
        let cert = Certificate {
            design: "rocketlite_x16".into(),
            patterns: vec![MaskMatch {
                mask: 0xffff_ffff,
                matches: 0x13,
            }],
            predicates: vec!["eq l$a r$a".into(), "eq l$b r$b".into()],
            candidates: vec!["eq l$c r$c".into()],
            properties: vec![0],
            obligations: vec![
                Obligation {
                    target: 0,
                    candidates: vec![2, 1],
                    premises: vec![1],
                    num_vars: 10,
                    num_clauses: 20,
                    cnf_hash: 0xdead_beef,
                    proof: vec![b'a', 2, 0, b'a', 0],
                },
                Obligation {
                    target: 1,
                    candidates: vec![],
                    premises: vec![],
                    num_vars: 5,
                    num_clauses: 6,
                    cnf_hash: 1,
                    proof: vec![b'a', 0],
                },
            ],
        };
        let summary = write_bundle(&cert, &dir).unwrap();
        assert_eq!(summary.obligations, 2);
        assert_eq!((summary.proof_lines, summary.proof_bytes), (3, 7));
        let back = read_bundle(&dir).unwrap();
        assert_eq!(back.design, cert.design);
        assert_eq!(back.patterns, cert.patterns);
        assert_eq!(back.predicates, cert.predicates);
        assert_eq!(back.candidates, cert.candidates);
        assert_eq!(back.properties, cert.properties);
        assert_eq!(back.obligations.len(), 2);
        assert_eq!(back.obligations[0].candidates, vec![2, 1]);
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

    /// A v1 bundle has no candidate table; a v2 bundle's candidates may
    /// hold `inset` values wider than their state. Both are refused by
    /// their header, before anything else is read.
    #[test]
    fn an_older_manifest_is_a_parse_error() {
        let dir = temp_bundle("old");
        let header = |version: u32| format!("hh-certificate v{version}");
        let v1 = format!(
            "{}\ndesign rocketlite_x16\npatterns 0\npredicates 1\npred eq l$a r$a\n\
             properties 0 \nobligations 1\n\
             obligation 0 0 vars 1 clauses 1 hash 0 proof obligation-000.drat\n",
            header(1)
        );
        let v2 = manifest(
            "obligations 1\n\
             obligation 0 candidates 0 premises 0 vars 1 clauses 1 hash 0 \
             proof obligation-000.drat\n",
        )
        .replace(HEADER, &header(2));
        std::fs::write(dir.join("obligation-000.drat"), [b'a', 0]).unwrap();
        for old in [v1, v2] {
            std::fs::write(dir.join(MANIFEST), old).unwrap();
            match check_bundle(&dir) {
                Err(CertError::Parse(msg)) => assert!(msg.contains("bad header"), "{msg}"),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_path_traversal() {
        let dir = temp_bundle("trav");
        let text = manifest(
            "obligations 1\n\
             obligation 0 candidates 0 premises 0 vars 1 clauses 1 hash 0 proof ../../etc/passwd\n",
        );
        std::fs::write(dir.join(MANIFEST), text).unwrap();
        assert!(matches!(read_bundle(&dir), Err(CertError::Parse(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_with_an_overflowing_index_count_is_a_parse_error() {
        let dir = temp_bundle("premise");
        for obligation in [
            "obligation 0 candidates 18446744073709551615 premises 0 vars 1 clauses 1 hash 0 proof",
            "obligation 0 candidates 0 premises 18446744073709551607 vars 1 clauses 1 hash 0 \
             proof x.drat",
            "obligation 0 candidates 3 1 2 premises 0 vars 1 clauses 1 hash 0 proof x.drat",
            "obligation 0 candidates 0 premises 3 1 2 vars 1 clauses 1 hash 0 proof x.drat",
            "obligation 0 premises 0 candidates 0 vars 1 clauses 1 hash 0 proof x.drat",
            "obligation 0 candidates 0 premises 0 vars 1 clauses 1 hash 0 evidence x.drat",
            "obligation 0",
        ] {
            let text = manifest(&format!("obligations 1\n{obligation}\n"));
            std::fs::write(dir.join(MANIFEST), text).unwrap();
            match check_bundle(&dir) {
                Err(CertError::Parse(msg)) => assert!(msg.contains("line 9"), "{msg}"),
                other => panic!("{obligation:?}: expected a parse error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hostile bundle that names one large proof file on every obligation
    /// line once made the reader parse it once per line, until the
    /// allocator gave up. The MANIFEST alone now decides: a file named
    /// twice, or more obligations than predicates, is a parse error before
    /// any proof is opened (here the named file does not even exist).
    #[test]
    fn a_proof_file_named_twice_is_rejected_before_any_proof_is_read() {
        let dir = temp_bundle("twice");
        let line = "obligation 0 candidates 0 premises 0 vars 1 clauses 1 hash 0 \
                    proof obligation-000.drat";
        let two_preds = manifest(&format!("obligations 2\n{line}\n{line}\n")).replace(
            "predicates 1\npred eq l$a r$a",
            "predicates 2\npred eq l$a r$a\npred eq l$b r$b",
        );
        for (text, expect) in [
            (
                two_preds,
                "line 11: proof file \"obligation-000.drat\" is named twice",
            ),
            (
                manifest(&format!("obligations 2\n{line}\n{line}\n")),
                "line 8: 2 obligations for 1 predicates",
            ),
        ] {
            std::fs::write(dir.join(MANIFEST), text).unwrap();
            match read_bundle(&dir) {
                Err(CertError::Parse(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
