//! Resident warm state: designs, per-job memo tables, encode caches, and
//! their persistence to a state directory.
//!
//! The unit of warmth is a **job**: one (design, safe set, example
//! configuration) triple. Each job keeps resident, across requests:
//!
//! * the product **miter** (deterministically rebuilt by every engine run,
//!   so resident predicates resolve against identical state numbering),
//! * an [`EncodeCache`] — recorded Tseitin replay streams, attached to
//!   every learn of the job,
//! * the **solution table** (`target ⊢ premises` memo entries) of the last
//!   successful learn. It is the job's one record of what was learned: the
//!   answer's invariant is the table's closure
//!   (`hhoudini::Invariant::from_closed_table`), so no copy is kept.
//!
//! On a **design delta** (same design key, different content) the job is
//! migrated: every memo entry whose predicates still resolve, by state name,
//! on the new design is carried over, and nothing else is compared. The
//! next learn re-checks each carried entry the way a fresh memo entry was
//! checked (`ParallelEngine::seed_solutions`: premises among the candidates
//! this design's examples give, obligation UNSAT on the new netlist) and
//! re-learns the rest. A delta's `invalidated` counts the entries dropped at
//! either step.
//!
//! Persistence (SERVE.md §5) stores the *reconstructible* core — design
//! specs, and per job its key, `proved` flag, example count and solution
//! table as [`Predicate::to_wire`] text. Encoding replay streams are
//! deliberately not persisted: a restored memo answers repeat requests with
//! zero solver work anyway, and cone shapes re-record on first miss.

use crate::json::Json;
use crate::proto::ErrorCode;
use crate::request::{
    bool_field, int_field, DesignSource, DesignSpec, JobKey, RunOptions, ServeError,
};
use hh_netlist::btor2::to_btor2;
use hh_netlist::miter::Miter;
use hh_proof::cert::fnv1a;
use hh_smt::{EncodeCache, Predicate};
use hh_uarch::Design;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use veloct::{Masking, Veloct, VeloctConfig, WarmContext};

/// Content fingerprint of a built design: structure (canonical btor2
/// serialization) plus every annotation that influences learning. Equal
/// fingerprints mean the resident warm state applies verbatim; a change
/// migrates it, and the next learn re-checks what was carried.
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

/// One warm job: resident miter, encode cache and memo table.
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
    /// The last learn proved on this very design, examples checked, so a
    /// closed [`JobState::solutions`] is the answer. False when never
    /// learned, flushed, unprovable or carried across a design delta.
    pub proved: bool,
    /// Positive examples used by the last learn.
    pub num_examples: usize,
    /// `cert/` holds the bundle of this very table: set by an emit, cleared
    /// when the table changes or the job stops being proved. Not persisted,
    /// so a restored job emits again.
    certified: bool,
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
            proved: false,
            num_examples: 0,
            certified: false,
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
            masking: if key.impl_predicates {
                Masking::Impl
            } else {
                Masking::Mask
            },
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
                    // swapping the design in, so predicates can be renamed
                    // old-to-new.
                    invalidated = migrate_entry(entry, spec, design, fingerprint, opts);
                }
            }
        }

        let job_id = key.id();
        // Taken before the design entry is borrowed: a certificate is
        // emitted through the `Veloct` that learns, which holds the logs of
        // a cold learn's queries.
        let job_dir = self.job_dir(&name, &job_id);
        let entry = self.designs.get_mut(&name).expect("just ensured");
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
        let warm_seeds = warm.seeds.len();
        hh_trace::counter!("serve", "serve.seeded", warm_seeds);
        // A proved job holds the table of a learn that proved on this very
        // design, examples checked: if that table is still closed it is the
        // answer. Otherwise the examples are regenerated and the engine
        // runs.
        let report = if job.proved {
            veloct.learn_warm(&key.safe, warm)
        } else {
            veloct.learn_seeded(&key.safe, warm)
        };
        let after = job.cache.stats();
        // Carried entries the engine's re-check dropped are invalidated too
        // (a closed-table answer re-checks nothing and seeds them all; a
        // diverged run seeds nothing because it re-checks nothing).
        if report.divergence.is_none() {
            invalidated += warm_seeds - report.memo_seeded;
        }

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
        let table_kept =
            job.proved && result == LearnResult::Proved && report.solutions == job.solutions;
        job.certified &= table_kept;
        job.proved = result == LearnResult::Proved;
        if job.proved {
            job.solutions = report.solutions;
            // A closed-table answer generated none: the count stays that
            // of the learn which produced the table.
            if report.num_examples > 0 {
                job.num_examples = report.num_examples;
            }
        } else {
            job.solutions.clear();
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
            let dir = job_dir
                .ok_or_else(|| {
                    (
                        ErrorCode::Internal,
                        "certify requires the daemon to run with a state directory".to_string(),
                    )
                })?
                .join("cert");
            if !job.certified {
                let inv = report
                    .invariant
                    .as_ref()
                    .expect("a proved learn has an invariant");
                std::fs::create_dir_all(&dir)
                    .map_err(|e| (ErrorCode::Internal, format!("creating {dir:?}: {e}")))?;
                veloct
                    .emit_certificate(&key.safe, inv, &job.solutions, &dir)
                    .map_err(|e| (ErrorCode::Internal, format!("certificate emission: {e}")))?;
                job.certified = true;
            }
            certificate = Some(dir);
        }

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

    /// Drops warm state. `scope` is `"memo"` (clear solution tables, keep
    /// encode caches) or `"all"` (drop designs entirely). Returns
    /// `(designs_dropped, jobs_cleared, entries_dropped)`.
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
                        job.proved = false;
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
            other => Err((
                ErrorCode::BadRequest,
                format!("unknown flush scope {other:?} (expected \"memo\" or \"all\")"),
            )),
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

                let mut meta = job.key.to_json();
                if let Json::Obj(m) = &mut meta {
                    m.insert("proved".to_string(), Json::Bool(job.proved));
                    m.insert(
                        "num_examples".to_string(),
                        Json::Int(job.num_examples as i64),
                    );
                }
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
        for ddir in paths {
            let before = summary;
            if let Err(msg) = self.restore_design(&ddir, &mut summary) {
                // A skipped design restores nothing, whatever it counted.
                summary = before;
                warnings.push(format!("{}: {msg}", ddir.display()));
            }
        }
        hh_trace::counter!("serve", "serve.restored_jobs", summary.jobs);
        (summary, warnings)
    }

    fn restore_design(&mut self, ddir: &Path, summary: &mut RestoreSummary) -> Result<(), String> {
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

/// Migrates every job of `entry` onto the new design: each memo entry is
/// renamed onto the new miter, and one whose predicates no longer resolve
/// is dropped; the miter and cache are rebuilt. Returns the number of
/// dropped memo entries across all jobs.
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
        // Remap by state name; a predicate that no longer resolves is
        // invalid by construction. Whether a renamed entry still holds is
        // the next learn's re-check, not a comparison here.
        let remap = |p: &Predicate| Predicate::from_wire(&p.to_wire(old_nl), new_nl).ok();
        for (target, premises) in &old.solutions {
            let renamed = remap(target).zip(premises.iter().map(remap).collect());
            match renamed {
                Some(solution) => fresh.solutions.push(solution),
                None => invalidated += 1,
            }
        }
        // `fresh.proved` stays false: the table is re-checked by the next
        // learn, whose examples of the new design are regenerated.
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
    let key = JobKey::from_json(&meta).map_err(|(_, m)| m)?;
    let proved = bool_field(&meta, "proved")?;
    let num_examples = int_field(&meta, "num_examples", 0, 0..=usize::MAX)?;
    let opts = RunOptions {
        threads: 1,
        certify: false,
        require_baseline: false,
    };
    let veloct = Veloct::with_config(design, ServeState::veloct_config(&key, opts));
    let mut job = JobState::fresh(key, &veloct);
    job.proved = proved;
    job.num_examples = num_examples;
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
