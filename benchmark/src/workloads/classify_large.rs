//! `classify_large` — what a batch `veloct` user waits for.
//!
//! One op: `Veloct::classify(default_candidates())` on LargeBoomLite with
//! `certify` on and two threads, then `emit_certificate` and
//! `hh_proof::cert::check_bundle`: candidates in, *independently checked*
//! safe set out. Most of classify is differential testing, example
//! generation and miter construction, and a large part of the rest is
//! `hh-proof` — SAT is the minority, so this is the bypass workload for
//! solver work and the mechanism workload for everything else.

use super::{Ctx, Workload, LEARN_ROWS};
use crate::expected::Expected;
use crate::pipeline::{self, Core, Examples, InvariantChecks, Problem};
use crate::samples::{timed, Samples};
use hh_smt::Predicate;
use hh_uarch::boomlite::BoomVariant;
use hh_uarch::Design;
use std::path::{Path, PathBuf};
use veloct::{default_candidates, UnsafeReason, Veloct};

pub struct ClassifyLarge {
    design: Design,
    /// The learn classification ends in, as a staged problem (for the
    /// probe) — proposed set = the expected safe set.
    problem: Problem,
    expected: Expected,
    scratch: PathBuf,
    checks: InvariantChecks,
    /// Solution table of the latest op, for the layer replay.
    solutions: Vec<(Predicate, Vec<Predicate>)>,
}

impl ClassifyLarge {
    pub fn new(ctx: Ctx) -> Result<ClassifyLarge, String> {
        let core = Core::Boom(if ctx.quick {
            BoomVariant::Small
        } else {
            BoomVariant::Large
        });
        let expected = core.expected()?;
        let problem = Problem {
            core,
            safe: expected.safe.clone(),
            // `VeloctConfig::default().pairs_per_instr`, which the op uses.
            pairs: veloct::VeloctConfig::default().pairs_per_instr,
            seed: ctx.seed,
            examples: Examples::Rich,
            threads: ctx.threads(2),
        };
        Ok(ClassifyLarge {
            design: core.build(),
            problem,
            expected,
            scratch: crate::scratch_dir("classify"),
            checks: InvariantChecks::default(),
            solutions: Vec::new(),
        })
    }
}

/// Checks an emitted bundle with the standalone checker: it must accept, and
/// must have re-derived one obligation per invariant predicate.
pub fn check_certificate(dir: &Path, predicates: usize) -> Result<(), String> {
    let report = hh_proof::cert::check_bundle(dir)
        .map_err(|e| format!("check_bundle rejects the certificate: {e}"))?;
    if report.obligations == 0 || report.predicates != predicates {
        return Err(format!(
            "certificate covers {} predicates in {} obligations, invariant has {predicates}",
            report.predicates, report.obligations
        ));
    }
    Ok(())
}

impl Workload for ClassifyLarge {
    fn state_bits(&self) -> u64 {
        self.design.state_bits()
    }

    fn op(&mut self, out: &mut Samples) -> Result<(), String> {
        let veloct = Veloct::with_config(&self.design, self.problem.veloct_config(true));
        let dir = self.scratch.join("cert");
        let _ = std::fs::remove_dir_all(&dir);
        let (result, wall_s) = timed("bench.op", || {
            let (report, _) = timed("veloct.classify", || veloct.classify(&default_candidates()));
            let invariant = report
                .invariant
                .as_ref()
                .ok_or("classification learned no invariant")?;
            let (summary, _) = timed("hh-proof.emit", || {
                veloct.emit_certificate(&report.safe, invariant, &report.solutions, &dir)
            });
            let summary = summary.map_err(|e| format!("certificate emission failed: {e}"))?;
            let (checked, _) = timed("hh-proof.check", || {
                check_certificate(&dir, invariant.len())
            });
            checked?;
            Ok::<_, String>((report, summary))
        });
        let (report, summary) = result?;
        let rejected: Vec<_> = report.rejected.iter().map(|(m, _)| *m).collect();
        self.expected.check(&report.safe, &rejected)?;
        if let Some((m, _)) = report
            .rejected
            .iter()
            .find(|(_, why)| !matches!(why, UnsafeReason::TimingDivergence(_)))
        {
            return Err(format!(
                "{} was rejected without divergence evidence",
                m.name()
            ));
        }
        let invariant = report.invariant.as_ref().expect("checked inside the op");
        let (miter, _) = veloct.build_miter(&report.safe);
        self.checks
            .check(invariant, &miter, &veloct.property(&miter))?;
        out.push("wall_s", wall_s);
        out.push("learn_s", report.stats.wall_time.as_secs_f64());
        out.push("veloct.examples_n", report.num_examples as f64);
        out.push("hh-proof.bytes", summary.proof_bytes as f64);
        out.push("hh-proof.obligations", summary.obligations as f64);
        pipeline::record_stats(out, &report.stats, invariant.len());
        self.solutions = report.solutions;
        Ok(())
    }

    fn probe(&mut self, out: &mut Samples) -> Result<(), String> {
        // The stages `classify` runs before and around its learn, through
        // the same public calls: prefilter miter + differential tests over
        // every candidate, then miter, examples and miner of the survivors.
        let candidates = default_candidates();
        let veloct = Veloct::with_config(&self.design, self.problem.veloct_config(true));
        let ((probe_miter, _), _) = timed("hh-netlist.miter", || veloct.build_miter(&candidates));
        timed("veloct.difftest", || {
            for &m in &candidates {
                std::hint::black_box(veloct::examples::differential_test(
                    &self.design,
                    &probe_miter,
                    m,
                ));
            }
        });
        let (_, prepared) = pipeline::stage_probe(&self.problem, out)?;
        timed("hhoudini.mine.new", || {
            std::hint::black_box(pipeline::new_miner(&prepared))
        });
        pipeline::cone_replay(&prepared, &self.solutions, out)
    }

    fn rows(&self) -> Vec<&'static str> {
        [
            &[
                "hh-netlist.miter_s",
                "veloct.difftest_s",
                "veloct.examples_s",
                "hhoudini.mine.new_s",
            ][..],
            &LEARN_ROWS,
            &["hh-proof.emit_s", "hh-proof.check_s"],
        ]
        .concat()
    }
}

impl Drop for ClassifyLarge {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corrupted proof blob must fail the op's certificate check.
    #[test]
    fn a_corrupted_proof_blob_fails_the_certificate_check() {
        let design = Core::Rocket.build();
        let safe = Core::Rocket.expected().unwrap().safe;
        let problem = Problem {
            core: Core::Rocket,
            safe: safe.clone(),
            pairs: 1,
            seed: 3,
            examples: Examples::Rich,
            threads: 1,
        };
        let veloct = Veloct::with_config(&design, problem.veloct_config(true));
        let run = veloct.learn(&safe);
        let invariant = run.invariant.expect("ALU set proves on RocketLite");
        let dir = crate::scratch_dir("corrupt-test").join("cert");
        veloct
            .emit_certificate(&safe, &invariant, &run.solutions, &dir)
            .unwrap();
        check_certificate(&dir, invariant.len()).expect("pristine bundle checks");

        // Cut the largest proof in half: its refutation no longer reaches the
        // empty clause, whatever the proof bytes look like.
        let blob = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "drat"))
            .max_by_key(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .expect("bundle holds DRAT proofs");
        let bytes = std::fs::read(&blob).unwrap();
        std::fs::write(&blob, &bytes[..bytes.len() / 2]).unwrap();
        assert!(check_certificate(&dir, invariant.len()).is_err());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
