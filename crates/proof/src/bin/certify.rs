//! `certify`: the independent checker for `hh-proof` certificate bundles.
//!
//! ```text
//! certify <bundle-dir> [--quiet]
//! ```
//!
//! Reads the bundle's MANIFEST, re-runs the builtin design constructor it
//! references, re-derives every obligation's session CNF via `hh-smt`, and
//! checks every attached DRAT refutation with the forward RUP checker, one
//! obligation per worker at a time on as many threads as the host offers
//! (the verdict and the reported failure do not depend on that). Exits 0
//! only when the certificate is valid end to end; any parse error, CNF
//! mismatch, structural gap or rejected proof exits 1 with a message on
//! stderr.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let tracing = hh_trace::init_from_env();
    let mut dir: Option<PathBuf> = None;
    let mut quiet = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: certify <bundle-dir> [--quiet]");
                return ExitCode::from(2);
            }
            other if dir.is_none() => dir = Some(PathBuf::from(other)),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: certify <bundle-dir> [--quiet]");
        return ExitCode::from(2);
    };

    let t0 = std::time::Instant::now();
    let code = match hh_proof::cert::check_bundle(&dir) {
        Ok(report) => {
            if !quiet {
                println!(
                    "certificate OK: {} predicates, {} obligations, {} proof lines \
                     ({} adds) in {:.2?} on {} threads",
                    report.predicates,
                    report.obligations,
                    report.stats.lines,
                    report.stats.adds,
                    t0.elapsed(),
                    report.threads
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("certificate REJECTED: {e}");
            ExitCode::FAILURE
        }
    };
    if tracing {
        if let Err(e) = hh_trace::finish_to_env() {
            eprintln!("failed to write trace: {e}");
        }
    }
    code
}
