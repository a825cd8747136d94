//! `compare A B`: judges result file B against baseline A, one row per
//! workload and end-to-end metric.

use crate::metrics::Better;
use crate::results::{Recorded, ResultFile};
use crate::stats;
use std::fmt::Write as _;

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's in the worse direction.
    Pass,
    /// The measurement cannot resolve a change of the bound's size.
    Unresolved(&'static str),
    /// B's median is worse than A's by more than the bound.
    Fail,
}

/// Relative change of B against A in the *worse* direction (positive =
/// worse), as a share of A's median.
pub fn worsening(a: &Recorded, b: &Recorded) -> f64 {
    if a.summary.median == 0.0 {
        return 0.0;
    }
    let delta = (b.summary.median - a.summary.median) / a.summary.median.abs();
    match a.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Judges one metric. Everything but memory is a timing or derived from
/// one, so a side measured on a noisy machine resolves nothing.
pub fn judge(name: &str, a: &Recorded, b: &Recorded, quiet: (bool, bool)) -> Verdict {
    let timing = name != "peak_rss_mb";
    if timing && !(quiet.0 && quiet.1) {
        return Verdict::Unresolved("noisy machine");
    }
    if name == "req_p90_ms" && stats::samples_beyond(a.summary.n.min(b.summary.n), 90.0) < 10 {
        return Verdict::Unresolved("fewer than ten samples beyond p90");
    }
    if a.summary.spread() > a.bound || b.summary.spread() > a.bound {
        return Verdict::Unresolved("spread exceeds bound");
    }
    if worsening(a, b) > a.bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// The comparison: a printable report and whether B is acceptable.
#[derive(Debug)]
pub struct Comparison {
    /// One row per workload × metric, plus the failed-op rows.
    pub report: String,
    /// Rows judged [`Verdict::Fail`].
    pub fails: usize,
    /// Rows judged [`Verdict::Unresolved`].
    pub unresolved: usize,
    /// Workloads whose `failed_ops / ops` rose.
    pub failure_rises: usize,
}

impl Comparison {
    /// Whether B passes: no failed row and no rise in failed ops.
    pub fn ok(&self) -> bool {
        self.fails == 0 && self.failure_rises == 0
    }
}

fn cell(r: &Recorded) -> String {
    let s = &r.summary;
    format!(
        "{} [{}, {}] n={}",
        stats::number(s.median),
        stats::number(s.q1),
        stats::number(s.q3),
        s.n
    )
}

/// Compares B against baseline A. Bounds and directions are A's.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Comparison {
    let mut out = Comparison {
        report: String::new(),
        fails: 0,
        unresolved: 0,
        failure_rises: 0,
    };
    let quiet = (a.fingerprint.quiet, b.fingerprint.quiet);
    let r = &mut out.report;
    for (side, f) in [("A", &a.fingerprint), ("B", &b.fingerprint)] {
        let _ = writeln!(
            r,
            "{side}: rev {} seed {} {} s/workload, spin CV {:.2}%{}, load {:.2}, {} threads, {}",
            f.git_rev,
            f.seed,
            f.seconds,
            f.spin_cv * 100.0,
            if f.quiet { "" } else { " (NOT QUIET)" },
            f.loadavg[0],
            f.nproc,
            f.rustc
        );
    }
    let _ = writeln!(
        r,
        "{:<15} {:<12} {:<6} {:<38} {:<38} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "worse",
        "bound"
    );
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            let _ = writeln!(r, "{name:<15} missing from B");
            out.fails += 1;
            continue;
        };
        for (metric, ra) in &wa.end_to_end {
            let Some(rb) = wb.end_to_end.get(metric) else {
                let _ = writeln!(r, "{name:<15} {metric:<12} missing from B");
                out.fails += 1;
                continue;
            };
            let verdict = judge(metric, ra, rb, quiet);
            let text = match verdict {
                Verdict::Pass => "pass".to_string(),
                Verdict::Fail => {
                    out.fails += 1;
                    "FAIL".to_string()
                }
                Verdict::Unresolved(why) => {
                    out.unresolved += 1;
                    format!("unresolved ({why})")
                }
            };
            let _ = writeln!(
                r,
                "{name:<15} {metric:<12} {:<6} {:<38} {:<38} {:>+7.1}% {:>5.0}%  {text}",
                ra.unit,
                cell(ra),
                cell(rb),
                worsening(ra, rb) * 100.0,
                ra.bound * 100.0
            );
        }
        let rate = |failed: usize, ops: usize| failed as f64 / ops.max(1) as f64;
        let rose = rate(wb.failed_ops, wb.ops) > rate(wa.failed_ops, wa.ops);
        if rose {
            out.failure_rises += 1;
        }
        let _ = writeln!(
            r,
            "{name:<15} {:<12} {:<6} {:<38} {:<38} {:>8} {:>6}  {}",
            "failed_ops",
            "ops",
            format!("{} of {}", wa.failed_ops, wa.ops),
            format!("{} of {}", wb.failed_ops, wb.ops),
            "",
            "",
            if rose { "FAIL (rose)" } else { "pass" }
        );
    }
    let _ = writeln!(
        r,
        "{} fail, {} unresolved, {} failed-op rise(s): {}",
        out.fails,
        out.unresolved,
        out.failure_rises,
        if out.fails == 0 && out.failure_rises == 0 {
            "B is within bounds of A"
        } else {
            "B REGRESSES against A"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn rec(better: Better, bound: f64, q1: f64, median: f64, q3: f64) -> Recorded {
        Recorded {
            unit: "s".to_string(),
            better,
            bound,
            summary: Summary {
                n: 12,
                q1,
                median,
                q3,
            },
        }
    }

    const QUIET: (bool, bool) = (true, true);

    #[test]
    fn within_bound_passes_in_either_direction() {
        let a = rec(Better::Lower, 0.10, 0.99, 1.00, 1.01);
        assert_eq!(
            judge(
                "wall_s",
                &a,
                &rec(Better::Lower, 0.10, 1.07, 1.08, 1.09),
                QUIET
            ),
            Verdict::Pass
        );
        // Getting better by any amount is a pass.
        assert_eq!(
            judge(
                "wall_s",
                &a,
                &rec(Better::Lower, 0.10, 0.49, 0.50, 0.51),
                QUIET
            ),
            Verdict::Pass
        );
        let h = rec(Better::Higher, 0.10, 1.98, 2.00, 2.02);
        assert_eq!(
            judge(
                "hier_factor",
                &h,
                &rec(Better::Higher, 0.10, 1.84, 1.85, 1.86),
                QUIET
            ),
            Verdict::Pass
        );
    }

    #[test]
    fn beyond_bound_fails_in_the_worse_direction() {
        let a = rec(Better::Lower, 0.10, 0.99, 1.00, 1.01);
        let b = rec(Better::Lower, 0.10, 1.11, 1.12, 1.13);
        assert_eq!(judge("wall_s", &a, &b, QUIET), Verdict::Fail);
        assert!((worsening(&a, &b) - 0.12).abs() < 1e-12);
        let h = rec(Better::Higher, 0.10, 1.98, 2.00, 2.02);
        let slower = rec(Better::Higher, 0.10, 1.69, 1.70, 1.71);
        assert_eq!(judge("hier_factor", &h, &slower, QUIET), Verdict::Fail);
    }

    #[test]
    fn wide_spread_or_noise_is_unresolved_not_pass_or_fail() {
        let a = rec(Better::Lower, 0.10, 0.99, 1.00, 1.01);
        let wide = rec(Better::Lower, 0.10, 1.00, 1.30, 1.45);
        assert!(matches!(
            judge("wall_s", &a, &wide, QUIET),
            Verdict::Unresolved(_)
        ));
        assert!(matches!(
            judge("wall_s", &wide, &a, QUIET),
            Verdict::Unresolved(_)
        ));
        // A noisy side leaves every timing unresolved, even a clear loss…
        let b = rec(Better::Lower, 0.10, 1.49, 1.50, 1.51);
        assert!(matches!(
            judge("wall_s", &a, &b, (true, false)),
            Verdict::Unresolved(_)
        ));
        assert!(matches!(
            judge("cpu_s", &a, &b, (false, true)),
            Verdict::Unresolved(_)
        ));
        // …but memory is not a timing.
        assert_eq!(judge("peak_rss_mb", &a, &b, (false, false)), Verdict::Fail);
    }

    #[test]
    fn a_p90_needs_a_hundred_samples() {
        let mut a = rec(Better::Lower, 0.15, 160.0, 160.0, 160.0);
        let mut b = a.clone();
        assert!(matches!(
            judge("req_p90_ms", &a, &b, QUIET),
            Verdict::Unresolved(_)
        ));
        a.summary.n = 108;
        b.summary.n = 126;
        assert_eq!(judge("req_p90_ms", &a, &b, QUIET), Verdict::Pass);
    }

    #[test]
    fn a_rise_in_failed_ops_fails_the_comparison() {
        let a = crate::results::tests::sample_file();
        let same = compare(&a, &a);
        assert!(same.ok(), "{}", same.report);
        let mut b = a.clone();
        b.workloads.get_mut("versus_small").unwrap().failed_ops += 1;
        let worse = compare(&a, &b);
        assert!(!worse.ok());
        assert_eq!(worse.failure_rises, 1);
        assert!(worse.report.contains("FAIL (rose)"));
        // A missing workload is a failure too.
        b.workloads.clear();
        assert!(!compare(&a, &b).ok());
    }
}
