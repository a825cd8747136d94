//! Property tests for [`Stats`] aggregation: `merge` must be associative
//! (so partitioned runs can be folded in any grouping), identity-preserving
//! on `Stats::default()`, and must keep the occupancy accounting invariant
//! (worker busy time = sum of committed task durations, each exactly once).

use hh_trace::{Counters, COUNTERS};
use hhoudini::{Stats, TaskRecord};
use proptest::prelude::*;
use std::time::Duration;

/// A random Stats value: every counter of the table set at random (so both
/// the summed rows and the maximum-folded byte gauges are exercised), and
/// task parents pointing strictly backwards (or nowhere), matching the
/// discovery-order invariant of real runs.
fn arb_stats() -> impl Strategy<Value = Stats> {
    (
        proptest::collection::vec((0u64..5000, 0usize..3, any::<bool>()), 0..6),
        proptest::collection::vec(0u64..1 << 40, COUNTERS.len()),
        (0u64..5000, 0u64..5000, 0usize..9),
    )
        .prop_map(|(tasks, counters, (wall, busy, workers))| {
            let mut s = Stats::default();
            for (i, &(us, back_off, has_parent)) in tasks.iter().enumerate() {
                let parent = if has_parent && i > 0 {
                    Some(i - 1 - back_off.min(i - 1))
                } else {
                    None
                };
                let d = Duration::from_micros(us);
                s.tasks.push(TaskRecord {
                    pred: hhoudini::PredId::from_index(i),
                    parent,
                    duration: d,
                    smt_time: d / 2,
                });
                s.task_time += d;
                s.encode_time += d / 3;
                s.solve_time += d / 2;
            }
            s.smt_queries = s.tasks.len();
            s.counters = Counters::from_values(counters.try_into().expect("one value per row"));
            s.wall_time = Duration::from_micros(wall);
            s.worker_busy_time = Duration::from_micros(busy);
            s.workers = workers;
            s
        })
}

fn merged(a: &Stats, b: &Stats) -> Stats {
    let mut out = a.clone();
    out.merge(b);
    out
}

type TaskKey = (usize, Option<usize>, Duration);

/// Everything `merge` folds, in a directly comparable form. Tasks compare by
/// (pred, parent, duration) so re-based parent indices are included.
fn fingerprint(s: &Stats) -> (Vec<TaskKey>, Counters, Vec<u64>, Vec<Duration>) {
    let tasks = s
        .tasks
        .iter()
        .map(|t| (t.pred.index(), t.parent, t.duration))
        .collect();
    let scalars = vec![s.smt_queries as u64, s.workers as u64];
    let times = vec![
        s.wall_time,
        s.task_time,
        s.encode_time,
        s.solve_time,
        s.worker_busy_time,
    ];
    (tasks, s.counters, scalars, times)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): partitioned runs can be folded in any
    /// grouping. This is what makes per-shard Stats safe to combine.
    #[test]
    fn merge_is_associative(a in arb_stats(), b in arb_stats(), c in arb_stats()) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
    }

    /// The empty Stats is a two-sided identity for merge.
    #[test]
    fn default_is_identity(a in arb_stats()) {
        let left = merged(&Stats::default(), &a);
        let right = merged(&a, &Stats::default());
        prop_assert_eq!(fingerprint(&left), fingerprint(&a));
        prop_assert_eq!(fingerprint(&right), fingerprint(&a));
    }

    /// Merging never invents or loses busy time: the merged busy time is
    /// exactly the sum of the parts. A reorder-buffer double count in either
    /// part would surface here as busy time exceeding its own task-duration
    /// sum (checked by `occupancy_accounting_matches_task_durations` on real
    /// runs in `tests/trace.rs`).
    #[test]
    fn busy_time_is_additive(a in arb_stats(), b in arb_stats()) {
        let m = merged(&a, &b);
        prop_assert_eq!(m.worker_busy_time, a.worker_busy_time + b.worker_busy_time);
    }

    /// Re-based parent indices still point at the same tasks: every parent
    /// of a merged-in task resolves inside the merged vector and precedes
    /// its child (discovery order is preserved).
    #[test]
    fn merge_rebases_parents(a in arb_stats(), b in arb_stats()) {
        let m = merged(&a, &b);
        prop_assert_eq!(m.tasks.len(), a.tasks.len() + b.tasks.len());
        for (i, t) in m.tasks.iter().enumerate() {
            if let Some(p) = t.parent {
                prop_assert!(p < i, "parent {} not before task {}", p, i);
                // Tasks from `b` must have parents inside b's region.
                if i >= a.tasks.len() {
                    prop_assert!(p >= a.tasks.len(), "cross-run parent after merge");
                }
            }
        }
    }
}
