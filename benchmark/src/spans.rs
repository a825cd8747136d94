//! Span self-times over a drained `hh-trace` event log.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. The benchmark opens every one of its own
//! spans under category [`CAT`], around calls into the crates' public
//! functions; self-times are computed over those spans only, so whatever
//! spans exist *inside* the program stay part of the layer that was called.

use hh_trace::{Event, EventKind};
use std::collections::BTreeMap;

/// Category of every span the benchmark itself opens.
pub const CAT: &str = "bench";

/// Per-name totals over one event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations (µs).
    pub total_us: u64,
    /// Sum of self times (µs): duration minus directly nested child spans.
    pub self_us: u64,
}

/// Self and total time per span name over the [`CAT`] spans of `events`.
///
/// Nesting is recovered per thread from interval containment (spans on one
/// thread are laminar by construction: guards drop in LIFO order).
pub fn self_times(events: &[Event]) -> BTreeMap<&'static str, SpanTime> {
    let mut spans: Vec<(u64, u64, u64, &'static str)> = events
        .iter()
        .filter(|e| e.cat == CAT)
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_us } => Some((e.tid, e.ts_us, e.ts_us + dur_us, e.name)),
            _ => None,
        })
        .collect();
    // Per thread, by start; a parent (longer) precedes a child that starts
    // on the same microsecond.
    spans.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.cmp(&a.2)));

    struct Open {
        start: u64,
        end: u64,
        name: &'static str,
        child_us: u64,
    }
    fn close(open: Open, out: &mut BTreeMap<&'static str, SpanTime>) {
        out.entry(open.name).or_default().self_us +=
            (open.end - open.start).saturating_sub(open.child_us);
    }

    let mut out: BTreeMap<&'static str, SpanTime> = BTreeMap::new();
    // Open ancestors on the current thread, outermost first.
    let mut stack: Vec<Open> = Vec::new();
    let mut tid = u64::MAX;
    for (t, start, end, name) in spans {
        while stack
            .last()
            .is_some_and(|open| t != tid || open.end <= start)
        {
            close(stack.pop().expect("checked non-empty"), &mut out);
        }
        tid = t;
        if let Some(parent) = stack.last_mut() {
            parent.child_us += end - start;
        }
        let entry = out.entry(name).or_default();
        entry.count += 1;
        entry.total_us += end - start;
        stack.push(Open {
            start,
            end,
            name,
            child_us: 0,
        });
    }
    while let Some(open) = stack.pop() {
        close(open, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, name: &'static str, cat: &'static str, ts: u64, dur: u64) -> Event {
        Event {
            name,
            cat,
            ts_us: ts,
            tid,
            kind: EventKind::Span { dur_us: dur },
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ learn [10,70) ⊃ query [20,30), query [40,55); and
        // op ⊃ check [70,90). Recorded child-first, as guards drop.
        let events = vec![
            span(1, "query", CAT, 20, 10),
            span(1, "query", CAT, 40, 15),
            span(1, "learn", CAT, 10, 60),
            span(1, "check", CAT, 70, 20),
            span(1, "op", CAT, 0, 100),
        ];
        let t = self_times(&events);
        assert_eq!(t["op"].total_us, 100);
        assert_eq!(t["op"].self_us, 100 - 60 - 20);
        assert_eq!(t["learn"].self_us, 60 - 25);
        assert_eq!(
            t["query"],
            SpanTime {
                count: 2,
                total_us: 25,
                self_us: 25
            }
        );
        assert_eq!(t["check"].self_us, 20);
        // Self times partition the root interval.
        let sum: u64 = t.values().map(|s| s.self_us).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn threads_nest_independently_and_foreign_categories_are_ignored() {
        let events = vec![
            span(1, "op", CAT, 0, 50),
            // Same interval on another thread is not a child of `op`.
            span(2, "worker", CAT, 10, 20),
            // An in-program span inside `op` stays part of `op`.
            span(1, "sat.solve", "sat", 5, 30),
            Event {
                name: "n",
                cat: CAT,
                ts_us: 7,
                tid: 1,
                kind: EventKind::Counter { value: 3 },
            },
        ];
        let t = self_times(&events);
        assert_eq!(t["op"].self_us, 50);
        assert_eq!(t["worker"].self_us, 20);
        assert!(!t.contains_key("sat.solve"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn back_to_back_siblings_and_zero_length_spans() {
        let events = vec![
            span(1, "a", CAT, 0, 10),
            span(1, "b", CAT, 10, 10),
            span(1, "root", CAT, 0, 20),
            span(1, "empty", CAT, 20, 0),
        ];
        let t = self_times(&events);
        assert_eq!(t["root"].self_us, 0);
        assert_eq!(t["a"].self_us, 10);
        assert_eq!(t["b"].self_us, 10);
        assert_eq!(t["empty"].count, 1);
    }
}
