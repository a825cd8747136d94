//! Named sample vectors and the span-opening timer every measurement goes
//! through.

use crate::spans::{self, CAT};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every number an op or probe observes, keyed by metric name. One op may
/// push several samples under one name (the warm-hit requests of a serve
/// cycle); counts are pushed as samples too, so a per-op count is reported
/// as the median over the run's ops.
#[derive(Debug, Clone, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// All samples of `name` (empty when never recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`, or `None` when never recorded.
    pub fn median(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| stats::median(v))
    }

    /// Median/quartiles/count of `name`.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        Summary::of(self.get(name))
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }

    /// Appends the samples of `other` whose names are not recorded here yet.
    pub fn merge_new(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_insert(values);
        }
    }

    /// Records the self time of every benchmark span in `trace` as one
    /// sample of `<span>_s` (seconds) — or `<span>_ms` for the `hh-serve.`
    /// request spans, whose metrics are in milliseconds. Spans are named
    /// after the per-layer metric they feed.
    pub fn push_span_self_times(&mut self, trace: &hh_trace::Trace) {
        for (name, t) in spans::self_times(&trace.events) {
            if name.starts_with("hh-serve.") {
                self.push(&format!("{name}_ms"), t.self_us as f64 / 1e3);
            } else {
                self.push(&format!("{name}_s"), t.self_us as f64 / 1e6);
            }
        }
    }
}

/// Runs `f` under a benchmark span named `span` and returns its result with
/// the elapsed seconds. With tracing off the span is inert and only the
/// clock reading remains.
pub fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _guard = hh_trace::span(CAT, span);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_accumulate_and_merge() {
        let mut a = Samples::default();
        a.push("wall_s", 2.0);
        a.push("wall_s", 4.0);
        let mut b = Samples::default();
        b.push("wall_s", 9.0);
        b.push("learn_s", 1.0);
        a.merge(b);
        assert_eq!(a.get("wall_s"), &[2.0, 4.0, 9.0]);
        assert_eq!(a.median("wall_s"), Some(4.0));
        assert_eq!(a.summary("learn_s").unwrap().n, 1);
        assert_eq!(a.median("absent"), None);
        assert!(a.get("absent").is_empty());

        let mut c = Samples::default();
        c.push("wall_s", 1.0);
        c.push("cpu_s", 3.0);
        a.merge_new(c);
        assert_eq!(a.get("wall_s").len(), 3, "recorded names stay as they are");
        assert_eq!(a.get("cpu_s"), &[3.0]);
    }

    #[test]
    fn timed_returns_the_closure_result() {
        let (v, secs) = timed("bench.test", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
