//! # hh-trace — run-level observability for the H-Houdini stack
//!
//! A std-only structured-tracing layer: spans (guard-based timing), instant
//! events and counters, recorded into **per-thread ring buffers** and
//! flushed into Chrome `trace_event` JSON (loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) plus a deterministic plain-text run
//! report.
//!
//! The flat `Stats` counters of `hhoudini` say *how much* work a run did;
//! the trace says *where the wall-clock went* — per-target SMT time,
//! scheduler occupancy, cache hits, solver restarts — which is what the
//! paper's scalability story (§6, Fig. 2–5) actually rests on. Every
//! span/event/counter name is documented in `docs/TRACE_SCHEMA.md`, and
//! [`COUNTERS`] is the one table declaring the counters of the `Stats`
//! projection.
//!
//! ## Design
//!
//! * **Recording is wait-free on the hot path.** Each thread owns a private
//!   ring buffer behind a `thread_local`; pushing an event is a bounds check
//!   and a write, with no shared-state synchronisation. The only global
//!   accesses are one relaxed atomic load (the enabled check) and the
//!   monotonic clock.
//! * **Rings keep the newest events.** A full ring overwrites its oldest
//!   entry and counts the drop, so a trace of a long run degrades into "the
//!   most recent window" instead of an allocation storm.
//! * **Spans are complete events.** A [`SpanGuard`] records its start time
//!   and pushes a single `ph:"X"` (begin + duration) record when dropped, so
//!   ring wraparound can never orphan a begin/end pair and nesting is
//!   balanced by construction.
//! * **`TraceConfig::Off` is a near-no-op.** Every recording call starts
//!   with an inlined relaxed load of one `AtomicBool`; the benchmark's
//!   `hh-trace.overhead_frac` and its end-to-end metrics judge what that
//!   costs.
//!
//! ## Harvesting
//!
//! Worker threads harvest their rings into a global registry when they exit
//! (the engines' scoped worker pools exit before `learn` returns).
//! [`drain`] collects the registry plus the calling thread's ring, so the
//! natural pattern — trace on the main thread, solve on scoped workers,
//! drain after — loses nothing. Threads that are still alive (and are not
//! the caller) keep their rings and deliver them at the next drain after
//! they exit. [`run_indexed`] is that pattern packaged for index-parallel
//! loops: a scoped pool whose workers flush before the scope joins.
//!
//! ## Example
//!
//! ```
//! hh_trace::init(hh_trace::TraceConfig::on());
//! {
//!     let _g = hh_trace::span!("demo", "demo.outer");
//!     hh_trace::counter!("demo", "demo.items", 3);
//! }
//! let trace = hh_trace::drain();
//! assert_eq!(trace.events.len(), 2);
//! let json = trace.chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! hh_trace::init(hh_trace::TraceConfig::Off);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod json;
mod queue;
mod report;
mod ring;

pub use counters::{CounterDef, Counters, Fold, COUNTERS};
pub use queue::run_indexed;
pub use ring::Ring;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events). At ~40 bytes per event this
/// bounds a thread's trace memory to a few megabytes.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Tracing mode for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// Recording disabled: every `span!`/`event!`/`counter!` call reduces to
    /// one relaxed atomic load.
    Off,
    /// Recording enabled with the given per-thread ring capacity.
    On {
        /// Maximum events buffered per thread before the oldest are
        /// overwritten (newest events always win).
        capacity: usize,
    },
}

impl TraceConfig {
    /// `On` with [`DEFAULT_CAPACITY`].
    pub fn on() -> TraceConfig {
        TraceConfig::On {
            capacity: DEFAULT_CAPACITY,
        }
    }
}

/// What one trace record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: started at `ts_us`, ran for `dur_us`.
    Span {
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A named quantity delta (summed by [`Trace::counter_totals`]).
    Counter {
        /// The recorded value (a delta, not an absolute level).
        value: i64,
    },
}

/// One trace record. `name` and `cat` are `&'static str` so recording never
/// allocates; `cat` is the producing layer (`sat`, `smt`, `engine`, `sched`,
/// `veloct`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event name, e.g. `"sat.solve"`. Namespaced by layer; see
    /// `docs/TRACE_SCHEMA.md`.
    pub name: &'static str,
    /// Producing layer (Chrome `cat` field).
    pub cat: &'static str,
    /// Microseconds since the trace epoch (first event of the process).
    pub ts_us: u64,
    /// Recording thread, numbered in registration order from 1.
    pub tid: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// End timestamp: `ts_us + dur` for spans, `ts_us` otherwise.
    pub fn end_us(&self) -> u64 {
        match self.kind {
            EventKind::Span { dur_us } => self.ts_us + dur_us,
            _ => self.ts_us,
        }
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Bumped by [`init`]; thread-locals from an older generation reset their
/// ring before recording, so re-initialising mid-process starts clean.
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Rings harvested from exited threads, waiting for the next [`drain`].
fn registry() -> &'static Mutex<Vec<(u64, Ring)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(u64, Ring)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct Local {
    tid: u64,
    generation: u64,
    ring: Ring,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.ring.is_empty() && self.generation == GENERATION.load(Ordering::Relaxed) {
            let ring = std::mem::replace(&mut self.ring, Ring::new(0));
            if let Ok(mut reg) = registry().lock() {
                reg.push((self.tid, ring));
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Switches tracing on or off for the whole process. Turning tracing on
/// resets the clock epoch lazily (first event of the process) and starts a
/// new generation: rings still holding events from before the call are
/// discarded rather than mixed into the new run.
pub fn init(config: TraceConfig) {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    registry().lock().map(|mut r| r.clear()).ok();
    match config {
        TraceConfig::Off => ENABLED.store(false, Ordering::Relaxed),
        TraceConfig::On { capacity } => {
            CAPACITY.store(capacity.max(1), Ordering::Relaxed);
            epoch(); // fix the epoch before the first recorded event
            ENABLED.store(true, Ordering::Relaxed);
        }
    }
}

/// Whether recording is currently enabled. This is the entire hot-path cost
/// of a disabled `span!`/`event!`/`counter!` call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn push(event: Event) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        let local = slot.get_or_insert_with(|| Local {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            generation,
            ring: Ring::new(CAPACITY.load(Ordering::Relaxed)),
        });
        if local.generation != generation {
            local.generation = generation;
            local.ring = Ring::new(CAPACITY.load(Ordering::Relaxed));
        }
        let mut event = event;
        event.tid = local.tid;
        local.ring.push(event);
    });
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// A live span. Records one complete (`ph:"X"`) event covering its lifetime
/// when dropped. Created by [`span()`] / [`span!`].
#[derive(Debug)]
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
    start_us: u64,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active && enabled() {
            let end = now_us();
            push(Event {
                name: self.name,
                cat: self.cat,
                ts_us: self.start_us,
                tid: 0,
                kind: EventKind::Span {
                    dur_us: end.saturating_sub(self.start_us),
                },
            });
        }
    }
}

/// Opens a span; prefer the [`span!`] macro. Returns an inert guard when
/// tracing is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            cat,
            name,
            start_us: 0,
            active: false,
        };
    }
    SpanGuard {
        cat,
        name,
        start_us: now_us(),
        active: true,
    }
}

/// Records an instant event; prefer the [`event!`] macro.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    push(Event {
        name,
        cat,
        ts_us: now_us(),
        tid: 0,
        kind: EventKind::Instant,
    });
}

/// Records a counter delta; prefer the [`counter!`] macro. Zero deltas are
/// skipped (they carry no information and would bloat the ring).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: i64) {
    if !enabled() || value == 0 {
        return;
    }
    push(Event {
        name,
        cat,
        ts_us: now_us(),
        tid: 0,
        kind: EventKind::Counter { value },
    });
}

/// Opens a guard-timed span: `let _g = span!("sat", "sat.solve");`.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::span($cat, $name)
    };
}

/// Records an instant event: `event!("engine", "engine.backtrack");`.
#[macro_export]
macro_rules! event {
    ($cat:expr, $name:expr) => {
        $crate::instant($cat, $name)
    };
}

/// Records a counter delta: `counter!("smt", "smt.cache.hit", 1);`.
#[macro_export]
macro_rules! counter {
    ($cat:expr, $name:expr, $value:expr) => {
        $crate::counter($cat, $name, $value as i64)
    };
}

// ---------------------------------------------------------------------------
// Draining and output
// ---------------------------------------------------------------------------

/// A drained trace: every harvested event plus the number of events lost to
/// ring wraparound.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, in per-thread ring order (oldest surviving first).
    pub events: Vec<Event>,
    /// Events overwritten by ring wraparound before they could be drained.
    pub dropped: u64,
}

/// Moves the calling thread's ring into the harvest registry immediately.
///
/// Worker threads should call this as the last thing they do: `join` (and
/// [`std::thread::scope`]) unblock when the thread's *closure* returns, but
/// thread-local destructors only run later during OS-level thread teardown,
/// so a [`drain`] racing with teardown could otherwise miss the thread's
/// events. The destructor harvest still exists as a best-effort backstop
/// for threads that never call `flush`.
pub fn flush() {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(local) = slot.as_mut() {
            if !local.ring.is_empty() && local.generation == GENERATION.load(Ordering::Relaxed) {
                let ring =
                    std::mem::replace(&mut local.ring, Ring::new(CAPACITY.load(Ordering::Relaxed)));
                if let Ok(mut reg) = registry().lock() {
                    reg.push((local.tid, ring));
                }
            }
        }
    });
}

/// Collects everything recorded so far: rings harvested from exited threads
/// plus the calling thread's ring. Recording may continue afterwards; a
/// later drain returns only events recorded since.
pub fn drain() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let generation = GENERATION.load(Ordering::Relaxed);
    if let Ok(mut reg) = registry().lock() {
        for (tid, ring) in reg.drain(..) {
            dropped += ring.dropped();
            for mut e in ring.into_events() {
                e.tid = tid;
                events.push(e);
            }
        }
    }
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(local) = slot.as_mut() {
            if local.generation == generation {
                let ring =
                    std::mem::replace(&mut local.ring, Ring::new(CAPACITY.load(Ordering::Relaxed)));
                dropped += ring.dropped();
                for mut e in ring.into_events() {
                    e.tid = local.tid;
                    events.push(e);
                }
            }
        }
    });
    Trace { events, dropped }
}

impl Trace {
    /// Events sorted deterministically: by thread, then start time, then
    /// longest-span-first (so a parent precedes the children it encloses),
    /// then name.
    pub fn sorted_events(&self) -> Vec<Event> {
        let mut v = self.events.clone();
        v.sort_by(|a, b| {
            (a.tid, a.ts_us)
                .cmp(&(b.tid, b.ts_us))
                .then(b.end_us().cmp(&a.end_us()))
                .then(a.name.cmp(b.name))
        });
        v
    }

    /// A replay-equality digest of the event log: FNV-1a over each
    /// thread's event *sequence* — name, category, payload kind, and
    /// counter value, in ring order — with the per-thread digests then
    /// combined order-insensitively. Timestamps, durations and thread ids
    /// are excluded: they vary run to run even when the schedule is
    /// bit-identical, while thread *numbering* depends only on registration
    /// order, which a deterministic schedule need not fix. Two runs that
    /// make the same decisions in the same per-thread order therefore hash
    /// equal, and any divergence in what was done (or in events lost to
    /// ring wraparound) changes the digest. This is the seam hh-vopr's
    /// replay-determinism checker asserts on.
    pub fn event_log_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
        }
        // Per-thread digests over the per-thread subsequences of `events`
        // (drain order preserves each ring's internal order).
        let mut digests: Vec<u64> = Vec::new();
        let mut tids: Vec<u64> = Vec::new();
        for e in &self.events {
            let slot = match tids.iter().position(|&t| t == e.tid) {
                Some(i) => i,
                None => {
                    tids.push(e.tid);
                    digests.push(OFFSET);
                    digests.len() - 1
                }
            };
            let h = &mut digests[slot];
            mix(h, e.name.as_bytes());
            mix(h, &[0xff]);
            mix(h, e.cat.as_bytes());
            match e.kind {
                EventKind::Span { .. } => mix(h, &[1]),
                EventKind::Instant => mix(h, &[2]),
                EventKind::Counter { value } => {
                    mix(h, &[3]);
                    mix(h, &value.to_le_bytes());
                }
            }
        }
        // Order-insensitive combine: sort the digests, then chain-hash so
        // the multiset (not just the XOR) is pinned down.
        digests.sort_unstable();
        let mut out = OFFSET;
        for d in digests {
            mix(&mut out, &d.to_le_bytes());
        }
        mix(&mut out, &self.dropped.to_le_bytes());
        out
    }

    /// Writes the trace as Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array, as accepted by `chrome://tracing` and Perfetto).
    pub fn write_chrome_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        json::write_chrome_json(self, w)
    }

    /// [`Trace::write_chrome_json`] into a `String`.
    pub fn chrome_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_json(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("writer emits ASCII")
    }

    /// The deterministic plain-text run report: per-name span counts and
    /// total durations, counter sums and instant counts, sorted by name.
    pub fn text_report(&self) -> String {
        report::text_report(self)
    }

    /// Sum of every counter delta, keyed by counter name (sorted).
    pub fn counter_totals(&self) -> BTreeMap<&'static str, i64> {
        let mut totals = BTreeMap::new();
        for e in &self.events {
            if let EventKind::Counter { value } = e.kind {
                *totals.entry(e.name).or_insert(0) += value;
            }
        }
        totals
    }

    /// Per-name span statistics `(count, total_us)`, sorted by name.
    pub fn span_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for e in &self.events {
            if let EventKind::Span { dur_us } = e.kind {
                let t = totals.entry(e.name).or_insert((0, 0));
                t.0 += 1;
                t.1 += dur_us;
            }
        }
        totals
    }

    /// Thread ids that recorded at least one event, sorted.
    pub fn thread_ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

// ---------------------------------------------------------------------------
// HH_TRACE environment plumbing
// ---------------------------------------------------------------------------

/// The environment variable naming the Chrome-JSON output path.
pub const ENV_VAR: &str = "HH_TRACE";
/// Optional override of the per-thread ring capacity.
pub const ENV_CAPACITY: &str = "HH_TRACE_CAPACITY";

/// Enables tracing when `HH_TRACE` is set (to the output path), honouring
/// `HH_TRACE_CAPACITY`. Returns whether tracing was enabled. Binaries and
/// examples call this at startup and [`finish_to_env`] at exit.
pub fn init_from_env() -> bool {
    let Ok(path) = std::env::var(ENV_VAR) else {
        return false;
    };
    if path.is_empty() {
        return false;
    }
    let capacity = std::env::var(ENV_CAPACITY)
        .ok()
        .and_then(|c| c.parse().ok())
        .unwrap_or(DEFAULT_CAPACITY);
    init(TraceConfig::On { capacity });
    true
}

/// Drains the trace and writes it to the `HH_TRACE` path as Chrome JSON,
/// returning the path written (None when tracing ran without `HH_TRACE`).
/// The deterministic text report goes to the same path with `.txt` appended.
pub fn finish_to_env() -> io::Result<Option<String>> {
    let Ok(path) = std::env::var(ENV_VAR) else {
        return Ok(None);
    };
    if path.is_empty() || !enabled() {
        return Ok(None);
    }
    let trace = drain();
    let mut f = std::fs::File::create(&path)?;
    trace.write_chrome_json(&mut f)?;
    std::fs::write(format!("{path}.txt"), trace.text_report())?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole test module shares process-global trace state, so unit
    /// tests here run under one lock (integration tests spawn their own
    /// processes).
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn off_records_nothing() {
        let _l = lock();
        init(TraceConfig::Off);
        let _g = span!("t", "t.span");
        event!("t", "t.event");
        counter!("t", "t.counter", 7);
        drop(_g);
        let trace = drain();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
        assert!(!enabled());
    }

    #[test]
    fn spans_counters_and_instants_record() {
        let _l = lock();
        init(TraceConfig::on());
        {
            let _g = span!("t", "t.outer");
            let _h = span!("t", "t.inner");
            event!("t", "t.mark");
            counter!("t", "t.count", 2);
            counter!("t", "t.count", 3);
        }
        let trace = drain();
        init(TraceConfig::Off);
        assert_eq!(trace.counter_totals().get("t.count"), Some(&5));
        let spans = trace.span_totals();
        assert_eq!(spans.get("t.outer").map(|t| t.0), Some(1));
        assert_eq!(spans.get("t.inner").map(|t| t.0), Some(1));
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Instant))
                .count(),
            1
        );
    }

    #[test]
    fn zero_counter_deltas_are_skipped() {
        let _l = lock();
        init(TraceConfig::on());
        counter!("t", "t.zero", 0);
        let trace = drain();
        init(TraceConfig::Off);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn flushed_worker_threads_are_drained_immediately() {
        let _l = lock();
        init(TraceConfig::on());
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    {
                        let _g = span!("t", "t.worker");
                        counter!("t", "t.jobs", 1);
                    }
                    flush();
                });
            }
        });
        counter!("t", "t.main", 1);
        // flush() ran inside each closure, so the scope join guarantees the
        // rings are registered: one drain must see everything.
        let trace = drain();
        init(TraceConfig::Off);
        assert_eq!(trace.counter_totals().get("t.jobs"), Some(&3));
        assert_eq!(trace.counter_totals().get("t.main"), Some(&1));
        assert!(trace.thread_ids().len() >= 4, "3 workers + main");
    }

    #[test]
    fn unflushed_worker_threads_harvest_on_exit() {
        let _l = lock();
        init(TraceConfig::on());
        let handle = std::thread::spawn(|| {
            counter!("t", "t.lazy", 1);
        });
        handle.join().unwrap();
        // join() does not wait for TLS destructors, so the destructor
        // harvest may land shortly after; poll rather than race it.
        let mut total = 0i64;
        for _ in 0..200 {
            total += drain().counter_totals().get("t.lazy").copied().unwrap_or(0);
            if total == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        init(TraceConfig::Off);
        assert_eq!(total, 1, "destructor harvest never landed");
    }

    #[test]
    fn drain_is_incremental() {
        let _l = lock();
        init(TraceConfig::on());
        counter!("t", "t.a", 1);
        let first = drain();
        counter!("t", "t.b", 1);
        let second = drain();
        init(TraceConfig::Off);
        assert_eq!(first.counter_totals().get("t.a"), Some(&1));
        assert!(!first.counter_totals().contains_key("t.b"));
        assert_eq!(second.counter_totals().get("t.b"), Some(&1));
        assert!(!second.counter_totals().contains_key("t.a"));
    }

    #[test]
    fn reinit_discards_stale_events() {
        let _l = lock();
        init(TraceConfig::on());
        counter!("t", "t.stale", 1);
        init(TraceConfig::on()); // new generation, no drain
        counter!("t", "t.fresh", 1);
        let trace = drain();
        init(TraceConfig::Off);
        assert!(!trace.counter_totals().contains_key("t.stale"));
        assert_eq!(trace.counter_totals().get("t.fresh"), Some(&1));
    }
}
