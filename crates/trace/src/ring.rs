//! Fixed-capacity event ring that keeps the **newest** entries.
//!
//! A thread's ring is written only by that thread (no synchronisation on the
//! push path) and handed over wholesale at harvest time, so the structure is
//! a plain vector with a wrap cursor rather than an MPSC queue.

use crate::Event;

/// A bounded event buffer. When full, pushing overwrites the oldest entry
/// and counts it as dropped — a long run degrades into "the most recent
/// window", never an unbounded allocation.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    /// Creates a ring holding at most `capacity` events (0 drops everything).
    pub fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning events oldest-surviving-first.
    pub fn into_events(mut self) -> Vec<Event> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

/// Bounded verification harness: for *any* capacity and push count within
/// the bound, the ring holds exactly the newest `min(n, capacity)` events
/// in push order and accounts every overwritten one as dropped. Proved by
/// Kani under `cargo kani`; `cargo test` runs the same body on every choice
/// within the same bound.
#[cfg(any(test, kani))]
mod verification {
    use super::Ring;
    use crate::{Event, EventKind};

    fn ev(ts: u64) -> Event {
        Event {
            name: "k",
            cat: "k",
            ts_us: ts,
            tid: 0,
            kind: EventKind::Instant,
        }
    }

    const MAX: usize = 8;

    /// `choose(n)` picks a value below `n`.
    fn ring_wraparound_keeps_newest_in_order(choose: &mut dyn FnMut(usize) -> usize) {
        let capacity = choose(MAX);
        let pushes = choose(MAX);
        let mut r = Ring::new(capacity);
        for i in 0..pushes {
            r.push(ev(i as u64));
        }
        let kept = pushes.min(capacity);
        assert_eq!(r.dropped(), (pushes - kept) as u64);
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.ts_us).collect();
        let want: Vec<u64> = ((pushes - kept)..pushes).map(|i| i as u64).collect();
        assert_eq!(ts, want, "the newest events survive, in push order");
    }

    #[cfg(kani)]
    #[kani::proof]
    #[kani::unwind(10)]
    fn ring_wraparound_proof() {
        ring_wraparound_keeps_newest_in_order(&mut |bound| {
            let x: usize = kani::any();
            kani::assume(x < bound);
            x
        });
    }

    #[test]
    fn ring_wraparound_holds_for_every_capacity_and_push_count() {
        let runs = crate::for_every_choice(ring_wraparound_keeps_newest_in_order);
        assert_eq!(runs, MAX * MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(ts: u64) -> Event {
        Event {
            name: "t",
            cat: "t",
            ts_us: ts,
            tid: 0,
            kind: EventKind::Instant,
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut r = Ring::new(4);
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 0);
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut r = Ring::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "newest events survive, in order");
    }

    #[test]
    fn zero_capacity_drops_all() {
        let mut r = Ring::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }
}
