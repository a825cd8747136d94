//! Chrome `trace_event` JSON output.
//!
//! The writer emits the *object* form (`{"traceEvents": [...]}`), which both
//! `chrome://tracing` and Perfetto accept. Span records use the complete
//! (`ph:"X"`) phase so begin/end can never be orphaned by ring wraparound;
//! counters use `ph:"C"` with a `value` arg; instants use `ph:"i"` with
//! thread scope. Every thread gets a `thread_name` metadata record so the
//! viewer labels rows deterministically.

use crate::{Event, EventKind, Trace};
use std::io::{self, Write};

/// All events share one synthetic process.
const PID: u64 = 1;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn write_event(e: &Event, out: &mut String) {
    out.push_str("{\"name\":\"");
    escape(e.name, out);
    out.push_str("\",\"cat\":\"");
    escape(e.cat, out);
    out.push_str("\",");
    match e.kind {
        EventKind::Span { dur_us } => {
            out.push_str(&format!("\"ph\":\"X\",\"dur\":{dur_us},"));
        }
        EventKind::Instant => out.push_str("\"ph\":\"i\",\"s\":\"t\","),
        EventKind::Counter { value } => {
            out.push_str(&format!("\"ph\":\"C\",\"args\":{{\"value\":{value}}},"));
        }
    }
    out.push_str(&format!(
        "\"ts\":{},\"pid\":{PID},\"tid\":{}}}",
        e.ts_us, e.tid
    ));
}

pub(crate) fn write_chrome_json<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let events = trace.sorted_events();
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Thread-name metadata first, one per recording thread.
    for tid in trace.thread_ids() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"hh-thread-{tid}\"}}}}"
        ));
    }
    for e in &events {
        if !first {
            out.push(',');
        }
        first = false;
        write_event(e, &mut out);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    if trace.dropped > 0 {
        out.push_str(&format!(
            ",\"otherData\":{{\"droppedEvents\":\"{}\"}}",
            trace.dropped
        ));
    }
    out.push('}');
    w.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_every_phase_and_escapes_names() {
        let trace = Trace {
            events: vec![
                Event {
                    name: "a.span \"quoted\"",
                    cat: "t",
                    ts_us: 5,
                    tid: 1,
                    kind: EventKind::Span { dur_us: 10 },
                },
                Event {
                    name: "a.count",
                    cat: "t",
                    ts_us: 7,
                    tid: 2,
                    kind: EventKind::Counter { value: -3 },
                },
                Event {
                    name: "a.mark",
                    cat: "t",
                    ts_us: 8,
                    tid: 1,
                    kind: EventKind::Instant,
                },
            ],
            dropped: 2,
        };
        // That the output parses is checked where a parser is in reach:
        // `tests/trace.rs` at the repository root.
        let json = trace.chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("a.span \\\"quoted\\\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("droppedEvents"));
    }
}
