//! Chrome `trace_event` JSON output.
//!
//! The writer emits the *object* form (`traceEvents` plus metadata), which
//! both `chrome://tracing` and Perfetto accept. Span records use the
//! complete (`ph:"X"`) phase so begin/end can never be orphaned by ring
//! wraparound; counters use `ph:"C"` with a `value` arg; instants use
//! `ph:"i"` with thread scope. Every thread gets a `thread_name` metadata
//! record so the viewer labels rows deterministically. Each record is one
//! [`Json`] object, streamed through [`json::write_streamed`].

use crate::json::{self, Json};
use crate::{Event, EventKind, Trace};
use std::io::{self, Write};

/// All events share one synthetic process.
const PID: Json = Json::Int(1);

/// A timestamp, duration or thread id as a JSON integer.
fn int(n: u64) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

fn thread_name(tid: u64) -> Json {
    let name = Json::Str(format!("hh-thread-{tid}"));
    Json::obj(vec![
        ("name", Json::Str("thread_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", PID),
        ("tid", int(tid)),
        ("args", Json::obj(vec![("name", name)])),
    ])
}

fn record(e: &Event) -> Json {
    let (ph, field) = match e.kind {
        EventKind::Span { dur_us } => ("X", ("dur", int(dur_us))),
        EventKind::Instant => ("i", ("s", Json::Str("t".into()))),
        EventKind::Counter { value } => {
            ("C", ("args", Json::obj(vec![("value", Json::Int(value))])))
        }
    };
    Json::obj(vec![
        ("name", Json::Str(e.name.into())),
        ("cat", Json::Str(e.cat.into())),
        ("ph", Json::Str(ph.into())),
        field,
        ("ts", int(e.ts_us)),
        ("pid", PID),
        ("tid", int(e.tid)),
    ])
}

pub(crate) fn write_chrome_json<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let mut head = vec![("displayTimeUnit", Json::Str("ms".into()))];
    if trace.dropped > 0 {
        let dropped = Json::Str(trace.dropped.to_string());
        head.push(("otherData", Json::obj(vec![("droppedEvents", dropped)])));
    }
    // Thread-name metadata first, one per recording thread.
    let names = trace.thread_ids().into_iter().map(thread_name);
    let events = trace.sorted_events();
    let records = names.chain(events.iter().map(record));
    json::write_streamed(w, head, "traceEvents", records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_every_phase_and_escapes_names() {
        let event = |name, ts_us, tid, kind| Event {
            name,
            cat: "t",
            ts_us,
            tid,
            kind,
        };
        let trace = Trace {
            events: vec![
                event("a.span \"quoted\"", 5, 1, EventKind::Span { dur_us: 10 }),
                event("a.count", 7, 2, EventKind::Counter { value: -3 }),
                event("a.mark", 8, 1, EventKind::Instant),
            ],
            dropped: 2,
        };
        let doc = Json::parse(&trace.chrome_json()).expect("the Chrome trace parses");
        let records = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |i: usize, key| records[i].get(key).and_then(Json::as_str);
        let phases: Vec<_> = (0..records.len())
            .map(|i| field(i, "ph").unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "X", "i", "C"]); // by thread, then time
        assert_eq!(field(2, "name"), Some("a.span \"quoted\""));
        let value = records[4].get("args").and_then(|a| a.get("value"));
        assert_eq!(value.and_then(Json::as_i64), Some(-3));
        let dropped = doc.get("otherData").and_then(|o| o.get("droppedEvents"));
        assert_eq!(dropped.and_then(Json::as_str), Some("2"));
    }
}
