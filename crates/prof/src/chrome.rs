//! Chrome Trace Event Format export.
//!
//! Emits the JSON Object Format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): duration
//! events as `ph: "B"`/`"E"` pairs per thread (the viewers derive nesting
//! from per-thread B/E ordering), point events as `ph: "i"` with thread
//! scope, and `M` metadata records naming the process and threads.
//! Timestamps are microseconds with nanosecond precision kept in the
//! fractional part, relative to the first event of the process.
//!
//! The exporter *sanitises* each thread's stream so the output is always
//! well-formed even if the bounded ring dropped events: `E` events with no
//! open `B` are skipped, and `B` events still open at snapshot time are
//! closed with a synthetic `E` carrying `"truncated": true`.

use crate::ring::{self, Event, Phase};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Identifies the trace layout; recorded under `otherData.schema`.
pub const TRACE_SCHEMA: &str = "x2v-trace/v1";

/// Summary of one export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events written (excluding metadata records).
    pub events: usize,
    /// Events dropped at record time because a thread buffer was full.
    pub dropped: u64,
    /// Threads that recorded at least one event.
    pub threads: usize,
    /// Synthetic `E` events appended to close still-open spans.
    pub synthetic_closes: usize,
    /// Orphan `E` events skipped (begin lost to the bounded buffer).
    pub orphan_ends: usize,
}

/// Formats nanoseconds as Chrome-trace microseconds (`123.456`), keeping
/// full nanosecond precision with integer arithmetic only.
fn fmt_ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_event(out: &mut String, e: &Event, tid: u32) {
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"cat\": \"x2v\", \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
        x2v_obs::json_escape(e.name),
        match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        },
        fmt_ts_us(e.ts_ns),
        tid,
    );
    match e.phase {
        Phase::Instant => out.push_str(", \"s\": \"t\"}"),
        Phase::End => {
            let _ = write!(
                out,
                ", \"args\": {{\"alloc_bytes\": {}, \"allocs\": {}}}}}",
                e.alloc_bytes, e.allocs
            );
        }
        Phase::Begin => out.push('}'),
    }
}

/// Renders everything recorded so far as a Chrome Trace Event Format JSON
/// document, returning the document and its export stats.
pub fn trace_json_with_stats(run: &str) -> (String, TraceStats) {
    let (threads, dropped) = ring::snapshot();
    let mut stats = TraceStats {
        dropped,
        ..TraceStats::default()
    };
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(
        out,
        "  \"otherData\": {{\"schema\": \"{}\", \"run\": \"{}\", \"dropped_events\": {}}},",
        TRACE_SCHEMA,
        x2v_obs::json_escape(run),
        dropped
    );
    out.push_str("  \"traceEvents\": [\n");
    out.push_str(
        "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"x2vec\"}}",
    );
    for (tid, events) in &threads {
        if events.is_empty() {
            continue;
        }
        stats.threads += 1;
        out.push_str(",\n");
        let _ = write!(
            out,
            "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"thread-{tid}\"}}}}",
        );
        // Per-thread sanitisation: viewers match B/E by order within a
        // thread, so track the open-span stack while emitting.
        let mut open: Vec<&'static str> = Vec::new();
        let mut last_ts = 0u64;
        for e in events {
            last_ts = last_ts.max(e.ts_ns);
            match e.phase {
                Phase::Begin => open.push(e.name),
                Phase::End => {
                    if open.pop().is_none() {
                        stats.orphan_ends += 1;
                        continue;
                    }
                }
                Phase::Instant => {}
            }
            out.push_str(",\n");
            push_event(&mut out, e, *tid);
            stats.events += 1;
        }
        while let Some(name) = open.pop() {
            out.push_str(",\n");
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"cat\": \"x2v\", \"ph\": \"E\", \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"truncated\": true}}}}",
                x2v_obs::json_escape(name),
                fmt_ts_us(last_ts),
                tid,
            );
            stats.events += 1;
            stats.synthetic_closes += 1;
        }
    }
    out.push_str("\n  ]\n}\n");
    (out, stats)
}

/// Renders the current trace as Chrome Trace Event Format JSON.
pub fn trace_json(run: &str) -> String {
    trace_json_with_stats(run).0
}

/// Writes the trace to `<dir>/<run>.trace.json` where `<dir>` is
/// `$X2V_TRACE_DIR` or `target/trace`, and returns the path. The write is
/// atomic (`x2v_obs::fsio::atomic_write`): a crash mid-export can never
/// leave a torn trace behind.
pub fn write_trace(run: &str) -> std::io::Result<PathBuf> {
    let dir = std::env::var("X2V_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target").join("trace"));
    std::fs::create_dir_all(&dir)?;
    let safe: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{safe}.trace.json"));
    x2v_obs::fsio::atomic_write(&path, trace_json(run).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_formatting_is_integer_exact() {
        assert_eq!(fmt_ts_us(0), "0.000");
        assert_eq!(fmt_ts_us(999), "0.999");
        assert_eq!(fmt_ts_us(1000), "1.000");
        assert_eq!(fmt_ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn empty_trace_is_well_formed() {
        let _serial = crate::ring::registry_test_lock();
        let (json, stats) = trace_json_with_stats("empty");
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains(TRACE_SCHEMA));
        assert_eq!(stats.synthetic_closes, 0);
    }
}
