//! Structured simulation telemetry for the AHFIC kit.
//!
//! Every analysis engine in the workspace (SPICE operating point, DC/AC/
//! noise sweeps, transient, the AHDL system simulator and the top-down
//! flow) reports what it did — spans with wall time, named counters,
//! one-shot events — through the [`TraceSink`] trait. Three sinks ship
//! with the crate:
//!
//! - [`NullSink`]: accepts and discards everything (for overhead tests);
//! - [`InMemorySink`]: buffers [`TraceRecord`]s for in-process analysis
//!   and the `render_trace_summary` report;
//! - [`JsonLinesSink`]: one JSON object per record, machine-readable.
//!
//! # Zero cost when disabled
//!
//! Analyses hold a [`TraceHandle`] (a cloneable `Option<Arc<dyn
//! TraceSink>>`). The hot paths obtain a borrowed [`Tracer`] — a `Copy`
//! wrapper around `Option<&dyn TraceSink>` — and every primitive is a
//! single branch on that option: no clock reads, no allocation, and no
//! dynamic dispatch happen unless a sink is installed.
//!
//! # Example
//!
//! ```
//! use ahfic_trace::{InMemorySink, RecordKind, TraceHandle};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(InMemorySink::new());
//! let handle = TraceHandle::new(&sink);
//! {
//!     let t = handle.tracer();
//!     let _span = t.span("op");
//!     t.counter("op.newton_iterations", 7.0);
//! }
//! let records = sink.records();
//! assert_eq!(records.len(), 3);
//! assert_eq!(records[0].kind, RecordKind::SpanStart);
//! assert_eq!(records[1].name, "op.newton_iterations");
//! assert_eq!(records[2].kind, RecordKind::SpanEnd);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

mod stats;
mod summary;

pub use stats::{ContinuationStats, SolverStats, SweepStats, TranStats};
pub use summary::{summarize_top_level, SpanSummary};

/// What a [`TraceRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// A span (timed region) opened. `value` is unused.
    SpanStart,
    /// A span closed; `value` is the wall time in seconds.
    SpanEnd,
    /// A named quantity; `value` is the reading.
    Counter,
    /// A one-shot marker. `value` is unused.
    Event,
}

/// One telemetry record. The flat shape (no payload enum) keeps the
/// JSON-lines format trivial and round-trippable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Record discriminator.
    pub kind: RecordKind,
    /// Span/counter/event name (dotted hierarchy by convention,
    /// e.g. `tran.accepted_steps`).
    pub name: String,
    /// Wall seconds for `SpanEnd`, the reading for `Counter`, `0.0`
    /// otherwise.
    pub value: f64,
}

impl TraceRecord {
    /// Convenience constructor.
    pub fn new(kind: RecordKind, name: &str, value: f64) -> Self {
        TraceRecord {
            kind,
            name: name.to_string(),
            value,
        }
    }
}

/// Destination of telemetry records. Implementations must be callable
/// from multiple threads (sweeps are parallel), hence `&self` methods
/// and the `Send + Sync` bound.
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn record(&self, rec: TraceRecord);
}

/// Recovers a poisoned sink lock. A panicking recording thread must not
/// disable telemetry for every other thread, and each record is pushed
/// or written atomically under the lock, so the protected state stays
/// coherent even after a panic mid-`record`.
fn lock_sink<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sink that discards everything. Used to measure the enabled-path
/// overhead (clock reads and record construction) without storage costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _rec: TraceRecord) {}
}

/// Buffers records in memory for later inspection.
#[derive(Debug, Default)]
pub struct InMemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

impl InMemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock_sink(&self.records).clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *lock_sink(&self.records))
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        lock_sink(&self.records).len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for InMemorySink {
    fn record(&self, rec: TraceRecord) {
        lock_sink(&self.records).push(rec);
    }
}

/// Writes one JSON object per record to the wrapped writer
/// (`{"kind": "Counter", "name": "op.newton_iterations", "value": 7}`).
///
/// Lines round-trip through `serde_json::from_str::<TraceRecord>`.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Consumes the sink, returning the writer. A poisoned lock is
    /// recovered: complete records were fully written before any panic,
    /// so the writer's contents are still line-coherent.
    pub fn into_inner(self) -> W {
        self.out
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl JsonLinesSink<Vec<u8>> {
    /// A sink buffering the JSON lines in memory.
    pub fn buffered() -> Self {
        JsonLinesSink::new(Vec::new())
    }

    /// The buffered JSON-lines text so far.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&lock_sink(&self.out)).into_owned()
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, rec: TraceRecord) {
        // `TraceRecord` is a flat struct of primitives and strings;
        // serialization cannot fail, but if it ever did the right
        // degradation for telemetry is to drop the record, not panic.
        let Ok(line) = serde_json::to_string(&rec) else {
            return;
        };
        let mut out = lock_sink(&self.out);
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }
}

/// Owning, cloneable handle to an optional sink. Analyses store this in
/// their options; `off()` (the default) disables telemetry entirely.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl TraceHandle {
    /// The disabled handle: every primitive through it is a single
    /// not-taken branch.
    pub const fn off() -> Self {
        TraceHandle { sink: None }
    }

    /// A handle sharing ownership of `sink`.
    pub fn new<S: TraceSink + 'static>(sink: &Arc<S>) -> Self {
        TraceHandle {
            sink: Some(sink.clone()),
        }
    }

    /// A handle from an already-erased sink.
    pub fn from_arc(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Whether a sink is installed.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Borrows the handle as the `Copy` hot-path wrapper.
    pub fn tracer(&self) -> Tracer<'_> {
        Tracer {
            sink: self.sink.as_deref(),
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "TraceHandle(on)"
        } else {
            "TraceHandle(off)"
        })
    }
}

/// Equality ignores the sink identity: two handles compare equal when
/// both are enabled or both disabled. This keeps containers deriving
/// `PartialEq` working without demanding sink comparability.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        self.enabled() == other.enabled()
    }
}

/// Borrowed, `Copy` tracing context used inside hot loops. All methods
/// are no-ops (one predictable branch) when no sink is installed.
#[derive(Clone, Copy, Default)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> Tracer<'a> {
    /// The disabled tracer.
    pub const fn off() -> Tracer<'static> {
        Tracer { sink: None }
    }

    /// A tracer writing to `sink`.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether records actually go anywhere. Use to skip expensive
    /// formatting on the disabled path.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a timed span; it closes (recording wall time) when the
    /// returned guard drops. Nest spans by holding multiple guards —
    /// drop order yields well-formed LIFO nesting per thread.
    pub fn span(&self, name: &str) -> Span<'a> {
        match self.sink {
            None => Span { open: None },
            Some(sink) => {
                sink.record(TraceRecord::new(RecordKind::SpanStart, name, 0.0));
                Span {
                    open: Some(OpenSpan {
                        sink,
                        started: Instant::now(),
                        name: name.to_string(),
                    }),
                }
            }
        }
    }

    /// Records a named reading.
    pub fn counter(&self, name: &str, value: f64) {
        if let Some(sink) = self.sink {
            sink.record(TraceRecord::new(RecordKind::Counter, name, value));
        }
    }

    /// Records a one-shot marker.
    pub fn event(&self, name: &str) {
        if let Some(sink) = self.sink {
            sink.record(TraceRecord::new(RecordKind::Event, name, 0.0));
        }
    }
}

struct OpenSpan<'a> {
    sink: &'a dyn TraceSink,
    started: Instant,
    name: String,
}

/// Guard of an open span; records `SpanEnd` with the elapsed wall time
/// on drop.
pub struct Span<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Span<'_> {
    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            open.sink.record(TraceRecord::new(
                RecordKind::SpanEnd,
                &open.name,
                open.started.elapsed().as_secs_f64(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing_and_costs_no_clock() {
        let t = Tracer::off();
        assert!(!t.enabled());
        let span = t.span("nothing");
        t.counter("c", 1.0);
        t.event("e");
        drop(span);
        // Nothing observable; the real assertion is that no sink panics
        // and `span` carried no state.
    }

    #[test]
    fn in_memory_sink_preserves_order_and_nesting() {
        let sink = Arc::new(InMemorySink::new());
        let handle = TraceHandle::new(&sink);
        let t = handle.tracer();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                t.counter("inner.count", 2.0);
            }
            t.event("outer.done");
        }
        let recs = sink.records();
        let kinds: Vec<(RecordKind, &str)> =
            recs.iter().map(|r| (r.kind, r.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (RecordKind::SpanStart, "outer"),
                (RecordKind::SpanStart, "inner"),
                (RecordKind::Counter, "inner.count"),
                (RecordKind::SpanEnd, "inner"),
                (RecordKind::Event, "outer.done"),
                (RecordKind::SpanEnd, "outer"),
            ]
        );
        assert!(recs[3].value >= 0.0);
    }

    #[test]
    fn json_lines_round_trip() {
        let sink = JsonLinesSink::buffered();
        sink.record(TraceRecord::new(RecordKind::Counter, "x.y", 3.5));
        sink.record(TraceRecord::new(RecordKind::SpanEnd, "x", 1e-4));
        let text = sink.contents();
        let parsed: Vec<TraceRecord> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], TraceRecord::new(RecordKind::Counter, "x.y", 3.5));
        assert_eq!(parsed[1].kind, RecordKind::SpanEnd);
        assert!((parsed[1].value - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn handle_equality_tracks_enablement_only() {
        let a = TraceHandle::off();
        let b = TraceHandle::new(&Arc::new(NullSink));
        let c = TraceHandle::new(&Arc::new(InMemorySink::new()));
        assert_eq!(a, TraceHandle::default());
        assert_ne!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn span_explicit_end() {
        let sink = Arc::new(InMemorySink::new());
        let handle = TraceHandle::new(&sink);
        let span = handle.tracer().span("s");
        span.end();
        assert_eq!(sink.records().len(), 2);
    }
}
