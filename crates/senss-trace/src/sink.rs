//! Trace sinks: where emitted events go.
//!
//! The simulator is generic over [`TraceSink`] with [`NullSink`] as the
//! default type parameter, so the untraced hot path monomorphizes to the
//! exact pre-instrumentation code. [`RingSink`] keeps the last N events
//! in memory (bounded, allocation-free after construction); [`JsonlSink`]
//! streams every event as one JSON line to any `io::Write`.

use crate::event::TraceEvent;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Destination for simulator trace events.
///
/// Implementations must be cheap to call: `emit` sits on the simulator's
/// event-dispatch hot path when tracing is on. The trait is
/// dyn-compatible (`enabled` is a method, not an associated const) so
/// extension hooks can take `&mut dyn TraceSink` via
/// [`Tracer`](crate::Tracer).
pub trait TraceSink {
    /// Whether emits are recorded. Instrumentation sites guard event
    /// construction with this, so a constant `false` (as in
    /// [`NullSink`]) compiles the sites out entirely.
    fn enabled(&self) -> bool;

    /// Records one event. Must not panic; sinks with fallible backends
    /// (e.g. [`JsonlSink`]) latch the first error instead.
    fn emit(&mut self, event: TraceEvent);
}

/// The default sink: tracing off, zero overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// Default [`RingSink`] capacity — comfortably holds every event of the
/// harness's standard 2 000-ops-per-core figure jobs without wrapping.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// Fixed-capacity in-memory sink. When full, the oldest event is
/// overwritten and [`RingSink::dropped`] counts the loss — tracing never
/// grows unbounded and never aborts a run.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring with `DEFAULT_RING_CAPACITY` slots.
    pub fn new() -> RingSink {
        RingSink::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A ring holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held before old ones are overwritten.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, recent) = self.buf.split_at(self.head);
        recent.iter().chain(wrapped.iter())
    }

    /// The whole ring as JSONL text (one event per line, oldest first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96);
        for ev in self.events() {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Forgets all held events (capacity and allocation are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl Default for RingSink {
    fn default() -> RingSink {
        RingSink::new()
    }
}

impl TraceSink for RingSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Streaming sink: one JSON line per event into any writer.
///
/// I/O errors are latched rather than panicking mid-simulation: after
/// the first failure, further emits are ignored and the error surfaces
/// from [`JsonlSink::finish`] (or via [`JsonlSink::error`]).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// Reusable line buffer so steady-state emits do not allocate.
    line: String,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncating) `path` and streams events into it, buffered.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `out`; callers wanting buffering should pass a
    /// `BufWriter` (or use [`JsonlSink::create`]).
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            line: String::with_capacity(128),
            written: 0,
            error: None,
        }
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The latched I/O error, if any emit failed.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer, or the first error encountered
    /// (including any latched emit failure).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(err) => self.error = Some(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TxnClass;

    fn instant(time: u64) -> TraceEvent {
        TraceEvent::TxnStart {
            time,
            pid: 0,
            token: time,
            kind: TxnClass::Read,
            addr: 64 * time,
        }
    }

    #[test]
    fn ring_keeps_events_in_order_below_capacity() {
        let mut ring = RingSink::with_capacity(8);
        for t in 0..5 {
            ring.emit(instant(t));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let times: Vec<u64> = ring.events().map(|e| e.time()).collect();
        assert_eq!(times, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = RingSink::with_capacity(4);
        for t in 0..7 {
            ring.emit(instant(t));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 3);
        let times: Vec<u64> = ring.events().map(|e| e.time()).collect();
        assert_eq!(times, [3, 4, 5, 6]);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_capacity_is_at_least_one() {
        let mut ring = RingSink::with_capacity(0);
        assert_eq!(ring.capacity(), 1);
        ring.emit(instant(1));
        ring.emit(instant(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.events().next().unwrap().time(), 2);
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(instant(1));
        sink.emit(TraceEvent::MemFill {
            time: 2,
            pid: 1,
            token: 3,
            addr: 128,
        });
        assert_eq!(sink.written(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"txn_start\""));
        assert!(lines[1].starts_with("{\"ev\":\"mem_fill\""));
    }

    /// Writer that fails after the first write, to exercise latching.
    struct FailAfterOne {
        writes: usize,
    }

    impl Write for FailAfterOne {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes > 1 {
                Err(io::Error::other("disk full"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_io_errors() {
        let mut sink = JsonlSink::new(FailAfterOne { writes: 0 });
        sink.emit(instant(1));
        sink.emit(instant(2));
        sink.emit(instant(3));
        assert_eq!(sink.written(), 1);
        assert!(sink.error().is_some());
        assert!(sink.finish().is_err());
    }
}
