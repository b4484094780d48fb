//! Trace sinks: where emitted events go.
//!
//! The machines are generic over the sink so that the disabled case
//! ([`NullSink`]) monomorphizes to nothing — the `ENABLED` associated
//! constant lets call sites guard even the *construction* of an event
//! behind a compile-time constant, keeping the hot interpretation loop
//! identical to the pre-telemetry code when tracing is off.

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::event::{Event, EventCounts};

/// A consumer of trace events.
pub trait TraceSink {
    /// Whether this sink observes events at all. When `false` (only
    /// [`NullSink`]), emitting code compiles out entirely.
    const ENABLED: bool = true;

    /// Whether the machine should run the shadow three-C miss
    /// classifier for this sink.
    ///
    /// The classifier fills the cold/capacity/conflict taxonomy in the
    /// run's `DtbStats` — observable in the metrics — and costs a shadow
    /// LRU probe per lookup. Diagnostic sinks (the flight-recorder ring,
    /// JSONL dumps) want it; profiling sinks set this `false` so a
    /// profiled run's metrics stay bit-identical to an untraced run and
    /// the counter plane's overhead stays within its gate.
    const CLASSIFY_MISSES: bool = true;

    /// Whether the machine should report routine entries and exits
    /// (`RoutineEnter`/`RoutineExit`) to this sink. A sink that drops
    /// them sets this `false`, and the machine then runs each line
    /// without walking its routine edges.
    const ROUTINE_EDGES: bool = true;

    /// Consumes one event.
    fn emit(&mut self, event: Event);
}

/// The disabled sink: all tracing code is eliminated at compile time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: Event) {}
}

/// A bounded ring buffer of the most recent events, plus exact running
/// counts per event kind (counts never saturate, even after the ring
/// wraps). This is the "flight recorder" sink: cheap enough to leave on,
/// with the tail available for post-mortem inspection.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Event>,
    counts: EventCounts,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            counts: EventCounts::default(),
            dropped: 0,
        }
    }

    /// Exact per-kind totals over the whole run.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// The retained tail of events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Retained event count (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: Event) {
        self.counts.record(&event);
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Streams every event as one JSON object per line (JSONL) into a writer.
///
/// IO errors are recorded (and subsequent writes skipped) rather than
/// panicking mid-run; check [`JsonlSink::error`] after the run.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out`. Wrap the writer in a
    /// `BufWriter` for file targets — events are small and frequent.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            written: 0,
            error: None,
        }
    }

    /// Lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first IO error hit, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns the deferred write error or the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: Event) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.out, "{}", event.to_json()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// A borrowed sink observes like the sink it borrows, so composites such
/// as [`TeeSink`] can hold sinks their caller keeps ownership of.
impl<S: TraceSink> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;
    const CLASSIFY_MISSES: bool = S::CLASSIFY_MISSES;
    const ROUTINE_EDGES: bool = S::ROUTINE_EDGES;

    #[inline]
    fn emit(&mut self, event: Event) {
        (**self).emit(event);
    }
}

/// An optional sink: `None` drops every event. The constants are the
/// inner sink's, fixed at compile time, so a composite that may or may
/// not carry a sink keeps one type — and one machine run — either way.
impl<S: TraceSink> TraceSink for Option<S> {
    const ENABLED: bool = S::ENABLED;
    const CLASSIFY_MISSES: bool = S::CLASSIFY_MISSES;
    const ROUTINE_EDGES: bool = S::ROUTINE_EDGES;

    #[inline]
    fn emit(&mut self, event: Event) {
        if let Some(sink) = self {
            sink.emit(event);
        }
    }
}

/// Fans one event stream out to two sinks (e.g. a ring for counts plus a
/// JSONL file for offline analysis). Nest tees to attach more.
#[derive(Debug)]
pub struct TeeSink<A: TraceSink, B: TraceSink>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const CLASSIFY_MISSES: bool = A::CLASSIFY_MISSES || B::CLASSIFY_MISSES;
    const ROUTINE_EDGES: bool = A::ROUTINE_EDGES || B::ROUTINE_EDGES;

    fn emit(&mut self, event: Event) {
        if A::ENABLED {
            self.0.emit(event);
        }
        if B::ENABLED {
            self.1.emit(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MissKind;
    use crate::json::Json;

    fn hit(addr: u32) -> Event {
        Event::DtbHit { addr }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        NullSink.emit(hit(1)); // compiles, does nothing
    }

    #[test]
    fn ring_keeps_tail_and_exact_counts() {
        let mut ring = RingSink::new(3);
        for addr in 0..10 {
            ring.emit(hit(addr));
        }
        ring.emit(Event::DtbMiss {
            addr: 99,
            kind: MissKind::Cold,
        });
        assert_eq!(ring.counts().dtb_hits, 10);
        assert_eq!(ring.counts().dtb_misses, 1);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 8);
        let tail: Vec<Event> = ring.events().copied().collect();
        assert_eq!(
            tail,
            vec![
                hit(8),
                hit(9),
                Event::DtbMiss {
                    addr: 99,
                    kind: MissKind::Cold
                }
            ]
        );
    }

    #[test]
    fn zero_capacity_ring_still_counts() {
        let mut ring = RingSink::new(0);
        ring.emit(hit(1));
        assert_eq!(ring.counts().dtb_hits, 1);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(hit(5));
        sink.emit(Event::Evict { addr: 5, victim: 2 });
        assert_eq!(sink.written(), 2);
        let out = sink.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ev").and_then(Json::as_str), Some("dtb_hit"));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("victim").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut ring = RingSink::new(8);
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut tee = TeeSink(&mut ring, &mut jsonl);
        tee.emit(hit(1));
        tee.emit(hit(2));
        assert_eq!(ring.counts().dtb_hits, 2);
        assert_eq!(jsonl.written(), 2);
    }

    #[test]
    fn optional_sinks_keep_the_inner_constants() {
        const { assert!(<Option<RingSink>>::ENABLED && <Option<RingSink>>::CLASSIFY_MISSES) };
        const { assert!(<Option<RingSink>>::ROUTINE_EDGES) };
        const { assert!(!<Option<NullSink>>::ENABLED) };
        let mut absent: Option<RingSink> = None;
        absent.emit(hit(1)); // dropped
        let mut present = Some(RingSink::new(4));
        let mut tee = TeeSink(&mut absent, &mut present);
        tee.emit(hit(2));
        assert!(absent.is_none());
        assert_eq!(present.map(|r| r.counts().dtb_hits), Some(1));
    }
}
