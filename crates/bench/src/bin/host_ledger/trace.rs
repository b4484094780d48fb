//! In-memory spans around the ledger's calls into each layer.
//!
//! A span records name, start, end, parent and request id. Spans live in
//! memory while the workload runs and are written once at exit, as a
//! Chrome trace that Perfetto loads. A layer's self time is its spans'
//! time minus the time their child spans cover.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use telemetry::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or phase name, e.g. `hlr.compile`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or round) the span belongs to.
    pub request: u64,
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run carries one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and any span still open inside it.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else {
            return;
        };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name over the spans with indices in `range`, in
    /// ns. A phase's spans are contiguous: spans start in index order and
    /// nest, so those begun while a phase's root is open follow the root.
    pub fn self_ns(&self, range: Range<usize>) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[range.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|p| range.contains(p)) {
                child_ns[p - range.start] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Host ns one begin/end pair costs, timed on a spare tracer: the
    /// basis of the traced run's overhead estimate.
    pub fn cost_per_span_ns() -> f64 {
        const PAIRS: u64 = 20_000;
        let mut spare = Tracer::new(true);
        spare.spans.reserve(PAIRS as usize);
        let t = Instant::now();
        for i in 0..PAIRS {
            let id = spare.begin("calibrate", black_box(i));
            spare.end(id);
        }
        t.elapsed().as_nanos() as f64 / PAIRS as f64
    }

    /// The spans as a Chrome trace (complete events, microseconds).
    pub fn chrome_json(&self) -> Json {
        let us = |ns: u64| Json::Float(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", s.name.into()),
                    ("cat", "host_ledger".into()),
                    ("ph", "X".into()),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.end_ns - s.start_ns)),
                    ("pid", 1u64.into()),
                    ("tid", 1u64.into()),
                    ("args", Json::obj(vec![("request", s.request.into())])),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ns".into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        // request [0,100) holds compile [10,40) and run [50,90); run
        // holds lookup [60,70).
        t.spans = vec![
            span("request", 0, 100, None),
            span("compile", 10, 40, Some(0)),
            span("run", 50, 90, Some(0)),
            span("lookup", 60, 70, Some(2)),
        ];
        let self_ns = t.self_ns(0..4);
        assert_eq!(self_ns["request"], 30);
        assert_eq!(self_ns["compile"], 30);
        assert_eq!(self_ns["run"], 30);
        assert_eq!(self_ns["lookup"], 10);
        // Self times partition the root's interval exactly.
        assert_eq!(self_ns.values().sum::<u64>(), 100);
        // A phase that starts at `run` sees run's own subtree only.
        let phase = t.self_ns(2..4);
        assert_eq!(phase.values().sum::<u64>(), 40);
        assert!(!phase.contains_key("request"));
    }

    #[test]
    fn begin_end_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        assert_eq!(t.span("inner", 1, || 7), 7);
        t.begin("dangling", 1);
        t.end(outer); // also closes the span left open inside it
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].end_ns, t.spans()[0].end_ns);
        let self_sum: u64 = t.self_ns(0..3).values().sum();
        assert_eq!(self_sum, t.spans()[0].end_ns - t.spans()[0].start_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("outer", 1);
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut t = Tracer::new(true);
        t.span("a", 3, || ());
        let json = t.chrome_json();
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert!(Json::parse(&json.render()).is_ok());
    }
}
