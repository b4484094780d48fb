//! Hierarchical span tracing with Chrome `trace_event` export.
//!
//! [`SpanTracer`] turns a machine's event stream into a trace that loads
//! directly in Perfetto / `chrome://tracing`: procedure-call spans
//! (`B`/`E` pairs reconstructed from the retire-address stream), one `X`
//! slice per retired DIR instruction named by its opcode, child slices
//! for the dynamic translation routine and semantic routines, counter
//! tracks (`C`) for DTB occupancy, and instant markers (`i`) for misses,
//! evictions, fault injections and degradations.
//!
//! Time is the *modeled* clock: the tracer advances by each retire's
//! cycle delta, and one modeled level-1 cycle renders as one microsecond
//! of trace time (`ts`/`dur` are in µs in the trace_event format), so a
//! span's width is exactly its modeled cost. Sub-events arrive before
//! the retire that pays for them, so the tracer buffers them per
//! instruction and lays them out when the retire fixes the span's start
//! and duration.
//!
//! Like every sink in this crate the tracer sets
//! [`TraceSink::CLASSIFY_MISSES`] to `false`: attaching it never changes
//! the run's modeled metrics.

use dir::isa::OPCODES;
use dir::program::Program;
use telemetry::{Event, Json, TraceSink};

use crate::map::{CallStack, ProcMap};

/// Default cap on retained trace events; beyond it events are counted
/// but not retained (surfaced via [`SpanTracer::dropped`] and the
/// report's `trace_health` section).
const DEFAULT_MAX_EVENTS: usize = 1 << 18;

/// Sub-events buffered between two retires.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Translate {
        addr: u32,
        decode_cycles: u64,
        generate_cycles: u64,
    },
    Routine {
        id: u16,
        words: u32,
    },
    Instant {
        name: &'static str,
        addr: u32,
        detail: Option<&'static str>,
    },
    Occupancy(u32),
}

/// A [`TraceSink`] producing Chrome trace_event JSON.
#[derive(Debug)]
pub struct SpanTracer {
    map: ProcMap,
    opcode_of: Vec<u8>,
    stack: CallStack,
    clock: u64,
    pending: Vec<Pending>,
    events: Vec<Json>,
    max_events: usize,
    dropped: u64,
    /// Depth of procedure `B` events suppressed by the cap. Their
    /// matching `E` events must be suppressed too (and end-of-run
    /// closing must skip them) or the retained spans stop nesting.
    suppressed: usize,
    pid: u32,
    tid: u32,
}

impl SpanTracer {
    /// Creates a tracer for one program, on trace process/thread 1/1.
    pub fn new(program: &Program) -> SpanTracer {
        SpanTracer {
            map: ProcMap::new(program),
            opcode_of: program.code.iter().map(|i| i.opcode() as u8).collect(),
            stack: CallStack::new(),
            clock: 0,
            pending: Vec::new(),
            events: Vec::new(),
            max_events: DEFAULT_MAX_EVENTS,
            dropped: 0,
            suppressed: 0,
            pid: 1,
            tid: 1,
        }
    }

    /// Sets the trace pid/tid this tracer emits under — pool runs give
    /// each tenant its own pid so Perfetto shows them as separate
    /// process tracks.
    pub fn set_track(&mut self, pid: u32, tid: u32) -> &mut Self {
        self.pid = pid;
        self.tid = tid;
        self
    }

    /// Overrides the retained-event cap.
    pub fn set_max_events(&mut self, max: usize) -> &mut Self {
        self.max_events = max;
        self
    }

    /// The modeled clock, in cycles (= µs of trace time).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Retained trace events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, ev: Json) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    fn duration(&self, name: String, cat: &str, ts: u64, dur: u64, args: Json) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(name)),
            ("cat".into(), Json::from(cat)),
            ("ph".into(), Json::from("X")),
            ("ts".into(), Json::from(ts)),
            ("dur".into(), Json::from(dur)),
            ("pid".into(), Json::from(self.pid)),
            ("tid".into(), Json::from(self.tid)),
            ("args".into(), args),
        ])
    }

    fn begin_end(&self, name: &str, ph: &str, ts: u64) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::from(name)),
            ("cat".into(), Json::from("proc")),
            ("ph".into(), Json::from(ph)),
            ("ts".into(), Json::from(ts)),
            ("pid".into(), Json::from(self.pid)),
            ("tid".into(), Json::from(self.tid)),
        ])
    }

    fn opcode_name(&self, addr: u32) -> String {
        self.opcode_of.get(addr as usize).map_or_else(
            || "<unknown>".to_string(),
            |&op| format!("{:?}", OPCODES[op as usize]),
        )
    }

    /// Lays out the buffered sub-events and the instruction slice for one
    /// retire occupying `[clock, clock + cycles)`.
    fn retire(&mut self, addr: u32, tier: telemetry::Tier, cycles: u64) {
        let ts = self.clock;
        // Procedure frame transitions happen at the instruction's start.
        let region = self.map.region_of(addr);
        let before: Vec<usize> = self.stack.frames().to_vec();
        let step = self.stack.step(region);
        for i in 0..step.pops {
            // Innermost frames pop first; a pop of a cap-suppressed `B`
            // consumes the suppression instead of emitting an orphan `E`.
            if self.suppressed > 0 {
                self.suppressed -= 1;
                self.dropped += 1;
                continue;
            }
            let name = self.map.name(before[before.len() - 1 - i]).to_string();
            let ev = self.begin_end(&name, "E", ts);
            // `E` events for retained `B`s bypass the cap: an unbalanced
            // pair would corrupt the nesting of everything retained.
            self.events.push(ev);
        }
        if step.pushed {
            if self.events.len() >= self.max_events {
                self.dropped += 1;
                self.suppressed += 1;
            } else {
                let name = self.map.name(region).to_string();
                let ev = self.begin_end(&name, "B", ts);
                self.events.push(ev);
            }
        }

        // The instruction slice.
        let args = Json::obj([
            ("addr", Json::from(addr)),
            ("tier", Json::from(tier.label())),
        ]);
        let slice = self.duration(self.opcode_name(addr), "instr", ts, cycles, args);
        self.push(slice);

        // Children laid out sequentially from the slice start; instants
        // and counter samples at the slice start.
        let mut child_ts = ts;
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            match p {
                Pending::Translate {
                    addr,
                    decode_cycles,
                    generate_cycles,
                } => {
                    let dur = decode_cycles + generate_cycles;
                    let args = Json::obj([
                        ("addr", Json::from(addr)),
                        ("decode_cycles", Json::from(decode_cycles)),
                        ("generate_cycles", Json::from(generate_cycles)),
                    ]);
                    let ev =
                        self.duration("translate".to_string(), "translate", child_ts, dur, args);
                    self.push(ev);
                    child_ts += dur;
                }
                Pending::Routine { id, words } => {
                    let args = Json::obj([("routine", Json::from(i64::from(id)))]);
                    let ev = self.duration(
                        format!("routine:{id}"),
                        "semantic",
                        child_ts,
                        u64::from(words),
                        args,
                    );
                    self.push(ev);
                    child_ts += u64::from(words);
                }
                Pending::Instant { name, addr, detail } => {
                    let mut pairs = vec![
                        ("name".to_string(), Json::from(name)),
                        ("cat".to_string(), Json::from("event")),
                        ("ph".to_string(), Json::from("i")),
                        ("ts".to_string(), Json::from(ts)),
                        ("pid".to_string(), Json::from(self.pid)),
                        ("tid".to_string(), Json::from(self.tid)),
                        ("s".to_string(), Json::from("t")),
                    ];
                    let mut args = vec![("addr".to_string(), Json::from(addr))];
                    if let Some(d) = detail {
                        args.push(("kind".to_string(), Json::from(d)));
                    }
                    pairs.push(("args".to_string(), Json::Obj(args)));
                    self.push(Json::Obj(pairs));
                }
                Pending::Occupancy(occ) => {
                    let ev = Json::Obj(vec![
                        ("name".into(), Json::from("dtb_occupancy")),
                        ("cat".into(), Json::from("dtb")),
                        ("ph".into(), Json::from("C")),
                        ("ts".into(), Json::from(ts)),
                        ("pid".into(), Json::from(self.pid)),
                        ("tid".into(), Json::from(self.tid)),
                        ("args".into(), Json::obj([("resident", Json::from(occ))])),
                    ]);
                    self.push(ev);
                }
            }
        }
        self.clock += cycles;
    }

    /// Closes open procedure spans and renders the trace as a Chrome
    /// trace_event JSON document (`{"traceEvents": [...]}`, loadable in
    /// Perfetto). Consumes the tracer.
    pub fn finish(mut self) -> String {
        self.to_json().render()
    }

    /// The trace document as a JSON value, closing any open spans.
    pub fn to_json(&mut self) -> Json {
        let ts = self.clock;
        let frames: Vec<usize> = self.stack.frames().to_vec();
        self.stack.unwind();
        // The innermost `suppressed` frames have no retained `B`: skip
        // them, then close the rest. Closing events bypass the cap —
        // unbalanced B/E pairs would corrupt everything retained.
        for &region in frames.iter().rev().skip(self.suppressed) {
            let name = self.map.name(region).to_string();
            let ev = self.begin_end(&name, "E", ts);
            self.events.push(ev);
        }
        self.suppressed = 0;
        Json::obj([
            ("traceEvents", Json::Arr(self.events.clone())),
            ("displayTimeUnit", Json::from("ns")),
            (
                "otherData",
                Json::obj([
                    ("clock", Json::from("modeled-cycles")),
                    ("cycle_ts", Json::from("1us")),
                    ("dropped_events", Json::from(self.dropped)),
                ]),
            ),
        ])
    }
}

impl TraceSink for SpanTracer {
    // Tracing must not flip on the shadow miss classifier: a traced
    // run's modeled metrics stay bit-identical to an untraced run.
    const CLASSIFY_MISSES: bool = false;

    fn emit(&mut self, event: Event) {
        match event {
            Event::Retire { addr, tier, cycles } => {
                self.retire(addr, tier, u64::from(cycles));
            }
            Event::Translate {
                addr,
                decode_cycles,
                generate_cycles,
            } => self.pending.push(Pending::Translate {
                addr,
                decode_cycles,
                generate_cycles,
            }),
            Event::RoutineExit { id, words } => {
                self.pending.push(Pending::Routine { id, words });
            }
            Event::DtbMiss { addr, kind } => self.pending.push(Pending::Instant {
                name: "dtb_miss",
                addr,
                detail: Some(kind.label()),
            }),
            Event::Evict { victim, .. } => self.pending.push(Pending::Instant {
                name: "dtb_evict",
                addr: victim,
                detail: None,
            }),
            Event::FaultInjected { kind, addr } => self.pending.push(Pending::Instant {
                name: "fault_injected",
                addr,
                detail: Some(kind.label()),
            }),
            Event::Degraded { addr } => self.pending.push(Pending::Instant {
                name: "degraded",
                addr,
                detail: None,
            }),
            Event::DtbFill { occupancy, .. } => {
                self.pending.push(Pending::Occupancy(occupancy));
            }
            // High-frequency micro-events (hits, fetches, per-inst
            // decodes, routine entries, promotions) are deliberately not
            // materialized as spans — the retire slice carries their cost.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;
    use uhm::{DtbConfig, Machine, Mode, RunOptions};

    const CALLS: &str = "proc helper(int n) -> int begin return n * 2; end
        proc main() begin
            int i; int s := 0;
            for i := 0 to 19 do s := s + helper(i);
            write s;
        end";

    fn traced(src: &str, mode: &Mode) -> (Json, uhm::Report) {
        let program = dir::compiler::compile(&hlr::compile(src).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut tracer = SpanTracer::new(&program);
        let report = machine
            .run_with(mode, &mut tracer, RunOptions::default())
            .unwrap();
        (tracer.to_json(), report)
    }

    fn events(doc: &Json) -> &[Json] {
        doc.get("traceEvents").and_then(Json::as_arr).unwrap()
    }

    #[test]
    fn clock_advances_by_exactly_the_modeled_cycles() {
        let program = dir::compiler::compile(&hlr::compile(CALLS).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut tracer = SpanTracer::new(&program);
        let report = machine
            .run_with(
                &Mode::Dtb(DtbConfig::with_capacity(16)),
                &mut tracer,
                RunOptions::default(),
            )
            .unwrap();
        assert_eq!(tracer.clock(), report.metrics.cycles.total());
    }

    #[test]
    fn instruction_slices_cover_the_run() {
        let (doc, report) = traced(CALLS, &Mode::Interpreter);
        let slices: Vec<&Json> = events(&doc)
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("cat").and_then(Json::as_str) == Some("instr")
            })
            .collect();
        assert_eq!(slices.len() as u64, report.metrics.instructions);
        let dur_sum: i64 = slices
            .iter()
            .map(|e| e.get("dur").and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(dur_sum as u64, report.metrics.cycles.total());
    }

    #[test]
    fn begin_and_end_events_balance_per_name() {
        let (doc, _) = traced(CALLS, &Mode::Interpreter);
        let mut depth = std::collections::HashMap::new();
        for e in events(&doc) {
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => {
                    *depth
                        .entry(e.get("name").and_then(Json::as_str).unwrap().to_string())
                        .or_insert(0i64) += 1;
                }
                Some("E") => {
                    *depth
                        .entry(e.get("name").and_then(Json::as_str).unwrap().to_string())
                        .or_insert(0i64) -= 1;
                }
                _ => {}
            }
        }
        assert!(!depth.is_empty(), "no proc spans at all");
        assert!(depth.contains_key("helper"));
        for (name, d) in depth {
            assert_eq!(d, 0, "unbalanced B/E for {name}");
        }
    }

    #[test]
    fn dtb_mode_adds_translate_and_counter_tracks() {
        let (doc, _) = traced(CALLS, &Mode::Dtb(DtbConfig::with_capacity(8)));
        let evs = events(&doc);
        assert!(evs
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("translate")));
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
        // Timestamps are monotone non-decreasing (events are laid out in
        // retire order).
        let mut last = 0i64;
        for e in evs {
            if let Some(ts) = e.get("ts").and_then(Json::as_i64) {
                assert!(ts >= last, "ts went backwards: {ts} < {last}");
                last = ts;
            }
        }
    }

    #[test]
    fn event_cap_drops_but_keeps_document_well_formed() {
        let program = dir::compiler::compile(&hlr::compile(CALLS).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut tracer = SpanTracer::new(&program);
        tracer.set_max_events(32);
        machine
            .run_with(&Mode::Interpreter, &mut tracer, RunOptions::default())
            .unwrap();
        assert!(tracer.dropped() > 0);
        let doc = tracer.to_json();
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_i64)
                .map(|d| d > 0),
            Some(true)
        );
        // Still parseable, still an object with the traceEvents array.
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert!(back.get("traceEvents").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn tracks_are_settable_for_pool_tenants() {
        let program = dir::compiler::compile(&hlr::compile(CALLS).unwrap());
        let machine = Machine::new(&program, SchemeKind::Packed);
        let mut tracer = SpanTracer::new(&program);
        tracer.set_track(7, 3);
        machine
            .run_with(&Mode::Interpreter, &mut tracer, RunOptions::default())
            .unwrap();
        let doc = tracer.to_json();
        for e in events(&doc) {
            assert_eq!(e.get("pid").and_then(Json::as_i64), Some(7));
            assert_eq!(e.get("tid").and_then(Json::as_i64), Some(3));
        }
    }
}
