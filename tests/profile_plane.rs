//! The profiling plane's two load-bearing guarantees, end to end:
//!
//! 1. **Bit-identity.** Attaching any profiling sink — the counter
//!    plane, the span tracer, the flame builder, the window sampler, or
//!    all four teed — changes *nothing* the machine models: program
//!    output and the full [`uhm::Metrics`] struct (every counter, the
//!    complete cycle breakdown, DTB/cache statistics, fault stats) are
//!    equal field for field to an unobserved run. This holds in every machine mode and
//!    under an active fault plane.
//! 2. **Valid export.** The span tracer's output is a well-formed Chrome
//!    `trace_event` document (the schema Perfetto and `chrome://tracing`
//!    load): a `traceEvents` array whose entries carry the required
//!    keys, with complete events carrying durations and begin/end events
//!    balanced per track.

use dir::encode::SchemeKind;
use profile::{CounterPlane, FlameBuilder, SpanTracer};
use telemetry::{Json, NullSink, RingSink, TeeSink};
use uhm::{DtbConfig, FaultConfig, Machine, Mode, RunOptions, WindowSampler};

/// A workload with procedure calls, loops and recursion, so every
/// attribution axis (region, opcode, tier, pair) is exercised.
fn sample_program() -> dir::program::Program {
    dir::compiler::compile(&hlr::programs::QUEENS.compile().unwrap())
}

fn all_modes() -> Vec<Mode> {
    vec![
        Mode::Interpreter,
        Mode::Dtb(DtbConfig::with_capacity(32)),
        Mode::ICache {
            geometry: memsim::Geometry::new(8, 4),
        },
        Mode::TwoLevelDtb {
            l1: DtbConfig::with_capacity(8),
            l2: DtbConfig::with_capacity(64),
        },
    ]
}

#[test]
fn profiled_runs_are_bit_identical_in_every_mode() {
    let program = sample_program();
    let machine = Machine::new(&program, SchemeKind::Huffman);
    for mode in all_modes() {
        let plain = machine.run(&mode).unwrap();
        // Every profiling surface attached at once, teed as `raul` tees
        // them.
        let mut plane = CounterPlane::new(&program);
        let mut tracer = SpanTracer::new(&program);
        let mut flame = FlameBuilder::new(&program);
        let mut window = Some(WindowSampler::new(64));
        let mut sinks = TeeSink(
            TeeSink(&mut plane, &mut tracer),
            TeeSink(&mut flame, &mut window),
        );
        let profiled = machine
            .run_with(&mode, &mut sinks, RunOptions::default())
            .unwrap();
        // Output and the FULL metrics struct: instructions, decoded,
        // word traffic, the 11-component cycle breakdown, DTB/cache
        // stats, recoveries — everything the model computes.
        assert_eq!(plain.output, profiled.output, "{mode:?}: output diverged");
        assert_eq!(
            plain.metrics, profiled.metrics,
            "{mode:?}: modeled metrics diverged under profiling"
        );
        // The retire invariant: the plane observed every instruction and
        // every modeled cycle, exactly once.
        let windows = window.map(WindowSampler::finish).unwrap_or_default();
        let window_cycles: u64 = windows.iter().map(|w| w.cycles).sum();
        assert_eq!(plane.retired(), profiled.metrics.instructions);
        assert_eq!(plane.cycles(), profiled.metrics.cycles.total());
        assert_eq!(flame.total_cycles(), profiled.metrics.cycles.total());
        assert_eq!(window_cycles, profiled.metrics.cycles.total());
    }
}

/// A counter plane alone does not ask for routine edges, so the machine
/// runs each line untraced; teed with a ring, which walks the edges, it
/// runs the traced executor instead. Both must attribute every retire
/// and cycle identically, in every mode.
#[test]
fn hit_path_retires_equal_the_edge_walking_path() {
    let program = sample_program();
    let machine = Machine::new(&program, SchemeKind::Huffman);
    for mode in all_modes() {
        let mut alone = CounterPlane::new(&program);
        let a = machine
            .run_with(&mode, &mut alone, RunOptions::default())
            .unwrap();
        let mut teed = CounterPlane::new(&program);
        let mut ring = RingSink::new(0);
        let b = machine
            .run_with(
                &mode,
                &mut TeeSink(&mut teed, &mut ring),
                RunOptions::default(),
            )
            .unwrap();
        assert_eq!(a.output, b.output, "{mode:?}");
        assert!(
            ring.counts().routine_enters > 0,
            "{mode:?}: no edges walked"
        );
        assert_eq!(
            alone.to_json().render(),
            teed.to_json().render(),
            "{mode:?}: the plane reports differ"
        );
        assert_eq!(alone.cycles(), a.metrics.cycles.total(), "{mode:?}");
    }
}

#[test]
fn profiled_fault_runs_are_bit_identical() {
    // A seeded fault plane consumes deterministic randomness; profiling
    // must not shift the stream or the recovery path. Fault stats are
    // part of Metrics, so full equality covers them too.
    let program = sample_program();
    for seed in [7u64, 0xFA14] {
        let machine = Machine::new(&program, SchemeKind::Huffman);
        // Recoverable fault kinds only (DTB corruption and fetch drops):
        // the run completes through the verify/recover path, so there is
        // a full metrics struct on both sides to compare.
        let opts = RunOptions {
            faults: Some(FaultConfig {
                dtb_word_rate: 5e-3,
                dtb_tag_rate: 5e-3,
                drop_fetch_rate: 1e-3,
                ..FaultConfig::inert(seed)
            }),
            ..RunOptions::default()
        };
        let mode = Mode::Dtb(DtbConfig::with_capacity(16));
        let plain = machine
            .run_with(&mode, &mut NullSink, opts.clone())
            .unwrap();
        let mut plane = CounterPlane::new(&program);
        let mut window = WindowSampler::new(64);
        let profiled = machine
            .run_with(&mode, &mut TeeSink(&mut plane, &mut window), opts)
            .unwrap();
        assert_eq!(
            plain.output, profiled.output,
            "seed {seed}: output diverged"
        );
        assert_eq!(
            plain.metrics, profiled.metrics,
            "seed {seed}: metrics diverged under profiling with faults"
        );
        assert!(profiled.metrics.faults.is_some(), "fault stats recorded");
    }
}

/// Validates one event object against the `trace_event` schema subset
/// that Perfetto requires, returning its `(pid, tid, ph)` triple.
fn check_event(e: &Json) -> (i64, i64, String) {
    let ph = e
        .get("ph")
        .and_then(Json::as_str)
        .expect("event has a phase")
        .to_string();
    assert!(
        ["B", "E", "X", "i", "C", "M"].contains(&ph.as_str()),
        "unknown phase {ph:?}"
    );
    assert!(
        e.get("name").and_then(Json::as_str).is_some(),
        "event missing name"
    );
    let ts = e.get("ts").and_then(Json::as_i64).expect("event has ts");
    assert!(ts >= 0, "negative timestamp");
    let pid = e.get("pid").and_then(Json::as_i64).expect("event has pid");
    let tid = e.get("tid").and_then(Json::as_i64).expect("event has tid");
    if ph == "X" {
        let dur = e
            .get("dur")
            .and_then(Json::as_i64)
            .expect("X event has dur");
        assert!(dur >= 0, "negative duration");
    }
    (pid, tid, ph)
}

#[test]
fn span_trace_is_a_valid_chrome_trace_event_document() {
    let program = sample_program();
    let machine = Machine::new(&program, SchemeKind::Huffman);
    let mut tracer = SpanTracer::new(&program);
    machine
        .run_with(
            &Mode::Dtb(DtbConfig::with_capacity(32)),
            &mut tracer,
            RunOptions::default(),
        )
        .unwrap();
    let text = tracer.finish();
    let doc = Json::parse(&text).expect("trace output parses as JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("document has a traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns"),
        "displayTimeUnit"
    );

    // Every event satisfies the schema; B/E nest and balance per track.
    let mut depth: std::collections::BTreeMap<(i64, i64), i64> = std::collections::BTreeMap::new();
    let mut have_spans = false;
    for e in events {
        let (pid, tid, ph) = check_event(e);
        let d = depth.entry((pid, tid)).or_insert(0);
        match ph.as_str() {
            "B" => {
                have_spans = true;
                *d += 1;
            }
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "E without matching B on track ({pid},{tid})");
            }
            _ => {}
        }
    }
    assert!(have_spans, "no duration spans emitted");
    for ((pid, tid), d) in depth {
        assert_eq!(d, 0, "unbalanced B/E on track ({pid},{tid})");
    }
}

#[test]
fn flamegraph_output_is_well_formed_collapsed_stacks() {
    let program = sample_program();
    let machine = Machine::new(&program, SchemeKind::Huffman);
    let mut flame = FlameBuilder::new(&program);
    machine
        .run_with(&Mode::Interpreter, &mut flame, RunOptions::default())
        .unwrap();
    let collapsed = flame.collapsed();
    assert!(!collapsed.is_empty());
    let mut total = 0u64;
    for line in collapsed.lines() {
        // `frame;frame;... weight` — exactly one space, positive weight.
        let (stack, weight) = line.rsplit_once(' ').expect("line has a weight");
        assert!(!stack.is_empty());
        assert!(
            stack.split(';').all(|f| !f.is_empty()),
            "empty frame in {stack:?}"
        );
        total += weight.parse::<u64>().expect("weight is an integer");
    }
    // Collapsed-stack weights are modeled cycles and cover the run.
    assert_eq!(total, flame.total_cycles());
}
