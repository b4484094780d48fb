//! Telemetry end-to-end checks: ring-sink event counts must agree with the
//! machine's own metrics, window samples must partition the run, and the
//! `raul --json` surfaces must emit one versioned [`Report`] that
//! round-trips through [`Report::parse`] under its kind (`raul run` a
//! run report, `raul profile` a profile report, `raul chaos` a pool
//! report carrying the supervised outcome taxonomy, and `raul load` a
//! service report whose trajectory steps keep the five-state request
//! accounting closed).

use std::process::Command;

use dir::encode::SchemeKind;
use telemetry::{Json, Kind, NullSink, Report, RingSink};
use uhm::{DtbConfig, Machine, Mode, RunOptions};

fn sample_machine() -> (dir::program::Program, Mode) {
    let program = dir::compiler::compile(&hlr::programs::QUEENS.compile().unwrap());
    (program, Mode::Dtb(DtbConfig::with_capacity(32)))
}

#[test]
fn ring_sink_counts_agree_with_metrics() {
    let (program, mode) = sample_machine();
    let machine = Machine::new(&program, SchemeKind::PairHuffman);
    let mut sink = RingSink::new(256);
    let report = machine
        .run_with(&mode, &mut sink, RunOptions::default())
        .unwrap();
    let c = sink.counts();
    let m = &report.metrics;
    let dtb = m.dtb.expect("dtb mode records dtb stats");

    // Every instruction in DTB mode is exactly one lookup: hit or miss.
    assert_eq!(c.dtb_hits + c.dtb_misses, m.instructions);
    assert_eq!(c.dtb_hits, dtb.hits);
    assert_eq!(c.dtb_misses, dtb.misses);
    // You cannot displace a translation without having missed first.
    assert!(c.evictions <= c.dtb_misses);
    assert_eq!(c.evictions, dtb.evictions);
    // A traced run classifies every miss into exactly one taxonomy bin.
    assert_eq!(
        c.cold_misses + c.capacity_misses + c.conflict_misses,
        c.dtb_misses
    );
    // Each cached miss produces exactly one translation event.
    assert_eq!(c.translations, c.dtb_misses - dtb.uncached);
    // Calls and returns balance (the final Halt exit is also emitted).
    assert_eq!(c.routine_enters, c.routine_exits);
    // The ring is bounded even though the counts are exact.
    assert!(sink.events().count() <= 256);
    assert!(c.total() >= m.instructions);
}

#[test]
fn untraced_run_is_equivalent() {
    // The NullSink path must produce identical metrics: telemetry is
    // observation, never behaviour.
    let (program, mode) = sample_machine();
    let machine = Machine::new(&program, SchemeKind::PairHuffman);
    let mut sink = RingSink::new(64);
    let traced = machine
        .run_with(&mode, &mut sink, RunOptions::default())
        .unwrap();
    let plain = machine.run(&mode).unwrap();
    assert_eq!(plain.output, traced.output);
    assert_eq!(plain.metrics.instructions, traced.metrics.instructions);
    assert_eq!(plain.metrics.cycles.total(), traced.metrics.cycles.total());
    let (p, t) = (plain.metrics.dtb.unwrap(), traced.metrics.dtb.unwrap());
    assert_eq!(
        (p.hits, p.misses, p.evictions),
        (t.hits, t.misses, t.evictions)
    );
}

#[test]
fn window_samples_partition_the_run() {
    let (program, mode) = sample_machine();
    let machine = Machine::new(&program, SchemeKind::PairHuffman);
    let opts = RunOptions {
        window: Some(500),
        ..RunOptions::default()
    };
    let report = machine.run_with(&mode, &mut NullSink, opts).unwrap();
    let windows = report.metrics.windows.as_ref().expect("windowing was on");
    assert!(!windows.is_empty());
    let total: u64 = windows.iter().map(|w| w.instructions).sum();
    assert_eq!(
        total, report.metrics.instructions,
        "windows partition the run"
    );
    let cycle_total: u64 = windows.iter().map(|w| w.cycles.total()).sum();
    assert_eq!(cycle_total, report.metrics.cycles.total());
    let dtb = report.metrics.dtb.unwrap();
    let hits: u64 = windows.iter().map(|w| w.dtb_hits).sum();
    let misses: u64 = windows.iter().map(|w| w.dtb_misses).sum();
    assert_eq!((hits, misses), (dtb.hits, dtb.misses));
    for w in windows {
        // In DTB mode every instruction is one lookup.
        assert_eq!(w.dtb_hits + w.dtb_misses, w.instructions);
        assert!((0.0..=1.0).contains(&w.hit_rate()));
        assert!(w.occupancy <= 32);
    }
    // Consecutive windows tile the instruction axis.
    for pair in windows.windows(2) {
        assert_eq!(pair[0].start + pair[0].instructions, pair[1].start);
    }
}

fn raul_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_raul"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("raul binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `raul args` and parses its stdout as one report of `kind`.
fn raul_report(args: &[&str], kind: Kind) -> Report {
    Report::parse(raul_stdout(args).trim(), kind).expect("stdout is one report of its kind")
}

/// The named section of `report`, which must be present.
fn section<'a>(report: &'a Report, name: &str) -> &'a Json {
    report
        .section(name)
        .unwrap_or_else(|| panic!("missing {name} section"))
}

#[test]
fn raul_run_json_emits_a_round_trippable_report() {
    let rr = raul_report(
        &["run", "examples/programs/sumloop.raul", "--json"],
        Kind::Run,
    );
    assert_eq!(rr.tool, "raul");
    // The program's own output rides along: sum of 1..=100.
    assert_eq!(
        rr.section("output"),
        Some(&Json::Arr(vec![Json::Int(5050)]))
    );
    let metrics = section(&rr, "metrics");
    let instructions = metrics
        .get("instructions")
        .and_then(Json::as_i64)
        .expect("metrics.instructions");
    assert!(instructions > 0);
    // The taxonomy partitions the misses.
    let dtb = metrics.get("dtb").expect("dtb mode stats");
    let field = |n: &str| dtb.get(n).and_then(Json::as_i64).unwrap();
    assert_eq!(
        field("cold_misses") + field("capacity_misses") + field("conflict_misses"),
        field("misses")
    );
    // Derived §7 parameters are present and sane.
    for p in ["time_per_instruction", "d", "g", "x", "s1", "s2"] {
        assert!(
            section(&rr, "derived").get(p).is_some(),
            "missing derived.{p}"
        );
    }
    // Trace-sink health rides along: the flight recorder's retained and
    // dropped counts are surfaced in the report itself.
    let ring = section(&rr, "trace_health")
        .get("ring")
        .expect("trace_health.ring");
    assert!(ring.get("retained").and_then(Json::as_i64).unwrap() > 0);
    assert!(ring.get("dropped").and_then(Json::as_i64).unwrap() >= 0);
    // Round trip: render → parse is the identity.
    let back = Report::parse(&rr.render(), Kind::Run).unwrap();
    assert_eq!(back, rr);
}

#[test]
fn raul_run_json_with_window_attaches_samples() {
    let rr = raul_report(
        &[
            "run",
            "examples/programs/sumloop.raul",
            "--window",
            "200",
            "--json",
        ],
        Kind::Run,
    );
    let Some(Json::Arr(windows)) = rr.section("windows") else {
        panic!("expected a windows array");
    };
    assert!(!windows.is_empty());
    let total: i64 = windows
        .iter()
        .map(|w| w.get("instructions").and_then(Json::as_i64).unwrap())
        .sum();
    assert_eq!(
        Some(total),
        section(&rr, "metrics")
            .get("instructions")
            .and_then(Json::as_i64)
    );
}

#[test]
fn raul_profile_json_round_trips() {
    let text = raul_stdout(&["profile", "examples/programs/sumloop.raul", "--json"]);
    let pr = Report::parse(text.trim(), Kind::Profile).expect("stdout is one profile report");
    assert_eq!(pr.tool, "raul-profile");
    // The attribution payload carries every canonical section.
    for k in [
        "regions", "opcodes", "tiers", "pairs", "hottest", "coverage",
    ] {
        assert!(
            section(&pr, "profile").get(k).is_some(),
            "missing profile.{k}"
        );
    }
    // The counter plane observed every retire (the retire invariant,
    // end to end through the CLI).
    let agg = |k: &str| section(&pr, "aggregate").get(k).and_then(Json::as_i64);
    assert_eq!(agg("instructions"), agg("retires_observed"));
    assert_eq!(agg("cycles"), agg("cycles_observed"));
    // A profile report is not a run report: the kinds reject each other.
    assert!(Report::parse(text.trim(), Kind::Run).is_err());
    // Round trip: render → parse is the identity.
    let back = Report::parse(&pr.render(), Kind::Profile).unwrap();
    assert_eq!(back, pr);
}

#[test]
fn raul_chaos_json_accounts_every_supervised_outcome() {
    let text = raul_stdout(&[
        "chaos",
        "examples/programs/sumloop.raul",
        "--tenants",
        "6",
        "--workers",
        "2",
        "--seed",
        "0xC0A5",
        "--crash-rate",
        "0.5",
        "--json",
    ]);
    let pr = Report::parse(text.trim(), Kind::Pool).expect("stdout is one pool report");
    assert_eq!(pr.tool, "raul-chaos");
    let agg = |k: &str| {
        section(&pr, "aggregate")
            .get(k)
            .and_then(Json::as_i64)
            .unwrap()
    };
    // The seven-state outcome taxonomy partitions the tenants even with
    // chaos injected — nothing is silently lost.
    let accounted: i64 = uhm::RequestOutcome::STATUSES.iter().map(|s| agg(s)).sum();
    assert_eq!(accounted, agg("tenants"));
    assert_eq!(section(&pr, "tenants").as_arr().unwrap().len(), 6);
    // Supervision counters ride along.
    assert!(agg("retries") >= 0 && agg("worker_crashes") >= 0);
}

#[test]
fn raul_load_json_emits_a_round_trippable_service_report() {
    let text = raul_stdout(&[
        "load",
        "examples/programs/sumloop.raul",
        "--workers",
        "2",
        "--requests",
        "8",
        "--rates",
        "1,5000",
        "--watermark",
        "4",
        "--json",
    ]);
    let sr = Report::parse(text.trim(), Kind::Service).expect("stdout is one service report");
    assert_eq!(sr.tool, "raul-load");
    let steps = section(&sr, "steps").as_arr().expect("trajectory steps");
    assert_eq!(steps.len(), 2, "one step per requested rate");
    for step in steps {
        let f = |k: &str| step.get(k).and_then(Json::as_i64).unwrap();
        // The five-state request taxonomy partitions every step, and
        // the zero-lost invariant holds end to end through the CLI.
        assert_eq!(
            f("completed") + f("trapped") + f("panicked") + f("rejected") + f("shed"),
            f("requests")
        );
        assert_eq!(f("lost"), 0);
        assert!(step.get("latency_cycles").is_some(), "modeled percentiles");
        assert!(step.get("host").is_some(), "host observables ride along");
    }
    let agg = |k: &str| {
        section(&sr, "aggregate")
            .get(k)
            .and_then(Json::as_i64)
            .unwrap()
    };
    assert_eq!(agg("requests"), 16);
    assert_eq!(agg("lost"), 0);
    // A service report is not a run or pool report.
    assert!(Report::parse(text.trim(), Kind::Run).is_err());
    assert!(Report::parse(text.trim(), Kind::Pool).is_err());
    // Round trip: render → parse is the identity.
    let back = Report::parse(&sr.render(), Kind::Service).unwrap();
    assert_eq!(back, sr);
}

#[test]
fn raul_profile_json_with_tenants_attaches_the_pool_section() {
    let text = raul_stdout(&[
        "profile",
        "examples/programs/sumloop.raul",
        "--tenants",
        "4",
        "--workers",
        "2",
        "--json",
    ]);
    let pr = Report::parse(text.trim(), Kind::Profile).unwrap();
    let pool = section(&pr, "pool");
    assert_eq!(pool.get("tenants").and_then(Json::as_i64), Some(4));
    assert_eq!(pool.get("completed").and_then(Json::as_i64), Some(4));
    // The merged latency histogram totals the tenant count.
    assert_eq!(
        pool.get("latency_ns")
            .and_then(|h| h.get("total"))
            .and_then(Json::as_i64),
        Some(4)
    );
}
