//! Telemetry end-to-end checks: ring-sink event counts must agree with the
//! machine's own metrics, window samples must partition the run and
//! reproduce the pinned E13 windows (`tests/golden/phases.windows`), and the
//! `raul --json` surfaces must emit one versioned [`Report`] that
//! round-trips through [`Report::parse`] under its kind (`raul run` a
//! run report, `raul profile` a profile report, `raul chaos` a pool
//! report carrying the supervised outcome taxonomy, and `raul load` a
//! service report whose trajectory steps keep the five-state request
//! accounting closed).

use std::process::Command;

use dir::encode::SchemeKind;
use telemetry::{Json, Kind, Report, RingSink};
use uhm::{DtbConfig, Machine, Mode, RunOptions, WindowSampler};

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

/// The four machine modes of the window golden, built as `raul
/// --dtb-entries 16 --mode <name>` builds them.
fn golden_modes() -> [(&'static str, Mode); 4] {
    [
        ("interp", Mode::Interpreter),
        (
            "icache",
            Mode::ICache {
                geometry: memsim::Geometry::new(4, 4),
            },
        ),
        ("dtb", Mode::Dtb(DtbConfig::with_capacity(16))),
        (
            "two-level",
            Mode::TwoLevelDtb {
                l1: DtbConfig::with_capacity(16),
                l2: DtbConfig::with_capacity(128),
            },
        ),
    ]
}

fn manifest_file(path: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

#[test]
fn window_samples_partition_the_run() {
    // E13's workload at `--window 4000`, in every mode: the sampler
    // sink leaves the metrics bit-identical, its windows partition the
    // run, and every window matches the pinned golden field for field.
    let golden = manifest_file("tests/golden/phases.windows");
    let source = manifest_file("examples/programs/phases.raul");
    let program = dir::compiler::compile(&hlr::compile(&source).unwrap());
    let machine = Machine::new(&program, SchemeKind::Huffman);
    for (name, mode) in golden_modes() {
        let mut sampler = WindowSampler::new(4000);
        let report = machine
            .run_with(&mode, &mut sampler, RunOptions::default())
            .unwrap();
        let m = &report.metrics;
        assert_eq!(*m, machine.run(&mode).unwrap().metrics, "{name}");
        let windows = sampler.finish();
        let total: u64 = windows.iter().map(|w| w.instructions).sum();
        assert_eq!(total, m.instructions, "{name}: windows partition the run");
        let cycles: u64 = windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycles, m.cycles.total(), "{name}");
        let hits: u64 = windows.iter().map(|w| w.dtb_hits).sum();
        let misses: u64 = windows.iter().map(|w| w.dtb_misses).sum();
        let dtb = m.dtb.unwrap_or_default();
        assert_eq!((hits, misses), (dtb.hits, dtb.misses), "{name}");
        for w in &windows {
            if m.dtb.is_some() {
                // In DTB modes every instruction is one lookup.
                assert_eq!(w.dtb_hits + w.dtb_misses, w.instructions, "{name}");
            }
            assert!(w.occupancy <= 16, "{name}");
        }
        // Consecutive windows tile the instruction axis.
        for pair in windows.windows(2) {
            assert_eq!(pair[0].start + pair[0].instructions, pair[1].start);
        }
        let rows: Vec<String> = windows
            .iter()
            .map(|w| {
                format!(
                    "{name}\t{}\t{}\t{}\t{}\t{}\t{}",
                    w.start, w.instructions, w.dtb_hits, w.dtb_misses, w.occupancy, w.cycles
                )
            })
            .collect();
        let want: Vec<&str> = golden
            .lines()
            .filter(|l| l.split('\t').next() == Some(name))
            .collect();
        assert_eq!(rows, want, "{name}: windows differ from the golden");
        if name == "dtb" {
            // EXPERIMENTS E13's hit-rate row.
            let starts = [0, 8, 16, 20, 24, 32, 40, 48, 56].map(|k| k * 1000);
            let curve: Vec<String> = starts
                .iter()
                .map(|&s| {
                    let w = windows.iter().find(|w| w.start == s).unwrap();
                    format!("{:.3}", w.hit_rate())
                })
                .collect();
            let e13 = "0.973 0.974 0.974 0.716 0.629 0.628 0.579 0.624 0.718";
            assert_eq!(curve.join(" "), e13);
        }
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
    // Each window carries its total modeled cycles as one integer.
    let cycles: i64 = windows
        .iter()
        .map(|w| w.get("cycles").and_then(Json::as_i64).unwrap())
        .sum();
    let metrics_cycles = section(&rr, "metrics").get("cycles").unwrap();
    assert_eq!(
        Some(cycles),
        metrics_cycles.get("total").and_then(Json::as_i64)
    );
}

/// The `windows` rows of a report, which must carry them.
fn window_rows(report: &Report) -> &[Json] {
    section(report, "windows").as_arr().expect("windows array")
}

/// The sum of `key` over `rows`.
fn column(rows: &[Json], key: &str) -> i64 {
    rows.iter()
        .map(|w| w.get(key).and_then(Json::as_i64).unwrap())
        .sum()
}

#[test]
fn raul_profile_and_faults_sample_windows() {
    let pr = raul_report(
        &[
            "profile",
            "examples/programs/sumloop.raul",
            "--window",
            "200",
            "--json",
        ],
        Kind::Profile,
    );
    let agg = |k: &str| section(&pr, "aggregate").get(k).and_then(Json::as_i64);
    assert_eq!(
        Some(column(window_rows(&pr), "instructions")),
        agg("instructions")
    );
    assert_eq!(Some(column(window_rows(&pr), "cycles")), agg("cycles"));

    // Under faults a recovered line counts as a miss: the windows move
    // each recovery from the DTB's hits to its misses.
    let fr = raul_report(
        &[
            "faults",
            "examples/programs/sumloop.raul",
            "--rate",
            "0.02",
            "--window",
            "200",
            "--json",
        ],
        Kind::Run,
    );
    let output = section(&fr, "output");
    assert_eq!(output.get("outcome").and_then(Json::as_str), Some("ok"));
    let metrics = section(&fr, "metrics");
    let recoveries = metrics.get("recoveries").and_then(Json::as_i64).unwrap();
    assert!(recoveries > 0, "the campaign recovered no line");
    let rows = window_rows(&fr);
    let dtb = |k: &str| {
        metrics
            .get("dtb")
            .and_then(|d| d.get(k))
            .and_then(Json::as_i64)
    };
    assert_eq!(
        Some(column(rows, "instructions")),
        metrics.get("instructions").and_then(Json::as_i64)
    );
    assert_eq!(Some(column(rows, "dtb_hits") + recoveries), dtb("hits"));
    assert_eq!(Some(column(rows, "dtb_misses") - recoveries), dtb("misses"));
}

#[test]
fn tenant_commands_reject_window_as_a_usage_error() {
    for command in ["pool", "chaos", "serve", "load"] {
        let out = Command::new(env!("CARGO_BIN_EXE_raul"))
            .args([command, "examples/programs/sumloop.raul", "--window", "200"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("raul binary runs");
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--window"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command}");
    }
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
