//! A reproduction or gate bench binary's `--json` output must be one
//! parseable run-kind [`Report`] line — the acceptance surface scripts and
//! CI rely on.

use std::process::Command;

use telemetry::{Json, Kind, Report};

/// Runs `exe --json` and parses its stdout. A gate binary writes its
/// report whatever its verdict, and its exit code is that verdict. The
/// host-timing gates (`gate`) may exit 1 on a busy host or an
/// unoptimized build, which is the CI gate steps' concern, not this
/// schema test's; a divergence from the reference still fails here. Any
/// other exit is a failure.
fn report_of(exe: &str, gate: bool) -> Report {
    let out = Command::new(exe)
        .arg("--json")
        .output()
        .expect("bench binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let timing_only = gate && out.status.code() == Some(1) && !stderr.contains("diverg");
    assert!(out.status.success() || timing_only, "{stderr}");
    let text = String::from_utf8(out.stdout).unwrap();
    Report::parse(text.trim(), Kind::Run).expect("stdout is one run report")
}

/// The report's `output` rows.
fn rows_of(report: &Report) -> &[Json] {
    report
        .section("output")
        .and_then(Json::as_arr)
        .expect("an output array of rows")
}

/// The rows of experiment `id`.
fn experiment<'a>(report: &'a Report, id: &str) -> Vec<&'a Json> {
    rows_of(report)
        .iter()
        .filter(|r| r.get("experiment").and_then(Json::as_str) == Some(id))
        .collect()
}

/// The `workload` row of experiment `id`.
fn workload_row<'a>(report: &'a Report, id: &str, workload: &str) -> &'a Json {
    experiment(report, id)
        .into_iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .unwrap_or_else(|| panic!("{id} has no {workload} row"))
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).expect(key)
}

#[test]
fn representations_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_representations"), false);
    assert_eq!(rr.tool, "representations");
    // Table 1: PSDER, PDP-11 and 360-RX representations at minimum.
    let table1 = experiment(&rr, "E1");
    assert!(table1.len() >= 3);
    for row in table1 {
        assert!(row.get("total_bits").and_then(Json::as_i64).unwrap() > 0);
    }
    for id in ["E1", "E4", "E6"] {
        assert!(rr.config.get(id).is_some(), "config.{id} missing");
        assert!(!experiment(&rr, id).is_empty(), "no {id} rows");
    }
}

#[test]
fn dtb_design_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_dtb_design"), false);
    assert_eq!(rr.tool, "dtb_design");
    for id in ["E7", "E8", "E9", "E10", "E11"] {
        assert!(rr.config.get(id).is_some(), "config.{id} missing");
        assert!(!experiment(&rr, id).is_empty(), "no {id} rows");
    }
    for row in experiment(&rr, "E7") {
        let Some(Json::Arr(sweep)) = row.get("sweep") else {
            panic!("expected a sweep array per workload");
        };
        for point in sweep {
            let h = num(point, "hit_ratio");
            assert!((0.0..=1.0).contains(&h), "hit ratio {h}");
        }
    }
    // On sieve, the hit ratio does not fall and T2 does not rise as the
    // DTB grows.
    let Some(Json::Arr(sweep)) = workload_row(&rr, "E7", "sieve").get("sweep") else {
        panic!("sieve has no sweep");
    };
    let points: Vec<(f64, f64)> = sweep
        .iter()
        .filter(|p| [4, 16, 64, 256].contains(&p.get("entries").and_then(Json::as_i64).unwrap()))
        .map(|p| (num(p, "hit_ratio"), num(p, "time_per_instruction")))
        .collect();
    assert_eq!(points.len(), 4);
    for w in points.windows(2) {
        assert!(w[0].0 <= w[1].0 + 1e-12, "{points:?}");
        assert!(w[0].1 >= w[1].1 - 1e-9, "{points:?}");
    }
    // Every degree from 1 to 8 at 32 entries holds sieve's loop.
    let Some(Json::Arr(degrees)) = workload_row(&rr, "E9", "sieve").get("degrees") else {
        panic!("sieve has no degrees");
    };
    for ways in [1, 2, 4, 8] {
        let point = degrees
            .iter()
            .find(|p| p.get("ways").and_then(Json::as_i64) == Some(ways))
            .unwrap_or_else(|| panic!("no {ways}-way point"));
        assert!(num(point, "hit_ratio") > 0.9, "{ways}-way: {point}");
    }
}

#[test]
fn section7_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_section7"), false);
    assert_eq!(rr.tool, "section7");
    for id in ["E2", "E3", "model", "E12"] {
        assert!(rr.config.get(id).is_some(), "config.{id} missing");
        assert!(!experiment(&rr, id).is_empty(), "no {id} rows");
    }
    let max_err = rr
        .config
        .get("model")
        .and_then(|c| c.get("max_abs_error_percent"))
        .and_then(Json::as_f64)
        .expect("config.model.max_abs_error_percent");
    assert!(max_err.is_finite());
}

#[test]
fn perf_gate_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_perf_gate"), true);
    assert_eq!(rr.tool, "perf_gate");
    for key in ["lut_bits", "workloads", "tolerance"] {
        assert!(rr.config.get(key).is_some(), "config.{key} missing");
    }
    let rows = rows_of(&rr);
    let decode: Vec<_> = rows
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("decode"))
        .collect();
    let translate: Vec<_> = rows
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("translate"))
        .collect();
    // One decode row per scheme, each with both planes' throughput and a
    // positive speedup ratio.
    assert_eq!(decode.len(), 6, "one decode row per scheme");
    for row in &decode {
        assert!(row.get("scheme").and_then(Json::as_str).is_some());
        for key in ["tree_mb_s", "table_mb_s", "speedup"] {
            let v = row.get(key).and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{key} = {v}");
        }
    }
    // Two translation stages: the words, and a stencil stamped into a
    // line.
    let stages: Vec<&str> = translate
        .iter()
        .filter_map(|r| r.get("stage").and_then(Json::as_str))
        .collect();
    assert_eq!(stages, ["plain", "stencil"]);
    for row in &translate {
        assert!(row.get("minstr_s").and_then(Json::as_f64).unwrap() > 0.0);
    }
}

#[test]
fn pool_throughput_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_pool_throughput"), true);
    assert_eq!(rr.tool, "pool_throughput");
    for key in ["tenants", "corpus", "host_cores"] {
        assert!(rr.config.get(key).is_some(), "config.{key} missing");
    }
    let rows = rows_of(&rr);
    assert_eq!(rows.len(), 4, "worker counts 1/2/4/8");
    let instrs: Vec<i64> = rows
        .iter()
        .map(|r| r.get("instructions").and_then(Json::as_i64).unwrap())
        .collect();
    // Modeled work is schedule-invariant: identical at every worker count.
    assert!(
        instrs.iter().all(|&i| i > 0 && i == instrs[0]),
        "{instrs:?}"
    );
    for row in rows {
        assert!(row.get("minstr_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        let p50 = row.get("latency_p50_ns").and_then(Json::as_f64).unwrap();
        let p99 = row.get("latency_p99_ns").and_then(Json::as_f64).unwrap();
        assert!(p50 > 0.0 && p50 <= p99);
    }
}
