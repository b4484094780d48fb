//! A table/figure/gate bench binary's `--json` output must be one
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

#[test]
fn dtb_sweep_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_dtb_sweep"), false);
    assert_eq!(rr.tool, "dtb_sweep");
    let rows = rows_of(&rr);
    assert!(!rows.is_empty());
    for row in rows {
        let Some(Json::Arr(sweep)) = row.get("sweep") else {
            panic!("expected a sweep array per workload");
        };
        // Hit ratio is monotone in capacity for LRU on these workloads —
        // and always a valid probability.
        for point in sweep {
            let h = point.get("hit_ratio").and_then(Json::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&h), "hit ratio {h}");
        }
    }
}

#[test]
fn table1_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_table1"), false);
    assert_eq!(rr.tool, "table1");
    let rows = rows_of(&rr);
    // PSDER, PDP-11 and 360-RX representations at minimum.
    assert!(rows.len() >= 3);
    for row in rows {
        assert!(row.get("total_bits").and_then(Json::as_i64).unwrap() > 0);
    }
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
    // One translation stage: templates built in place.
    assert_eq!(translate.len(), 1, "one translation stage");
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

#[test]
fn model_check_emits_a_run_report() {
    let rr = report_of(env!("CARGO_BIN_EXE_model_check"), false);
    assert_eq!(rr.tool, "model_check");
    let max_err = rr
        .config
        .get("max_abs_error_percent")
        .and_then(Json::as_f64)
        .expect("config.max_abs_error_percent");
    assert!(max_err.is_finite());
}
