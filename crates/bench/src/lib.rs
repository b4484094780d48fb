//! Shared helpers for the benchmark harness.
//!
//! Each binary under `src/bin/` either regenerates one table or figure
//! of Rau (1978) or gates one of the cross-cutting planes
//! (`fault_campaign`, `perf_gate`, `pool_throughput`, `analyze_gate`,
//! `profile_gate`, `chaos_campaign`, `conformance_sweep`, `service_load`)
//! against its committed baseline or bounds on every run — see DESIGN.md's
//! experiment index. Every binary prints a plain-text table to stdout and
//! the same data as one versioned [`telemetry::Report`] line via `--json`;
//! a gate's verdict goes to stderr and its exit code ([`gate`]). This
//! library holds the flag parser, the gate and the workload plumbing
//! they share.

pub mod corpus;
pub mod gate;
pub mod timing;

use dir::encode::SchemeKind;
use dir::program::Program;
use telemetry::{Json, Kind};
use uhm::{DtbConfig, Machine, Mode, Report};

/// A compiled workload at both semantic tiers.
pub struct Workload {
    /// Sample name.
    pub name: &'static str,
    /// Base-tier (stack) DIR program.
    pub base: Program,
    /// Fused-tier DIR program.
    pub fused: Program,
}

/// Compiles every sample at both semantic tiers.
pub fn workloads() -> Vec<Workload> {
    hlr::programs::ALL
        .iter()
        .map(|s| {
            let base = dir::compiler::compile(&s.compile().expect("samples compile"));
            let (fused, _) = dir::fuse::fuse(&base);
            Workload {
                name: s.name,
                base,
                fused,
            }
        })
        .collect()
}

/// A small representative subset for the slower sweeps.
pub fn core_workloads() -> Vec<Workload> {
    let keep = ["sieve", "fib_rec", "gcd_chain", "queens", "straightline"];
    workloads()
        .into_iter()
        .filter(|w| keep.contains(&w.name))
        .collect()
}

/// Runs a program in all three machine modes under one scheme, returning
/// `(interpreter, dtb, icache)` reports.
///
/// The i-cache geometry is matched to the DTB's level-1 footprint in
/// words, honouring the paper's "roughly the same resources" comparison.
pub fn run_three(
    program: &Program,
    scheme: SchemeKind,
    dtb: DtbConfig,
) -> (Report, Report, Report) {
    let machine = Machine::new(program, scheme);
    let interp = machine
        .run(&Mode::Interpreter)
        .expect("samples are trap-free");
    let dtb_report = machine.run(&Mode::Dtb(dtb)).expect("samples are trap-free");
    let cache_words = dtb.buffer_words();
    // One cache line per level-2 word; equal word count = equal capacity.
    let ways = 4;
    let sets = (cache_words / ways).max(1);
    let icache = machine
        .run(&Mode::ICache {
            geometry: memsim::Geometry::new(sets, ways),
        })
        .expect("samples are trap-free");
    (interp, dtb_report, icache)
}

/// Builds the canonical [`Kind::Run`] report the table, figure and gate
/// bench binaries emit under `--json`: `tool` names the binary, `config`
/// its knobs, and `rows` (an array of objects, one per printed table row)
/// lands in the report's `output` section. The `metrics` section carries
/// the row count so consumers can sanity-check truncation.
pub fn bench_report(tool: &str, config: Json, rows: Vec<Json>) -> telemetry::Report {
    let metrics = Json::obj(vec![("rows", (rows.len() as u64).into())]);
    telemetry::Report::new(
        Kind::Run,
        tool,
        config,
        [
            ("metrics", metrics),
            ("derived", Json::obj(vec![])),
            ("output", Json::Arr(rows)),
        ],
    )
}

/// Serializes one machine-run report as a row: identifying fields plus
/// the full canonical metrics/derived sections from [`uhm::report`].
pub fn run_row(fields: Vec<(&'static str, Json)>, report: &Report) -> Json {
    let mut all = fields;
    all.push(("metrics", uhm::report::metrics_json(&report.metrics)));
    all.push(("derived", uhm::report::derived_json(&report.metrics)));
    Json::obj(all)
}

/// Prints a formatted row of floats.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:>14}");
    for v in values {
        print!(" {v:>9.2}");
    }
    println!();
}

/// Prints a rule line sized for `n` value columns.
pub fn print_rule(n: usize) {
    println!("{}", "-".repeat(14 + 10 * n));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_and_validate() {
        for w in workloads() {
            w.base.validate().unwrap();
            w.fused.validate().unwrap();
        }
    }

    #[test]
    fn core_subset_is_nonempty() {
        assert!(core_workloads().len() >= 4);
    }

    #[test]
    fn run_three_agrees_across_modes() {
        let w = &workloads()[2]; // fib_iter: cheap
        let (a, b, c) = run_three(&w.base, SchemeKind::Packed, DtbConfig::with_capacity(64));
        assert_eq!(a.output, b.output);
        assert_eq!(b.output, c.output);
    }
}
