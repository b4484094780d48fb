//! Shared helpers for the benchmark harness.
//!
//! Three binaries under `src/bin/` regenerate the tables and figures of
//! Rau (1978), one per group of paper sections: `representations`
//! (Table 1, Figure 1, §3.2), `dtb_design` (§4–5) and `section7` (Tables
//! 2 and 3, the model check, §8's cost case). Each runs every machine it
//! needs once and reads all its tables from those runs ([`Tables`]).
//! Eight more gate the cross-cutting planes (`fault_campaign`,
//! `perf_gate`, `pool_throughput`, `analyze_gate`, `profile_gate`,
//! `chaos_campaign`, `conformance_sweep`, `service_load`) against their
//! committed baselines or bounds on every run — see DESIGN.md's
//! experiment index. Every binary prints plain-text tables to stdout, or
//! the same data as one versioned [`telemetry::Report`] line via
//! `--json`; a gate's verdict goes to stderr and its exit code
//! ([`gate`]). This library holds the flag parser, the gate and the
//! workload plumbing they share.

pub mod corpus;
pub mod gate;
pub mod timing;

use dir::program::Program;
use telemetry::{Json, Kind};

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

/// The tables of one reproduction binary, each value written once into
/// both output forms side by side: the text lines and the `--json` rows,
/// each row tagged with the experiment (DESIGN.md's index) it belongs
/// to. [`Tables::print`] prints one of the two.
#[derive(Debug, Default)]
pub struct Tables {
    lines: Vec<String>,
    config: Vec<(&'static str, Json)>,
    rows: Vec<Json>,
}

impl Tables {
    /// Appends one line of the text output.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records experiment `id`'s settings, the report's `config.<id>`.
    pub fn config(&mut self, id: &'static str, fields: Vec<(&'static str, Json)>) {
        self.config.push((id, Json::obj(fields)));
    }

    /// Appends one `--json` row of experiment `id`, whose first field is
    /// `experiment`.
    pub fn row(&mut self, id: &'static str, fields: Vec<(&'static str, Json)>) {
        let tag = ("experiment", Json::from(id));
        self.rows
            .push(Json::obj(std::iter::once(tag).chain(fields)));
    }

    /// Prints `tool`'s report if `json`, the text otherwise.
    pub fn print(self, tool: &str, json: bool) {
        if json {
            let config = Json::obj(self.config);
            println!("{}", bench_report(tool, config, self.rows).render());
        } else {
            for line in self.lines {
                println!("{line}");
            }
        }
    }
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
}
