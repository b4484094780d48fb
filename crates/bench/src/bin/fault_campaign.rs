//! **E14 — the fault plane (robustness):** sweep seeded fault injection
//! across fault classes and rates, reporting recovery rate, degraded-mode
//! fraction and cycle overhead per workload.
//!
//! Run with `cargo run -p uhm-bench --bin fault_campaign --release`.
//! With `--json`, emits a versioned run report instead of the text table.
//! Every run exits non-zero unless each DTB corruption cell (every
//! workload, both DTB classes, every rate) recovers with the clean run's
//! output and its telemetry corroborates the machine's counters — the
//! CI gate for the integrity machinery.

use std::process::ExitCode;

use dir::encode::SchemeKind;
use telemetry::{FaultKind, Json, RingSink};
use uhm::{CostModel, DtbConfig, FaultConfig, Limits, Machine, Mode, RunOptions};
use uhm_bench::gate::{self, Gate};
use uhm_bench::{bench_report, workloads, Workload};

const SEED: u64 = 0xFA14;
const RATES: [f64; 3] = [1e-4, 1e-3, 1e-2];
const KINDS: [FaultKind; 4] = [
    FaultKind::DtbWord,
    FaultKind::DtbTag,
    FaultKind::DirBit,
    FaultKind::FetchDrop,
];

/// One (workload, kind, rate) cell of the campaign.
struct Cell {
    workload: &'static str,
    kind: FaultKind,
    rate: f64,
    outcome: String,
    output_matches: bool,
    injected: u64,
    recoveries: u64,
    degraded_fraction: f64,
    overhead: f64,
    /// Telemetry event totals agree with the machine's counters.
    corroborated: bool,
}

impl Cell {
    /// A run "recovers" when it completes with the clean run's output —
    /// guaranteed for the DTB classes, best-effort elsewhere.
    fn recovered(&self) -> bool {
        self.outcome == "ok" && self.output_matches
    }
}

fn machine(w: &Workload) -> Machine {
    // Corrupted control flow can loop: bound every faulty run.
    let limits = Limits {
        max_steps: 5_000_000,
        ..Limits::default()
    };
    Machine::with(&w.base, SchemeKind::Huffman, CostModel::default(), limits)
}

fn run_cell(w: &Workload, clean: &uhm::Report, kind: FaultKind, rate: f64, seed: u64) -> Cell {
    let m = machine(w);
    let opts = RunOptions {
        faults: Some(FaultConfig::only(seed, kind, rate)),
        ..RunOptions::default()
    };
    let mode = Mode::Dtb(DtbConfig::with_capacity(64));
    let mut ring = RingSink::new(1024);
    match m.run_with(&mode, &mut ring, opts) {
        Ok(report) => {
            let metrics = &report.metrics;
            let faults = metrics.faults.unwrap_or_default();
            let counts = ring.counts();
            Cell {
                workload: w.name,
                kind,
                rate,
                outcome: "ok".into(),
                output_matches: report.output == clean.output,
                injected: faults.total(),
                recoveries: metrics.recoveries,
                degraded_fraction: metrics.degraded_instructions as f64
                    / metrics.instructions.max(1) as f64,
                overhead: metrics.cycles.total() as f64
                    / clean.metrics.cycles.total().max(1) as f64
                    - 1.0,
                corroborated: counts.faults_injected == faults.total()
                    && counts.recovery_misses == metrics.recoveries,
            }
        }
        Err(trap) => Cell {
            workload: w.name,
            kind,
            rate,
            outcome: format!("trap: {trap}"),
            output_matches: false,
            injected: ring.counts().faults_injected,
            recoveries: 0,
            degraded_fraction: 0.0,
            overhead: 0.0,
            corroborated: true, // nothing to cross-check after a trap
        },
    }
}

fn campaign() -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in workloads() {
        let clean = machine(&w)
            .run(&Mode::Dtb(DtbConfig::with_capacity(64)))
            .expect("samples are trap-free without injection");
        for kind in KINDS {
            for rate in RATES {
                // A decorrelated (but deterministic) seed per cell, via one
                // splitmix64 hop. With one shared seed — or seeds that only
                // shift the splitmix64 stream — every low-opportunity run
                // replays the same handful of draws and whole fault classes
                // never fire.
                let seed = hlr::rng::Rng::new(SEED ^ cells.len() as u64).next_u64();
                cells.push(run_cell(&w, &clean, kind, rate, seed));
            }
        }
    }
    cells
}

fn cell_json(c: &Cell) -> Json {
    Json::obj(vec![
        ("workload", c.workload.into()),
        ("kind", c.kind.label().into()),
        ("rate", c.rate.into()),
        ("outcome", c.outcome.as_str().into()),
        ("output_matches_clean", c.output_matches.into()),
        ("recovered", c.recovered().into()),
        ("faults_injected", c.injected.into()),
        ("recoveries", c.recoveries.into()),
        ("degraded_fraction", c.degraded_fraction.into()),
        ("cycle_overhead", c.overhead.into()),
        ("telemetry_corroborated", c.corroborated.into()),
    ])
}

/// The cells whose recovery is guaranteed: the DTB corruption classes.
fn is_dtb_class(c: &Cell) -> bool {
    matches!(c.kind, FaultKind::DtbWord | FaultKind::DtbTag)
}

fn main() -> ExitCode {
    let args = gate::args("fault_campaign", &[]);
    let cells = campaign();
    if args.json {
        let config = Json::obj(vec![
            ("seed", SEED.into()),
            ("scheme", "huffman".into()),
            ("dtb_entries", 64u64.into()),
            (
                "rates",
                Json::Arr(RATES.iter().map(|&r| r.into()).collect()),
            ),
            (
                "kinds",
                Json::Arr(KINDS.iter().map(|k| k.label().into()).collect()),
            ),
        ]);
        let rows = cells.iter().map(cell_json).collect();
        println!("{}", bench_report("fault_campaign", config, rows).render());
    } else {
        print_table(&cells);
    }
    let mut gate = Gate::without_baseline("fault_campaign");
    for c in cells.iter().filter(|c| is_dtb_class(c)) {
        gate.require(
            c.recovered() && c.corroborated,
            format!(
                "{} {} at {:.0e}: outcome={} match={} corroborated={}",
                c.workload,
                c.kind.label(),
                c.rate,
                c.outcome,
                c.output_matches,
                c.corroborated
            ),
        );
    }
    gate.finish()
}

fn print_table(cells: &[Cell]) {
    println!("Fault-injection campaign (Huffman DIR, 64-entry DTB, seed {SEED:#x})\n");
    println!(
        "{:>14} {:>10} {:>8} {:>10} {:>7} {:>7} {:>9} {:>9} {:>6}",
        "workload", "kind", "rate", "outcome", "faults", "recov", "degraded", "overhead", "corr"
    );
    for c in cells {
        println!(
            "{:>14} {:>10} {:>8.0e} {:>10} {:>7} {:>7} {:>8.2}% {:>+8.2}% {:>6}",
            c.workload,
            c.kind.label(),
            c.rate,
            if c.recovered() { "ok" } else { &c.outcome },
            c.injected,
            c.recoveries,
            c.degraded_fraction * 100.0,
            c.overhead * 100.0,
            if c.corroborated { "yes" } else { "NO" }
        );
    }
    let dtb_cells: Vec<&Cell> = cells.iter().filter(|c| is_dtb_class(c)).collect();
    let recovered = dtb_cells.iter().filter(|c| c.recovered()).count();
    println!(
        "\nDTB corruption recovery: {recovered}/{} runs completed with the clean output.",
        dtb_cells.len()
    );
    println!("DIR bit flips corrupt the ground truth itself: a typed trap (or, for");
    println!("flips landing in never-re-decoded code, a clean run) is the expected outcome.");
}
