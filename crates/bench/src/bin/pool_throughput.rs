//! **E16 — multi-tenant pool throughput:** aggregate host throughput of
//! the [`uhm::pool::MachinePool`] across worker counts, over tenants
//! cycling the full sample corpus. The figure of merit is aggregate
//! Minstr/s: total *modeled* DIR instructions retired across tenants,
//! divided by host wall-clock. The numerator is schedule-invariant (every
//! tenant's modeled metrics are bit-identical to a sequential run — the
//! pool is a pure host-side construct), so the ratio isolates what the
//! pool actually buys: parallel host execution over shared read-only
//! machines (image, decode tables, routine library).
//!
//! Run with `cargo run -p uhm-bench --release --bin pool_throughput`.
//! With `--json`, emits a versioned run report (one row per worker count,
//! including per-tenant latency percentiles) instead of the text table.
//! Every run exits non-zero if (a) any tenant's pooled outcome differs
//! from the sequential reference at any measured worker count, or (b)
//! the measured 4-worker/1-worker aggregate throughput ratio falls below
//! the scaling gate. The gate is 1.7x on hosts with >= 4 cores; on
//! narrower hosts threads only time-slice, so the threshold drops to
//! 1.15x (2-3 cores) or the ratio check is skipped (1 core) — the
//! bit-identity half of the gate always runs.

use std::process::ExitCode;
use std::sync::Arc;

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::pool::{MachinePool, PoolRun};
use uhm::RequestOutcome;
use uhm::{DtbConfig, Machine, Mode};
use uhm_bench::gate::{self, Gate};
use uhm_bench::{bench_report, workloads};

/// Tenants in the measured pool (cycling the sample corpus).
const TENANTS: usize = 24;
/// Worker counts measured; the scaling gate compares the 4-worker run
/// with the 1-worker run.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Pool runs per worker count; the fastest is reported (min-of-N, the
/// same discipline as the perf gate).
const SAMPLES: usize = 3;
/// Required 4-worker/1-worker throughput ratio on hosts with >= 4 cores.
const FULL_GATE: f64 = 1.7;
/// Relaxed ratio for 2-3 core hosts.
const NARROW_GATE: f64 = 1.15;

/// Builds the tenant machine set: one machine per workload, encoded once
/// and shared by all tenants of that workload.
fn machines() -> Vec<(String, Arc<Machine>)> {
    workloads()
        .into_iter()
        .map(|w| {
            let machine = Machine::new(&w.base, SchemeKind::Huffman);
            (w.name.to_string(), Arc::new(machine))
        })
        .collect()
}

fn build_pool(machines: &[(String, Arc<Machine>)], workers: usize) -> MachinePool {
    let mut pool = MachinePool::new(workers);
    for t in 0..TENANTS {
        let (name, machine) = &machines[t % machines.len()];
        pool.push(
            format!("{name}#{t}"),
            Arc::clone(machine),
            Mode::Dtb(DtbConfig::with_capacity(64)),
        );
    }
    pool
}

fn outcomes(run: &PoolRun) -> Vec<&RequestOutcome> {
    run.results.iter().map(|r| &r.outcome).collect()
}

/// Runs every worker count's pool `SAMPLES` times, the counts taking
/// turns so a slow phase of the host falls on all of them alike, and
/// returns each count's fastest run; every sample must be bit-identical
/// to the sequential reference.
fn measure(
    machines: &[(String, Arc<Machine>)],
    reference: &PoolRun,
    gate: &mut Gate,
) -> Vec<PoolRun> {
    let pools: Vec<MachinePool> = WORKER_COUNTS
        .iter()
        .map(|&workers| build_pool(machines, workers))
        .collect();
    let mut best: Vec<Option<PoolRun>> = WORKER_COUNTS.iter().map(|_| None).collect();
    for _ in 0..SAMPLES {
        for (pool, best) in pools.iter().zip(&mut best) {
            let run = pool.run();
            gate.require(
                outcomes(&run) == outcomes(reference),
                format!(
                    "{}-worker pool diverged from the sequential reference",
                    pool.workers()
                ),
            );
            if best.as_ref().is_none_or(|b| run.wall_ns < b.wall_ns) {
                *best = Some(run);
            }
        }
    }
    best.into_iter().map(|b| b.expect("SAMPLES > 0")).collect()
}

/// The speedup threshold for this host, by core count: `None` means the
/// ratio check cannot be meaningful (single core) and is skipped.
fn gate_for(cores: usize) -> Option<f64> {
    match cores {
        0 | 1 => None,
        2 | 3 => Some(NARROW_GATE),
        _ => Some(FULL_GATE),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let args = gate::args("pool_throughput", &[]);
    let machines = machines();
    let reference = build_pool(&machines, 1).run_sequential();
    let mut gate = Gate::without_baseline("pool_throughput");
    let runs = measure(&machines, &reference, &mut gate);
    let base_wall = runs[0].wall_ns as f64;
    let four = runs
        .iter()
        .find(|r| r.workers == 4)
        .expect("4 workers measured");
    let ratio = base_wall / four.wall_ns as f64;
    let cores = host_cores();
    if let Some(threshold) = gate_for(cores) {
        gate.require(
            ratio >= threshold,
            format!(
                "4-worker/1-worker throughput ratio {ratio:.2}x is below \
                 the {threshold:.2}x gate for a {cores}-core host"
            ),
        );
    }

    if args.json {
        let rows: Vec<Json> = runs
            .iter()
            .map(|run| {
                let p = run.latency_percentiles();
                Json::obj(vec![
                    ("workers", (run.workers as u64).into()),
                    ("tenants", (run.results.len() as u64).into()),
                    ("wall_ns", run.wall_ns.into()),
                    ("instructions", run.total_instructions().into()),
                    ("minstr_per_sec", run.minstr_per_sec().into()),
                    ("speedup", (base_wall / run.wall_ns as f64).into()),
                    ("latency_p50_ns", p.p50.into()),
                    ("latency_p95_ns", p.p95.into()),
                    ("latency_p99_ns", p.p99.into()),
                ])
            })
            .collect();
        let config = Json::obj(vec![
            ("tenants", (TENANTS as u64).into()),
            ("corpus", (machines.len() as u64).into()),
            ("samples", (SAMPLES as u64).into()),
            ("host_cores", (host_cores() as u64).into()),
            ("scheme", "huffman".into()),
            ("mode", "dtb".into()),
        ]);
        println!("{}", bench_report("pool_throughput", config, rows).render());
    } else {
        print_table(machines.len(), &runs);
    }
    gate.finish()
}

fn print_table(corpus: usize, runs: &[PoolRun]) {
    let base_wall = runs[0].wall_ns as f64;

    println!(
        "aggregate pool throughput: {TENANTS} tenants over {} workloads \
         ({} host cores; modeled work identical at every worker count)",
        corpus,
        host_cores()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10}",
        "workers", "wall ms", "Minstr/s", "speedup", "p50 us", "p95 us", "p99 us"
    );
    for run in runs {
        let p = run.latency_percentiles();
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>8.2}x {:>10.1} {:>10.1} {:>10.1}",
            run.workers,
            run.wall_ns as f64 / 1e6,
            run.minstr_per_sec(),
            base_wall / run.wall_ns as f64,
            p.p50 / 1e3,
            p.p95 / 1e3,
            p.p99 / 1e3
        );
    }
}
