//! **E21 — the service-plane load trajectory:** drive an open-loop
//! arrival-rate sweep through `uhm::service` over the shared workload
//! corpus and commit the resulting latency-under-load trajectory as an
//! exact baseline.
//!
//! Each step replays the same request mix (the core workloads, one
//! tenant lane per workload, DTB mode) at a stepped arrival rate —
//! requests per million modeled cycles — through a service with a
//! queue watermark and a per-tenant quota. Because arrivals, service
//! times, queueing and shedding all live on the modeled clock, every
//! step's p50/p95/p99/p99.9 and outcome table are bit-reproducible;
//! every run compares the trajectory against the committed baseline
//! (`baselines/service_load.json`) **exactly** — the CI gate for the
//! service plane. The SLOs asserted in every run:
//!
//! 1. **Zero lost requests** — every submitted request has exactly one
//!    recorded outcome in every step.
//! 2. **Full accounting** — the five outcome counts (completed /
//!    trapped / panicked / rejected / shed) sum to the request count.
//! 3. **Bounded p99** — each step's modeled p99 latency stays under an
//!    absolute ceiling (the committed baseline pins the exact value;
//!    the ceiling guards the sweep itself against runaway queueing).
//!
//! With `--json`, emits a versioned service report with an `slo`
//! section; with `--baseline`, prints the baseline file's exact contents
//! (how `baselines/service_load.json` is regenerated after an
//! intentional change; that run prints no gate verdict and exits 0).
//!
//! Run with `cargo run -p uhm-bench --release --bin service_load`.

use std::process::ExitCode;
use std::sync::Arc;

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::service::{Service, ServiceConfig, ServiceRun};
use uhm::{DtbConfig, Machine, Mode, RequestOutcome};
use uhm_bench::core_workloads;
use uhm_bench::gate::{self, Gate};

/// Seed of the arrival jitter streams.
const SEED: u64 = 0x5E41;
/// Dispatch width: simulated servers and host pool workers.
const WORKERS: usize = 4;
/// Requests per load step (the mix cycles through the core workloads).
const REQUESTS: usize = 60;
/// Backpressure watermark: total backlog above which arrivals shed.
const QUEUE_WATERMARK: usize = 24;
/// Per-tenant quota: one tenant's backlog cap.
const TENANT_QUOTA: usize = 10;
/// The stepped open-loop arrival rates, in requests per million modeled
/// cycles — spanning idle to well past saturation.
const RATES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Absolute per-step p99 ceiling on the modeled clock, in cycles.
const P99_BOUND_CYCLES: f64 = 2e8;

/// Builds the service under test: the core workloads (base tier, packed
/// scheme) behind one tenant lane per workload,
/// `REQUESTS` requests round-robin across them.
fn service() -> Service {
    let machines: Vec<(&'static str, Arc<Machine>)> = core_workloads()
        .iter()
        .map(|w| (w.name, Arc::new(Machine::new(&w.base, SchemeKind::Packed))))
        .collect();
    let mut service = Service::new(ServiceConfig {
        workers: WORKERS,
        queue_watermark: Some(QUEUE_WATERMARK),
        tenant_quota: Some(TENANT_QUOTA),
        seed: SEED,
        ..ServiceConfig::default()
    });
    for i in 0..REQUESTS {
        let (name, machine) = &machines[i % machines.len()];
        service.submit(
            *name,
            format!("{name}-{i}"),
            Arc::clone(machine),
            Mode::Dtb(DtbConfig::with_capacity(64)),
        );
    }
    service
}

/// The deterministic trajectory table: the canonical per-step JSON with
/// the host-side observables stripped — exactly what the baseline
/// commits and the gate compares.
fn trajectory(run: &ServiceRun) -> Json {
    Json::Arr(
        run.steps
            .iter()
            .map(|s| match uhm::report::step_json(s) {
                Json::Obj(pairs) => {
                    Json::Obj(pairs.into_iter().filter(|(k, _)| k != "host").collect())
                }
                other => other,
            })
            .collect(),
    )
}

fn config_json() -> Json {
    Json::obj(vec![
        ("seed", (SEED as i64).into()),
        ("workers", (WORKERS as i64).into()),
        ("requests_per_step", (REQUESTS as i64).into()),
        ("queue_watermark", (QUEUE_WATERMARK as i64).into()),
        ("tenant_quota", (TENANT_QUOTA as i64).into()),
        (
            "rates_per_mcycle",
            Json::Arr(RATES.iter().map(|&r| (r as i64).into()).collect()),
        ),
        ("p99_bound_cycles", P99_BOUND_CYCLES.into()),
        ("scheme", "packed".into()),
        ("mode", "dtb64".into()),
    ])
}

/// The three SLO verdicts over a finished sweep.
fn slo_json(run: &ServiceRun) -> Json {
    let full_accounting = run.steps.iter().all(|s| {
        let counted: usize = RequestOutcome::STATUSES
            .iter()
            .map(|x| s.outcome_count(x))
            .sum();
        counted == s.results.len()
    });
    let p99_bounded = run
        .steps
        .iter()
        .all(|s| s.latency_percentiles().p99 < P99_BOUND_CYCLES);
    Json::obj(vec![
        ("zero_lost_requests", Json::Bool(run.lost() == 0)),
        ("full_accounting", Json::Bool(full_accounting)),
        ("p99_bounded", Json::Bool(p99_bounded)),
    ])
}

/// Committed reference trajectory; the gate fails on any deviation.
const BASELINE: &str = include_str!("../../baselines/service_load.json");

/// The baseline file's contents for the current sweep (regenerate with
/// `--baseline` after an intentional policy or corpus change).
fn baseline_json(run: &ServiceRun) -> Json {
    Json::obj(vec![
        ("tool", "service_load".into()),
        ("config", config_json()),
        ("trajectory", trajectory(run)),
    ])
}

fn main() -> ExitCode {
    let args = gate::args("service_load", &["--baseline"]);
    let run = service().run_load(&RATES);
    let slo = slo_json(&run);
    if args.baseline {
        println!("{}", baseline_json(&run).render());
        return ExitCode::SUCCESS;
    }
    if args.json {
        let mut report = uhm::report::service_report("service_load", config_json(), &run);
        report.push("slo", slo.clone());
        println!("{}", report.render());
    } else {
        print_table(&run, &slo);
    }
    let mut gate = Gate::new("service_load", BASELINE);
    for key in ["zero_lost_requests", "full_accounting", "p99_bounded"] {
        gate.require(
            slo.get(key).and_then(Json::as_bool) == Some(true),
            format!("SLO {key} violated"),
        );
    }
    gate.exact(&["trajectory"], &trajectory(&run));
    gate.finish()
}

fn print_table(run: &ServiceRun, slo: &Json) {
    println!(
        "Service load trajectory ({REQUESTS} requests/step, {WORKERS} workers, \
         watermark {QUEUE_WATERMARK}, quota {TENANT_QUOTA}, seed {SEED:#x})\n"
    );
    println!(
        "{:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>11} {:>11} {:>11} {:>11}",
        "rate", "ok", "rej", "shed", "lost", "qpeak", "p50", "p95", "p99", "p99.9"
    );
    for s in &run.steps {
        let p = s.latency_percentiles();
        println!(
            "{:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>11.0} {:>11.0} {:>11.0} {:>11.0}",
            s.rate_per_mcycle,
            s.outcome_count("completed"),
            s.outcome_count("rejected"),
            s.outcome_count("shed"),
            s.lost(),
            s.queue_peak,
            p.p50,
            p.p95,
            p.p99,
            p.p999
        );
    }
    println!("\nSLOs: {}", slo.render());
}
