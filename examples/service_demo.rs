//! Service plane: put the universal host machine behind a request
//! front-end and watch the latency-under-load trajectory emerge.
//!
//! Arrivals live on the *modeled* clock (requests per million modeled
//! cycles), so every number printed here — queue depths, latencies,
//! shed decisions — is an exact, replayable function of the workload
//! mix, the policy knobs and the seed.
//!
//! Run with `cargo run --example service_demo`.

use std::sync::Arc;

use dir::encode::SchemeKind;
use uhm::resilience::AdmissionPolicy;
use uhm::service::{Service, ServiceConfig};
use uhm::{DtbConfig, Machine, Mode};

fn machine(source: &str) -> Arc<Machine> {
    let hir = hlr::compile(source).expect("valid RAUL");
    let program = dir::compiler::compile(&hir);
    Arc::new(Machine::new(&program, SchemeKind::Packed))
}

fn main() {
    let quick = machine(
        "proc main() begin int i; int s := 0; \
         for i := 1 to 40 do s := s + i; write s; end",
    );
    let slow = machine(
        "proc main() begin int i; int s := 0; \
         for i := 1 to 400 do s := s + i * i; write s; end",
    );

    // 1. A service: 2 dispatch slots, a backlog watermark of 4, and
    //    admission wired to the analyze plane's static pressure bound.
    let mut service = Service::new(ServiceConfig {
        workers: 2,
        admission: AdmissionPolicy::default(),
        queue_watermark: Some(4),
        tenant_quota: Some(6),
        seed: 0xDEC0DE,
    });

    // 2. Two tenants share the front-end; each gets its own FIFO lane
    //    and the dispatcher drains lanes round-robin.
    for i in 0..6 {
        service.submit("alpha", format!("alpha-{i}"), Arc::clone(&quick), dtb());
        service.submit("beta", format!("beta-{i}"), Arc::clone(&slow), dtb());
    }

    // 3. One low rate, one past the knee: same twelve requests, very
    //    different trajectories.
    println!("rate  ok shed lost qpeak     p50-cycles     p99-cycles");
    for rate in [2, 2_000] {
        let step = service.run_at(rate);
        let lat = step.latency_percentiles();
        println!(
            "{rate:>4} {:>3} {:>4} {:>4} {:>5} {:>14.0} {:>14.0}",
            step.outcome_count("completed"),
            step.outcome_count("shed"),
            step.lost(),
            step.queue_peak,
            lat.p50,
            lat.p99,
        );
    }

    // 4. Every request is accounted for — completed, trapped,
    //    panicked, rejected or shed; nothing is ever lost — and served
    //    outputs are bit-identical to running the same mix directly on
    //    the MachinePool (`Service::direct_pool`).
    println!("\nReplay the sweep with `raul load` or `service_load` (E21).");
}

fn dtb() -> Mode {
    Mode::Dtb(DtbConfig::with_capacity(64))
}
