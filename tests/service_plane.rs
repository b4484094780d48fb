//! Integration tests for the service plane: the request front-end over
//! the machine pool. The contract under test is the two-clocks split —
//! arrivals, queueing, shedding and latency live entirely on the
//! modeled clock (so a step is a pure function of the request mix, the
//! policy configuration, the rate and the seed), while the requests
//! that survive admission and backpressure are *really executed* on a
//! [`MachinePool`] and must produce outputs bit-identical to running
//! the same mix directly on a pool with no service front-end at all.

use std::sync::Arc;

use dir::encode::SchemeKind;
use uhm::resilience::AdmissionPolicy;
use uhm::resilience::Supervisor;
use uhm::service::{Service, ServiceConfig};
use uhm::{DtbConfig, Machine, MachinePool, Mode, RequestOutcome};

fn machine_for(source: &str) -> Arc<Machine> {
    let hir = hlr::compile(source).expect("test sources compile");
    let program = dir::compiler::compile(&hir);
    Arc::new(Machine::new(&program, SchemeKind::Packed))
}

/// A loop that writes its counter: distinct `iters` gives distinct
/// outputs and service times.
fn looping(iters: u32) -> Arc<Machine> {
    machine_for(&format!(
        "proc main() begin int i := 0; while i < {iters} do i := i + 1; write i; end"
    ))
}

fn dtb() -> Mode {
    Mode::Dtb(DtbConfig::with_capacity(64))
}

/// Every submitted request has exactly one recorded outcome at every
/// arrival rate, from idle to far past saturation — the zero-lost
/// invariant the load bench gates on.
#[test]
fn full_accounting_across_the_rate_sweep() {
    let mut service = Service::new(ServiceConfig {
        workers: 2,
        queue_watermark: Some(4),
        tenant_quota: Some(3),
        seed: 9,
        ..ServiceConfig::default()
    });
    for i in 0..14 {
        service.submit(
            format!("t{}", i % 3),
            format!("r{i}"),
            looping(40 + (i % 4) * 25),
            dtb(),
        );
    }
    let run = service.run_load(&[1, 50, 5_000, 500_000]);
    assert_eq!(run.steps.len(), 4);
    for step in &run.steps {
        assert_eq!(step.results.len(), 14);
        assert_eq!(step.lost(), 0, "no request may vanish");
        let accounted: usize = RequestOutcome::STATUSES
            .iter()
            .map(|s| step.outcome_count(s))
            .sum();
        assert_eq!(accounted, 14, "every outcome is one of the seven states");
    }
    assert_eq!(run.lost(), 0);
    assert_eq!(run.total_requests(), 56);
}

/// Completed service-path outputs are bit-identical to executing the
/// same request mix directly on a [`uhm::MachinePool`] with no
/// admission, queueing or shedding in front of it.
#[test]
fn service_outputs_are_bit_identical_to_direct_pool_execution() {
    let mut service = Service::new(ServiceConfig {
        workers: 3,
        seed: 21,
        ..ServiceConfig::default()
    });
    for i in 0..12u32 {
        service.submit(
            format!("t{}", i % 4),
            format!("r{i}"),
            looping(30 + i * 7),
            dtb(),
        );
    }
    // A generous rate: nothing is shed, so both paths run the full mix.
    let step = service.run_at(1);
    assert_eq!(step.outcome_count("completed"), 12);

    let direct = service.direct_pool().run();
    assert_eq!(direct.results.len(), 12);
    for (svc, pool) in step.results.iter().zip(&direct.results) {
        assert_eq!(svc.name, pool.name, "same submission order");
        let (RequestOutcome::Completed(a), RequestOutcome::Completed(b)) =
            (&svc.outcome, &pool.outcome)
        else {
            panic!("both paths complete {}", svc.name);
        };
        assert_eq!(a.output, b.output, "outputs diverged for {}", svc.name);
        assert_eq!(
            a.metrics.cycles.total(),
            b.metrics.cycles.total(),
            "modeled cycles diverged for {}",
            svc.name
        );
    }
}

/// The same service replayed with the same seed reproduces the step
/// exactly — arrivals, dispatch, latencies, outcomes and outputs — and
/// a different seed moves the (jittered) arrival times.
#[test]
fn replay_with_the_same_seed_is_deterministic() {
    let build = |seed| {
        let mut service = Service::new(ServiceConfig {
            workers: 2,
            queue_watermark: Some(5),
            seed,
            ..ServiceConfig::default()
        });
        for i in 0..10u32 {
            service.submit(format!("t{}", i % 2), format!("r{i}"), looping(60), dtb());
        }
        service
    };
    let a = build(0xABC).run_at(2_000);
    let b = build(0xABC).run_at(2_000);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.arrival_cycle, y.arrival_cycle);
        assert_eq!(x.start_cycle, y.start_cycle);
        assert_eq!(x.latency_cycles, y.latency_cycles);
        assert_eq!(x.worker, y.worker);
        assert_eq!(x.outcome.status(), y.outcome.status());
        match (&x.outcome, &y.outcome) {
            (RequestOutcome::Completed(p), RequestOutcome::Completed(q)) => {
                assert_eq!(p.output, q.output);
            }
            (RequestOutcome::Shed(p), RequestOutcome::Shed(q)) => assert_eq!(p, q),
            _ => {}
        }
    }
    assert_eq!(a.queue_peak, b.queue_peak);

    let c = build(0xDEF).run_at(2_000);
    assert!(
        a.results
            .iter()
            .zip(&c.results)
            .any(|(x, y)| x.arrival_cycle != y.arrival_cycle),
        "a different seed draws different arrival jitter"
    );
}

/// Under a skewed mix — one tenant flooding, others light — the
/// round-robin fair queue still serves every light tenant, and the
/// per-tenant quota sheds only the flooder's excess.
#[test]
fn fairness_under_skewed_tenants() {
    let mut service = Service::new(ServiceConfig {
        workers: 1,
        tenant_quota: Some(2),
        seed: 3,
        ..ServiceConfig::default()
    });
    // hog submits 10 requests, three light tenants one each.
    for i in 0..10 {
        service.submit("hog", format!("hog-{i}"), looping(150), dtb());
    }
    for t in 0..3 {
        service.submit(
            format!("light{t}"),
            format!("light-{t}"),
            looping(40),
            dtb(),
        );
    }
    let step = service.run_at(300_000);
    for r in &step.results {
        if r.tenant.starts_with("light") {
            assert_eq!(
                r.outcome.status(),
                "completed",
                "light tenant {} must not starve behind the flood",
                r.name
            );
        }
    }
    let quota_shed: Vec<_> = step
        .results
        .iter()
        .filter(|r| matches!(&r.outcome, RequestOutcome::Shed(m) if m.starts_with("quota:")))
        .collect();
    assert!(!quota_shed.is_empty(), "the flood exceeds its quota");
    assert!(
        quota_shed.iter().all(|r| r.tenant == "hog"),
        "only the flooding tenant is shed by quota"
    );

    // With lanes balanced, dispatch interleaves tenants round-robin
    // rather than draining one lane first.
    let mut balanced = Service::new(ServiceConfig {
        workers: 1,
        seed: 5,
        ..ServiceConfig::default()
    });
    for i in 0..4 {
        balanced.submit("a", format!("a{i}"), looping(50), dtb());
        balanced.submit("b", format!("b{i}"), looping(50), dtb());
    }
    let step = balanced.run_at(400_000);
    let mut served: Vec<_> = step.results.iter().filter(|r| r.outcome.served()).collect();
    served.sort_by_key(|r| r.start_cycle);
    let order: Vec<&str> = served.iter().map(|r| r.tenant.as_str()).collect();
    // The cursor may serve the same lane twice across an arrival
    // boundary (the other lane was empty at pop time), but it can never
    // serve one lane three times in a row while the other has backlog.
    assert!(
        order.windows(3).all(|w| !(w[0] == w[1] && w[1] == w[2])),
        "round-robin never drains one lane while the other waits, got {order:?}"
    );
    assert!(
        order.contains(&"a") && order.contains(&"b"),
        "both lanes are served: {order:?}"
    );
}

/// Backpressure engages exactly at the configured watermark: the
/// backlog never exceeds it, the overflow is shed with a
/// `backpressure:` reason, and removing the watermark serves everyone.
#[test]
fn backpressure_engages_at_the_watermark() {
    let build = |watermark| {
        let mut service = Service::new(ServiceConfig {
            workers: 1,
            queue_watermark: watermark,
            seed: 17,
            ..ServiceConfig::default()
        });
        for i in 0..12 {
            service.submit("t", format!("r{i}"), looping(200), dtb());
        }
        service
    };
    let step = build(Some(3)).run_at(500_000);
    assert!(step.queue_peak <= 3, "backlog is capped at the watermark");
    let shed: Vec<_> = step
        .results
        .iter()
        .filter(|r| r.outcome.status() == "shed")
        .collect();
    assert!(!shed.is_empty(), "the burst overflows a watermark of 3");
    for r in &shed {
        match &r.outcome {
            RequestOutcome::Shed(m) => assert!(
                m.starts_with("backpressure:"),
                "single-tenant overflow sheds via the watermark, got {m:?}"
            ),
            other => panic!("expected Shed, got {other:?}"),
        }
    }
    // Same burst, no watermark: everything queues and completes.
    let open = build(None).run_at(500_000);
    assert_eq!(open.outcome_count("completed"), 12);
    assert!(open.queue_peak > 3, "the uncapped backlog grows past 3");
}

/// Static admission rejects an oversized program before it executes —
/// and with `right_size` the same program is admitted on a grown DTB
/// geometry instead.
#[test]
fn admission_rejects_or_right_sizes_before_execution() {
    let big = machine_for(
        "proc main() begin \
         int a := 1; int b := 2; int c := 3; int d := 4; \
         int i := 0; \
         while i < 40 do begin \
           a := a + b; b := b + c; c := c + d; d := d + a; \
           i := i + 1; \
         end \
         write a + b + c + d; end",
    );
    // A one-entry DTB cannot hold the loop, so right-sizing fires.
    let tiny = Mode::Dtb(DtbConfig::with_capacity(1));
    let reject = |policy: AdmissionPolicy| {
        let mut service = Service::new(ServiceConfig {
            workers: 1,
            admission: policy,
            seed: 2,
            ..ServiceConfig::default()
        });
        service.submit("t", "big", Arc::clone(&big), tiny.clone());
        service.run_at(10)
    };
    // The supervised pool applies the same gate to the same program.
    let pooled = |policy: AdmissionPolicy| {
        let mut pool = MachinePool::new(1);
        pool.push("big", Arc::clone(&big), tiny.clone());
        pool.set_supervisor(Some(Supervisor {
            admission: policy,
            ..Supervisor::default()
        }));
        pool.run().results.remove(0).outcome
    };
    let policy = AdmissionPolicy {
        max_pressure_words: Some(1),
        right_size: false,
    };
    let step = reject(policy);
    match &step.results[0].outcome {
        RequestOutcome::Rejected(m) => {
            assert!(m.starts_with("admission:"), "{m:?}");
            assert!(m.contains("translation words"), "{m:?}");
        }
        other => panic!("expected a static rejection, got {other:?}"),
    }
    assert_eq!(step.served(), 0, "a rejected request never executes");
    assert_eq!(pooled(policy), step.results[0].outcome);

    let policy = AdmissionPolicy {
        max_pressure_words: None,
        right_size: true,
    };
    let step = reject(policy);
    // Right-sizing admits the program on the analyzer's recommended
    // geometry, through the service and the pool alike.
    let capacity = analyze::bound(big.program()).recommended.capacity();
    let want = big
        .run(&Mode::Dtb(DtbConfig::with_capacity(capacity)))
        .unwrap();
    assert_eq!(step.results[0].outcome.report(), Some(&want));
    assert_eq!(pooled(policy).report(), Some(&want));
}
