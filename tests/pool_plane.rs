//! Integration tests for the multi-tenant pool plane: a pooled run is a
//! pure host-side optimization, so every tenant's output, traps and
//! modeled metrics must be bit-identical to running the same machines
//! sequentially — under any worker count, with shared machines and
//! deterministic fault campaigns. A
//! misbehaving (panicking) tenant must not take the pool down.

use std::sync::Arc;

use dir::encode::SchemeKind;
use uhm::pool::MachinePool;
use uhm::{DtbConfig, FaultConfig, Machine, Mode, RequestOutcome};

fn seeded_machine(seed: u64, scheme: SchemeKind) -> Arc<Machine> {
    let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
    let hir = hlr::sema::analyze(&ast).expect("generated programs are valid");
    let program = dir::compiler::compile(&hir);
    Arc::new(Machine::new(&program, scheme))
}

fn modes() -> Vec<Mode> {
    vec![
        Mode::Interpreter,
        Mode::Dtb(DtbConfig::with_capacity(32)),
        Mode::ICache {
            geometry: memsim::Geometry::new(16, 4),
        },
    ]
}

/// Builds a pool of seeded random tenants cycling schemes and modes;
/// machines are shared between tenants 8 apart.
fn seeded_pool(workers: usize, tenants: usize) -> MachinePool {
    let schemes = [
        SchemeKind::Packed,
        SchemeKind::Huffman,
        SchemeKind::ByteAligned,
    ];
    let machines: Vec<Arc<Machine>> = (0..8.min(tenants as u64))
        .map(|seed| seeded_machine(seed, schemes[seed as usize % schemes.len()]))
        .collect();
    let modes = modes();
    let mut pool = MachinePool::new(workers);
    for t in 0..tenants {
        pool.push(
            format!("seed-{}", t % machines.len()),
            Arc::clone(&machines[t % machines.len()]),
            modes[t % modes.len()].clone(),
        );
    }
    pool
}

fn outcomes(run: &uhm::PoolRun) -> Vec<&RequestOutcome> {
    run.results.iter().map(|r| &r.outcome).collect()
}

/// Pooled execution is bit-identical to sequential execution — outputs,
/// traps, and every modeled metric — across worker counts.
#[test]
fn pooled_execution_matches_sequential_across_worker_counts() {
    let tenants = 12;
    let reference = seeded_pool(1, tenants).run_sequential();
    assert_eq!(reference.results.len(), tenants);
    for workers in [1, 2, 4, 8] {
        let pooled = seeded_pool(workers, tenants).run();
        assert_eq!(
            outcomes(&reference),
            outcomes(&pooled),
            "{workers} workers diverged from sequential reference"
        );
    }
}

/// Per-tenant fault seeds are derived from the tenant index, so a fault
/// campaign replays identically under any schedule.
#[test]
fn fault_campaign_is_schedule_invariant() {
    let base = FaultConfig {
        seed: 0xC0FFEE,
        dtb_word_rate: 0.01,
        dir_bit_rate: 0.0005,
        ..FaultConfig::inert(0)
    };
    let mut reference = seeded_pool(1, 10);
    reference.set_faults(Some(base));
    let sequential = reference.run_sequential();
    for workers in [2, 4] {
        let mut pool = seeded_pool(workers, 10);
        pool.set_faults(Some(base));
        let pooled = pool.run();
        assert_eq!(
            outcomes(&sequential),
            outcomes(&pooled),
            "{workers}-worker fault campaign diverged"
        );
    }
}

/// A tenant whose host-side construction panics (invalid DTB geometry)
/// is reported as `Panicked`; every other tenant still completes with
/// results identical to an all-good pool.
#[test]
fn panicking_tenant_does_not_poison_the_pool() {
    let good = seeded_pool(4, 9);
    let reference = good.run_sequential();

    let mut pool = seeded_pool(4, 9);
    let machine = Arc::clone(&pool.tenants()[0].machine);
    let bad_mode = Mode::Dtb(DtbConfig {
        unit_words: 0,
        ..DtbConfig::with_capacity(16)
    });
    pool.push("saboteur", machine, bad_mode);

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = pool.run();
    std::panic::set_hook(hook);

    assert_eq!(run.results.len(), 10);
    assert_eq!(run.completed(), 9);
    assert!(matches!(
        run.results[9].outcome,
        RequestOutcome::Panicked(_)
    ));
    assert_eq!(&outcomes(&run)[..9], &outcomes(&reference)[..]);
}

/// The pool is one in-order queue: a tenant that holds its worker up
/// holds back no later tenant. Tenant 0's sink factory parks (bounded
/// wait) until tenants 1–11 have all been handed out, so the other
/// worker must take every one of them, in submission order, and the
/// outcomes still equal the sequential reference.
#[test]
fn a_parked_tenant_holds_nothing_back() {
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    let pool = seeded_pool(2, 12);
    let handed_out = Mutex::new(Vec::new());
    let all_out = Condvar::new();
    let (run, _) = pool.run_with_sinks(|idx| {
        let mut order = handed_out.lock().unwrap();
        order.push(idx);
        if idx == 0 {
            // Bounded, so a scheduler that never hands out the rest
            // fails the order check below instead of hanging.
            drop(all_out.wait_timeout_while(order, Duration::from_secs(10), |o| o.len() < 12));
        } else if order.len() == 12 {
            all_out.notify_all();
        }
        telemetry::NullSink
    });
    let order = handed_out.into_inner().unwrap();
    let rest: Vec<usize> = order.into_iter().filter(|&i| i != 0).collect();
    assert_eq!(rest, (1..12).collect::<Vec<_>>(), "hand-out order");
    let reference = seeded_pool(1, 12).run_sequential();
    assert_eq!(outcomes(&reference), outcomes(&run));
}

/// The pool report renders a valid pool-kind report that round-trips and
/// carries consistent aggregates.
#[test]
fn pool_report_json_is_consistent() {
    let run = seeded_pool(2, 6).run();
    let config = telemetry::Json::obj([
        ("workers", telemetry::Json::from(2i64)),
        ("tenants", telemetry::Json::from(6i64)),
    ]);
    let report = uhm::report::pool_report("pool_plane_test", config, &run);
    let back = telemetry::Report::parse(&report.render(), telemetry::Kind::Pool).unwrap();
    assert_eq!(back, report);
    let section = |name: &str| back.section(name).unwrap();
    let agg = section("aggregate");
    assert_eq!(
        agg.get("completed").and_then(telemetry::Json::as_i64),
        Some(run.completed() as i64)
    );
    assert_eq!(
        agg.get("instructions").and_then(telemetry::Json::as_i64),
        Some(run.total_instructions() as i64)
    );
    assert_eq!(section("tenants").as_arr().unwrap().len(), 6);
    let latency = |p: &str| {
        section("latency_ns")
            .get(p)
            .and_then(telemetry::Json::as_f64)
    };
    assert!(latency("p50").unwrap() <= latency("p99").unwrap());
}
