//! Integration tests for the resilience plane: backoff-schedule
//! properties (satellite of the supervision work — every schedule must
//! be monotone, jitter-bounded, and terminate within the attempt cap),
//! plus end-to-end supervised pool behavior under chaos: budgets preempt
//! runaway tenants, retries recover transient failures bit-identically,
//! and shedding/quarantine account for every submitted tenant.

use std::sync::Arc;

use dir::encode::SchemeKind;
use uhm::resilience::{BackoffPolicy, ChaosConfig, Supervisor};
use uhm::{Budget, DtbConfig, Machine, MachinePool, Mode, RequestOutcome};

/// Property: for a broad sweep of policies, seeds and keys, every
/// backoff schedule is monotonically non-decreasing, every delay stays
/// under the jittered cap, and the schedule has exactly `attempts - 1`
/// entries (retrying terminates within the attempt cap).
#[test]
fn backoff_schedules_are_monotone_bounded_and_finite() {
    let mut rng = hlr::rng::Rng::new(0xBAC0FF);
    for _ in 0..200 {
        let policy = BackoffPolicy {
            max_attempts: rng.range_u64(1, 9) as u32,
            base_ns: rng.range_u64(1, 10_000_000),
            cap_ns: rng.range_u64(1, 1_000_000_000),
            jitter_percent: rng.range_u64(0, 101),
            seed: rng.next_u64(),
        };
        // The cap applies to the nominal delay; jitter may push past it
        // but never past cap * (1 + jitter%).
        let ceiling = policy
            .cap_ns
            .saturating_add(policy.cap_ns / 100 * policy.jitter_percent);
        for key in 0..8 {
            let schedule = policy.schedule(key);
            assert_eq!(
                schedule.len(),
                policy.attempts() as usize - 1,
                "one delay per retry, none after the final attempt: {policy:?}"
            );
            let mut prev = 0;
            for &delay in &schedule {
                assert!(
                    delay >= prev,
                    "non-monotone schedule {schedule:?} ({policy:?})"
                );
                assert!(
                    delay <= ceiling,
                    "delay {delay} exceeds jittered cap {ceiling} ({policy:?})"
                );
                prev = delay;
            }
            // Schedules are a pure function of (policy, key).
            assert_eq!(schedule, policy.schedule(key));
        }
    }
}

/// Zero jitter reduces the schedule to capped pure exponential backoff.
#[test]
fn zero_jitter_is_pure_capped_exponential() {
    let policy = BackoffPolicy {
        max_attempts: 6,
        base_ns: 1_000,
        cap_ns: 6_000,
        jitter_percent: 0,
        seed: 99,
    };
    assert_eq!(policy.schedule(0), vec![1_000, 2_000, 4_000, 6_000, 6_000]);
}

fn machine_for(src: &str) -> Arc<Machine> {
    let hir = hlr::compile(src).expect("test sources compile");
    Arc::new(Machine::new(
        &dir::compiler::compile(&hir),
        SchemeKind::Packed,
    ))
}

fn fleet_pool(workers: usize) -> MachinePool {
    let sources = [
        "proc main() begin int i := 0; while i < 30 do begin write i * i; i := i + 1; end end",
        "proc main() begin write 6 * 7; end",
        "proc main() begin int i := 0; while i < 200 do begin write i; i := i + 1; end end",
    ];
    let machines: Vec<Arc<Machine>> = sources.iter().map(|s| machine_for(s)).collect();
    let mut pool = MachinePool::new(workers);
    for t in 0..9 {
        pool.push(
            format!("tenant-{t}"),
            Arc::clone(&machines[t % machines.len()]),
            if t % 2 == 0 {
                Mode::Dtb(DtbConfig::with_capacity(32))
            } else {
                Mode::Interpreter
            },
        );
    }
    pool
}

fn supervisor() -> Supervisor {
    Supervisor {
        budget: Budget::fuel(2_000_000),
        ..Supervisor::default()
    }
}

/// End to end: a supervised pool under full-tilt chaos (crashes, hangs,
/// corrupted shared artifacts) loses no tenant, accounts every outcome,
/// and every surviving tenant's report is bit-identical to the chaos-off
/// run.
#[test]
fn supervised_pool_survives_chaos_bit_identically() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut reference = fleet_pool(3);
    reference.set_supervisor(Some(supervisor()));
    let baseline = reference.run();
    assert_eq!(baseline.outcome_count("completed"), 9);

    let mut pool = fleet_pool(3);
    pool.set_supervisor(Some(supervisor()));
    pool.set_chaos(Some(ChaosConfig {
        seed: 0x5EED,
        worker_crash_rate: 0.5,
        hang_rate: 0.5,
        artifact_corruption_rate: 0.5,
    }));
    let run = pool.run();
    std::panic::set_hook(hook);

    assert_eq!(run.results.len(), 9, "no tenant is silently lost");
    let accounted: usize = RequestOutcome::STATUSES
        .iter()
        .map(|s| run.outcome_count(s))
        .sum();
    assert_eq!(accounted, 9, "every outcome is accounted");
    for r in &run.results {
        if matches!(r.outcome, RequestOutcome::Completed(_)) {
            let reference = baseline.results.iter().find(|q| q.tenant == r.tenant);
            assert_eq!(
                Some(&r.outcome),
                reference.map(|q| &q.outcome),
                "survivor {} must match the chaos-off run bit for bit",
                r.name
            );
        }
    }
}
