//! **E19 — the chaos campaign (pool resilience):** drive the supervised
//! pool through ≥100 seeded chaos scenarios — worker crashes, hung
//! tenants, corrupted translations, load shedding and
//! circuit-breaker walks — and assert the four resilience invariants in
//! every one:
//!
//! 1. **No tenant is silently lost** — every submitted tenant has
//!    exactly one result, even when its worker thread was crashed out
//!    from under it.
//! 2. **Every outcome is accounted** — the six outcome counts
//!    (completed / trapped / panicked / timed_out / shed / quarantined)
//!    always sum to the tenant count.
//! 3. **Surviving tenants are bit-identical** — a tenant that completes
//!    under chaos produces exactly the outcome (output and modeled
//!    metrics) of the chaos-off reference run.
//! 4. **p99 stays bounded** — per-scenario p99 tenant latency (including
//!    charged backoff) stays under an absolute ceiling.
//!
//! Every chaos decision is keyed by `(seed, tenant)`, never by schedule,
//! so the campaign's aggregate outcome table is deterministic; every run
//! checks the invariants and compares that table against the committed
//! baseline (`baselines/chaos_campaign.json`) exactly — the CI gate for
//! the resilience plane. With `--json`, emits a versioned resilience
//! report instead of the text table.
//!
//! Run with `cargo run -p uhm-bench --release --bin chaos_campaign`.

use std::process::ExitCode;
use std::sync::Arc;

use dir::encode::SchemeKind;
use telemetry::{Json, Kind, Report};
use uhm::resilience::{AdmissionPolicy, BreakerPolicy, ChaosConfig, Supervisor};
use uhm::{Budget, DtbConfig, Machine, MachinePool, Mode, PoolRun, RequestOutcome};
use uhm_bench::gate::{self, Gate};

const SEED: u64 = 0xC0A5;
/// Seeded chaos scenarios in the main matrix (the breaker and shedding
/// walks below push the total past the 100-scenario floor).
const MATRIX_SCENARIOS: usize = 100;
/// Modeled-cycle fuel per attempt: generous for the real workloads,
/// far below the runaway loop's appetite, and deterministic (fuel
/// preempts at a modeled cycle count, never at a wall-clock time).
const FUEL: u64 = 2_000_000;
/// Absolute per-scenario p99 latency ceiling, in nanoseconds. Latency
/// includes charged (never slept) backoff, so the ceiling mostly guards
/// against a hung tenant escaping its budget.
const P99_BOUND_NS: f64 = 2e9;
/// (worker_crash_rate, hang_rate, artifact_corruption_rate) combos the
/// matrix cycles through.
const RATES: [(f64, f64, f64); 4] = [
    (0.3, 0.0, 0.0),
    (0.0, 0.3, 0.0),
    (0.0, 0.0, 0.3),
    (0.2, 0.2, 0.2),
];

/// One scenario's outcome table plus its invariant verdicts.
struct Cell {
    label: String,
    seed: u64,
    workers: usize,
    rates: (f64, f64, f64),
    max_queue: Option<usize>,
    tenants: usize,
    completed: usize,
    trapped: usize,
    panicked: usize,
    timed_out: usize,
    shed: usize,
    quarantined: usize,
    retries: u64,
    worker_crashes: u64,
    p99_ns: f64,
    no_lost_tenants: bool,
    full_accounting: bool,
    bit_identical_survivors: bool,
    p99_bounded: bool,
}

impl Cell {
    fn invariants_hold(&self) -> bool {
        self.no_lost_tenants
            && self.full_accounting
            && self.bit_identical_survivors
            && self.p99_bounded
    }
}

fn machine_for(src: &str) -> Arc<Machine> {
    let hir = hlr::compile(src).expect("campaign sources compile");
    Arc::new(Machine::new(
        &dir::compiler::compile(&hir),
        SchemeKind::Packed,
    ))
}

/// The twelve-tenant fleet of the chaos matrix: small loops, two paper
/// samples, and one runaway "hog" whose fuel timeout is deterministic.
/// Every tenant gets its *own* machine, so circuit breakers are
/// per-tenant and the matrix outcomes stay schedule-invariant; the
/// dedicated breaker walk below shares one image on one worker instead.
fn fleet() -> Vec<(String, Arc<Machine>, Mode)> {
    let sources = [
        (
            "squares",
            "proc main() begin int i := 0; \
             while i < 25 do begin write i * i; i := i + 1; end end",
        ),
        (
            "fib",
            "proc main() begin int a := 0; int b := 1; int i := 0; \
             while i < 20 do begin int t := a + b; a := b; b := t; write a; i := i + 1; end end",
        ),
        ("answer", "proc main() begin write 6 * 7; end"),
        (
            "count",
            "proc main() begin int i := 0; \
             while i < 400 do begin write i; i := i + 1; end end",
        ),
        ("sieve", hlr::programs::SIEVE.source),
        ("gcd", hlr::programs::GCD_CHAIN.source),
        // Deterministically exceeds the fuel budget: ~200k iterations
        // of a 4-instruction loop dwarf the 2M-cycle allowance.
        (
            "hog",
            "proc main() begin int i := 0; \
             while i < 200000 do begin i := i + 1; end end",
        ),
    ];
    let modes = [
        Mode::Interpreter,
        Mode::Dtb(DtbConfig::with_capacity(64)),
        Mode::Dtb(DtbConfig::with_capacity(8)),
    ];
    (0..12)
        .map(|t| {
            let (name, src) = sources[t % sources.len()];
            (
                format!("{name}-{t}"),
                machine_for(src),
                modes[t % modes.len()].clone(),
            )
        })
        .collect()
}

fn supervisor(max_queue: Option<usize>, backoff_seed: u64) -> Supervisor {
    let mut sup = Supervisor {
        budget: Budget::fuel(FUEL),
        max_queue,
        // No right-sizing in the campaign: surviving tenants must be
        // bit-identical to the chaos-off reference in their *requested*
        // mode, so admission must not rewrite it.
        admission: AdmissionPolicy {
            max_pressure_words: None,
            right_size: false,
        },
        ..Supervisor::default()
    };
    sup.backoff.seed = backoff_seed;
    sup
}

fn cell_from_run(
    label: String,
    seed: u64,
    rates: (f64, f64, f64),
    max_queue: Option<usize>,
    run: &PoolRun,
    reference: &PoolRun,
) -> Cell {
    let n = reference.results.len();
    let mut present = vec![0usize; n];
    for r in &run.results {
        if let Some(slot) = present.get_mut(r.tenant) {
            *slot += 1;
        }
    }
    let no_lost_tenants = run.results.len() == n && present.iter().all(|&c| c == 1);
    let counted: usize = RequestOutcome::STATUSES
        .iter()
        .map(|s| run.outcome_count(s))
        .sum();
    let bit_identical_survivors = run.results.iter().all(|r| {
        !matches!(r.outcome, RequestOutcome::Completed(_))
            || reference
                .results
                .iter()
                .find(|q| q.tenant == r.tenant)
                .is_some_and(|q| q.outcome == r.outcome)
    });
    let p99_ns = run.latency_percentiles().p99;
    Cell {
        label,
        seed,
        workers: run.workers,
        rates,
        max_queue,
        tenants: n,
        completed: run.outcome_count("completed"),
        trapped: run.outcome_count("trapped"),
        panicked: run.outcome_count("panicked"),
        timed_out: run.outcome_count("timed_out"),
        shed: run.outcome_count("shed"),
        quarantined: run.outcome_count("quarantined"),
        retries: run.retries,
        worker_crashes: run.worker_crashes,
        p99_ns,
        no_lost_tenants,
        full_accounting: counted == run.results.len(),
        bit_identical_survivors,
        p99_bounded: p99_ns < P99_BOUND_NS,
    }
}

/// One matrix scenario: the fleet under seeded chaos, versus the same
/// pool with chaos off.
fn matrix_scenario(n: usize, fleet: &[(String, Arc<Machine>, Mode)]) -> Cell {
    // One splitmix64 hop decorrelates scenario seeds (cf. fault_campaign).
    let seed = hlr::rng::Rng::new(SEED ^ n as u64).next_u64();
    let rates = RATES[n % RATES.len()];
    let workers = [1, 2, 4][n % 3];
    let max_queue = if n.is_multiple_of(5) {
        Some(fleet.len() - 4)
    } else {
        None
    };
    let mut pool = MachinePool::new(workers);
    for (name, machine, mode) in fleet {
        pool.push(name.clone(), Arc::clone(machine), mode.clone());
    }
    pool.set_supervisor(Some(supervisor(max_queue, seed)));
    let reference = pool.run();
    pool.set_chaos(Some(ChaosConfig {
        seed,
        worker_crash_rate: rates.0,
        hang_rate: rates.1,
        artifact_corruption_rate: rates.2,
    }));
    let run = pool.run();
    cell_from_run(
        format!("matrix-{n}"),
        seed,
        rates,
        max_queue,
        &run,
        &reference,
    )
}

/// The breaker walk: six tenants share one hopeless image (infinite
/// recursion, a permanent trap) on a single worker, so the breaker
/// deterministically degrades after two failures and quarantines after
/// three; the remaining tenants never run.
fn breaker_scenario(n: usize) -> Cell {
    let boom = machine_for(
        "proc boom() -> int begin return boom(); end
         proc main() begin write boom(); end",
    );
    let mut pool = MachinePool::new(1);
    for t in 0..6 {
        pool.push(format!("boom-{t}"), Arc::clone(&boom), Mode::Interpreter);
    }
    let mut sup = supervisor(None, SEED ^ n as u64);
    sup.backoff.max_attempts = 1;
    sup.breaker = BreakerPolicy {
        degrade_after: 2,
        quarantine_after: 3,
    };
    pool.set_supervisor(Some(sup));
    let reference = pool.run();
    let run = pool.run();
    cell_from_run(
        format!("breaker-{n}"),
        SEED ^ n as u64,
        (0.0, 0.0, 0.0),
        None,
        &run,
        &reference,
    )
}

fn campaign() -> Vec<Cell> {
    // Worker-crash chaos panics by design; keep the campaign's stderr
    // clean (the invariants, not the backtraces, are the signal).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let fleet = fleet();
    let mut cells: Vec<Cell> = (0..MATRIX_SCENARIOS)
        .map(|n| matrix_scenario(n, &fleet))
        .collect();
    cells.extend((0..4).map(breaker_scenario));
    std::panic::set_hook(hook);
    cells
}

/// The campaign-wide outcome table: deterministic (every count is a pure
/// function of seeds and policies), so the gate compares it against the
/// committed baseline exactly.
fn outcome_table(cells: &[Cell]) -> Json {
    let sum = |f: fn(&Cell) -> u64| -> i64 { cells.iter().map(f).sum::<u64>() as i64 };
    Json::obj(vec![
        ("scenarios", (cells.len() as i64).into()),
        ("tenants", sum(|c| c.tenants as u64).into()),
        ("completed", sum(|c| c.completed as u64).into()),
        ("trapped", sum(|c| c.trapped as u64).into()),
        ("panicked", sum(|c| c.panicked as u64).into()),
        ("timed_out", sum(|c| c.timed_out as u64).into()),
        ("shed", sum(|c| c.shed as u64).into()),
        ("quarantined", sum(|c| c.quarantined as u64).into()),
        ("retries", sum(|c| c.retries).into()),
        ("worker_crashes", sum(|c| c.worker_crashes).into()),
    ])
}

fn invariants_json(cells: &[Cell]) -> Json {
    let all = |f: fn(&Cell) -> bool| Json::Bool(cells.iter().all(f));
    Json::obj(vec![
        ("no_lost_tenants", all(|c| c.no_lost_tenants)),
        ("full_accounting", all(|c| c.full_accounting)),
        (
            "bit_identical_survivors",
            all(|c| c.bit_identical_survivors),
        ),
        ("p99_bounded", all(|c| c.p99_bounded)),
    ])
}

fn cell_json(c: &Cell) -> Json {
    Json::obj(vec![
        ("scenario", c.label.as_str().into()),
        ("seed", (c.seed as i64).into()),
        ("workers", (c.workers as i64).into()),
        ("worker_crash_rate", c.rates.0.into()),
        ("hang_rate", c.rates.1.into()),
        ("artifact_corruption_rate", c.rates.2.into()),
        (
            "max_queue",
            c.max_queue.map_or(Json::Null, |q| (q as i64).into()),
        ),
        ("tenants", (c.tenants as i64).into()),
        ("completed", (c.completed as i64).into()),
        ("trapped", (c.trapped as i64).into()),
        ("panicked", (c.panicked as i64).into()),
        ("timed_out", (c.timed_out as i64).into()),
        ("shed", (c.shed as i64).into()),
        ("quarantined", (c.quarantined as i64).into()),
        ("retries", (c.retries as i64).into()),
        ("worker_crashes", (c.worker_crashes as i64).into()),
        ("p99_ns", c.p99_ns.into()),
        ("invariants_hold", c.invariants_hold().into()),
    ])
}

fn config_json() -> Json {
    Json::obj(vec![
        ("seed", (SEED as i64).into()),
        ("matrix_scenarios", (MATRIX_SCENARIOS as i64).into()),
        ("fuel", (FUEL as i64).into()),
        ("p99_bound_ns", P99_BOUND_NS.into()),
        (
            "rates",
            Json::Arr(
                RATES
                    .iter()
                    .map(|&(c, h, a)| {
                        Json::obj(vec![
                            ("crash", c.into()),
                            ("hang", h.into()),
                            ("corrupt", a.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn report(cells: &[Cell]) -> Report {
    Report::new(
        Kind::Resilience,
        "chaos_campaign",
        config_json(),
        [
            (
                "scenarios",
                Json::Arr(cells.iter().map(cell_json).collect()),
            ),
            ("outcomes", outcome_table(cells)),
            ("invariants", invariants_json(cells)),
        ],
    )
}

/// Committed reference outcome table; the gate fails on any deviation.
const BASELINE: &str = include_str!("../../baselines/chaos_campaign.json");

fn main() -> ExitCode {
    let args = gate::args("chaos_campaign", &[]);
    let cells = campaign();
    if args.json {
        println!("{}", report(&cells).render());
    } else {
        print_table(&cells);
    }
    let mut gate = Gate::new("chaos_campaign", BASELINE);
    for c in &cells {
        gate.require(
            c.invariants_hold(),
            format!(
                "{}: lost={} accounting={} bit_identical={} p99_bounded={}",
                c.label,
                !c.no_lost_tenants,
                c.full_accounting,
                c.bit_identical_survivors,
                c.p99_bounded
            ),
        );
    }
    gate.exact(&["outcomes"], &outcome_table(&cells));
    gate.finish()
}

fn print_table(cells: &[Cell]) {
    println!(
        "Chaos campaign ({} scenarios, fuel {FUEL} cycles, seed {SEED:#x})\n",
        cells.len()
    );
    println!(
        "{:>12} {:>3} {:>17} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>7} {:>5}",
        "scenario",
        "w",
        "rates(c/h/a)",
        "ok",
        "trap",
        "panic",
        "tout",
        "shed",
        "quar",
        "retry",
        "crashes",
        "inv"
    );
    for c in cells {
        println!(
            "{:>12} {:>3} {:>5.2}/{:>4.2}/{:>4.2} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>7} {:>5}",
            c.label,
            c.workers,
            c.rates.0,
            c.rates.1,
            c.rates.2,
            c.completed,
            c.trapped,
            c.panicked,
            c.timed_out,
            c.shed,
            c.quarantined,
            c.retries,
            c.worker_crashes,
            if c.invariants_hold() { "ok" } else { "FAIL" }
        );
    }
    let held = cells.iter().filter(|c| c.invariants_hold()).count();
    println!(
        "\nInvariants held in {held}/{} scenarios; outcome table: {}",
        cells.len(),
        outcome_table(cells).render()
    );
}
