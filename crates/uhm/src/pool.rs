//! Multi-tenant execution: a sharded pool of host machines.
//!
//! Rau's UHM is a *host* for many guest programs; this module models the
//! hosting side. A [`MachinePool`] runs N independent tenant programs
//! across a configurable set of worker threads. Scheduling is one
//! in-order work queue: the tenants in submission order behind a shared
//! atomic cursor, from which whichever worker is free takes the next —
//! the same discipline the service plane simulates on the modeled clock
//! ([`crate::service`]).
//!
//! Three invariants the pool maintains, in order of importance:
//!
//! 1. **Bit-identical results.** Every tenant produces exactly the
//!    output, traps and *modeled* metrics it would produce running alone
//!    on a sequential machine ([`MachinePool::run_sequential`] is the
//!    reference). Host-side sharing — one [`Machine`] behind an [`Arc`],
//!    so one encoded image and its decode tables serve every tenant of
//!    it, and every machine reads the one process-wide stencil table —
//!    never leaks into modeled behavior (DESIGN.md §6). Each run stamps
//!    its lines into its own DTB ways and scratch line, so there is no
//!    mutable translation state to share.
//! 2. **Deterministic faults.** A pool-level base [`FaultConfig`] is
//!    re-seeded per tenant as `base_seed ^ tenant_index`. The tenant
//!    index — *not* the worker id — keys the stream, because which
//!    worker takes a tenant depends on host timing; tenant-keyed seeds
//!    keep fault campaigns replayable under any interleaving.
//! 3. **Isolation.** A panicking tenant (e.g. one constructed over an
//!    invalid DTB geometry) is caught with `catch_unwind`, reported as
//!    [`RequestOutcome::Panicked`], and the remaining tenants complete.
//!
//! Latency percentiles and aggregate throughput of a pool run are
//! summarized by [`PoolRun`]; `crate::report::pool_report` renders the
//! [`telemetry::Kind::Pool`] report that `raul pool --json` and
//! `raul chaos --json` print.
//!
//! # Supervision
//!
//! Every tenant runs through one attempt loop, which applies the
//! resilience layer of [`crate::resilience`]. Without a [`Supervisor`]
//! or [`ChaosConfig`] attached the loop is a pass-through: one attempt
//! in the requested mode, no admission, no shedding and no circuit
//! breakers. Attaching either via [`MachinePool::set_supervisor`] /
//! [`MachinePool::set_chaos`] engages the policies:
//!
//! - **Shedding** — tenants queued past the [`Supervisor::max_queue`]
//!   watermark are refused up front ([`RequestOutcome::Shed`]).
//! - **Admission** — [`AdmissionPolicy::admit`], the gate the service
//!   plane also uses, rejects oversized programs
//!   ([`RequestOutcome::Rejected`]) or right-sizes an undersized DTB
//!   before the first attempt.
//! - **Budget** — every attempt runs under the supervisor's [`Budget`];
//!   fuel or deadline exhaustion is reported as
//!   [`RequestOutcome::TimedOut`].
//! - **Retry** — transient failures (fault-plane traps, panics,
//!   timeouts) are re-run up to the [`BackoffPolicy`] attempt cap with
//!   seeded, jittered exponential backoff. Backoff is *charged* to the
//!   tenant's latency, not slept, so supervised campaigns stay fast.
//!   Retries re-seed pool-level fault streams per attempt and build clean
//!   translations.
//! - **Circuit breaking** — consecutive failures of one image first
//!   degrade it to pure interpretation, then quarantine it
//!   ([`RequestOutcome::Quarantined`]). The breaker bank is shared
//!   mutable state keyed by image, so it is the one supervision feature
//!   whose transitions are schedule-*sensitive* with several workers;
//!   campaigns that assert breaker walks pin `workers = 1`.
//! - **Chaos** — worker crashes (the panic escapes the tenant's
//!   isolation boundary and kills the worker thread), hung tenants
//!   (an infinite-loop stand-in runs first; only a budget preempts it)
//!   and corrupted translations (every line the first attempt stamps is
//!   dropped) are rolled statelessly per tenant index, so the
//!   injected set is schedule-invariant. Tenants lost to a worker crash are recovered
//!   by a post-join sweep: *no tenant is silently lost*.
//!
//! Per-tenant final outcomes are deterministic functions of
//! `(tenant, seeds, policies)` — everything except breaker transitions
//! and the observational fields (latency, worker) replays exactly under
//! any worker count.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dir::exec::Trap;
use telemetry::{NullSink, Percentiles, TraceSink};

use crate::config::Budget;
use crate::fault::FaultConfig;
use crate::machine::{Machine, Mode, RunOptions};
use crate::metrics::Report;
use crate::resilience::{
    AdmissionPolicy, BackoffPolicy, Breaker, BreakerPolicy, BreakerState, ChaosConfig, Supervisor,
};
use crate::service::RequestOutcome;

/// One guest of the pool: a named program bound to a machine and mode.
///
/// Tenants may share a [`Machine`] (the `Arc` is cloned, not the
/// machine), which is how one encoded image serves many tenants.
#[derive(Debug, Clone)]
pub struct PoolTenant {
    /// Display name, e.g. the workload name.
    pub name: String,
    /// The shared, immutable host machine this tenant runs on.
    pub machine: Arc<Machine>,
    /// The fetch-path configuration (T1/T2/T3/two-level) for this tenant.
    pub mode: Mode,
}

/// The result of one tenant within a pool run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantResult {
    /// Index of the tenant in submission order.
    pub tenant: usize,
    /// The tenant's display name.
    pub name: String,
    /// The worker thread that executed this tenant. Informational only:
    /// which free worker takes a tenant depends on host timing, so
    /// nothing deterministic may key off it.
    pub worker: usize,
    /// Host wall-clock time of this tenant's run, in nanoseconds.
    /// Supervised runs include all attempts plus the *charged* (never
    /// slept) backoff delays.
    pub latency_ns: u64,
    /// Execution attempts made (1 on the pass-through; 0 when the
    /// tenant was shed or quarantined before running).
    pub attempts: u32,
    /// Total backoff delay charged to this tenant across retries, in
    /// nanoseconds (0 unless the supervisor retried it).
    pub backoff_ns: u64,
    /// How the run ended.
    pub outcome: RequestOutcome,
}

/// The aggregated result of one [`MachinePool::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRun {
    /// Per-tenant results, in tenant-index (submission) order.
    pub results: Vec<TenantResult>,
    /// Host wall-clock of the whole pool run, in nanoseconds.
    pub wall_ns: u64,
    /// Number of worker threads that served the run.
    pub workers: usize,
    /// Supervised retries across all tenants: the sum of
    /// `attempts - 1` over tenants that ran at least once.
    pub retries: u64,
    /// Chaos-injected worker crashes whose tenants were recovered (one
    /// per tenant whose crash injection fired).
    pub worker_crashes: u64,
}

impl PoolRun {
    /// p50/p95/p99/p99.9 of the served tenants' latencies
    /// ([`RequestOutcome::served`]) in nanoseconds. Shed and rejected
    /// tenants never ran, so their zero latencies are left out.
    pub fn latency_percentiles(&self) -> Percentiles {
        let served = self.results.iter().filter(|r| r.outcome.served());
        Percentiles::of(&served.map(|r| r.latency_ns as f64).collect::<Vec<_>>())
    }

    /// Host nanoseconds each worker spent executing tenants (length =
    /// `workers`), summed from per-tenant latencies.
    pub fn worker_busy_ns(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.workers];
        for r in &self.results {
            if let Some(b) = busy.get_mut(r.worker) {
                *b += r.latency_ns;
            }
        }
        busy
    }

    /// Per-worker utilization: busy time over pool wall-clock, in
    /// `[0, 1]` (clamped; empty wall yields zeros).
    pub fn worker_utilization(&self) -> Vec<f64> {
        self.worker_busy_ns()
            .iter()
            .map(|&b| {
                if self.wall_ns == 0 {
                    0.0
                } else {
                    (b as f64 / self.wall_ns as f64).min(1.0)
                }
            })
            .collect()
    }

    /// Number of tenants that completed without trap or panic.
    pub fn completed(&self) -> usize {
        self.outcome_count("completed")
    }

    /// Number of tenants whose outcome carries the given
    /// [`RequestOutcome::status`] string. The full accounting invariant:
    /// the counts over [`RequestOutcome::STATUSES`] always sum to
    /// `results.len()`.
    pub fn outcome_count(&self, status: &str) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.status() == status)
            .count()
    }

    /// Total *modeled* DIR instructions across completed tenants.
    pub fn total_instructions(&self) -> u64 {
        self.completed_reports()
            .map(|r| r.metrics.instructions)
            .sum()
    }

    /// Total *modeled* cycles across completed tenants.
    pub fn total_cycles(&self) -> u64 {
        self.completed_reports()
            .map(|r| r.metrics.cycles.total())
            .sum()
    }

    /// Aggregate throughput in millions of modeled DIR instructions per
    /// host wall-clock second — the E16 figure of merit. Modeled work
    /// over host time: the numerator is schedule-invariant, only the
    /// denominator reflects the pool's parallelism.
    pub fn minstr_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.total_instructions() as f64 * 1e3 / self.wall_ns as f64
    }

    fn completed_reports(&self) -> impl Iterator<Item = &Report> {
        self.results.iter().filter_map(|r| r.outcome.report())
    }
}

/// A pool of worker threads executing independent tenant programs.
///
/// ```
/// use std::sync::Arc;
/// use uhm::pool::MachinePool;
/// use uhm::{Machine, Mode};
///
/// let hir = hlr::compile("proc main() begin write 6 * 7; end")?;
/// let prog = dir::compiler::compile(&hir);
/// let machine = Arc::new(Machine::new(&prog, dir::encode::SchemeKind::Packed));
///
/// let mut pool = MachinePool::new(2);
/// for i in 0..4 {
///     pool.push(format!("t{i}"), Arc::clone(&machine), Mode::Interpreter);
/// }
/// let run = pool.run();
/// assert_eq!(run.completed(), 4);
/// for r in &run.results {
///     assert_eq!(r.outcome.report().unwrap().output, vec![42]);
/// }
/// # Ok::<(), hlr::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MachinePool {
    tenants: Vec<PoolTenant>,
    workers: usize,
    fault_base: Option<FaultConfig>,
    supervisor: Option<Supervisor>,
    chaos: Option<ChaosConfig>,
}

impl MachinePool {
    /// Creates an empty pool with `workers` worker threads (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> MachinePool {
        MachinePool {
            tenants: Vec::new(),
            workers: workers.max(1),
            fault_base: None,
            supervisor: None,
            chaos: None,
        }
    }

    /// Adds a tenant; returns `self` for chaining.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        machine: Arc<Machine>,
        mode: Mode,
    ) -> &mut Self {
        self.tenants.push(PoolTenant {
            name: name.into(),
            machine,
            mode,
        });
        self
    }

    /// Sets a pool-level base fault configuration. Tenant `i` runs with
    /// `base` re-seeded as `base.seed ^ i`, so tenants sharing one
    /// machine still get distinct, replayable fault streams. `None` (the
    /// default) runs every tenant fault-free.
    pub fn set_faults(&mut self, base: Option<FaultConfig>) -> &mut Self {
        self.fault_base = base;
        self
    }

    /// Attaches a [`Supervisor`]: subsequent runs apply its policies
    /// (shedding, admission, budget, retry, breaker; see the module
    /// docs). `None` (the default) restores the pass-through.
    pub fn set_supervisor(&mut self, supervisor: Option<Supervisor>) -> &mut Self {
        self.supervisor = supervisor;
        self
    }

    /// Attaches pool-level chaos injection. Chaos alone also engages the
    /// default [`Supervisor`]'s policies (unlimited budget, default
    /// retry and breakers); pair it with a [`Supervisor`] carrying a
    /// budget so hung tenants are preempted rather than running to the
    /// step limit.
    pub fn set_chaos(&mut self, chaos: Option<ChaosConfig>) -> &mut Self {
        self.chaos = chaos;
        self
    }

    /// The number of worker threads this pool will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tenants in submission order.
    pub fn tenants(&self) -> &[PoolTenant] {
        &self.tenants
    }

    /// Runs every tenant across the worker set and collects the results
    /// in tenant order. Workers take tenants from one queue in
    /// submission order: a tenant is never handed out before an earlier
    /// one, whichever worker is free takes it.
    pub fn run(&self) -> PoolRun {
        self.run_with_sinks(|_| NullSink).0
    }

    /// Runs like [`MachinePool::run`], but gives every tenant its own
    /// trace sink built by `make_sink(tenant_index)`. The sinks are
    /// returned in tenant (submission) order alongside the run, so
    /// per-tenant profiles can be aggregated afterwards.
    ///
    /// The sink only observes — each tenant's event stream is a
    /// deterministic function of that tenant alone, so outputs, traps
    /// and modeled metrics remain bit-identical to [`MachinePool::run`]
    /// (and to [`MachinePool::run_sequential`]) under any schedule.
    pub fn run_with_sinks<S, F>(&self, make_sink: F) -> (PoolRun, Vec<S>)
    where
        S: TraceSink + Send,
        F: Fn(usize) -> S + Sync,
    {
        let workers = self.workers.min(self.tenants.len()).max(1);
        let sv = self.supervision();
        // The one queue: tenants in submission order behind a shared
        // cursor. A free worker takes the next index until none is left.
        let cursor = AtomicUsize::new(0);

        let started = Instant::now();
        let mut collected: Vec<Vec<(TenantResult, S)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    let make_sink = &make_sink;
                    let sv = &sv;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= self.tenants.len() {
                                return local;
                            }
                            // A chaos worker crash escapes the tenant's
                            // isolation boundary: the worker dies mid-job
                            // and every result it held is lost until the
                            // recovery sweep below re-runs the missing
                            // tenants.
                            if sv.chaos.crashes_worker(idx) {
                                panic!("chaos: injected worker crash on tenant {idx}");
                            }
                            let mut sink = make_sink(idx);
                            let result = self.run_tenant(idx, w, &mut sink, sv);
                            local.push((result, sink));
                        }
                    })
                })
                .collect();
            // Tenant panics are caught inside `run_tenant`, so only a
            // chaos crash kills a worker; its tenants are recovered below.
            collected.extend(handles.into_iter().filter_map(|h| h.join().ok()));
        });

        let mut pairs: Vec<(TenantResult, S)> = collected.into_iter().flatten().collect();
        // Recovery sweep: any tenant missing from the collected results
        // rode a crashed worker (or was still queued when the last worker
        // died). Re-run each on the recovery lane (worker id = `workers`),
        // counting the tenants whose own crash injection fired. Nothing
        // is silently lost.
        let mut worker_crashes = 0u64;
        let mut have = vec![false; self.tenants.len()];
        for (r, _) in &pairs {
            have[r.tenant] = true;
        }
        for idx in (0..self.tenants.len()).filter(|&i| !have[i]) {
            if sv.chaos.crashes_worker(idx) {
                worker_crashes += 1;
            }
            let mut sink = make_sink(idx);
            let result = self.run_tenant(idx, workers, &mut sink, &sv);
            pairs.push((result, sink));
        }
        let wall_ns = started.elapsed().as_nanos() as u64;

        pairs.sort_by_key(|(r, _)| r.tenant);
        let (results, sinks): (Vec<TenantResult>, Vec<S>) = pairs.into_iter().unzip();
        (
            PoolRun {
                retries: total_retries(&results),
                results,
                wall_ns,
                workers,
                worker_crashes,
            },
            sinks,
        )
    }

    /// Runs every tenant in submission order on the calling thread — the
    /// reference semantics the threaded [`MachinePool::run`] must match
    /// bit-for-bit (same outputs, traps, modeled metrics and fault
    /// streams; only latencies and wall-clock differ). Supervision and
    /// chaos apply here too (a chaos worker crash is counted, then the
    /// tenant recovered inline), so a sequential run is also the
    /// reference for supervised outcomes.
    pub fn run_sequential(&self) -> PoolRun {
        let started = Instant::now();
        let sv = self.supervision();
        let mut worker_crashes = 0u64;
        let results: Vec<TenantResult> = (0..self.tenants.len())
            .map(|i| {
                if sv.chaos.crashes_worker(i) {
                    worker_crashes += 1;
                }
                self.run_tenant(i, 0, &mut NullSink, &sv)
            })
            .collect();
        PoolRun {
            wall_ns: started.elapsed().as_nanos() as u64,
            retries: total_retries(&results),
            results,
            workers: 1,
            worker_crashes,
        }
    }

    /// The per-run supervision context. With neither a supervisor nor
    /// chaos attached it is the pass-through: one attempt in the
    /// requested mode under an unlimited budget, with no admission, no
    /// shedding and no circuit breakers — a plain run of every tenant.
    fn supervision(&self) -> Supervision {
        let supervised = self.supervisor.is_some() || self.chaos.is_some();
        let pass_through = Supervisor {
            budget: Budget::unlimited(),
            backoff: BackoffPolicy {
                max_attempts: 1,
                ..BackoffPolicy::default()
            },
            breaker: BreakerPolicy::default(),
            admission: AdmissionPolicy {
                max_pressure_words: None,
                right_size: false,
            },
            max_queue: None,
        };
        let chaos = self.chaos.unwrap_or(ChaosConfig::quiet(0));
        Supervision {
            supervisor: match self.supervisor {
                Some(sup) => sup,
                None if supervised => Supervisor::default(),
                None => pass_through,
            },
            hang: (chaos.hang_rate > 0.0).then(|| Arc::new(hang_machine())),
            chaos,
            breakers: supervised.then(|| Mutex::new(HashMap::new())),
        }
    }

    /// The one tenant path: shedding → admission → attempt loop with
    /// breaker gate, budget, retry/backoff and chaos injection. Every
    /// decision except breaker state is a pure function of
    /// `(idx, seeds, policies)`, so outcomes replay under any schedule.
    fn run_tenant<S: TraceSink>(
        &self,
        idx: usize,
        worker: usize,
        sink: &mut S,
        sv: &Supervision,
    ) -> TenantResult {
        let tenant = &self.tenants[idx];
        let sup = &sv.supervisor;
        let done = |attempts: u32, backoff_ns: u64, latency_ns: u64, outcome| TenantResult {
            tenant: idx,
            name: tenant.name.clone(),
            worker,
            latency_ns,
            attempts,
            backoff_ns,
            outcome,
        };

        // Load shedding: the backlog watermark is checked against the
        // submission index — deterministic, unlike instantaneous queue
        // depth, which depends on worker timing.
        if let Some(watermark) = sup.max_queue {
            if idx >= watermark {
                return done(
                    0,
                    0,
                    0,
                    RequestOutcome::Shed(format!(
                        "queue watermark {watermark} exceeded at depth {idx}"
                    )),
                );
            }
        }

        // Admission control: reject or right-size from the static DTB
        // pressure bound before spending any cycles on the tenant.
        let admitted = sup
            .admission
            .admit(&tenant.mode, || analyze::bound(tenant.machine.program()));
        let mode = match admitted {
            Ok(mode) => mode,
            Err(reason) => return done(0, 0, 0, RequestOutcome::Rejected(reason)),
        };

        let key = Arc::as_ptr(&tenant.machine) as usize;
        let schedule = sup.backoff.schedule(idx as u64);
        let mut backoff_ns = 0u64;
        let started = Instant::now();
        let mut attempts = 0;
        loop {
            // Breaker gate, re-read per attempt: another tenant of the
            // same image may have tripped it since the last attempt.
            let (state, failures) = sv.breaker(key);
            if state == BreakerState::Quarantined {
                return done(
                    attempts,
                    backoff_ns,
                    elapsed_plus(started, backoff_ns),
                    RequestOutcome::Quarantined(format!(
                        "image quarantined after {failures} consecutive failures"
                    )),
                );
            }
            if attempts > 0 {
                // Backoff is charged, not slept: campaigns replay the
                // schedule without waiting it out.
                backoff_ns += schedule.get(attempts as usize - 1).copied().unwrap_or(0);
            }
            let outcome = self.attempt(idx, attempts, state, &mode, sink, sv);
            attempts += 1;
            let verdict = classify(&outcome);
            if verdict != Verdict::Transient || attempts == sup.backoff.attempts() {
                sv.record(key, verdict == Verdict::Success);
                return done(
                    attempts,
                    backoff_ns,
                    elapsed_plus(started, backoff_ns),
                    outcome,
                );
            }
        }
    }

    /// One attempt: resolves chaos injections, the effective
    /// machine/mode and fault re-seeding for `attempt`,
    /// then runs under the supervisor's budget.
    fn attempt<S: TraceSink>(
        &self,
        idx: usize,
        attempt: u32,
        state: BreakerState,
        mode: &Mode,
        sink: &mut S,
        sv: &Supervision,
    ) -> RequestOutcome {
        let tenant = &self.tenants[idx];
        // Hung-tenant chaos: the first attempt runs an infinite-loop
        // stand-in instead of the tenant's program. Only the budget can
        // preempt it; the retry then runs the real program.
        let hung = attempt == 0 && sv.chaos.hangs(idx);
        let machine: &Machine = match (&hung, &sv.hang) {
            (true, Some(hang)) => hang,
            _ => &tenant.machine,
        };
        // A degraded image runs in pure interpretation: the cheapest
        // mode, with no DTB lines left to corrupt.
        let mode = if state == BreakerState::Degraded || hung {
            Mode::Interpreter
        } else {
            mode.clone()
        };
        // Pool-level fault streams are keyed by tenant (schedule-proof)
        // and re-salted per retry so a retry sees a fresh stream.
        let faults = self.fault_base.filter(|_| !hung).map(|base| FaultConfig {
            seed: base.seed ^ idx as u64 ^ (u64::from(attempt) << 32),
            ..base
        });
        // Corrupted-translation chaos: attempt 0 may drop every line it
        // stamps; retries stamp clean ones.
        let opts = RunOptions {
            faults,
            budget: sv.supervisor.budget,
            poison_translations: attempt == 0 && !hung && sv.chaos.corrupts_translations(idx),
            ..RunOptions::default()
        };
        let run = catch_unwind(AssertUnwindSafe(|| machine.run_with(&mode, sink, opts)));
        match run {
            Ok(Ok(report)) => RequestOutcome::Completed(Box::new(report)),
            Ok(Err(trap @ (Trap::FuelExhausted | Trap::DeadlineExceeded))) => {
                RequestOutcome::TimedOut(trap)
            }
            Ok(Err(trap)) => RequestOutcome::Trapped(trap),
            Err(payload) => RequestOutcome::Panicked(panic_message(&payload)),
        }
    }
}

/// Per-run supervision context: the policies plus the shared mutable
/// state (breaker bank, hang stand-in) one pool run needs.
struct Supervision {
    supervisor: Supervisor,
    chaos: ChaosConfig,
    /// Infinite-loop stand-in machine for hung-tenant chaos, built once
    /// per run (only when the hang rate is non-zero).
    hang: Option<Arc<Machine>>,
    /// Circuit breakers keyed by image identity (the `Arc<Machine>`
    /// pointer): tenants sharing a machine share a breaker. `None` on
    /// the pass-through, which never degrades or quarantines.
    breakers: Option<Mutex<HashMap<usize, Breaker>>>,
}

impl Supervision {
    /// The breaker state and consecutive-failure count of image `key`.
    fn breaker(&self, key: usize) -> (BreakerState, u32) {
        let Some(bank) = &self.breakers else {
            return (BreakerState::Closed, 0);
        };
        let bank = bank
            .lock()
            .expect("no code panics holding the breaker bank");
        bank.get(&key)
            .map_or((BreakerState::Closed, 0), |b| (b.state(), b.failures()))
    }

    /// Records a tenant's final outcome against image `key`'s breaker.
    fn record(&self, key: usize, success: bool) {
        let Some(bank) = &self.breakers else {
            return;
        };
        let mut bank = bank
            .lock()
            .expect("no code panics holding the breaker bank");
        let breaker = bank.entry(key).or_default();
        if success {
            breaker.record_success();
        } else {
            breaker.record_failure(&self.supervisor.breaker);
        }
    }
}

/// How an attempt's outcome steers the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Completed: final, closes the breaker.
    Success,
    /// Worth retrying: fault-plane traps (a fresh fault stream may
    /// miss), malformed dispatch (the translations may have been
    /// corrupted — retries build clean ones), budget preemption (the first attempt may
    /// have been a chaos hang) and host panics.
    Transient,
    /// Deterministic guest behavior (division by zero, bounds, limits):
    /// retrying replays the same trap, so fail fast.
    Permanent,
}

fn classify(outcome: &RequestOutcome) -> Verdict {
    match outcome {
        RequestOutcome::Completed(_) => Verdict::Success,
        RequestOutcome::Panicked(_) | RequestOutcome::TimedOut(_) => Verdict::Transient,
        RequestOutcome::Trapped(
            Trap::FetchFailed { .. } | Trap::CorruptDir { .. } | Trap::Malformed(_),
        ) => Verdict::Transient,
        // Refusals are decided before any attempt, never returned by one.
        RequestOutcome::Trapped(_)
        | RequestOutcome::Rejected(_)
        | RequestOutcome::Shed(_)
        | RequestOutcome::Quarantined(_) => Verdict::Permanent,
    }
}

/// Host wall-clock since `started` plus the charged (never slept)
/// backoff, in nanoseconds.
fn elapsed_plus(started: Instant, backoff_ns: u64) -> u64 {
    (started.elapsed().as_nanos() as u64).saturating_add(backoff_ns)
}

/// Sum of `attempts - 1` over tenants that ran at least once.
fn total_retries(results: &[TenantResult]) -> u64 {
    results
        .iter()
        .map(|r| u64::from(r.attempts.saturating_sub(1)))
        .sum()
}

/// The hung-tenant stand-in: an infinite loop with no output, compiled
/// once per chaos run. Only a budget (or the step limit) ends it.
fn hang_machine() -> Machine {
    let hir =
        hlr::compile("proc main() begin int i := 0; while i < 1 do begin i := i * 1; end end")
            .expect("hang stand-in compiles");
    Machine::new(
        &dir::compiler::compile(&hir),
        dir::encode::SchemeKind::Packed,
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtb::DtbConfig;
    use crate::service::{Service, ServiceConfig};
    use dir::encode::SchemeKind;
    use telemetry::FaultKind;

    fn machine_for(src: &str) -> Arc<Machine> {
        let hir = hlr::compile(src).expect("test source compiles");
        let prog = dir::compiler::compile(&hir);
        Arc::new(Machine::new(&prog, SchemeKind::Packed))
    }

    fn sample_pool(workers: usize) -> MachinePool {
        let sources = [
            "proc main() begin int i := 0; while i < 25 do begin write i * i; i := i + 1; end end",
            "proc main() begin int a := 0; int b := 1; int i := 0; \
             while i < 20 do begin int t := a + b; a := b; b := t; write a; i := i + 1; end end",
            "proc main() begin write 6 * 7; end",
        ];
        let machines: Vec<Arc<Machine>> = sources.iter().map(|s| machine_for(s)).collect();
        let mut pool = MachinePool::new(workers);
        for t in 0..7 {
            let m = &machines[t % machines.len()];
            let mode = if t % 2 == 0 {
                Mode::Dtb(DtbConfig::with_capacity(16))
            } else {
                Mode::Interpreter
            };
            pool.push(format!("tenant-{t}"), Arc::clone(m), mode);
        }
        pool
    }

    fn outcomes(run: &PoolRun) -> Vec<(&str, &RequestOutcome)> {
        run.results
            .iter()
            .map(|r| (r.name.as_str(), &r.outcome))
            .collect()
    }

    #[test]
    fn pooled_results_match_sequential_bit_for_bit() {
        let pool = sample_pool(4);
        let seq = pool.run_sequential();
        let par = pool.run();
        // Same tenants, same order, identical outputs / traps / modeled
        // metrics (RequestOutcome PartialEq covers Report in full).
        assert_eq!(outcomes(&seq), outcomes(&par));
        assert_eq!(par.results.len(), 7);
        assert_eq!(par.completed(), 7);
        assert!(par.total_instructions() > 0);
        assert_eq!(par.total_instructions(), seq.total_instructions());
        assert_eq!(par.total_cycles(), seq.total_cycles());
    }

    #[test]
    fn fault_streams_are_keyed_by_tenant_not_schedule() {
        let mut pool = sample_pool(4);
        pool.set_faults(Some(FaultConfig::only(0xBEEF, FaultKind::DtbWord, 0.02)));
        let seq = pool.run_sequential();
        let one = {
            let mut p = pool.clone();
            p.workers = 1;
            p.run()
        };
        let par = pool.run();
        assert_eq!(outcomes(&seq), outcomes(&par));
        assert_eq!(outcomes(&seq), outcomes(&one));
        // The campaign actually injected: at least one tenant recovered
        // from a corrupted DTB word.
        let recoveries: u64 = par
            .results
            .iter()
            .filter_map(|r| r.outcome.report())
            .map(|r| r.metrics.recoveries)
            .sum();
        assert!(recoveries > 0, "fault campaign was inert");
    }

    #[test]
    fn distinct_tenants_get_distinct_fault_seeds() {
        // Two tenants, same machine, same mode: without per-tenant
        // re-seeding their fault streams (and thus corrupted-word
        // counts over a long run) would be identical.
        let m = machine_for(
            "proc main() begin int i := 0; \
             while i < 400 do begin write i; i := i + 1; end end",
        );
        let mut pool = MachinePool::new(1);
        pool.push("a", Arc::clone(&m), Mode::Dtb(DtbConfig::with_capacity(8)));
        pool.push("b", Arc::clone(&m), Mode::Dtb(DtbConfig::with_capacity(8)));
        pool.set_faults(Some(FaultConfig::only(7, FaultKind::DtbWord, 0.05)));
        let run = pool.run();
        let stats: Vec<_> = run
            .results
            .iter()
            .map(|r| r.outcome.report().unwrap().metrics.faults.unwrap())
            .collect();
        assert_ne!(stats[0], stats[1], "tenants shared one fault stream");
    }

    #[test]
    fn panicking_tenant_is_isolated() {
        let mut pool = sample_pool(2);
        // A zero-word allocation unit fails validation, so Dtb::new
        // panics on construction, inside the tenant's run.
        let bad = DtbConfig {
            unit_words: 0,
            ..DtbConfig::with_capacity(16)
        };
        let victim = &pool.tenants[0].machine;
        pool.push("bad-geometry", Arc::clone(victim), Mode::Dtb(bad));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let run = pool.run();
        std::panic::set_hook(hook);
        assert_eq!(run.results.len(), 8);
        assert_eq!(run.completed(), 7);
        let last = run.results.last().unwrap();
        assert_eq!(last.name, "bad-geometry");
        match &last.outcome {
            RequestOutcome::Panicked(msg) => {
                assert!(!msg.is_empty());
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn uneven_tenants_change_nothing() {
        // 4 workers over 8 tenants with wildly uneven costs: the workers
        // that drew heavy tenants are still busy while the others drain
        // the queue.
        let heavy = machine_for(
            "proc main() begin int i := 0; \
             while i < 2000 do begin write i; i := i + 1; end end",
        );
        let light = machine_for("proc main() begin write 1; end");
        let mut pool = MachinePool::new(4);
        for t in 0..8 {
            let m = if t < 4 { &heavy } else { &light };
            pool.push(format!("t{t}"), Arc::clone(m), Mode::Interpreter);
        }
        let seq = pool.run_sequential();
        let par = pool.run();
        assert_eq!(outcomes(&seq), outcomes(&par));
    }

    #[test]
    fn more_workers_than_tenants_is_fine() {
        let m = machine_for("proc main() begin write 9; end");
        let mut pool = MachinePool::new(16);
        pool.push("only", m, Mode::Interpreter);
        let run = pool.run();
        assert_eq!(run.workers, 1); // clamped to tenant count
        assert_eq!(run.completed(), 1);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(MachinePool::new(0).workers(), 1);
    }

    #[test]
    fn empty_pool_runs_to_empty_result() {
        let run = MachinePool::new(4).run();
        assert!(run.results.is_empty());
        assert_eq!(run.completed(), 0);
        assert_eq!(run.minstr_per_sec(), 0.0);
        assert_eq!(run.latency_percentiles(), Percentiles::default());
    }

    #[test]
    fn latency_percentiles_are_populated_and_ordered() {
        let run = sample_pool(2).run();
        let p = run.latency_percentiles();
        assert!(p.p50 > 0.0);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.p999);
    }

    /// A counting sink with the profiling contract: no miss
    /// classification, so metrics stay bit-identical to untraced runs.
    struct CountSink(telemetry::EventCounts);

    impl TraceSink for CountSink {
        const CLASSIFY_MISSES: bool = false;

        fn emit(&mut self, event: telemetry::Event) {
            self.0.record(&event);
        }
    }

    #[test]
    fn per_tenant_sinks_observe_without_changing_results() {
        let pool = sample_pool(3);
        let plain = pool.run_sequential();
        let (run, sinks) = pool.run_with_sinks(|_| CountSink(telemetry::EventCounts::default()));
        // Observation is free: outputs, traps and modeled metrics are
        // bit-identical to the unprofiled sequential reference.
        assert_eq!(outcomes(&plain), outcomes(&run));
        assert_eq!(sinks.len(), run.results.len());
        // Sinks come back in tenant order: each saw exactly its
        // tenant's retired instructions.
        for (r, sink) in run.results.iter().zip(&sinks) {
            let m = &r.outcome.report().unwrap().metrics;
            assert_eq!(sink.0.retires, m.instructions);
        }
    }

    fn quiet_hook<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    fn looping_machine() -> Arc<Machine> {
        machine_for("proc main() begin int i := 0; while i < 1 do begin i := i * 1; end end")
    }

    fn plain_supervisor() -> crate::resilience::Supervisor {
        // No admission right-sizing, so supervised completed outcomes
        // stay bit-identical to the unsupervised path.
        crate::resilience::Supervisor {
            admission: crate::resilience::AdmissionPolicy {
                max_pressure_words: None,
                right_size: false,
            },
            ..crate::resilience::Supervisor::default()
        }
    }

    #[test]
    fn pool_run_edge_cases_yield_zeros_not_nan() {
        // Regression: empty tenant lists and zero-wall-time runs must
        // produce zeros, never NaN or a panic.
        let empty = PoolRun {
            results: vec![],
            wall_ns: 0,
            workers: 2,
            retries: 0,
            worker_crashes: 0,
        };
        let p = empty.latency_percentiles();
        assert_eq!((p.p50, p.p95, p.p99, p.p999), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(empty.worker_utilization(), vec![0.0, 0.0]);
        assert_eq!(empty.minstr_per_sec(), 0.0);
        // Zero wall-clock with real results: utilization and throughput
        // divide by wall time — must clamp to zero, not NaN/inf.
        let mut run = sample_pool(2).run();
        run.wall_ns = 0;
        assert!(run.worker_utilization().iter().all(|u| *u == 0.0));
        assert_eq!(run.minstr_per_sec(), 0.0);
        assert!(run.latency_percentiles().p50.is_finite());
    }

    #[test]
    fn supervised_chaos_off_matches_unsupervised_bit_for_bit() {
        let mut pool = sample_pool(3);
        let plain = pool.run();
        pool.set_supervisor(Some(plain_supervisor()));
        let supervised = pool.run();
        assert_eq!(outcomes(&plain), outcomes(&supervised));
        assert_eq!(supervised.retries, 0);
        assert_eq!(supervised.worker_crashes, 0);
        assert!(supervised.results.iter().all(|r| r.attempts == 1));
    }

    #[test]
    fn shedding_rejects_tenants_past_the_watermark() {
        let mut pool = sample_pool(2);
        let mut sup = plain_supervisor();
        sup.max_queue = Some(3);
        pool.set_supervisor(Some(sup));
        let run = pool.run();
        assert_eq!(run.completed(), 3);
        assert_eq!(run.outcome_count("shed"), 4);
        for r in &run.results[3..] {
            assert_eq!(r.attempts, 0);
            match &r.outcome {
                RequestOutcome::Shed(reason) => assert!(reason.contains("watermark")),
                other => panic!("expected shed, got {other:?}"),
            }
        }
        // Full accounting: every tenant has exactly one outcome.
        let total: usize = RequestOutcome::STATUSES
            .iter()
            .map(|s| run.outcome_count(s))
            .sum();
        assert_eq!(total, run.results.len());
    }

    #[test]
    fn fuel_budget_times_out_runaway_tenants() {
        let mut pool = MachinePool::new(2);
        pool.push("runaway", looping_machine(), Mode::Interpreter);
        let mut sup = plain_supervisor();
        sup.budget = crate::config::Budget::fuel(200_000);
        pool.set_supervisor(Some(sup));
        let run = pool.run();
        let r = &run.results[0];
        match r.outcome {
            RequestOutcome::TimedOut(Trap::FuelExhausted) => {}
            ref other => panic!("expected fuel timeout, got {other:?}"),
        }
        // A timeout looks like a hang, so every attempt is spent.
        assert_eq!(r.attempts, sup.backoff.attempts());
        assert_eq!(run.retries, u64::from(sup.backoff.attempts() - 1));
        assert!(r.backoff_ns > 0, "backoff must be charged to latency");
        assert!(r.latency_ns >= r.backoff_ns);
    }

    #[test]
    fn hung_tenants_time_out_and_recover_on_retry() {
        let mut pool = sample_pool(2);
        let chaos_off = pool.run();
        let mut sup = plain_supervisor();
        sup.budget = crate::config::Budget::fuel(2_000_000);
        pool.set_supervisor(Some(sup));
        pool.set_chaos(Some(crate::resilience::ChaosConfig {
            seed: 11,
            worker_crash_rate: 0.0,
            hang_rate: 1.0,
            artifact_corruption_rate: 0.0,
        }));
        let run = pool.run();
        // Every tenant hangs on attempt 0, is preempted by fuel, and
        // completes its real program on the retry — bit-identically.
        assert_eq!(outcomes(&chaos_off), outcomes(&run));
        assert!(run.results.iter().all(|r| r.attempts == 2));
        assert_eq!(run.retries, run.results.len() as u64);
    }

    #[test]
    fn corrupted_shared_artifacts_are_caught_and_retried() {
        let mut pool = sample_pool(2);
        let chaos_off = pool.run();
        pool.set_supervisor(Some(plain_supervisor()));
        pool.set_chaos(Some(crate::resilience::ChaosConfig {
            seed: 5,
            worker_crash_rate: 0.0,
            hang_rate: 0.0,
            artifact_corruption_rate: 1.0,
        }));
        let run = pool.run();
        // Poisoned templates trap as malformed dispatch, never as wrong
        // output; the retry builds clean templates and recovers.
        assert_eq!(outcomes(&chaos_off), outcomes(&run));
        assert!(run.results.iter().all(|r| r.attempts == 2));
    }

    #[test]
    fn worker_crashes_lose_no_tenants() {
        let mut pool = sample_pool(3);
        let chaos_off = pool.run();
        pool.set_supervisor(Some(plain_supervisor()));
        pool.set_chaos(Some(crate::resilience::ChaosConfig {
            seed: 9,
            worker_crash_rate: 1.0,
            hang_rate: 0.0,
            artifact_corruption_rate: 0.0,
        }));
        let run = quiet_hook(|| pool.run());
        // Every worker dies on its first job; the recovery sweep re-runs
        // every tenant. Nothing is lost, outcomes are bit-identical.
        assert_eq!(outcomes(&chaos_off), outcomes(&run));
        assert_eq!(run.worker_crashes, run.results.len() as u64);
        // Recovered tenants run on the recovery lane past the last
        // real worker id.
        assert!(run.results.iter().all(|r| r.worker == run.workers));
        // Sequential supervision counts the same crashes.
        let seq = pool.run_sequential();
        assert_eq!(outcomes(&seq), outcomes(&run));
        assert_eq!(seq.worker_crashes, run.worker_crashes);
    }

    #[test]
    fn breaker_degrades_then_quarantines_repeat_offenders() {
        // One hopeless image (infinite recursion → DepthLimit, a
        // permanent trap) shared by five tenants, single worker so the
        // breaker walk is deterministic: 2 failures close→degrade,
        // 3rd fails degraded → quarantine, remaining tenants never run.
        let boom = machine_for(
            "proc boom() -> int begin return boom(); end
             proc main() begin write boom(); end",
        );
        let mut pool = MachinePool::new(1);
        for t in 0..5 {
            pool.push(format!("boom-{t}"), Arc::clone(&boom), Mode::Interpreter);
        }
        let mut sup = plain_supervisor();
        sup.backoff.max_attempts = 1; // permanent traps are never retried anyway
        sup.breaker = crate::resilience::BreakerPolicy {
            degrade_after: 2,
            quarantine_after: 3,
        };
        pool.set_supervisor(Some(sup));
        let run = pool.run();
        let statuses: Vec<&str> = run.results.iter().map(|r| r.outcome.status()).collect();
        assert_eq!(
            statuses,
            vec![
                "trapped",
                "trapped",
                "trapped",
                "quarantined",
                "quarantined"
            ]
        );
        for r in &run.results[3..] {
            assert_eq!(r.attempts, 0);
            match &r.outcome {
                RequestOutcome::Quarantined(reason) => {
                    assert!(reason.contains("3 consecutive failures"), "{reason}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsupervised_pool_never_degrades_or_quarantines() {
        // The pass-through path has no breakers: a shared image that
        // always traps stays `trapped` for every tenant. Under any
        // breaker policy the later tenants would be degraded (run in
        // interpretation, so no DTB traffic) or quarantined (never run).
        let boom = machine_for(
            "proc boom() -> int begin return boom(); end
             proc main() begin write boom(); end",
        );
        let mode = Mode::Dtb(DtbConfig::with_capacity(16));
        let mut pool = MachinePool::new(1);
        for t in 0..6 {
            pool.push(format!("boom-{t}"), Arc::clone(&boom), mode.clone());
        }
        let want = RequestOutcome::Trapped(boom.run(&mode).unwrap_err());
        let (run, sinks) = pool.run_with_sinks(|_| CountSink(telemetry::EventCounts::default()));
        assert_eq!(run.outcome_count("trapped"), 6);
        for (r, sink) in run.results.iter().zip(&sinks) {
            assert_eq!((&r.outcome, r.attempts), (&want, 1), "{}", r.name);
            assert!(sink.0.dtb_misses > 0, "{} ran degraded", r.name);
        }
    }

    #[test]
    fn admission_rejects_oversized_programs_and_right_sizes_dtbs() {
        // Rejection: a 1-word pressure bound refuses everything, with the
        // same reason through the pool and the service.
        let mut pool = sample_pool(2);
        let mut sup = plain_supervisor();
        sup.admission.max_pressure_words = Some(1);
        pool.set_supervisor(Some(sup));
        let run = pool.run();
        assert_eq!(run.outcome_count("rejected"), run.results.len());
        let service_of = |admission, tenants: &[PoolTenant]| {
            let mut service = Service::new(ServiceConfig {
                admission,
                ..ServiceConfig::default()
            });
            for t in tenants {
                service.submit("t", t.name.clone(), Arc::clone(&t.machine), t.mode.clone());
            }
            service.run_at(10)
        };
        let step = service_of(sup.admission, pool.tenants());
        for (r, s) in run.results.iter().zip(&step.results) {
            match &r.outcome {
                RequestOutcome::Rejected(reason) => assert!(reason.starts_with("admission:")),
                other => panic!("expected an admission rejection, got {other:?}"),
            }
            assert_eq!(r.outcome, s.outcome, "{}", r.name);
        }

        // Right-sizing: a 1-entry DTB thrashes a 400-iteration loop;
        // admission grows it to the recommended geometry, so the
        // supervised run sees strictly fewer DTB misses.
        let m = machine_for(
            "proc main() begin int i := 0; \
             while i < 400 do begin write i; i := i + 1; end end",
        );
        let tiny = Mode::Dtb(DtbConfig::with_capacity(1));
        let mut pool = MachinePool::new(1);
        pool.push("thrash", Arc::clone(&m), tiny.clone());
        let plain = pool.run();
        let mut sup = plain_supervisor();
        sup.admission.right_size = true;
        pool.set_supervisor(Some(sup));
        let sized = pool.run();
        let misses = |run: &PoolRun| {
            run.results[0]
                .outcome
                .report()
                .unwrap()
                .metrics
                .dtb
                .as_ref()
                .unwrap()
                .misses
        };
        assert_eq!(plain.completed(), 1);
        assert_eq!(sized.completed(), 1);
        assert!(
            misses(&sized) < misses(&plain),
            "right-sized DTB must miss less: {} vs {}",
            misses(&sized),
            misses(&plain)
        );
        // Both the pool and the service run the analyzer's recommended
        // geometry.
        let capacity = analyze::bound(m.program()).recommended.capacity();
        let want = m
            .run(&Mode::Dtb(DtbConfig::with_capacity(capacity)))
            .unwrap();
        assert_eq!(sized.results[0].outcome.report(), Some(&want));
        let step = service_of(sup.admission, pool.tenants());
        assert_eq!(step.results[0].outcome.report(), Some(&want));
    }

    #[test]
    fn utilization_is_wired() {
        let run = sample_pool(2).run();
        let util = run.worker_utilization();
        assert_eq!(util.len(), run.workers);
        assert!(util.iter().all(|u| (0.0..=1.0).contains(u)));
        assert!(util.iter().any(|&u| u > 0.0));
    }

    #[test]
    fn latency_percentiles_leave_out_refused_tenants() {
        // A watermark of 4 sheds half of 8 tenants; the shed ones never
        // ran and carry a zero latency that must not drag the p50 down.
        let m = machine_for(
            "proc main() begin int i := 0; while i < 50 do begin i := i + 1; end write i; end",
        );
        let mut pool = MachinePool::new(2);
        for t in 0..8 {
            pool.push(format!("t{t}"), Arc::clone(&m), Mode::Interpreter);
        }
        let mut sup = plain_supervisor();
        sup.max_queue = Some(4);
        pool.set_supervisor(Some(sup));
        let run = pool.run();
        assert_eq!(run.outcome_count("shed"), 4);
        let served: Vec<f64> = run.results[..4]
            .iter()
            .map(|r| r.latency_ns as f64)
            .collect();
        assert_eq!(run.latency_percentiles(), Percentiles::of(&served));
    }
}
