//! The service plane: an open-loop request front-end over
//! [`MachinePool`].
//!
//! The paper's UHM is a *host* machine — its point is serving resident
//! guest programs, not running one batch job. This module turns the
//! parallel pool into a system under traffic: a [`Service`] accepts
//! guest-program [`Request`]s, applies **admission control** from the
//! analyze plane's static DTB pressure bounds (reject or right-size
//! *before* execution), enqueues admitted requests into **per-tenant
//! fair queues** with optional quotas and a **queue-watermark
//! backpressure** gate, and dispatches onto workers — producing a
//! latency-under-load trajectory across stepped arrival rates.
//!
//! # Two clocks, one invariant
//!
//! The repository's core discipline (DESIGN.md §6) is that modeled
//! numbers are deterministic while host wall-clock is observational.
//! The service plane keeps both books:
//!
//! * **The modeled clock** drives everything user-visible. Arrivals are
//!   a seeded open-loop schedule in *modeled cycles* (the rate unit is
//!   requests per [`MCYCLE`]); each request's service time is its run's
//!   modeled cycle total (deterministic per image × mode); queueing,
//!   fair dispatch across `workers` servers, watermark shedding and
//!   per-request latency (completion − arrival) are computed by a
//!   discrete-event simulation on that clock. The entire latency
//!   trajectory — p50/p95/p99/p99.9 per load step — is therefore a pure
//!   function of `(requests, policy, seed)` and is committed as an
//!   exact baseline by the `service_load` bench. This is the
//!   simulation-first methodology of *Employing Simulation to
//!   Facilitate the Design of Dynamic Code Generators* (PAPERS.md):
//!   queue depths and admission thresholds are chosen by driving
//!   simulated load, not by guessing.
//! * **The host clock** stays observational. The requests the simulator
//!   serves are then *actually executed* on a [`MachinePool`], in
//!   dispatch order through the pool's one in-order queue — the same
//!   first-free-server discipline the simulation models — so every
//!   served request's output and modeled metrics are bit-identical to a
//!   direct pool run of the same mix: the service layer adds policy,
//!   never semantics. The pool's wall-clock and host latencies ride
//!   along in [`StepRun::pool`] for throughput context.
//!
//! # Request lifecycle
//!
//! ```text
//! submit ─► admission (static pressure bound) ─► rejected("admission:")
//!    │            │ admit / right-size
//!    │            ▼
//!    │      per-tenant fair queue ──► shed("quota:") | shed("backpressure:")
//!    │            │ round-robin across tenants
//!    │            ▼
//!    │      dispatch on first free worker (modeled clock)
//!    │            │ real execution on MachinePool (host clock)
//!    │            ▼
//!    └──► completed | trapped | panicked
//! ```
//!
//! Full accounting holds by construction: every submitted request ends
//! in exactly one [`RequestOutcome`] state (the service produces five of
//! the seven; `timed_out` and `quarantined` need a pool supervisor), so
//! [`StepRun::lost`] is always zero.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use uhm::service::{Service, ServiceConfig};
//! use uhm::{Machine, Mode};
//!
//! let hir = hlr::compile("proc main() begin write 6 * 7; end")?;
//! let prog = dir::compiler::compile(&hir);
//! let machine = Arc::new(Machine::new(&prog, dir::encode::SchemeKind::Packed));
//!
//! let mut service = Service::new(ServiceConfig::default());
//! for i in 0..6 {
//!     let tenant = format!("tenant-{}", i % 2);
//!     service.submit(tenant, format!("req-{i}"), Arc::clone(&machine), Mode::Interpreter);
//! }
//! let step = service.run_at(4); // 4 requests per million modeled cycles
//! assert_eq!(step.outcome_count("completed"), 6);
//! assert_eq!(step.lost(), 0);
//! for r in &step.results {
//!     assert_eq!(r.outcome.report().unwrap().output, vec![42]);
//! }
//! # Ok::<(), hlr::Error>(())
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use dir::exec::Trap;
use telemetry::Percentiles;

use crate::machine::{Machine, Mode};
use crate::metrics::Report;
use crate::pool::{MachinePool, PoolRun};
use crate::resilience::AdmissionPolicy;

/// The arrival-rate unit: one million modeled cycles. A load step at
/// rate `r` schedules on average `r` request arrivals per `MCYCLE`
/// cycles of the modeled clock.
pub const MCYCLE: u64 = 1_000_000;

/// Modeled service cycles charged to a request whose program traps.
/// A trapping run consumes host work but reports no cycle total, so the
/// simulator charges this flat trap-handling cost instead; it is part of
/// the deterministic contract and committed baselines depend on it.
pub const TRAP_SERVICE_CYCLES: u64 = 1_000;

/// One guest-program request: a tenant identity (the fair-queue key), a
/// display name, and the program to run (a shared [`Machine`] plus
/// fetch-path [`Mode`]). Many requests may share one machine `Arc` —
/// that is the resident-program case the paper's host machine serves.
#[derive(Debug, Clone)]
pub struct Request {
    /// The owning tenant; requests of one tenant share a queue lane.
    pub tenant: String,
    /// Display name, e.g. the workload name.
    pub name: String,
    /// The shared, immutable host machine.
    pub machine: Arc<Machine>,
    /// The requested fetch-path configuration (admission may right-size
    /// a DTB mode before dispatch).
    pub mode: Mode,
}

/// The service's policy knobs: dispatch width, admission, queueing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Dispatch width: the number of simulated servers on the modeled
    /// clock *and* the worker count of the host-side [`MachinePool`]
    /// (clamped to at least 1).
    pub workers: usize,
    /// Admission control from static DTB pressure bounds, applied per
    /// request before it enters any queue (see
    /// [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Backpressure watermark: an arriving request is shed
    /// (`"backpressure:"`) when the total backlog across all tenant
    /// lanes has reached this depth. `None` = unbounded queue.
    pub queue_watermark: Option<usize>,
    /// Per-tenant quota: an arriving request is shed (`"quota:"`) when
    /// its tenant's own lane has reached this depth. `None` = no quota.
    pub tenant_quota: Option<usize>,
    /// Seed of the arrival-jitter stream.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            admission: AdmissionPolicy::default(),
            queue_watermark: None,
            tenant_quota: None,
            seed: 0,
        }
    }
}

/// How one request or pool tenant ended: the seven-state outcome
/// taxonomy shared by the service ([`RequestResult`]) and the pool
/// ([`TenantResult`](crate::pool::TenantResult)).
///
/// `Rejected` and `Shed` both refuse work before execution, but at
/// different stages — rejection is *static* (the admission bound, known
/// before any traffic) while shedding is *dynamic* (queue state at the
/// arrival instant). The reason string's prefix (`"admission:"`,
/// `"quota:"`, `"backpressure:"`, `"queue watermark"`) names the policy
/// that fired. `TimedOut` and `Quarantined` come only from a supervised
/// pool run (budget and circuit breaker); the service never produces
/// them.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Served and ran to completion; output and modeled metrics inside.
    Completed(Box<Report>),
    /// Served, but the program trapped (guest-level failure).
    Trapped(Trap),
    /// Served, but the host-side run panicked; the payload is the panic
    /// message. Other requests are unaffected.
    Panicked(String),
    /// Served, but the supervisor preempted the final attempt: its
    /// modeled-cycle fuel or wall-clock deadline ran out. The payload is
    /// the budget trap ([`Trap::FuelExhausted`] or
    /// [`Trap::DeadlineExceeded`]).
    TimedOut(Trap),
    /// Refused statically by admission control (`"admission:"` reason).
    Rejected(String),
    /// Refused dynamically before running — tenant quota (`"quota:"`),
    /// service backlog (`"backpressure:"`) or the pool's submission
    /// watermark (`"queue watermark …"`).
    Shed(String),
    /// Refused because the program's image tripped its circuit breaker;
    /// the payload records the consecutive-failure count that tripped it.
    Quarantined(String),
}

impl RequestOutcome {
    /// Every status string, in report order: each outcome's
    /// [`RequestOutcome::status`] is exactly one of these, so the counts
    /// over this list always sum to the number of results.
    pub const STATUSES: [&'static str; 7] = [
        "completed",
        "trapped",
        "panicked",
        "timed_out",
        "rejected",
        "shed",
        "quarantined",
    ];

    /// The status string used by the JSON report (one of
    /// [`RequestOutcome::STATUSES`]).
    pub fn status(&self) -> &'static str {
        let index = match self {
            RequestOutcome::Completed(_) => 0,
            RequestOutcome::Trapped(_) => 1,
            RequestOutcome::Panicked(_) => 2,
            RequestOutcome::TimedOut(_) => 3,
            RequestOutcome::Rejected(_) => 4,
            RequestOutcome::Shed(_) => 5,
            RequestOutcome::Quarantined(_) => 6,
        };
        Self::STATUSES[index]
    }

    /// The completed report, if any.
    pub fn report(&self) -> Option<&Report> {
        match self {
            RequestOutcome::Completed(r) => Some(r.as_ref()),
            _ => None,
        }
    }

    /// Whether the request was dispatched to a worker at all
    /// (completed, trapped, panicked or timed out — as opposed to
    /// refused).
    pub fn served(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Completed(_)
                | RequestOutcome::Trapped(_)
                | RequestOutcome::Panicked(_)
                | RequestOutcome::TimedOut(_)
        )
    }
}

/// The result of one request within a load step, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestResult {
    /// Index of the request in submission order.
    pub request: usize,
    /// The owning tenant.
    pub tenant: String,
    /// The request's display name.
    pub name: String,
    /// Arrival time on the modeled clock, in cycles.
    pub arrival_cycle: u64,
    /// Dispatch time on the modeled clock (0 for refused requests).
    pub start_cycle: u64,
    /// Modeled service time charged by the simulator (0 for refused
    /// requests; [`TRAP_SERVICE_CYCLES`] for trapping programs).
    pub service_cycles: u64,
    /// User-visible latency on the modeled clock: completion − arrival,
    /// i.e. queueing delay plus service time (0 for refused requests).
    pub latency_cycles: u64,
    /// The simulated server that served the request (0 for refused
    /// requests). Deterministic, unlike the host pool's worker indices.
    pub worker: usize,
    /// How the request ended.
    pub outcome: RequestOutcome,
}

/// One load step: every request of the mix driven through the service
/// at one open-loop arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRun {
    /// The step's arrival rate, in requests per [`MCYCLE`].
    pub rate_per_mcycle: u64,
    /// Per-request results, in submission order.
    pub results: Vec<RequestResult>,
    /// Peak total backlog across all tenant lanes during the step.
    pub queue_peak: usize,
    /// The host-side execution of the served requests: a real
    /// [`MachinePool`] run in dispatch order, whose outputs are
    /// bit-identical to direct pool execution of the same mix. Host
    /// wall-clock and latencies in here are observational only.
    pub pool: PoolRun,
}

impl StepRun {
    /// Number of requests whose outcome carries the given
    /// [`RequestOutcome::status`] string. The full-accounting
    /// invariant: the counts over [`RequestOutcome::STATUSES`] always sum
    /// to `results.len()`.
    pub fn outcome_count(&self, status: &str) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.status() == status)
            .count()
    }

    /// Number of requests dispatched to a worker (see
    /// [`RequestOutcome::served`]).
    pub fn served(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.served()).count()
    }

    /// Requests with no recorded outcome — always 0; the accounting
    /// invariant the bench and tests assert.
    pub fn lost(&self) -> usize {
        let accounted: usize = RequestOutcome::STATUSES
            .iter()
            .map(|s| self.outcome_count(s))
            .sum();
        self.results.len() - accounted
    }

    /// p50/p95/p99/p99.9 of the served requests' modeled latencies (in
    /// cycles) — one point of the latency-under-load trajectory.
    /// Deterministic, so the `service_load` baseline commits it exactly.
    pub fn latency_percentiles(&self) -> Percentiles {
        let served = self.results.iter().filter(|r| r.outcome.served());
        Percentiles::of(&served.map(|r| r.latency_cycles as f64).collect::<Vec<_>>())
    }

    /// The step's makespan on the modeled clock: the last completion
    /// cycle across served requests (0 when nothing was served).
    pub fn makespan_cycles(&self) -> u64 {
        self.results
            .iter()
            .filter(|r| r.outcome.served())
            .map(|r| r.arrival_cycle + r.latency_cycles)
            .max()
            .unwrap_or(0)
    }
}

/// The trajectory of a stepped load sweep: one [`StepRun`] per arrival
/// rate, in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRun {
    /// The dispatch width the sweep ran with.
    pub workers: usize,
    /// The seed of the arrival streams.
    pub seed: u64,
    /// Per-rate step results, in sweep order.
    pub steps: Vec<StepRun>,
}

impl ServiceRun {
    /// Total requests driven across all steps.
    pub fn total_requests(&self) -> usize {
        self.steps.iter().map(|s| s.results.len()).sum()
    }

    /// Sum of one outcome's count across all steps.
    pub fn outcome_count(&self, status: &str) -> usize {
        self.steps.iter().map(|s| s.outcome_count(status)).sum()
    }

    /// Lost requests across all steps — always 0 (see
    /// [`StepRun::lost`]).
    pub fn lost(&self) -> usize {
        self.steps.iter().map(StepRun::lost).sum()
    }
}

/// Per-tenant FIFO lanes with a persistent round-robin cursor — the
/// fair-queue discipline: each dispatch serves the next non-empty lane
/// after the previously served one, so a tenant flooding its own lane
/// cannot starve the others.
#[derive(Default)]
struct FairQueue {
    lanes: Vec<(String, VecDeque<usize>)>,
    cursor: usize,
    queued: usize,
}

impl FairQueue {
    fn lane_len(&self, tenant: &str) -> usize {
        self.lanes
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(0, |(_, q)| q.len())
    }

    fn push(&mut self, tenant: &str, request: usize) {
        match self.lanes.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, q)) => q.push_back(request),
            None => {
                let mut q = VecDeque::new();
                q.push_back(request);
                self.lanes.push((tenant.to_string(), q));
            }
        }
        self.queued += 1;
    }

    /// Pops the head of the next non-empty lane at or after the cursor,
    /// then parks the cursor just past it.
    fn pop_next(&mut self) -> Option<usize> {
        let n = self.lanes.len();
        for k in 0..n {
            let idx = (self.cursor + k) % n;
            if let Some(request) = self.lanes[idx].1.pop_front() {
                self.cursor = (idx + 1) % n;
                self.queued -= 1;
                return Some(request);
            }
        }
        None
    }
}

/// The request front-end: a policy plus a submitted request mix, run at
/// one or more open-loop arrival rates (see the [module docs](self) for
/// the lifecycle and the two-clock contract).
#[derive(Debug, Clone, Default)]
pub struct Service {
    config: ServiceConfig,
    requests: Vec<Request>,
}

impl Service {
    /// Creates an empty service under the given policy.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            config,
            requests: Vec::new(),
        }
    }

    /// Submits a request; returns `self` for chaining. Submission order
    /// is arrival order within a step.
    pub fn submit(
        &mut self,
        tenant: impl Into<String>,
        name: impl Into<String>,
        machine: Arc<Machine>,
        mode: Mode,
    ) -> &mut Self {
        self.requests.push(Request {
            tenant: tenant.into(),
            name: name.into(),
            machine,
            mode,
        });
        self
    }

    /// A [`MachinePool`] loaded with the same request mix in submission
    /// order (requested modes, no service policy) — the direct-execution
    /// reference the service path must match bit-for-bit on outputs.
    pub fn direct_pool(&self) -> MachinePool {
        let mut pool = MachinePool::new(self.config.workers);
        for r in &self.requests {
            pool.push(r.name.clone(), Arc::clone(&r.machine), r.mode.clone());
        }
        pool
    }

    /// Seeded open-loop arrival schedule for one rate: request `i`
    /// arrives after the `i`-th jittered inter-arrival gap (uniform in
    /// `[mean/2, 3·mean/2]` where `mean = MCYCLE / rate`). Open loop:
    /// arrivals never wait for completions, which is what lets load
    /// exceed capacity and the queue actually build.
    fn arrivals(&self, rate: u64) -> Vec<u64> {
        let mean = (MCYCLE / rate.max(1)).max(1);
        let mut rng =
            hlr::rng::Rng::new(self.config.seed ^ rate.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut t = 0u64;
        self.requests
            .iter()
            .map(|_| {
                t += rng.range_u64(mean / 2 + 1, mean + mean / 2 + 2);
                t
            })
            .collect()
    }

    /// Static admission per request through [`AdmissionPolicy::admit`]:
    /// the effective (possibly right-sized) mode, or the `"admission:"`
    /// reason. Memoized per image: the pressure bound is a property of
    /// the program, not of traffic, so it is computed once per distinct
    /// machine and reused across requests.
    fn gates(&self) -> Vec<Result<Mode, String>> {
        let mut bounds: Vec<(usize, analyze::PressureReport)> = Vec::new();
        self.requests
            .iter()
            .map(|r| {
                self.config.admission.admit(&r.mode, || {
                    let key = Arc::as_ptr(&r.machine) as usize;
                    if let Some((_, b)) = bounds.iter().find(|(k, _)| *k == key) {
                        return b.clone();
                    }
                    let b = analyze::bound(r.machine.program());
                    bounds.push((key, b.clone()));
                    b
                })
            })
            .collect()
    }

    /// Modeled service time of one request, memoized per
    /// `(image, effective mode)`: modeled cycles are deterministic per
    /// image × mode, so one reference run prices every request that
    /// shares the pair. Trapping programs are charged
    /// [`TRAP_SERVICE_CYCLES`].
    fn service_cycles(
        probes: &mut Vec<((usize, Mode), u64)>,
        machine: &Arc<Machine>,
        mode: &Mode,
    ) -> u64 {
        let key = (Arc::as_ptr(machine) as usize, mode.clone());
        if let Some((_, cycles)) = probes.iter().find(|(k, _)| *k == key) {
            return *cycles;
        }
        let cycles = match machine.run(mode) {
            Ok(report) => report.metrics.cycles.total().max(1),
            Err(_) => TRAP_SERVICE_CYCLES,
        };
        probes.push((key, cycles));
        cycles
    }

    /// Drives the whole request mix through the service at one open-loop
    /// arrival rate (requests per [`MCYCLE`]); see the
    /// [module docs](self) for the lifecycle.
    ///
    /// Everything in the returned step except the host-side
    /// [`StepRun::pool`] observables is a pure function of
    /// `(requests, config, rate)`.
    pub fn run_at(&self, rate_per_mcycle: u64) -> StepRun {
        let rate = rate_per_mcycle.max(1);
        let arrivals = self.arrivals(rate);
        let gates = self.gates();
        let mut probes: Vec<((usize, Mode), u64)> = Vec::new();

        /// One request's disposition while the simulation runs.
        enum Slot {
            Refused(RequestOutcome),
            /// Dispatched: (start, service, worker, index into the
            /// dispatch-order pool).
            Served(u64, u64, usize, usize),
        }
        let mut slots: Vec<Option<Slot>> = (0..self.requests.len()).map(|_| None).collect();
        let mut queue = FairQueue::default();
        let mut queue_peak = 0usize;
        // effective (right-sized) mode per queued request, by index.
        let mut effective: Vec<Option<Mode>> = vec![None; self.requests.len()];
        let mut servers = vec![0u64; self.config.workers.max(1)];
        let mut dispatch_order: Vec<usize> = Vec::new();

        let mut next = 0usize; // next arrival to process
        loop {
            // The earliest instant some server could take new work.
            let (free_server, free_at) = servers
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, t)| (t, i))
                .expect("at least one server");

            // Dispatch first whenever the next dispatch instant does not
            // come after the next arrival; otherwise admit the arrival.
            if queue.queued > 0 && (next >= arrivals.len() || free_at <= arrivals[next]) {
                let i = queue.pop_next().expect("queued > 0");
                let mode = effective[i].take().expect("queued requests were admitted");
                let service = Self::service_cycles(&mut probes, &self.requests[i].machine, &mode);
                let start = free_at.max(arrivals[i]);
                servers[free_server] = start + service;
                slots[i] = Some(Slot::Served(
                    start,
                    service,
                    free_server,
                    dispatch_order.len(),
                ));
                dispatch_order.push(i);
                effective[i] = Some(mode);
            } else if next < arrivals.len() {
                let i = next;
                next += 1;
                let tenant = &self.requests[i].tenant;
                match &gates[i] {
                    Err(reason) => {
                        slots[i] = Some(Slot::Refused(RequestOutcome::Rejected(reason.clone())));
                    }
                    Ok(mode) => {
                        if let Some(quota) = self.config.tenant_quota {
                            if queue.lane_len(tenant) >= quota {
                                slots[i] = Some(Slot::Refused(RequestOutcome::Shed(format!(
                                    "quota: tenant '{tenant}' backlog {} at quota {quota}",
                                    queue.lane_len(tenant)
                                ))));
                                continue;
                            }
                        }
                        if let Some(watermark) = self.config.queue_watermark {
                            if queue.queued >= watermark {
                                slots[i] = Some(Slot::Refused(RequestOutcome::Shed(format!(
                                    "backpressure: queue depth {} at watermark {watermark}",
                                    queue.queued
                                ))));
                                continue;
                            }
                        }
                        effective[i] = Some(mode.clone());
                        queue.push(tenant, i);
                        queue_peak = queue_peak.max(queue.queued);
                    }
                }
            } else {
                break;
            }
        }

        // Host side: really execute the served requests on the pool,
        // whose one queue hands them out in dispatch order.
        let mut pool = MachinePool::new(self.config.workers);
        for &i in &dispatch_order {
            let r = &self.requests[i];
            let mode = effective[i].clone().expect("served requests have a mode");
            pool.push(r.name.clone(), Arc::clone(&r.machine), mode);
        }
        let pool_run = pool.run();

        let results = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let r = &self.requests[i];
                let base = |outcome| RequestResult {
                    request: i,
                    tenant: r.tenant.clone(),
                    name: r.name.clone(),
                    arrival_cycle: arrivals[i],
                    start_cycle: 0,
                    service_cycles: 0,
                    latency_cycles: 0,
                    worker: 0,
                    outcome,
                };
                match slot.expect("every request is disposed") {
                    Slot::Refused(outcome) => base(outcome),
                    Slot::Served(start, service, worker, pool_index) => {
                        let outcome = pool_run.results[pool_index].outcome.clone();
                        RequestResult {
                            start_cycle: start,
                            service_cycles: service,
                            latency_cycles: start + service - arrivals[i],
                            worker,
                            ..base(outcome)
                        }
                    }
                }
            })
            .collect();

        StepRun {
            rate_per_mcycle: rate,
            results,
            queue_peak,
            pool: pool_run,
        }
    }

    /// Runs the stepped sweep: the whole request mix replayed at each
    /// arrival rate, producing the latency-under-load trajectory.
    pub fn run_load(&self, rates_per_mcycle: &[u64]) -> ServiceRun {
        ServiceRun {
            workers: self.config.workers.max(1),
            seed: self.config.seed,
            steps: rates_per_mcycle
                .iter()
                .map(|&rate| self.run_at(rate))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;

    fn machine_for(src: &str) -> Arc<Machine> {
        let hir = hlr::compile(src).expect("test sources compile");
        Arc::new(Machine::new(
            &dir::compiler::compile(&hir),
            SchemeKind::Packed,
        ))
    }

    fn looping(iters: u32) -> String {
        format!(
            "proc main() begin int i := 0; \
             while i < {iters} do begin write i; i := i + 1; end end"
        )
    }

    fn sample_service(watermark: Option<usize>, quota: Option<usize>) -> Service {
        let m = machine_for(&looping(40));
        let mut s = Service::new(ServiceConfig {
            workers: 2,
            queue_watermark: watermark,
            tenant_quota: quota,
            seed: 7,
            ..ServiceConfig::default()
        });
        for i in 0..12 {
            s.submit(
                format!("tenant-{}", i % 3),
                format!("req-{i}"),
                Arc::clone(&m),
                Mode::Interpreter,
            );
        }
        s
    }

    #[test]
    fn every_request_is_accounted_at_any_rate() {
        let s = sample_service(Some(3), Some(2));
        for rate in [1, 10, 1000, 100_000] {
            let step = s.run_at(rate);
            assert_eq!(step.results.len(), 12);
            assert_eq!(step.lost(), 0, "rate {rate}");
        }
    }

    #[test]
    fn generous_rate_serves_everything() {
        let s = sample_service(Some(4), None);
        // One request per 1M cycles: each finishes long before the next
        // arrives, so the queue never builds and nothing is shed.
        let step = s.run_at(1);
        assert_eq!(step.outcome_count("completed"), 12);
        assert_eq!(step.outcome_count("shed"), 0);
        assert!(step.queue_peak <= 1);
    }

    #[test]
    fn steps_are_deterministic() {
        let s = sample_service(Some(3), Some(2));
        let a = s.run_at(500);
        let b = s.run_at(500);
        // Host-side pool observables differ; the modeled step does not.
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.arrival_cycle, y.arrival_cycle);
            assert_eq!(x.latency_cycles, y.latency_cycles);
            assert_eq!(x.outcome.status(), y.outcome.status());
        }
        assert_eq!(a.queue_peak, b.queue_peak);
    }

    #[test]
    fn watermark_sheds_with_backpressure_reason() {
        let s = sample_service(Some(2), None);
        // Everything arrives nearly at once; the two-deep queue sheds.
        let step = s.run_at(100_000);
        let shed = step.outcome_count("shed");
        assert!(shed > 0, "saturating load must shed");
        assert_eq!(
            step.outcome_count("completed") + shed,
            12,
            "shed + completed account for all requests"
        );
        for r in &step.results {
            if let RequestOutcome::Shed(reason) = &r.outcome {
                assert!(reason.starts_with("backpressure:"), "{reason}");
            }
        }
    }

    #[test]
    fn tenant_quota_sheds_only_the_flooding_tenant() {
        let m = machine_for(&looping(40));
        let mut s = Service::new(ServiceConfig {
            workers: 1,
            tenant_quota: Some(1),
            seed: 11,
            ..ServiceConfig::default()
        });
        // One tenant floods; one submits a single request last.
        for i in 0..8 {
            s.submit("flood", format!("f{i}"), Arc::clone(&m), Mode::Interpreter);
        }
        s.submit("light", "l0", Arc::clone(&m), Mode::Interpreter);
        let step = s.run_at(100_000);
        let flood_shed = step
            .results
            .iter()
            .filter(|r| r.tenant == "flood" && r.outcome.status() == "shed")
            .count();
        assert!(flood_shed > 0, "the flooding tenant trips its quota");
        let light = step.results.iter().find(|r| r.tenant == "light").unwrap();
        assert_eq!(light.outcome.status(), "completed");
        if let RequestOutcome::Shed(reason) = &step
            .results
            .iter()
            .find(|r| r.outcome.status() == "shed")
            .unwrap()
            .outcome
        {
            assert!(reason.starts_with("quota:"), "{reason}");
        }
    }

    #[test]
    fn fair_queue_round_robins_across_lanes() {
        let mut q = FairQueue::default();
        q.push("a", 0);
        q.push("a", 1);
        q.push("a", 2);
        q.push("b", 3);
        q.push("c", 4);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(order, vec![0, 3, 4, 1, 2]);
    }

    #[test]
    fn trajectory_degrades_monotonically_under_load() {
        let s = sample_service(None, None);
        let run = s.run_load(&[1, 2000, 200_000]);
        assert_eq!(run.steps.len(), 3);
        assert_eq!(run.lost(), 0);
        let p99: Vec<f64> = run
            .steps
            .iter()
            .map(|s| s.latency_percentiles().p99)
            .collect();
        // With no shedding, queueing delay strictly grows with rate.
        assert!(p99[0] < p99[1] && p99[1] < p99[2], "{p99:?}");
    }
}
