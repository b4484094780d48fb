//! Resilience policies for supervised pool execution.
//!
//! The pool ([`crate::pool::MachinePool`]) isolates tenant panics, but
//! isolation alone does not make a shared host survivable: a hung tenant
//! holds a worker forever, a repeatedly faulting image wastes retries for
//! every caller, and an oversized queue turns one slow tenant into
//! pool-wide latency. This module holds the *policies* of the supervision
//! layer — all pure data and pure functions so they can be property-tested
//! without a pool:
//!
//! - [`BackoffPolicy`] — the supervised-retry policy: seeded, jittered
//!   exponential backoff with a hard attempt cap. (Distinct from
//!   [`crate::config::RetryPolicy`], which governs *in-run* fault-plane
//!   recovery inside one machine; this one governs whole-run re-execution
//!   by the pool.)
//! - [`BreakerPolicy`] / [`Breaker`] — a per-image circuit breaker that
//!   first degrades a repeat offender to pure interpretation (the
//!   cheapest mode, with no DTB lines to corrupt) and then quarantines it.
//! - [`AdmissionPolicy`] — admission control from the static DTB pressure
//!   bounds of `uhm-analyze`: reject oversized programs up front, or
//!   right-size their DTB to the recommended geometry.
//! - [`Supervisor`] — the bundle of budget + retry + breaker + admission
//!   + queue watermark the pool's tenant-attempt loop consults.
//! - [`ChaosConfig`] — pool-level fault injection (worker crashes, hung
//!   tenants, corrupted translations), rolled statelessly per tenant
//!   so outcomes are schedule-invariant.
//!
//! Everything here is deterministic given its seeds. Wall-clock only
//! enters through [`crate::config::Budget::deadline_ns`], and nothing
//! deterministic keys off it.

use analyze::PressureReport;
use hlr::rng::Rng;

use crate::config::Budget;
use crate::dtb::DtbConfig;
use crate::machine::Mode;
#[cfg(doc)]
use crate::service::RequestOutcome;

/// Ceiling applied to a jittered delay: nominal cap plus the jitter
/// allowance, so `schedule` can promise a hard upper bound.
fn jitter_cap(cap_ns: u64, jitter_percent: u64) -> u64 {
    cap_ns.saturating_add(cap_ns / 100 * jitter_percent)
}

/// Supervised-retry policy: how many times the pool re-runs a tenant
/// whose failure looks transient, and how long it backs off between
/// attempts.
///
/// Delays follow seeded, jittered exponential backoff: attempt `i`
/// nominally waits `min(cap_ns, base_ns << i)`, plus up to
/// `jitter_percent`% additive jitter drawn from a [`Rng`] keyed by
/// `seed ^ key`, clamped so the whole schedule is monotonically
/// non-decreasing. Backoff *cost* is charged to the tenant's recorded
/// latency; the pool does not actually sleep, so campaigns stay fast and
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts including the first (so `1` disables retry).
    /// Clamped to at least 1.
    pub max_attempts: u32,
    /// Nominal delay before the first retry, in nanoseconds.
    pub base_ns: u64,
    /// Ceiling on the nominal delay; jitter may exceed it by at most
    /// `jitter_percent`%.
    pub cap_ns: u64,
    /// Additive jitter bound as a percentage of the nominal delay
    /// (0 = deterministic schedule).
    pub jitter_percent: u64,
    /// Seed decorrelating jitter streams; combined with the per-tenant
    /// key so two tenants never share a schedule.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 3,
            base_ns: 1_000_000,  // 1 ms
            cap_ns: 100_000_000, // 100 ms
            jitter_percent: 20,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl BackoffPolicy {
    /// Total attempts, clamped to at least one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The full backoff schedule for one tenant: the delay in
    /// nanoseconds before each retry, so its length is `attempts() - 1`
    /// (a policy of one attempt never waits).
    ///
    /// Guarantees, property-tested in `tests/resilience_plane.rs`:
    /// the schedule is monotonically non-decreasing, every delay is at
    /// most `cap_ns` plus the jitter allowance, and the schedule always
    /// terminates within the attempt cap.
    pub fn schedule(&self, key: u64) -> Vec<u64> {
        let mut rng = Rng::new(self.seed ^ key);
        let mut delays = Vec::with_capacity(self.attempts() as usize - 1);
        let mut prev = 0u64;
        for i in 0..self.attempts() - 1 {
            let nominal = self
                .base_ns
                .checked_shl(i)
                .unwrap_or(u64::MAX)
                .min(self.cap_ns);
            let jitter = if self.jitter_percent == 0 || nominal == 0 {
                0
            } else {
                rng.range_u64(0, nominal / 100 * self.jitter_percent + 1)
            };
            let delay = nominal
                .saturating_add(jitter)
                .min(jitter_cap(self.cap_ns, self.jitter_percent))
                .max(prev);
            delays.push(delay);
            prev = delay;
        }
        delays
    }
}

/// Per-image circuit-breaker thresholds.
///
/// The breaker counts *consecutive* non-completed outcomes of one image
/// (one `Arc<Machine>`, however many tenants share it). At
/// `degrade_after` failures the image is degraded to pure interpretation
/// — the cheapest mode, with no DTB lines left to corrupt —
/// and at `quarantine_after` it is quarantined: not run at all, the
/// tenant reported as [`RequestOutcome::Quarantined`]. A completed run
/// closes the breaker again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures before the image degrades to
    /// [`Mode::Interpreter`](crate::machine::Mode). Clamped to at least 1.
    pub degrade_after: u32,
    /// Consecutive failures before the image is quarantined. Clamped to
    /// at least `degrade_after`.
    pub quarantine_after: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            degrade_after: 2,
            quarantine_after: 4,
        }
    }
}

impl BreakerPolicy {
    fn degrade_at(&self) -> u32 {
        self.degrade_after.max(1)
    }

    fn quarantine_at(&self) -> u32 {
        self.quarantine_after.max(self.degrade_at())
    }
}

/// Where one image's circuit breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: run in the tenant's requested mode.
    #[default]
    Closed,
    /// Degraded: run, but force pure interpretation.
    Degraded,
    /// Quarantined: do not run at all.
    Quarantined,
}

/// Consecutive-failure counter plus [`BreakerState`] for one image.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breaker {
    failures: u32,
    state: BreakerState,
}

impl Breaker {
    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures recorded since the last success.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Records a non-completed final outcome, advancing
    /// Closed → Degraded → Quarantined against `policy`.
    pub fn record_failure(&mut self, policy: &BreakerPolicy) {
        self.failures = self.failures.saturating_add(1);
        self.state = if self.failures >= policy.quarantine_at() {
            BreakerState::Quarantined
        } else if self.failures >= policy.degrade_at() {
            BreakerState::Degraded
        } else {
            BreakerState::Closed
        };
    }

    /// Records a completed run: the breaker closes and the failure
    /// count resets.
    pub fn record_success(&mut self) {
        self.failures = 0;
        self.state = BreakerState::Closed;
    }
}

/// Admission control from static analysis: before a program runs, its
/// DTB pressure bound ([`analyze::bound`]) decides whether it is
/// rejected, admitted as-is, or admitted with a right-sized DTB
/// ([`AdmissionPolicy::admit`]).
///
/// The supervised pool ([`Supervisor::admission`]) and the service plane
/// ([`crate::service::ServiceConfig::admission`]) share this one gate.
/// Rejection is *static* ([`RequestOutcome::Rejected`] with an
/// `admission:` reason), in contrast to the *dynamic* quota and
/// watermark shedding decided at arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Reject programs whose whole-program translation storage bound
    /// exceeds this many short words ([`RequestOutcome::Rejected`] with
    /// an `admission:` reason). `None` = admit any size.
    pub max_pressure_words: Option<u64>,
    /// When the hot span does not fit the tenant's DTB, grow the DTB to
    /// the recommended geometry instead of letting it thrash.
    pub right_size: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_pressure_words: None,
            right_size: true,
        }
    }
}

impl AdmissionPolicy {
    /// The admission gate: the mode to run `mode`'s program in, or the
    /// `"admission:"` reason it is refused. `bound` yields the program's
    /// static pressure bound and is called at most once, and only when
    /// the policy can act, so callers may compute or memoize it lazily.
    ///
    /// # Errors
    ///
    /// The rejection reason when the bound exceeds
    /// [`AdmissionPolicy::max_pressure_words`].
    pub fn admit(
        &self,
        mode: &Mode,
        bound: impl FnOnce() -> PressureReport,
    ) -> Result<Mode, String> {
        if self.max_pressure_words.is_none() && !self.right_size {
            return Ok(mode.clone());
        }
        let bound = bound();
        if let Some(max_words) = self.max_pressure_words {
            if u64::from(bound.total_words) > max_words {
                return Err(format!(
                    "admission: program needs {} translation words, bound is {max_words}",
                    bound.total_words
                ));
            }
        }
        if let (true, Mode::Dtb(cfg), Some(hot)) = (self.right_size, mode, &bound.hot) {
            if hot.insts as usize > cfg.geometry.capacity() {
                return Ok(Mode::Dtb(DtbConfig::with_capacity(
                    bound.recommended.capacity(),
                )));
            }
        }
        Ok(mode.clone())
    }
}

/// The supervision configuration a pool run consults: budget, retry,
/// breaker, admission, and the queue watermark for load shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervisor {
    /// Per-tenant execution budget (fuel and/or deadline). Applied to
    /// every attempt; an unlimited budget never preempts.
    pub budget: Budget,
    /// Supervised-retry policy for transient failures.
    pub backoff: BackoffPolicy,
    /// Per-image circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Admission control from static DTB pressure bounds.
    pub admission: AdmissionPolicy,
    /// Load-shedding watermark: tenants queued beyond this depth are
    /// shed up front ([`RequestOutcome::Shed`]). `None` = never shed.
    pub max_queue: Option<usize>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            budget: Budget::unlimited(),
            backoff: BackoffPolicy::default(),
            breaker: BreakerPolicy::default(),
            admission: AdmissionPolicy::default(),
            max_queue: None,
        }
    }
}

/// Salt decorrelating worker-crash rolls from the other chaos streams.
const CRASH_SALT: u64 = 0x63726173_68000001;
/// Salt decorrelating hung-tenant rolls.
const HANG_SALT: u64 = 0x68616e67_00000002;
/// Salt decorrelating translation-corruption rolls.
const CORRUPT_SALT: u64 = 0x636f7272_00000003;

/// Pool-level chaos: which tenants get a worker crash, a hang, or
/// corrupted translations injected.
///
/// Each kind of havoc is rolled *statelessly* per tenant index —
/// `Rng::new(seed ^ tenant ^ SALT)` — so the set of injected faults is a
/// pure function of `(seed, tenant)` and identical under any schedule,
/// worker count, or tenant-to-worker placement. That is what lets the
/// chaos campaign compare outcome tables against a committed baseline
/// bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Base seed of all three chaos streams.
    pub seed: u64,
    /// Probability that a tenant's worker crashes mid-tenant (the panic
    /// escapes the tenant's isolation boundary).
    pub worker_crash_rate: f64,
    /// Probability that a tenant hangs on its first attempt (an infinite
    /// loop is swapped in; only a budget can preempt it).
    pub hang_rate: f64,
    /// Probability that a tenant's first attempt builds corrupted
    /// translations (every stamped line dropped, so the first dispatch
    /// traps as malformed before executing anything; see
    /// [`RunOptions::poison_translations`](crate::RunOptions::poison_translations)).
    pub artifact_corruption_rate: f64,
}

impl ChaosConfig {
    /// A quiet configuration: a seed, no injections.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            worker_crash_rate: 0.0,
            hang_rate: 0.0,
            artifact_corruption_rate: 0.0,
        }
    }

    fn roll(&self, tenant: usize, salt: u64, rate: f64) -> bool {
        rate > 0.0 && Rng::new(self.seed ^ tenant as u64 ^ salt).bool_with(rate)
    }

    /// Whether the worker running `tenant` crashes.
    pub fn crashes_worker(&self, tenant: usize) -> bool {
        self.roll(tenant, CRASH_SALT, self.worker_crash_rate)
    }

    /// Whether `tenant` hangs on its first attempt.
    pub fn hangs(&self, tenant: usize) -> bool {
        self.roll(tenant, HANG_SALT, self.hang_rate)
    }

    /// Whether `tenant`'s first attempt builds corrupted translations.
    pub fn corrupts_translations(&self, tenant: usize) -> bool {
        self.roll(tenant, CORRUPT_SALT, self.artifact_corruption_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_has_cap_minus_one_delays() {
        let p = BackoffPolicy::default();
        assert_eq!(p.schedule(7).len(), p.attempts() as usize - 1);
        let one = BackoffPolicy {
            max_attempts: 1,
            ..BackoffPolicy::default()
        };
        assert!(one.schedule(7).is_empty());
        let zero = BackoffPolicy {
            max_attempts: 0,
            ..BackoffPolicy::default()
        };
        assert_eq!(zero.attempts(), 1, "attempt cap clamps to one");
    }

    #[test]
    fn backoff_without_jitter_is_pure_exponential() {
        let p = BackoffPolicy {
            max_attempts: 5,
            base_ns: 100,
            cap_ns: 500,
            jitter_percent: 0,
            seed: 1,
        };
        assert_eq!(p.schedule(0), vec![100, 200, 400, 500]);
    }

    #[test]
    fn backoff_is_deterministic_per_key_and_decorrelated_across_keys() {
        let p = BackoffPolicy::default();
        assert_eq!(p.schedule(3), p.schedule(3));
        assert_ne!(p.schedule(3), p.schedule(4), "keys decorrelate jitter");
    }

    #[test]
    fn breaker_walks_closed_degraded_quarantined_and_resets() {
        let policy = BreakerPolicy::default();
        let mut b = Breaker::default();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(&policy);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(&policy);
        assert_eq!(b.state(), BreakerState::Degraded);
        b.record_failure(&policy);
        b.record_failure(&policy);
        assert_eq!(b.state(), BreakerState::Quarantined);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.failures(), 0);
    }

    #[test]
    fn degenerate_breaker_thresholds_clamp() {
        let policy = BreakerPolicy {
            degrade_after: 0,
            quarantine_after: 0,
        };
        let mut b = Breaker::default();
        b.record_failure(&policy);
        assert_eq!(
            b.state(),
            BreakerState::Quarantined,
            "zero thresholds clamp to 1, so the first failure quarantines"
        );
    }

    #[test]
    fn chaos_rolls_are_stateless_and_decorrelated() {
        let c = ChaosConfig {
            seed: 42,
            worker_crash_rate: 0.5,
            hang_rate: 0.5,
            artifact_corruption_rate: 0.5,
        };
        for t in 0..64 {
            assert_eq!(c.crashes_worker(t), c.crashes_worker(t));
            assert_eq!(c.hangs(t), c.hangs(t));
            assert_eq!(c.corrupts_translations(t), c.corrupts_translations(t));
        }
        // The three streams must not be the same coin: over 64 tenants
        // at p = 0.5 the odds of identical streams are ~2^-64.
        let crash: Vec<bool> = (0..64).map(|t| c.crashes_worker(t)).collect();
        let hang: Vec<bool> = (0..64).map(|t| c.hangs(t)).collect();
        let corrupt: Vec<bool> = (0..64).map(|t| c.corrupts_translations(t)).collect();
        assert_ne!(crash, hang);
        assert_ne!(hang, corrupt);
        assert!(!ChaosConfig::quiet(42).crashes_worker(0));
    }
}
