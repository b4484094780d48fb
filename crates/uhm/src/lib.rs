//! # uhm — the universal host machine with dynamic translation
//!
//! The primary contribution of Rau (1978): a universal host machine whose
//! working set of DIR instructions is kept, dynamically translated into a
//! directly executable PSDER form, in a **dynamic translation buffer**.
//!
//! * [`dtb`] — the DTB's four arrays (associative tags, address array,
//!   replacement array, buffer array) with fixed or overflow allocation;
//! * [`machine`] — the three Section-7 machine configurations (pure
//!   interpreter, DTB, instruction cache) with full cycle accounting over
//!   the same execution engine, so all modes are semantically identical;
//! * [`model`] — the Section-7 analytic model, the paper's published
//!   Tables 2/3, and parameter extraction from measured runs;
//! * [`config`], [`metrics`] — cost knobs and the measured Section-7
//!   parameters (`d`, `g`, `x`, `s1`, `s2`, `h_D`, `h_c`);
//! * [`fault`] — the fault plane: seeded corruption injection, DTB guard
//!   checksums, and the recovery/degradation machinery that exploits the
//!   DTB's redundancy (the static DIR stays the ground truth);
//! * [`pool`] — the multi-tenant plane: a [`MachinePool`]
//!   runs independent tenant programs across a work-stealing worker set,
//!   sharing read-only decode artifacts while keeping every tenant's
//!   results bit-identical to a sequential run;
//! * [`resilience`] — the supervision policies around the pool: execution
//!   budgets ([`Budget`]), seeded retry/backoff, per-image circuit
//!   breakers, pressure-bound admission control, load shedding, and the
//!   pool-level chaos plane;
//! * [`service`] — the request-serving plane over the pool: open-loop
//!   arrivals on the modeled clock, static admission, per-tenant fair
//!   queues with quotas and watermark backpressure, and the
//!   deterministic latency-under-load trajectory ([`ServiceRun`]).
//!
//! # Example
//!
//! ```
//! use dir::encode::SchemeKind;
//! use uhm::{DtbConfig, Machine, Mode};
//!
//! let hir = hlr::compile(
//!     "proc main() begin int i := 0; while i < 50 do i := i + 1; write i; end",
//! )?;
//! let prog = dir::compiler::compile(&hir);
//! let machine = Machine::new(&prog, SchemeKind::Huffman);
//!
//! let interp = machine.run(&Mode::Interpreter).unwrap();
//! let dtb = machine.run(&Mode::Dtb(DtbConfig::with_capacity(64))).unwrap();
//! assert_eq!(interp.output, dtb.output);
//! // Dynamic translation pays off once the loop re-executes instructions.
//! assert!(dtb.metrics.time_per_instruction() < interp.metrics.time_per_instruction());
//! # Ok::<(), hlr::Error>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod dtb;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod model;
pub mod pool;
pub mod report;
pub mod resilience;
pub mod service;
pub mod sweep;
pub mod window;

pub use config::{Budget, CostModel, Limits, RetryPolicy, BUDGET_CHECK_INTERVAL};
pub use dtb::{Allocation, ConfigError, Dtb, DtbConfig, DtbStats, Replacement};
pub use fault::{FaultConfig, FaultInjector, FaultStats};
pub use machine::{Machine, Mode, RunOptions, SharedArtifacts};
pub use metrics::{CycleBreakdown, Metrics, Report};
pub use model::Params;
pub use pool::{MachinePool, PoolRun, PoolTenant, TenantResult};
pub use resilience::{
    AdmissionPolicy, BackoffPolicy, Breaker, BreakerPolicy, BreakerState, ChaosConfig, Supervisor,
};
pub use service::{
    Request, RequestOutcome, RequestResult, Service, ServiceConfig, ServiceRun, StepRun,
};
pub use window::{WindowSample, WindowSampler};

// Re-exported so downstream crates can drive `Machine::run_with` without
// naming the telemetry crate themselves.
pub use telemetry;
