//! # uhm-profile — the deep profiling plane
//!
//! Observability for the UHM reproduction, built entirely on the
//! machines' typed event stream ([`telemetry::Event`]) so that profiling
//! is a property of the *sink*, never of the machine: every surface in
//! this crate attaches through [`telemetry::TraceSink`] and sets
//! `CLASSIFY_MISSES = false`, which keeps a profiled run's output and
//! modeled metrics bit-identical to an untraced run (the differential
//! test in `tests/profile_plane.rs` holds the line, and the
//! `profile_gate` bench bounds the host-side overhead at ≤ 5 %).
//!
//! Four surfaces, one event stream:
//!
//! * [`CounterPlane`] — the always-on counter plane: per-DIR-region,
//!   per-opcode and per-tier (INTERP / PSDER) retire + cycle
//!   attribution, opcode-pair frequencies, and sampled DTB
//!   occupancy/eviction timelines, rendered into a
//!   [`telemetry::Kind::Profile`] report by [`report::profile_report`];
//! * [`SpanTracer`] — hierarchical span tracing on the modeled clock,
//!   exported as Chrome `trace_event` JSON loadable in Perfetto
//!   (`raul ... --trace-out trace.json`);
//! * [`FlameBuilder`] — collapsed-stack flamegraph output from the
//!   reconstructed procedure call stack (`--flame-out`);
//! * [`Profile`] — the classic per-instruction execution profile and
//!   coverage curves (grown out of the old `uhm::profile` module), the
//!   empirical justification for a small DTB.
//!
//! Pool-wide aggregation ([`report::pool_profile_json`]) folds a
//! [`uhm::pool::PoolRun`] into per-worker [`telemetry::LogHistogram`]
//! latency shards whose merge is bucket-exact, plus worker utilization
//! and the queue-depth timeline.

#![warn(missing_docs)]

pub mod counters;
pub mod flame;
pub mod map;
#[allow(clippy::module_inception)]
pub mod profile;
pub mod report;
pub mod span;

pub use counters::{Attribution, CounterPlane};
pub use flame::FlameBuilder;
pub use map::{CallStack, ProcMap, StackStep};
pub use profile::Profile;
pub use report::{pool_profile_json, profile_report};
pub use span::SpanTracer;
