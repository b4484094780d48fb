//! # telemetry — observability primitives for the UHM reproduction
//!
//! Rau's argument lives on *dynamic* behavior — working-set skew, DTB hit
//! rates, the decode/generate/execute split — yet aggregates alone cannot
//! show phase transitions or explain a surprising hit ratio. This crate
//! supplies the three observability layers the rest of the workspace wires
//! through the machines:
//!
//! * [`event`] — typed trace events ([`Event`]) with a miss taxonomy
//!   ([`MissKind`]: cold / capacity / conflict);
//! * [`sink`] — the [`TraceSink`] trait with a zero-cost [`NullSink`]
//!   (an associated `ENABLED` flag lets monomorphized machines compile
//!   tracing out entirely), a bounded [`RingSink`] that keeps the most
//!   recent events plus total per-kind counts, and a [`JsonlSink`] that
//!   streams events as JSON lines;
//! * [`json`] + [`report`] — a dependency-free JSON value model
//!   (serializer *and* parser, so reports round-trip) and the versioned
//!   [`Report`] envelope every `--json` surface emits, making
//!   `BENCH_*.json` trajectories diffable across PRs.
//!
//! The crate is a leaf: it depends on nothing in the workspace (or
//! outside it), so every layer from `uhm` down to the bench binaries can
//! use it without cycles.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod report;
pub mod sink;
pub mod stats;

pub use event::{Event, EventCounts, FaultKind, MissKind, Tier};
pub use json::Json;
pub use report::{Kind, Report, SCHEMA_VERSION};
pub use sink::{JsonlSink, NullSink, RingSink, TeeSink, TraceSink};
pub use stats::{percentile_sorted, LogHistogram, Percentiles};
