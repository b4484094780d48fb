//! Generative conformance plane for the UHM reproduction.
//!
//! Rau's central claim is that a program means the same thing at every
//! representation level — high-level source, directly-interpretable
//! DIR, problem-sensitive PSDER — and that a universal host machine may
//! pick any translation/caching strategy between them without changing
//! observable behaviour. The workspace asserts this pointwise in unit
//! tests; this crate asserts it *generatively*: seeded random RAUL
//! programs (with feature toggles for arrays, calls, loop nesting,
//! division and trap-provoking inputs) are pushed through the full
//! cross-product of engines and machine configurations, and any
//! disagreement is automatically reduced to a minimal reproducing
//! source file.
//!
//! The pieces:
//!
//! * [`oracle`] — runs one program through every engine (reference
//!   evaluator, DIR executor, fused DIR, PSDER interpreter, machine
//!   interpreter/DTB/I-cache modes, tree and table decoders, profiled
//!   and miss-classified runs, the dataflow soundness auditor) and
//!   reports every divergence, including violations of the metric
//!   identities the planes promise.
//! * [`coverage`] — accounts what a batch of cases actually exercised
//!   (opcodes, opcode pairs, schemes, tiers, miss classes, trap
//!   classes) so the sweep can gate on coverage floors.
//! * [`mod@shrink`] — a delta-debugging minimizer over the RAUL AST
//!   driven by an arbitrary failure predicate.
//!
//! The `conformance_sweep` bench binary in `uhm-bench` drives these
//! over hundreds of seeds and enforces a committed coverage baseline.

#![warn(missing_docs)]

pub mod coverage;
pub mod oracle;
pub mod shrink;

pub use coverage::Coverage;
pub use oracle::{run_case, trap_class, CaseConfig, CaseReport, Divergence, Injection};
pub use shrink::{shrink, ShrinkStats};
