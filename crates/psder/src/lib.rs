//! # uhm-psder — the procedurally structured DER
//!
//! The *PSDER* tier of Rau (1978): semantically identical to the DIR but
//! directly executable, expressed as short steering sequences (CALL / PUSH
//! / POP / INTERP, module [`short`]) that invoke generalised semantic
//! routines written in long-format horizontal microinstructions
//! ([`micro`], [`routines`]).
//!
//! [`translator`] holds the almost-one-to-one DIR→PSDER [`Template`]s,
//! built in place; [`engine`] is the
//! shared architectural state (operand stack, return-address stack, frames,
//! register file); [`line`](mod@line) compiles one translation into a flat op line
//! with each called routine inlined or fused into one superoperator, the
//! form the `uhm` machines execute; [`stencil`] runs the translator and
//! the line compiler once per instruction shape and keeps the result with
//! operand holes, so a machine's translation event copies a shape's
//! stencil and patches the operands in ([`Stencils`]);
//! [`interp`] is a cost-free reference interpreter that runs translations
//! word by word, the oracle those machines are differentially tested
//! against.
//!
//! # Example
//!
//! ```
//! let hir = hlr::compile("proc main() begin write 40 + 2; end")?;
//! let prog = dir::compiler::compile(&hir);
//! assert_eq!(psder::interp::run(&prog).unwrap(), vec![42]);
//! # Ok::<(), hlr::Error>(())
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod interp;
pub mod line;
pub mod listing;
pub mod micro;
pub mod routines;
pub mod short;
pub mod stencil;
pub mod translator;
pub mod verify;

pub use engine::{Engine, MicroEffect, ShortEffect};
pub use line::{Flow, Line, LineMeta, MAX_LINE_CALLS, MAX_LINE_OPS};
pub use routines::RoutineLib;
pub use short::{InterpMode, PopMode, PushMode, RoutineId, ShortInstr};
pub use stencil::{Instance, Stencils};
pub use translator::{translate, Template, MAX_TRANSLATION_WORDS};
