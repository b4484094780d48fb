//! # uhm-dir — the directly interpretable representation
//!
//! This crate implements the *DIR* tier of Rau (1978) and the whole
//! two-dimensional space of intermediate representations from the paper's
//! Section 3:
//!
//! * **Vertical axis (semantic level):** the base stack ISA produced by
//!   [`compiler`] and the fused, higher-level ISA produced by [`fuse`].
//! * **Horizontal axis (degree of encoding):** the five encodings in
//!   [`encode`], from byte-aligned fields to predecessor-conditioned
//!   Huffman codes, each with a measured decode-cost model.
//!
//! Supporting modules: [`isa`] (instructions and their field schemas),
//! [`program`] (the flat code array + procedure table), [`exec`] (the
//! semantic reference executor), [`bitstream`] and [`huffman`] (encoding
//! machinery), [`stats`] (static statistics), [`formats`] (the Table 1
//! format-equivalence demonstration) and [`facts`] (per-site fact bitmaps
//! proved by static analysis and checked by the executor's auditor).
//!
//! # Example
//!
//! ```
//! use dir::encode::SchemeKind;
//!
//! let hir = hlr::compile("proc main() begin write 6 * 7; end")?;
//! let prog = dir::compiler::compile(&hir);
//! assert_eq!(dir::exec::run(&prog).unwrap(), vec![42]);
//!
//! let image = SchemeKind::Huffman.encode(&prog);
//! assert_eq!(image.decode_all().unwrap(), prog.code);
//! # Ok::<(), hlr::Error>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod bitstream;
pub mod compiler;
pub mod encode;
pub mod exec;
pub mod facts;
pub mod formats;
pub mod fuse;
pub mod huffman;
pub mod isa;
pub mod program;
pub mod stats;

pub use encode::DecodeMode;
pub use facts::SiteFacts;
pub use isa::{AluOp, Inst, Opcode};
pub use program::{ProcInfo, Program};
