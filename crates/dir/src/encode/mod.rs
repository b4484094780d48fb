//! The encoding dimension of the representation space (paper §3.2).
//!
//! Five schemes of increasing sophistication encode the same DIR program:
//!
//! | Scheme | Paper's description | Decode cost driver |
//! |---|---|---|
//! | [`ByteAligned`] | "unencoded" fields on byte boundaries | one read per field |
//! | [`Packed`] | packed fields spanning memory-unit boundaries | extract + mask per field |
//! | [`Contextual`] | field sizes limited by scope/contour information | width lookup + extract + mask |
//! | [`HuffmanScheme`] | frequency-based (Huffman) opcode encoding | tree walk, 2 ops per code bit |
//! | [`PairHuffman`] | pair-frequency encoding, one tree per predecessor | tree select + tree walk |
//!
//! All schemes share the *(opcode, fields)* view of [`crate::isa`], so they
//! encode any instruction the ISA can express. Program size is the bit
//! length of the stream; decoder-side tables (field-width tables, decode
//! trees) are accounted separately in [`Image::side_table_bits`] — they
//! enlarge the *interpreter*, not the program, exactly as the paper
//! distinguishes.
//!
//! ## Addresses
//!
//! The DIR address of an instruction is its index in the code array; the
//! image records each instruction's bit offset so fetch costs can be
//! charged in memory words. (A production encoding would use bit offsets as
//! addresses directly; the index<->offset table models that address
//! arithmetic and is not charged to program size.)

mod byte;
mod contextual;
mod huffman_scheme;
mod packed;
mod pair;
mod template;
mod value_huffman;

pub use byte::ByteAligned;
pub use contextual::Contextual;
pub use huffman_scheme::HuffmanScheme;
pub use packed::Packed;
pub use pair::PairHuffman;
pub use value_huffman::ValueHuffman;

use crate::bitstream::{bits_for, BitReader, BitsExhausted};
use crate::huffman::{CodebookIssue, Tree};
use crate::isa::{DecodeError, FieldKind, Inst, FIELD_KINDS, OPCODE_COUNT};
use crate::program::Program;

/// Which host implementation decodes the image. Both produce identical
/// instructions, consumed bit counts and *modeled* decode costs — they
/// differ only in host wall-clock. The modeled cost accounting stays a
/// property of the representation, not of the decoder that happens to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeMode {
    /// Reference decoder: bit-at-a-time reads and pointer-tree Huffman
    /// walks, exactly the naive implementation the paper's cost model
    /// describes. Kept as the differential-testing oracle and the
    /// baseline for host-throughput comparisons.
    Tree,
    /// Fast plane: word-batched field extraction and canonical-Huffman
    /// lookup-table decoding.
    #[default]
    Table,
}

impl DecodeMode {
    /// Both modes, reference first.
    pub fn all() -> [DecodeMode; 2] {
        [DecodeMode::Tree, DecodeMode::Table]
    }

    /// Short label for flags and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            DecodeMode::Tree => "tree",
            DecodeMode::Table => "table",
        }
    }

    /// Parses a `--decoder` flag value.
    pub fn parse(s: &str) -> Option<DecodeMode> {
        match s {
            "tree" => Some(DecodeMode::Tree),
            "table" => Some(DecodeMode::Table),
            _ => None,
        }
    }

    /// Reads a `width`-bit field through this mode's bitstream path.
    #[inline]
    pub(crate) fn read(self, reader: &mut BitReader<'_>, width: u32) -> Result<u64, BitsExhausted> {
        match self {
            DecodeMode::Tree => reader.read_bitwise(width),
            DecodeMode::Table => reader.read(width),
        }
    }

    /// Reads a `kind` field `width` bits wide through this mode's
    /// bitstream path. A width above 64 describes no value the stream can
    /// deliver: both modes report it as [`ImageError::FieldWidth`], at
    /// the field where the reader meets it.
    #[inline]
    pub(crate) fn field(
        self,
        reader: &mut BitReader<'_>,
        kind: FieldKind,
        width: u32,
    ) -> Result<u64, ImageError> {
        if width > 64 {
            return Err(ImageError::FieldWidth { kind, width });
        }
        Ok(self.read(reader, width)?)
    }

    /// Decodes one Huffman symbol through this mode's codebook path.
    #[inline]
    pub(crate) fn huff(
        self,
        tree: &crate::huffman::Tree,
        reader: &mut BitReader<'_>,
    ) -> Result<(usize, u32), BitsExhausted> {
        match self {
            DecodeMode::Tree => tree.decode(reader),
            DecodeMode::Table => tree.decode_table(reader),
        }
    }
}

impl std::fmt::Display for DecodeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifies an encoding scheme, ordered by increasing degree of encoding
/// (the horizontal axis of the paper's Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeKind {
    /// Byte-aligned, unencoded fields.
    ByteAligned,
    /// Bit-packed fields with program-wide widths.
    Packed,
    /// Bit-packed fields with per-procedure (contour) widths.
    Contextual,
    /// Huffman-coded opcodes over contextual fields.
    Huffman,
    /// Predecessor-conditioned Huffman opcodes over contextual fields.
    PairHuffman,
    /// Pair-coded opcodes plus frequency-coded operand values — the far
    /// right of the encoding axis.
    ValueHuffman,
}

impl SchemeKind {
    /// All schemes in increasing encoding degree.
    pub fn all() -> [SchemeKind; 6] {
        [
            SchemeKind::ByteAligned,
            SchemeKind::Packed,
            SchemeKind::Contextual,
            SchemeKind::Huffman,
            SchemeKind::PairHuffman,
            SchemeKind::ValueHuffman,
        ]
    }

    /// Short label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::ByteAligned => "byte",
            SchemeKind::Packed => "packed",
            SchemeKind::Contextual => "contextual",
            SchemeKind::Huffman => "huffman",
            SchemeKind::PairHuffman => "pair",
            SchemeKind::ValueHuffman => "valuehuff",
        }
    }

    /// Encodes `program` under this scheme.
    ///
    /// Every scheme is lossless: the encoded [`Image`] decodes back to
    /// the original instruction stream exactly.
    ///
    /// ```
    /// use dir::encode::SchemeKind;
    ///
    /// let hir = hlr::compile("proc main() begin write 40 + 2; end")?;
    /// let program = dir::compiler::compile(&hir);
    /// let image = SchemeKind::Huffman.encode(&program);
    /// assert_eq!(image.decode_all().unwrap(), program.code);
    /// // Entropy coding beats the byte-aligned format on program bits.
    /// let byte = SchemeKind::ByteAligned.encode(&program);
    /// assert!(image.program_bits() < byte.program_bits());
    /// # Ok::<(), hlr::Error>(())
    /// ```
    pub fn encode(self, program: &Program) -> Image {
        match self {
            SchemeKind::ByteAligned => ByteAligned.encode(program),
            SchemeKind::Packed => Packed.encode(program),
            SchemeKind::Contextual => Contextual.encode(program),
            SchemeKind::Huffman => HuffmanScheme.encode(program),
            SchemeKind::PairHuffman => PairHuffman.encode(program),
            SchemeKind::ValueHuffman => ValueHuffman.encode(program),
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An encoding scheme: a bidirectional mapping between a [`Program`] and a
/// bit image.
pub trait Scheme {
    /// The scheme's identity.
    fn kind(&self) -> SchemeKind;

    /// Encodes a whole program.
    fn encode(&self, program: &Program) -> Image;
}

/// A decoded instruction together with its modelled decode cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The instruction.
    pub inst: Inst,
    /// Modelled decode cost in host instructions — the paper's parameter
    /// `d`, measured rather than assumed.
    pub cost: u32,
    /// Encoded width of this instruction in bits.
    pub bits: u64,
}

/// An error while decoding from an [`Image`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Instruction index out of range.
    BadIndex(u32),
    /// The bit stream ended prematurely (image corrupt).
    Exhausted,
    /// The decoded parts did not form a valid instruction.
    Decode(DecodeError),
    /// The decoder's tables give a field more bits than any value holds
    /// (a damaged width table; [`Image::validate_codec`] reports it as
    /// [`CodecIssue::FieldWidth`]).
    FieldWidth {
        /// The field kind being read.
        kind: FieldKind,
        /// Its declared width in bits.
        width: u32,
    },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadIndex(i) => write!(f, "instruction index {i} out of range"),
            ImageError::Exhausted => write!(f, "bit stream exhausted"),
            ImageError::Decode(e) => write!(f, "decode error: {e}"),
            ImageError::FieldWidth { kind, width } => {
                write!(f, "field {kind:?} declares impossible width {width}")
            }
        }
    }
}

impl std::error::Error for ImageError {}

impl From<BitsExhausted> for ImageError {
    fn from(_: BitsExhausted) -> Self {
        ImageError::Exhausted
    }
}

impl From<DecodeError> for ImageError {
    fn from(e: DecodeError) -> Self {
        ImageError::Decode(e)
    }
}

/// A defect in an image's decoder-side tables, found by
/// [`Image::validate_codec`] without reading a single stream bit. Each
/// variant is a *structural* property of the side tables themselves —
/// detectable at load time, where the same damage would otherwise surface
/// as a mid-run decode trap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecIssue {
    /// A Huffman codebook is invalid (bad width, prefix conflict, or a
    /// code space that is not exactly full).
    Codebook {
        /// Which table: `"opcode"`, `"global"`, `"pred[i]"`, or
        /// `"value[FieldKind]"`.
        table: String,
        /// The underlying codebook defect.
        issue: CodebookIssue,
    },
    /// A declared field width exceeds the 64-bit value domain.
    FieldWidth {
        /// The affected field kind.
        kind: FieldKind,
        /// The declared width in bits.
        width: u32,
    },
    /// Instruction bit offsets are not strictly increasing.
    OffsetOrder {
        /// First instruction whose offset does not exceed its
        /// predecessor's.
        index: u32,
    },
    /// An instruction offset lies at or past the end of the stream.
    OffsetRange {
        /// The offending instruction index.
        index: u32,
        /// Its recorded bit offset.
        offset: u64,
        /// The stream length in bits.
        bit_len: u64,
    },
    /// A context region is empty, inverted, or overlaps its predecessor.
    RegionBounds {
        /// Index of the offending region.
        region: usize,
    },
    /// A predecessor-table entry names an impossible opcode.
    PredecessorEntry {
        /// The instruction whose predecessor entry is out of range.
        index: u32,
    },
    /// The predecessor table length disagrees with the instruction count.
    PredecessorLength {
        /// Entries present.
        len: usize,
        /// Entries required (one per instruction).
        expected: usize,
    },
}

impl std::fmt::Display for CodecIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecIssue::Codebook { table, issue } => {
                write!(f, "codebook `{table}`: {issue}")
            }
            CodecIssue::FieldWidth { kind, width } => {
                write!(f, "field {kind:?} declares impossible width {width}")
            }
            CodecIssue::OffsetOrder { index } => {
                write!(f, "offset of instruction {index} does not advance")
            }
            CodecIssue::OffsetRange {
                index,
                offset,
                bit_len,
            } => write!(
                f,
                "instruction {index} offset {offset} outside stream of {bit_len} bits"
            ),
            CodecIssue::RegionBounds { region } => {
                write!(f, "context region {region} empty, inverted, or overlapping")
            }
            CodecIssue::PredecessorEntry { index } => {
                write!(f, "predecessor entry for instruction {index} out of range")
            }
            CodecIssue::PredecessorLength { len, expected } => {
                write!(
                    f,
                    "predecessor table holds {len} entries, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CodecIssue {}

/// Pushes a [`CodecIssue::Codebook`] when `tree`'s codebook fails
/// [`Tree::check`].
fn check_tree(tree: &Tree, table: &str, out: &mut Vec<CodecIssue>) {
    if let Err(issue) = tree.check() {
        out.push(CodecIssue::Codebook {
            table: table.to_string(),
            issue,
        });
    }
}

/// Field widths above 64 bits cannot describe any value the bitstream can
/// deliver.
fn check_widths(widths: &FieldWidths, out: &mut Vec<CodecIssue>) {
    for (i, &width) in widths.widths.iter().enumerate() {
        if width > 64 {
            out.push(CodecIssue::FieldWidth {
                kind: FIELD_KINDS[i],
                width,
            });
        }
    }
}

/// Regions must be non-empty, ordered, and disjoint; each region's width
/// table gets the same sanity screen as the program-wide one.
fn check_regions(tables: &ContextTables, out: &mut Vec<CodecIssue>) {
    let mut prev_end = 0u32;
    for (i, r) in tables.regions.iter().enumerate() {
        if r.start >= r.end || r.start < prev_end {
            out.push(CodecIssue::RegionBounds { region: i });
        } else {
            prev_end = r.end;
        }
        check_widths(&r.widths, out);
    }
}

/// Shared validation of the pair-conditioned opcode machinery (the `Pair`
/// and `ValueHuffman` decoders).
fn check_pair_decoder(
    ctx: &[pair::CtxCode],
    global: &Tree,
    preds: &[u8],
    tables: &ContextTables,
    n_insts: usize,
    out: &mut Vec<CodecIssue>,
) {
    check_tree(global, "global", out);
    for (i, c) in ctx.iter().enumerate() {
        check_tree(&c.tree, &format!("pred[{i}]"), out);
    }
    check_regions(tables, out);
    if preds.len() != n_insts {
        out.push(CodecIssue::PredecessorLength {
            len: preds.len(),
            expected: n_insts,
        });
    }
    // OPCODE_COUNT itself is the legal start-of-region sentinel.
    for (i, &p) in preds.iter().enumerate() {
        if p as usize > OPCODE_COUNT {
            out.push(CodecIssue::PredecessorEntry { index: i as u32 });
        }
    }
}

/// Compile-time proof that an [`Image`] — decode trees, LUTs and context
/// tables included — is plain immutable data, so `Arc<Image>` can be
/// shared read-only across worker threads (the multi-tenant pool relies
/// on this). The only interior mutability in the decode path lives in the
/// per-call [`BitReader`] window, which is stack state, not image state.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Image>();
};

/// An encoded program image.
#[derive(Debug, Clone)]
pub struct Image {
    /// The scheme that produced this image.
    pub kind: SchemeKind,
    /// The encoded bit stream.
    pub bytes: Vec<u8>,
    /// Exact length of the stream in bits (the program's static size).
    pub bit_len: u64,
    /// Bit offset of each instruction (index = DIR address).
    pub offsets: Vec<u64>,
    /// Bits of decoder-side tables (width tables, Huffman trees): charged
    /// to interpreter size, not program size.
    pub side_table_bits: u64,
    /// Host decoder used by [`Image::decode`] / [`Image::decode_from`].
    pub mode: DecodeMode,
    pub(crate) decoder: DecoderData,
}

/// Scheme-specific state needed to decode an image. Each fixed-layout
/// variant is built only by its constructor ([`DecoderData::byte`],
/// [`DecoderData::packed`], [`DecoderData::contextual`],
/// [`DecoderData::huffman`]), which derives its field plans from the
/// widths it holds, so no plan can disagree with them.
#[derive(Debug, Clone)]
pub(crate) enum DecoderData {
    Byte {
        plan: template::FieldPlan,
    },
    Packed {
        widths: FieldWidths,
        plan: template::FieldPlan,
    },
    Contextual {
        tables: ContextTables,
        /// Each region's field plan, in region order.
        plans: Vec<template::FieldPlan>,
    },
    Huffman {
        tree: crate::huffman::Tree,
        tables: ContextTables,
        /// Each region's field plan, in region order.
        plans: Vec<template::FieldPlan>,
    },
    Pair {
        /// One escape-coded codebook per predecessor opcode, plus a
        /// start-of-region codebook at index [`crate::isa::OPCODE_COUNT`].
        ctx: Vec<pair::CtxCode>,
        /// The unconditioned fallback tree reached through ESCAPE codes.
        global: crate::huffman::Tree,
        /// Static predecessor opcode per instruction (`OPCODE_COUNT` for
        /// region starts). Reconstructible by sequential decode, so not
        /// charged to program size; see the module docs.
        preds: Vec<u8>,
        tables: ContextTables,
    },
    ValueHuffman {
        /// Per-predecessor opcode codebooks (as in `Pair`).
        ctx: Vec<pair::CtxCode>,
        /// Fallback opcode tree.
        global: crate::huffman::Tree,
        /// Static predecessor opcodes (see `Pair`).
        preds: Vec<u8>,
        tables: ContextTables,
        /// One value codebook per field kind.
        values: Vec<value_huffman::ValueCode>,
    },
}

impl DecoderData {
    /// The byte-aligned decoder: one plan over the fixed field widths,
    /// charging 1 for the opcode and 1 per field.
    pub(crate) fn byte() -> DecoderData {
        let plan = template::FieldPlan::new(&byte::widths(), 0, 1, 1);
        DecoderData::Byte { plan }
    }

    /// The packed decoder over program-wide `widths`: one plan, targets
    /// absolute, charging 2 for the opcode and 2 per field.
    pub(crate) fn packed(widths: FieldWidths) -> DecoderData {
        let plan = template::FieldPlan::new(&widths, 0, 2, 2);
        DecoderData::Packed { widths, plan }
    }

    /// The contextual decoder over `tables`: one plan per region,
    /// charging 3 for the region lookup and opcode and 3 per field.
    pub(crate) fn contextual(tables: ContextTables) -> DecoderData {
        let plans = region_plans(&tables, 3);
        DecoderData::Contextual { tables, plans }
    }

    /// The Huffman decoder over `tree` and `tables`: one plan per region,
    /// charging 1 for the region lookup and 3 per field; the code's walk
    /// is charged as the code is resolved.
    pub(crate) fn huffman(tree: crate::huffman::Tree, tables: ContextTables) -> DecoderData {
        let plans = region_plans(&tables, 1);
        DecoderData::Huffman {
            tree,
            tables,
            plans,
        }
    }
}

/// Each region's plan, in region order: targets relative to the region,
/// `op_cost` for the opcode and 3 per field.
fn region_plans(tables: &ContextTables, op_cost: u32) -> Vec<template::FieldPlan> {
    tables
        .regions
        .iter()
        .map(|r| template::FieldPlan::new(&r.widths, r.target_base, op_cost, 3))
        .collect()
}

impl Image {
    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Returns `true` when the image holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Program size in bits (excluding decoder-side tables).
    pub fn program_bits(&self) -> u64 {
        self.bit_len
    }

    /// Average encoded instruction width in bits.
    pub fn mean_inst_bits(&self) -> f64 {
        if self.offsets.is_empty() {
            0.0
        } else {
            self.bit_len as f64 / self.offsets.len() as f64
        }
    }

    /// Number of `word_bits`-sized memory words touched when fetching
    /// instruction `index` — the paper's per-instruction `s2`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `word_bits` is zero.
    pub fn fetch_words(&self, index: u32, word_bits: u32) -> u32 {
        let start = self.offsets[index as usize];
        let end = self
            .offsets
            .get(index as usize + 1)
            .copied()
            .unwrap_or(self.bit_len);
        let end = end.max(start + 1);
        let first = word_index(start, word_bits);
        let last = word_index(end - 1, word_bits);
        (last - first + 1) as u32
    }

    /// Decodes the instruction at `index`, reporting the modelled decode
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] on a bad index or a corrupt stream.
    pub fn decode(&self, index: u32) -> Result<Decoded, ImageError> {
        self.decode_from(&self.bytes, index)
    }

    /// Decodes the instruction at `index` out of `bytes`, an alternative
    /// level-2 copy of this image's stream (same bit offsets and decoder
    /// tables). This is the fault plane's entry point: the machine keeps
    /// a mutable level-2 copy that injected faults flip bits in, and
    /// decodes through the original image's tables. A copy shorter than
    /// `bit_len` claims is reported as [`ImageError::Exhausted`], never
    /// read out of bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] on a bad index or a corrupt stream.
    pub fn decode_from(&self, bytes: &[u8], index: u32) -> Result<Decoded, ImageError> {
        self.decode_with(bytes, index, self.mode)
    }

    /// Selects the host decoder for subsequent [`Image::decode`] calls.
    /// Purely a host-implementation switch: results and modeled costs are
    /// identical either way (the differential suite proves it).
    pub fn set_decode_mode(&mut self, mode: DecodeMode) {
        self.mode = mode;
    }

    /// Decodes the instruction at `index` out of `bytes` through an
    /// explicitly chosen host decoder, regardless of the image's own
    /// [`Image::mode`]. The differential harness and the throughput gate
    /// drive both decoders over one image through this entry.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] on a bad index or a corrupt stream.
    pub fn decode_with(
        &self,
        bytes: &[u8],
        index: u32,
        mode: DecodeMode,
    ) -> Result<Decoded, ImageError> {
        self.decode_in(bytes, index, mode, |tables| tables.position_of(index))
    }

    /// [`Image::decode_with`] with the contour region found by `at`, the
    /// position in [`ContextTables::regions`] of the region that holds
    /// `index`: a binary search for one address, a cursor for a pass over
    /// every address. Decodes from the offset the image records for
    /// `index`, whatever the instructions before it consumed. The table
    /// plane first tries [`Image::decode_by_window`]; what that cannot
    /// decode, and everything on the tree plane, goes through the
    /// scheme's per-field reader.
    #[inline(always)]
    fn decode_in(
        &self,
        bytes: &[u8],
        index: u32,
        mode: DecodeMode,
        mut at: impl FnMut(&ContextTables) -> usize,
    ) -> Result<Decoded, ImageError> {
        let offset = *self
            .offsets
            .get(index as usize)
            .ok_or(ImageError::BadIndex(index))?;
        if mode == DecodeMode::Table {
            if let Some(decoded) = self.decode_by_window(bytes, offset, &mut at) {
                return decoded;
            }
        }
        self.decode_by_fields(bytes, index, offset, mode, at)
    }

    /// The instruction at bit `offset` decoded through its fixed-layout
    /// scheme's field plan from one [`window_at`](template::window_at)
    /// load, or `None` when the window cannot decode it: a pair-coded
    /// scheme, an instruction that runs past the end of the stream, a
    /// Huffman code longer than the LUT, a bad opcode, or opcode and
    /// fields wider than the window.
    #[inline(always)]
    fn decode_by_window(
        &self,
        bytes: &[u8],
        offset: u64,
        at: impl FnOnce(&ContextTables) -> usize,
    ) -> Option<Result<Decoded, ImageError>> {
        use template::OpcodeCode::{Fixed, Huffman};
        let (code, plan) = match &self.decoder {
            DecoderData::Byte { plan } => (Fixed(byte::OPCODE_BITS), plan),
            DecoderData::Packed { plan, .. } => (Fixed(packed::opcode_bits()), plan),
            DecoderData::Contextual { tables, plans } => {
                (Fixed(packed::opcode_bits()), &plans[at(tables)])
            }
            DecoderData::Huffman {
                tree,
                tables,
                plans,
            } => (Huffman(tree), &plans[at(tables)]),
            DecoderData::Pair { .. } | DecoderData::ValueHuffman { .. } => return None,
        };
        let (window, room) = template::window_at(bytes, self.bit_len, offset);
        template::windowed(window, room, code, plan)
    }

    /// The instruction at bit `offset` decoded through its scheme's
    /// per-field reader: the tree plane's decoder, and the table plane's
    /// for whatever [`Image::decode_by_window`] cannot decode. Always
    /// inlined: out of line, `Image::decode_all` read 20–100% slower per
    /// instruction over the fused sample programs, for a cause not found.
    #[inline(always)]
    fn decode_by_fields(
        &self,
        bytes: &[u8],
        index: u32,
        offset: u64,
        mode: DecodeMode,
        at: impl FnOnce(&ContextTables) -> usize,
    ) -> Result<Decoded, ImageError> {
        let mut reader = BitReader::at(bytes, self.bit_len, offset);
        let decoded = match &self.decoder {
            DecoderData::Byte { .. } => byte::decode(&mut reader, mode)?,
            DecoderData::Packed { widths, .. } => packed::decode(&mut reader, widths, mode)?,
            DecoderData::Contextual { tables, .. } => {
                contextual::decode(&mut reader, &tables.regions[at(tables)], mode)?
            }
            DecoderData::Huffman { tree, tables, .. } => {
                huffman_scheme::decode(&mut reader, tree, &tables.regions[at(tables)], mode)?
            }
            DecoderData::Pair {
                ctx,
                global,
                preds,
                tables,
            } => pair::decode(
                &mut reader,
                ctx,
                global,
                preds,
                &tables.regions[at(tables)],
                index,
                mode,
            )?,
            DecoderData::ValueHuffman {
                ctx,
                global,
                preds,
                tables,
                values,
            } => value_huffman::decode(
                &mut reader,
                ctx,
                global,
                preds,
                &tables.regions[at(tables)],
                values,
                index,
                mode,
            )?,
        };
        Ok(Decoded {
            bits: reader.position() - offset,
            ..decoded
        })
    }

    /// Decodes the whole image through `mode`: [`Image::decode_with`] at
    /// every address, each instruction from the offset the image records
    /// for it. Instructions, consumed widths, modeled costs and errors
    /// are those of per-index [`Image::decode_with`].
    ///
    /// # Errors
    ///
    /// Returns the first decode failure.
    pub fn decode_all_with(&self, mode: DecodeMode) -> Result<Vec<Decoded>, ImageError> {
        self.decode_each(mode, |decoded| decoded)
    }

    /// Decodes the whole image back to the instruction sequence through
    /// the image's own [`Image::mode`], each instruction from the offset
    /// the image records for it, as the machine fetches it. The load
    /// proof pins this against the program, so every recorded offset is
    /// proved to start the instruction it names.
    ///
    /// # Errors
    ///
    /// Returns the first decode failure.
    pub fn decode_all(&self) -> Result<Vec<Inst>, ImageError> {
        self.decode_each(self.mode, |decoded| decoded.inst)
    }

    /// The one whole-image loop: [`Image::decode_in`] at every address in
    /// order, with the contour regions walked by a cursor instead of
    /// searched per address, keeping what `keep` takes of each result.
    /// One copy of the loop per mode, so each folds `mode` into the
    /// per-field readers: with one copy for both, the tree plane's
    /// whole-image decode of a Huffman image read ~15% slower.
    fn decode_each<T>(
        &self,
        mode: DecodeMode,
        keep: impl Fn(Decoded) -> T,
    ) -> Result<Vec<T>, ImageError> {
        match mode {
            DecodeMode::Tree => self.decode_each_in(DecodeMode::Tree, keep),
            DecodeMode::Table => self.decode_each_in(DecodeMode::Table, keep),
        }
    }

    /// [`Image::decode_each`]'s loop, inlined into each of its mode arms.
    #[inline(always)]
    fn decode_each_in<T>(
        &self,
        mode: DecodeMode,
        keep: impl Fn(Decoded) -> T,
    ) -> Result<Vec<T>, ImageError> {
        let mut out = Vec::with_capacity(self.len());
        let mut cursor = 0usize;
        for index in 0..self.len() as u32 {
            let decoded = self.decode_in(&self.bytes, index, mode, |tables| {
                tables.position_at(&mut cursor, index)
            })?;
            out.push(keep(decoded));
        }
        Ok(out)
    }

    /// Statically validates this image's decoder-side tables: Huffman
    /// codebooks (prefix-freeness, Kraft completeness, width sanity),
    /// field-width tables, context-region bounds, predecessor tables, and
    /// the instruction offset index. Reads no stream bits, so it is cheap
    /// enough to run unconditionally at load time — the analyze plane's
    /// first pass. Images produced by [`SchemeKind::encode`] always
    /// return an empty list; the [`fixtures`] module builds images that
    /// do not.
    pub fn validate_codec(&self) -> Vec<CodecIssue> {
        let mut out = Vec::new();
        for (i, w) in self.offsets.windows(2).enumerate() {
            if w[1] <= w[0] {
                out.push(CodecIssue::OffsetOrder {
                    index: i as u32 + 1,
                });
            }
        }
        for (i, &offset) in self.offsets.iter().enumerate() {
            if offset >= self.bit_len {
                out.push(CodecIssue::OffsetRange {
                    index: i as u32,
                    offset,
                    bit_len: self.bit_len,
                });
            }
        }
        match &self.decoder {
            DecoderData::Byte { .. } => {}
            DecoderData::Packed { widths, .. } => check_widths(widths, &mut out),
            DecoderData::Contextual { tables, .. } => check_regions(tables, &mut out),
            DecoderData::Huffman { tree, tables, .. } => {
                check_tree(tree, "opcode", &mut out);
                check_regions(tables, &mut out);
            }
            DecoderData::Pair {
                ctx,
                global,
                preds,
                tables,
            } => check_pair_decoder(ctx, global, preds, tables, self.len(), &mut out),
            DecoderData::ValueHuffman {
                ctx,
                global,
                preds,
                tables,
                values,
            } => {
                check_pair_decoder(ctx, global, preds, tables, self.len(), &mut out);
                for (k, vc) in values.iter().enumerate() {
                    check_tree(vc.tree(), &format!("value[{:?}]", FIELD_KINDS[k]), &mut out);
                }
            }
        }
        out
    }

    /// Mean decode cost over all instructions (static average of the
    /// paper's parameter `d`).
    ///
    /// # Panics
    ///
    /// Panics if the image is corrupt (encoders always produce decodable
    /// images).
    pub fn mean_decode_cost(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: u64 = (0..self.len() as u32)
            .map(|i| self.decode(i).expect("self-produced image decodes").cost as u64)
            .sum();
        total as f64 / self.len() as f64
    }
}

/// Index of the `word_bits`-sized memory word that holds bit `bit`: a
/// shift when `word_bits` is a power of two (32 by default), a division
/// otherwise. Every fetch counts words, so a division's latency would be
/// paid on each interpreted step and each DTB miss.
///
/// # Panics
///
/// Panics if `word_bits` is zero.
#[inline]
pub fn word_index(bit: u64, word_bits: u32) -> u64 {
    if word_bits.is_power_of_two() {
        bit >> word_bits.trailing_zeros()
    } else {
        bit / u64::from(word_bits)
    }
}

/// Program-wide (or per-region) field widths, indexed by
/// [`FieldKind::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldWidths {
    /// Width in bits per field kind.
    pub widths: [u32; FIELD_KINDS.len()],
}

impl FieldWidths {
    /// Width for one field kind.
    pub fn width(&self, kind: FieldKind) -> u32 {
        self.widths[kind.index()]
    }

    /// Computes widths wide enough for every field value in
    /// `insts`, with targets made region-relative when `rel_base` is set.
    pub fn measure<'a>(
        insts: impl Iterator<Item = &'a Inst>,
        rel_base: Option<u32>,
    ) -> FieldWidths {
        let mut max = [0u64; FIELD_KINDS.len()];
        for inst in insts {
            let kinds = inst.opcode().field_kinds();
            for (kind, value) in kinds.iter().zip(inst.fields()) {
                let v = match (kind, rel_base) {
                    (FieldKind::Target, Some(base)) => value - base as u64,
                    _ => value,
                };
                let i = kind.index();
                max[i] = max[i].max(v);
            }
        }
        let mut widths = [0u32; FIELD_KINDS.len()];
        for (w, &m) in widths.iter_mut().zip(&max) {
            *w = bits_for(m);
        }
        FieldWidths { widths }
    }

    /// Bits needed to store this width table (6 bits per entry suffice for
    /// widths up to 64).
    pub fn table_bits(&self) -> u64 {
        FIELD_KINDS.len() as u64 * 6
    }
}

/// Per-region (prelude + procedures) context tables for the contextual and
/// frequency schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextTables {
    /// `(start, end, widths, target_base)` per region, in address order.
    pub regions: Vec<Region>,
}

/// One contour region of the program with its field widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First instruction index of the region.
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Field widths within the region.
    pub widths: FieldWidths,
    /// Base subtracted from target fields (region-relative branches).
    pub target_base: u32,
}

impl ContextTables {
    /// Builds per-region tables for `program`: the prelude and each
    /// procedure form one region each (the contours the paper's contextual
    /// encoding keys on).
    pub fn build(program: &Program) -> ContextTables {
        let mut regions = Vec::new();
        let prelude_end = program
            .procs
            .iter()
            .map(|p| p.entry)
            .min()
            .unwrap_or(program.code.len() as u32);
        let mut bounds: Vec<(u32, u32)> = vec![(0, prelude_end)];
        let mut procs: Vec<(u32, u32)> = program.procs.iter().map(|p| (p.entry, p.end)).collect();
        procs.sort_unstable();
        bounds.extend(procs);
        for (start, end) in bounds {
            if start == end {
                continue;
            }
            let widths = FieldWidths::measure(
                program.code[start as usize..end as usize].iter(),
                Some(start),
            );
            regions.push(Region {
                start,
                end,
                widths,
                target_base: start,
            });
        }
        ContextTables { regions }
    }

    /// Finds the region containing instruction `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` belongs to no region (cannot happen for images
    /// built by [`ContextTables::build`]).
    pub fn region_of(&self, index: u32) -> &Region {
        &self.regions[self.position_of(index)]
    }

    /// Position in [`ContextTables::regions`] of the region containing
    /// instruction `index`; panics as [`ContextTables::region_of`] does.
    pub(crate) fn position_of(&self, index: u32) -> usize {
        let at = self
            .regions
            .partition_point(|r| r.end <= index)
            .min(self.regions.len() - 1);
        let r = &self.regions[at];
        assert!(
            r.start <= index && index < r.end,
            "instruction {index} outside all regions"
        );
        at
    }

    /// Region containing `index`, found by advancing a monotone cursor —
    /// O(1) amortized for a sequential pass, where [`Self::region_of`]'s
    /// binary search would repeat per instruction. `index` must be
    /// non-decreasing across calls with the same cursor; panics as
    /// [`ContextTables::region_of`] does.
    #[inline]
    pub fn region_at(&self, cursor: &mut usize, index: u32) -> &Region {
        &self.regions[self.position_at(cursor, index)]
    }

    /// Position of the region [`ContextTables::region_at`] returns.
    #[inline]
    pub(crate) fn position_at(&self, cursor: &mut usize, index: u32) -> usize {
        while index >= self.regions[*cursor].end && *cursor + 1 < self.regions.len() {
            *cursor += 1;
        }
        let r = &self.regions[*cursor];
        assert!(
            r.start <= index && index < r.end,
            "instruction {index} outside all regions"
        );
        *cursor
    }

    /// Total bits of all width tables plus region bounds (two 32-bit words
    /// per region), charged to the interpreter.
    pub fn table_bits(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.widths.table_bits() + 64)
            .sum()
    }
}

/// Deliberately damaged images for negative testing of the analyze plane.
///
/// Each constructor starts from a well-formed encoding of `program` and
/// corrupts exactly one decoder-side table, modelling side-table damage in
/// storage. The resulting images still *decode*, without a panic and
/// identically on both planes: the decode trie and LUT are kept intact,
/// and a field wider than 64 bits is a typed [`ImageError::FieldWidth`].
/// The point is that [`Image::validate_codec`] must reject them before
/// any decode is attempted.
pub mod fixtures {
    use super::*;

    /// A Huffman image whose opcode codebook lost coverage: the deepest
    /// code is extended by one bit, so the Kraft sum no longer fills the
    /// code space — the signature of a truncated codebook. Validation
    /// reports [`CodebookIssue::Incomplete`].
    ///
    /// # Panics
    ///
    /// Panics if `program` uses fewer than two distinct opcodes.
    pub fn truncated_codebook(program: &Program) -> Image {
        corrupt_opcode_codebook(program, |codes| {
            let deepest = codes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &(_, w))| w)
                .map(|(i, _)| i)
                .expect("codebook is non-empty");
            codes[deepest].0 <<= 1;
            codes[deepest].1 += 1;
        })
    }

    /// A Huffman image where one code was overwritten with an extension
    /// of another, so the two collide. Validation reports
    /// [`CodebookIssue::PrefixConflict`].
    ///
    /// # Panics
    ///
    /// Panics if `program` uses fewer than two distinct opcodes.
    pub fn conflicting_codebook(program: &Program) -> Image {
        corrupt_opcode_codebook(program, |codes| {
            assert!(codes.len() >= 2, "need two symbols to conflict");
            codes[1] = (codes[0].0 << 1, codes[0].1 + 1);
        })
    }

    /// A packed image whose width table declares a 65-bit field — wider
    /// than any value the bitstream can deliver. Validation reports
    /// [`CodecIssue::FieldWidth`]; decoding an instruction that reads the
    /// field reports [`ImageError::FieldWidth`]. The decoder, plan
    /// included, is rebuilt from the damaged widths.
    pub fn oversized_field_width(program: &Program) -> Image {
        let mut image = SchemeKind::Packed.encode(program);
        let mut widths = match &image.decoder {
            DecoderData::Packed { widths, .. } => *widths,
            _ => unreachable!("Packed scheme yields a Packed decoder"),
        };
        widths.widths[0] = 65;
        image.decoder = DecoderData::packed(widths);
        image
    }

    fn corrupt_opcode_codebook(
        program: &Program,
        damage: impl FnOnce(&mut Vec<(u64, u32)>),
    ) -> Image {
        let mut image = SchemeKind::Huffman.encode(program);
        match &mut image.decoder {
            DecoderData::Huffman { tree, .. } => {
                let mut codes = tree.codes().to_vec();
                damage(&mut codes);
                *tree = tree.with_codes(codes);
            }
            _ => unreachable!("Huffman scheme yields a Huffman decoder"),
        }
        image
    }
}

/// Convenience: encodes `program` under every scheme.
pub fn encode_all(program: &Program) -> Vec<Image> {
    SchemeKind::all()
        .into_iter()
        .map(|k| k.encode(program))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::fuse::fuse;

    fn sample_programs() -> Vec<Program> {
        let mut out = Vec::new();
        for s in hlr::programs::ALL {
            let base = compile(&s.compile().unwrap());
            let (fused, _) = fuse(&base);
            out.push(base);
            out.push(fused);
        }
        out
    }

    #[test]
    fn every_scheme_round_trips_every_sample() {
        for p in sample_programs() {
            for kind in SchemeKind::all() {
                let image = kind.encode(&p);
                let back = image.decode_all().unwrap_or_else(|e| panic!("{kind}: {e}"));
                assert_eq!(back, p.code, "{kind}");
            }
        }
    }

    #[test]
    fn encoding_degree_shrinks_programs() {
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let sizes: Vec<u64> = SchemeKind::all()
                .iter()
                .map(|k| k.encode(&p).program_bits())
                .collect();
            // byte > packed >= contextual > huffman. Contextual only ties
            // packed on single-procedure programs whose region widths equal
            // the program-wide widths.
            assert!(
                sizes[0] > sizes[1],
                "{}: byte {} <= packed {}",
                s.name,
                sizes[0],
                sizes[1]
            );
            assert!(
                sizes[1] >= sizes[2],
                "{}: packed {} < contextual {}",
                s.name,
                sizes[1],
                sizes[2]
            );
            assert!(
                sizes[2] > sizes[3],
                "{}: contextual {} <= huffman {}",
                s.name,
                sizes[2],
                sizes[3]
            );
        }
        // On multi-procedure programs the contour information buys real
        // bits: strict inequality.
        for s in [&hlr::programs::QUEENS, &hlr::programs::GCD_CHAIN] {
            let p = compile(&s.compile().unwrap());
            let packed = SchemeKind::Packed.encode(&p).program_bits();
            let ctx = SchemeKind::Contextual.encode(&p).program_bits();
            assert!(ctx < packed, "{}: {} vs {}", s.name, ctx, packed);
        }
    }

    #[test]
    fn decode_costs_grow_with_encoding_degree() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let costs: Vec<f64> = SchemeKind::all()
            .iter()
            .map(|k| k.encode(&p).mean_decode_cost())
            .collect();
        assert!(costs[0] < costs[1]);
        assert!(costs[1] < costs[2]);
        assert!(costs[2] < costs[3]);
    }

    #[test]
    fn offsets_are_monotone_and_dense() {
        let p = compile(&hlr::programs::MATMUL.compile().unwrap());
        for kind in SchemeKind::all() {
            let image = kind.encode(&p);
            assert_eq!(image.len(), p.code.len());
            for w in image.offsets.windows(2) {
                assert!(w[0] < w[1], "{kind}: offsets not strictly increasing");
            }
            assert!(*image.offsets.last().unwrap() < image.bit_len);
        }
    }

    #[test]
    fn fetch_words_counts_straddles() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let image = SchemeKind::Packed.encode(&p);
        let mut total = 0u32;
        for i in 0..image.len() as u32 {
            let w = image.fetch_words(i, 32);
            assert!(w >= 1);
            total += w;
        }
        assert!(total as u64 >= image.bit_len / 32);
    }

    /// The shift [`word_index`] takes for power-of-two word sizes and the
    /// division it takes otherwise agree with plain division, and so do
    /// the word counts [`Image::fetch_words`] derives from them.
    #[test]
    fn word_index_shift_agrees_with_division() {
        let mut bits: Vec<u64> = (0..300).collect();
        bits.extend([1 << 20, (1 << 32) + 7, u64::MAX / 3, u64::MAX - 1, u64::MAX]);
        for word_bits in [8u32, 16, 32, 64, 24] {
            for &bit in &bits {
                assert_eq!(
                    word_index(bit, word_bits),
                    bit / u64::from(word_bits),
                    "bit {bit}, {word_bits}-bit words"
                );
            }
        }
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        for kind in SchemeKind::all() {
            let image = kind.encode(&p);
            for word_bits in [8u32, 16, 32, 64, 24] {
                for i in 0..image.len() as u32 {
                    let start = image.offsets[i as usize];
                    let end = image
                        .offsets
                        .get(i as usize + 1)
                        .copied()
                        .unwrap_or(image.bit_len)
                        .max(start + 1);
                    let want = (end - 1) / u64::from(word_bits) - start / u64::from(word_bits) + 1;
                    assert_eq!(
                        u64::from(image.fetch_words(i, word_bits)),
                        want,
                        "{kind} instruction {i}, {word_bits}-bit words"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_index_is_an_error() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let image = SchemeKind::ByteAligned.encode(&p);
        assert!(matches!(
            image.decode(image.len() as u32),
            Err(ImageError::BadIndex(_))
        ));
    }

    #[test]
    fn side_tables_grow_with_sophistication() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let images = encode_all(&p);
        assert_eq!(images[0].side_table_bits, 0); // byte-aligned needs none
        assert!(images[2].side_table_bits > images[1].side_table_bits);
        assert!(images[4].side_table_bits > images[3].side_table_bits);
    }

    #[test]
    fn huffman_beats_packed_by_a_wilner_margin() {
        // Wilner reports 25-75% memory reduction from encoding; check the
        // full-encoding scheme against the byte-aligned baseline.
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let byte = SchemeKind::ByteAligned.encode(&p).program_bits() as f64;
            let pair = SchemeKind::PairHuffman.encode(&p).program_bits() as f64;
            let reduction = 1.0 - pair / byte;
            assert!(
                reduction > 0.25,
                "{}: only {:.0}% reduction",
                s.name,
                reduction * 100.0
            );
        }
    }

    #[test]
    fn both_decode_modes_agree_on_every_sample() {
        for p in sample_programs() {
            for kind in SchemeKind::all() {
                let image = kind.encode(&p);
                for i in 0..image.len() as u32 {
                    let tree = image
                        .decode_with(&image.bytes, i, DecodeMode::Tree)
                        .unwrap();
                    let table = image
                        .decode_with(&image.bytes, i, DecodeMode::Table)
                        .unwrap();
                    assert_eq!(tree, table, "{kind} at {i}");
                }
            }
        }
    }

    #[test]
    fn set_decode_mode_switches_the_default_path() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let mut image = SchemeKind::Huffman.encode(&p);
        assert_eq!(image.mode, DecodeMode::Table);
        let fast: Vec<_> = (0..image.len() as u32)
            .map(|i| image.decode(i).unwrap())
            .collect();
        image.set_decode_mode(DecodeMode::Tree);
        let slow: Vec<_> = (0..image.len() as u32)
            .map(|i| image.decode(i).unwrap())
            .collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn one_image_decodes_identically_from_many_threads() {
        // The pool shares one Arc<Image> per distinct program across its
        // workers; concurrent decoding must agree with the sequential
        // reference on every scheme.
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        for kind in SchemeKind::all() {
            let image = std::sync::Arc::new(kind.encode(&p));
            let want = image.decode_all().unwrap();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let image = std::sync::Arc::clone(&image);
                    let want = &want;
                    scope.spawn(move || {
                        let got = image.decode_all().unwrap();
                        assert_eq!(&got, want, "{kind}");
                    });
                }
            });
        }
    }

    #[test]
    fn every_self_produced_image_validates_clean() {
        for p in sample_programs() {
            for kind in SchemeKind::all() {
                let issues = kind.encode(&p).validate_codec();
                assert!(issues.is_empty(), "{kind}: {issues:?}");
            }
        }
    }

    #[test]
    fn fixtures_fail_validation_with_the_right_issue() {
        let p = compile(&hlr::programs::FIB_ITER.compile().unwrap());
        let truncated = fixtures::truncated_codebook(&p).validate_codec();
        assert!(
            matches!(
                truncated.first(),
                Some(CodecIssue::Codebook {
                    issue: crate::huffman::CodebookIssue::Incomplete,
                    ..
                })
            ),
            "{truncated:?}"
        );
        let conflict = fixtures::conflicting_codebook(&p).validate_codec();
        assert!(
            matches!(
                conflict.first(),
                Some(CodecIssue::Codebook {
                    issue: crate::huffman::CodebookIssue::PrefixConflict { .. },
                    ..
                })
            ),
            "{conflict:?}"
        );
        let wide = fixtures::oversized_field_width(&p).validate_codec();
        assert!(
            matches!(wide.first(), Some(CodecIssue::FieldWidth { width: 65, .. })),
            "{wide:?}"
        );
    }

    /// Every fixture decodes every index on both planes without a panic,
    /// and the planes agree, per index and streamed. The 65-bit width is
    /// a typed error at the instructions that read the field.
    #[test]
    fn fixtures_decode_identically_on_both_planes() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let images = [
            fixtures::truncated_codebook(&p),
            fixtures::conflicting_codebook(&p),
            fixtures::oversized_field_width(&p),
        ];
        for image in &images {
            for i in 0..image.len() as u32 {
                let tree = image.decode_with(&image.bytes, i, DecodeMode::Tree);
                let table = image.decode_with(&image.bytes, i, DecodeMode::Table);
                assert_eq!(tree, table, "{} at {i}", image.kind);
            }
            assert_eq!(
                image.decode_all_with(DecodeMode::Tree),
                image.decode_all_with(DecodeMode::Table),
                "{} streamed",
                image.kind
            );
        }
        assert_eq!(p.code[5], Inst::StoreLocal(1));
        assert_eq!(
            images[2].decode(5),
            Err(ImageError::FieldWidth {
                kind: FieldKind::Slot,
                width: 65
            })
        );
    }

    /// `program` with every third immediate replaced by `i64::MIN` or
    /// `i64::MAX` in turn, each 64 bits once zigzagged.
    fn with_extreme_immediates(program: &Program) -> Program {
        let mut out = program.clone();
        let mut seen = 0u32;
        for inst in &mut out.code {
            let (Inst::PushConst(imm)
            | Inst::IncLocal { imm, .. }
            | Inst::SetLocalConst { imm, .. }
            | Inst::CmpConstBr { imm, .. }) = inst
            else {
                continue;
            };
            if seen.is_multiple_of(3) {
                *imm = if seen.is_multiple_of(2) {
                    i64::MIN
                } else {
                    i64::MAX
                };
            }
            seen += 1;
        }
        out
    }

    /// On the table plane an instruction decodes from its window exactly
    /// when the window holds it: its code and fields in-stream, an opcode
    /// code no longer than the LUT, and opcode plus fields within 57
    /// bits. Every other instruction takes the per-field reader; the
    /// window's result equals the tree plane's, and instructions in an
    /// image's last 64 bits decode from the zero-padded window too.
    #[test]
    fn wide_instructions_take_the_reader_and_the_rest_the_window() {
        let base = compile(&hlr::programs::QUEENS.compile().unwrap());
        let (fused, _) = fuse(&base);
        let mut tails = 0u32;
        for p in [
            with_extreme_immediates(&base),
            with_extreme_immediates(&fused),
        ] {
            for kind in [
                SchemeKind::ByteAligned,
                SchemeKind::Packed,
                SchemeKind::Contextual,
                SchemeKind::Huffman,
            ] {
                let image = kind.encode(&p);
                let (mut windowed, mut read) = (0u32, 0u32);
                for (i, inst) in p.code.iter().enumerate() {
                    let (offset, index) = (image.offsets[i], i as u32);
                    let (widths, code_bits) = match &image.decoder {
                        DecoderData::Byte { .. } => (byte::widths(), 8),
                        DecoderData::Packed { widths, .. } => (*widths, 5),
                        DecoderData::Contextual { tables, .. } => {
                            (tables.region_of(index).widths, 5)
                        }
                        DecoderData::Huffman { tree, tables, .. } => (
                            tables.region_of(index).widths,
                            tree.width(inst.opcode() as usize),
                        ),
                        _ => unreachable!("a fixed-layout scheme"),
                    };
                    let fields: u32 = inst
                        .opcode()
                        .field_kinds()
                        .iter()
                        .map(|k| widths.width(*k))
                        .sum();
                    let fits = offset + u64::from(code_bits + fields) <= image.bit_len
                        && code_bits <= crate::huffman::LUT_BITS
                        && code_bits + fields <= 57;
                    let got =
                        image.decode_by_window(&image.bytes, offset, |t| t.position_of(index));
                    assert_eq!(got.is_some(), fits, "{kind} at {i}: {inst:?}");
                    match got {
                        Some(d) => {
                            let tree = image.decode_with(&image.bytes, index, DecodeMode::Tree);
                            assert_eq!(d, tree, "{kind} at {i}");
                            windowed += 1;
                            tails += u32::from(offset + 64 > image.bit_len);
                        }
                        None => read += 1,
                    }
                }
                assert!(
                    windowed > 0 && read > 0,
                    "{kind}: {windowed} from the window, {read} by the reader"
                );
            }
        }
        assert!(tails > 0, "no window decode in an image's last 64 bits");
    }

    #[test]
    fn region_lookup_finds_owner() {
        let p = compile(&hlr::programs::GCD_CHAIN.compile().unwrap());
        let tables = ContextTables::build(&p);
        for r in &tables.regions {
            assert_eq!(tables.region_of(r.start).start, r.start);
            assert_eq!(tables.region_of(r.end - 1).start, r.start);
        }
    }
}
