//! Per-opcode field plans: the table plane's decoder for every
//! fixed-layout scheme (Byte, Packed, Contextual and Huffman), streamed
//! or at any address.
//!
//! A fixed layout fixes every operand-field width (program-wide for Byte
//! and Packed, per contour region for Contextual and Huffman), so the
//! work of decoding one instruction collapses to: resolve the opcode
//! (fixed bits, or one Huffman LUT probe), look up the plan's
//! precomputed field total for that opcode, and shift one 57-bit window
//! apart into operand values. At an address the window comes from one
//! unaligned 8-byte load ([`window_at`]); streamed, from the reader's
//! refill buffer ([`stream`]). [`decode_window`] mirrors
//! [`Inst::from_parts`] arm for arm — same field order, same range
//! checks, same error values — but constructs the instruction straight
//! from the window without an intermediate field buffer or a second
//! opcode dispatch. Whatever the window cannot decode (the stream's last
//! 64 bits, a long Huffman code, a bad opcode, an instruction wider than
//! the window) goes to the scheme's per-field reader, which defines every
//! error. The differential suite holds the window bit-identical to the
//! reference path on every scheme and corpus.

use crate::bitstream::BitReader;
use crate::huffman::Tree;
use crate::isa::{
    unzigzag, AluOp, DecodeError, FieldKind, Inst, Opcode, FIELD_KINDS, OPCODES, OPCODE_COUNT,
};

use super::{Decoded, FieldWidths, Image, ImageError};

/// Bits one window holds: what one unaligned 64-bit load can supply at
/// any bit alignment.
const WINDOW_BITS: u32 = 57;

/// Field widths, per-opcode field totals and modeled costs of one fixed
/// layout (a program, or one contour region), derived once per image so
/// the per-instruction path does no width arithmetic beyond a table
/// lookup.
#[derive(Debug, Clone)]
pub(crate) struct FieldPlan {
    /// Field width in bits per [`FieldKind::index`].
    wd: [u32; FIELD_KINDS.len()],
    /// Sum of operand-field widths per opcode discriminant.
    fields_total: [u32; OPCODE_COUNT],
    /// Modeled decode cost per opcode discriminant: the scheme's opcode
    /// charge plus its per-field charge for each field. A Huffman code's
    /// walk (2 per code bit) is added when the code is resolved.
    cost: [u32; OPCODE_COUNT],
    /// Base added back onto region-relative branch targets.
    base: u32,
}

impl FieldPlan {
    /// The plan of a layout with field widths `widths` and branch
    /// targets relative to `base`, charging `op_cost` for the opcode and
    /// `field_cost` for each operand field.
    pub(super) fn new(widths: &FieldWidths, base: u32, op_cost: u32, field_cost: u32) -> FieldPlan {
        let wd = widths.widths;
        let mut fields_total = [0u32; OPCODE_COUNT];
        let mut cost = [0u32; OPCODE_COUNT];
        for op in OPCODES {
            let kinds = op.field_kinds();
            fields_total[op as usize] = kinds.iter().map(|k| wd[k.index()]).sum();
            cost[op as usize] = op_cost + field_cost * kinds.len() as u32;
        }
        FieldPlan {
            wd,
            fields_total,
            cost,
            base,
        }
    }
}

/// How a scheme codes the opcode at the head of each instruction.
#[derive(Debug, Clone, Copy)]
pub(super) enum OpcodeCode<'a> {
    /// The discriminant in a fixed-width field of this many bits.
    Fixed(u32),
    /// A Huffman code, resolved through the codebook's LUT.
    Huffman(&'a Tree),
}

/// What the window says about the instruction at its top: the opcode,
/// its code's length, the instruction's total width and its modeled
/// cost.
#[derive(Debug, Clone, Copy)]
struct Head {
    opcode: Opcode,
    code_bits: u32,
    total: u32,
    cost: u32,
}

/// Reads the head of the instruction at the top of `window`, or `None`
/// when the window cannot decode it: a Huffman code longer than the
/// LUT, a bad opcode, or opcode and fields wider than the window. Reads
/// nothing past the opcode and does not check that the window's bits
/// are in-stream; the caller does.
#[inline(always)]
fn head(window: u64, code: OpcodeCode<'_>, plan: &FieldPlan) -> Option<Head> {
    let (symbol, code_bits, walk) = match code {
        OpcodeCode::Fixed(bits) => ((window >> (WINDOW_BITS - bits)) as usize, bits, 0),
        OpcodeCode::Huffman(tree) => {
            let (symbol, bits) = tree.lut_hit(window)?;
            (symbol, bits, 2 * bits)
        }
    };
    let opcode = Opcode::from_u8(symbol as u8)?;
    let total = code_bits + plan.fields_total[opcode as usize];
    (total <= WINDOW_BITS).then_some(Head {
        opcode,
        code_bits,
        total,
        cost: plan.cost[opcode as usize] + walk,
    })
}

/// The 57-bit window at bit `offset` of a stream of `bit_len` bits held
/// in `bytes` (value in the low 57 bits, stream order from the top):
/// one unaligned 8-byte big-endian load shifted by `offset & 7`. `None`
/// unless a whole 64 bits of stream lie at `offset`, so every bit of the
/// window is a stream bit.
#[inline(always)]
pub(super) fn window_at(bytes: &[u8], bit_len: u64, offset: u64) -> Option<u64> {
    let avail = bit_len.min(bytes.len() as u64 * 8);
    if avail < 64 || offset > avail - 64 {
        return None;
    }
    let at = (offset >> 3) as usize;
    let word = u64::from_be_bytes(bytes.get(at..at + 8)?.try_into().ok()?);
    Some((word << (offset & 7)) >> (64 - WINDOW_BITS))
}

/// The instruction at the top of `window`, an address's [`window_at`],
/// or `None` when [`head`] refuses it and the per-field reader must
/// decode it.
#[inline(always)]
pub(super) fn windowed(
    window: u64,
    code: OpcodeCode<'_>,
    plan: &FieldPlan,
) -> Option<Result<Decoded, ImageError>> {
    let h = head(window, code, plan)?;
    Some(build(window, h, plan))
}

/// Decodes the whole stream of `im` on the table plane. `spans` yields,
/// in address order, the end of each run of instructions one plan
/// decodes, that plan, and what the per-field reader `slow` needs for
/// the run (its contour region, say). Per instruction, one 57-bit peek
/// resolves the opcode and supplies every operand field, so the common
/// case costs a single window probe, one `consume`, and shift extraction
/// straight into the instruction; the rest goes to `slow`.
/// Instructions, consumed widths, modeled costs and errors are
/// bit-identical to `slow`'s on every instruction.
#[inline(always)]
pub(super) fn stream<'p, C: Copy>(
    im: &Image,
    spans: impl Iterator<Item = (u32, &'p FieldPlan, C)>,
    code: OpcodeCode<'_>,
    mut slow: impl FnMut(&mut BitReader<'_>, C) -> Result<Decoded, ImageError>,
) -> Result<Vec<Decoded>, ImageError> {
    let n = im.len() as u32;
    let mut out = Vec::with_capacity(n as usize);
    let mut reader = BitReader::new(&im.bytes, im.bit_len);
    let mut index = 0u32;
    for (end, plan, ctx) in spans {
        while index < end.min(n) {
            let window = reader.peek(WINDOW_BITS);
            out.push(match head(window, code, plan) {
                Some(h) => {
                    // The peek zero-masks padding; the consume proves
                    // every bit the instruction spans is in-stream before
                    // any field is judged, as the per-field reader
                    // exhausts before it builds.
                    reader.consume(h.total)?;
                    build(window, h, plan)?
                }
                None => {
                    let start = reader.position();
                    let d = out_of_line(&mut reader, |r| slow(r, ctx))?;
                    Decoded {
                        bits: reader.position() - start,
                        ..d
                    }
                }
            });
            index += 1;
        }
    }
    Ok(out)
}

/// Runs a stream's per-field reader out of line, so the window loop
/// stays small.
#[inline(never)]
fn out_of_line<T>(reader: &mut BitReader<'_>, slow: impl FnOnce(&mut BitReader<'_>) -> T) -> T {
    slow(reader)
}

/// The instruction `h` heads, built from its window.
#[inline(always)]
fn build(window: u64, h: Head, plan: &FieldPlan) -> Result<Decoded, ImageError> {
    Ok(Decoded {
        inst: decode_window(h.opcode, window, h.code_bits, plan)?,
        cost: h.cost,
        bits: u64::from(h.total),
    })
}

/// Builds the instruction directly from a peeked 57-bit window (value in
/// the low 57 bits, stream order from the top), with operand fields
/// starting `code_bits` in. The caller must have verified that
/// `code_bits + fields_total(opcode)` bits are in-stream and fit the
/// window ([`head`] and its callers do) — every shift here touches only
/// verified bits, and the window's zero-masked padding is never reached.
///
/// # Errors
///
/// Exactly [`Inst::from_parts`]' errors in the same field order: a
/// [`DecodeError::FieldRange`] for an over-`u32` value (unreachable for
/// width-measured regions, kept for parity) and [`DecodeError::BadAluOp`]
/// for an in-width but unassigned ALU discriminant.
#[inline(always)]
#[allow(unused_assignments)] // each arm's final `take!` advance is unread
fn decode_window(
    opcode: Opcode,
    window: u64,
    code_bits: u32,
    plan: &FieldPlan,
) -> Result<Inst, DecodeError> {
    let mut off = code_bits;
    // Extracts the next field of `kind`, advancing the running offset.
    macro_rules! take {
        ($kind:expr) => {{
            let w = plan.wd[$kind.index()];
            let raw = (window << (7 + off)) >> (64 - w);
            off += w;
            raw
        }};
    }
    // A u32-ranged field, with `from_parts`' range check and error.
    macro_rules! fu32 {
        ($kind:expr) => {{
            let raw = take!($kind);
            u32::try_from(raw).map_err(|_| DecodeError::FieldRange($kind, raw))?
        }};
    }
    // A branch target: region-relative in the stream, rebased like the
    // field readers do before construction sees it.
    macro_rules! ftarget {
        () => {{
            let raw = take!(FieldKind::Target) + plan.base as u64;
            u32::try_from(raw).map_err(|_| DecodeError::FieldRange(FieldKind::Target, raw))?
        }};
    }
    // A zigzag immediate (never fails, as in `from_parts`).
    macro_rules! fimm {
        () => {
            unzigzag(take!(FieldKind::Imm))
        };
    }
    // An ALU discriminant, validated exactly as `from_parts` does.
    macro_rules! falu {
        () => {{
            let raw = take!(FieldKind::Alu);
            u8::try_from(raw)
                .ok()
                .and_then(AluOp::from_u8)
                .ok_or(DecodeError::BadAluOp(raw))?
        }};
    }

    use FieldKind::{GlobalSlot, Len, Proc, Slot};
    Ok(match opcode {
        Opcode::PushConst => Inst::PushConst(fimm!()),
        Opcode::PushLocal => Inst::PushLocal(fu32!(Slot)),
        Opcode::PushGlobal => Inst::PushGlobal(fu32!(GlobalSlot)),
        Opcode::StoreLocal => Inst::StoreLocal(fu32!(Slot)),
        Opcode::StoreGlobal => Inst::StoreGlobal(fu32!(GlobalSlot)),
        Opcode::LoadArrLocal => {
            let base = fu32!(Slot);
            let len = fu32!(Len);
            Inst::LoadArrLocal { base, len }
        }
        Opcode::LoadArrGlobal => {
            let base = fu32!(GlobalSlot);
            let len = fu32!(Len);
            Inst::LoadArrGlobal { base, len }
        }
        Opcode::StoreArrLocal => {
            let base = fu32!(Slot);
            let len = fu32!(Len);
            Inst::StoreArrLocal { base, len }
        }
        Opcode::StoreArrGlobal => {
            let base = fu32!(GlobalSlot);
            let len = fu32!(Len);
            Inst::StoreArrGlobal { base, len }
        }
        Opcode::Pop => Inst::Pop,
        Opcode::Bin => Inst::Bin(falu!()),
        Opcode::Neg => Inst::Neg,
        Opcode::Not => Inst::Not,
        Opcode::Jump => Inst::Jump(ftarget!()),
        Opcode::JumpIfFalse => Inst::JumpIfFalse(ftarget!()),
        Opcode::JumpIfTrue => Inst::JumpIfTrue(ftarget!()),
        Opcode::Call => Inst::Call(fu32!(Proc)),
        Opcode::Return => Inst::Return,
        Opcode::Halt => Inst::Halt,
        Opcode::Write => Inst::Write,
        Opcode::BinLocals => {
            let op = falu!();
            let a = fu32!(Slot);
            let b = fu32!(Slot);
            let dst = fu32!(Slot);
            Inst::BinLocals { op, a, b, dst }
        }
        Opcode::IncLocal => {
            let slot = fu32!(Slot);
            let imm = fimm!();
            Inst::IncLocal { slot, imm }
        }
        Opcode::SetLocalConst => {
            let slot = fu32!(Slot);
            let imm = fimm!();
            Inst::SetLocalConst { slot, imm }
        }
        Opcode::CmpConstBr => {
            let op = falu!();
            let slot = fu32!(Slot);
            let imm = fimm!();
            let target = ftarget!();
            Inst::CmpConstBr {
                op,
                slot,
                imm,
                target,
            }
        }
        Opcode::CmpLocalsBr => {
            let op = falu!();
            let a = fu32!(Slot);
            let b = fu32!(Slot);
            let target = ftarget!();
            Inst::CmpLocalsBr { op, a, b, target }
        }
    })
}
