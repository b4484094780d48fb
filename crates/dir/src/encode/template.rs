//! Per-opcode field plans: the table plane's decoder for every
//! fixed-layout scheme (Byte, Packed, Contextual and Huffman), at any
//! address and so over a whole image.
//!
//! A fixed layout fixes every operand-field width (program-wide for Byte
//! and Packed, per contour region for Contextual and Huffman), so the
//! work of decoding one instruction collapses to: resolve the opcode
//! (fixed bits, or one Huffman LUT probe), look up the plan's
//! precomputed field total for that opcode, and shift one 57-bit window
//! apart into operand values. The window comes from one unaligned 8-byte
//! load at the instruction's offset, zero-padded in the stream's last 64
//! bits ([`window_at`]). [`decode_window`] mirrors [`Inst::from_parts`]
//! arm for arm — same field order, same range checks, same error values
//! — but constructs the instruction straight from the window without an
//! intermediate field buffer or a second opcode dispatch. Whatever the
//! window cannot decode (an instruction that runs past the stream, a
//! long Huffman code, a bad opcode, an instruction wider than the
//! window) goes to the scheme's per-field reader, which defines every
//! error. The differential suite holds the window bit-identical to the
//! reference path on every scheme and corpus.

use crate::bitstream::BitReader;
use crate::huffman::Tree;
use crate::isa::{
    unzigzag, AluOp, DecodeError, FieldKind, Inst, Opcode, FIELD_KINDS, OPCODES, OPCODE_COUNT,
};

use super::{Decoded, FieldWidths, ImageError};

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

/// The 57-bit window at bit `offset` of a stream of `bit_len` bits held
/// in `bytes` (value in the low 57 bits, stream order from the top), and
/// the number of stream bits from `offset` on. Where 64 stream bits lie
/// at `offset`, one unaligned 8-byte big-endian load shifted by
/// `offset & 7`; nearer the end, the reader's peek, so every window bit
/// past the stream reads as zero.
#[inline(always)]
pub(super) fn window_at(bytes: &[u8], bit_len: u64, offset: u64) -> (u64, u64) {
    let room = bit_len.min(bytes.len() as u64 * 8).saturating_sub(offset);
    let at = (offset >> 3) as usize;
    let window = match bytes.get(at..at + 8) {
        Some(word) if room >= 64 => {
            let word = u64::from_be_bytes(word.try_into().expect("an 8-byte slice"));
            (word << (offset & 7)) >> (64 - WINDOW_BITS)
        }
        _ => BitReader::at(bytes, bit_len, offset).peek(WINDOW_BITS),
    };
    (window, room)
}

/// The instruction at the top of `window`, an address's [`window_at`]
/// with `room` stream bits, or `None` when the per-field reader must
/// decode it: a Huffman code longer than the LUT, a bad opcode, opcode
/// and fields wider than the window, or an instruction that runs past
/// the stream.
#[inline(always)]
pub(super) fn windowed(
    window: u64,
    room: u64,
    code: OpcodeCode<'_>,
    plan: &FieldPlan,
) -> Option<Result<Decoded, ImageError>> {
    let (symbol, code_bits, walk) = match code {
        OpcodeCode::Fixed(bits) => ((window >> (WINDOW_BITS - bits)) as usize, bits, 0),
        OpcodeCode::Huffman(tree) => {
            let (symbol, bits) = tree.lut_hit(window)?;
            (symbol, bits, 2 * bits)
        }
    };
    let opcode = Opcode::from_u8(symbol as u8)?;
    let total = code_bits + plan.fields_total[opcode as usize];
    if total > WINDOW_BITS || u64::from(total) > room {
        return None;
    }
    Some(
        decode_window(opcode, window, code_bits, plan)
            .map(|inst| Decoded {
                inst,
                cost: plan.cost[opcode as usize] + walk,
                bits: u64::from(total),
            })
            .map_err(ImageError::from),
    )
}

/// Builds the instruction directly from a 57-bit window (value in
/// the low 57 bits, stream order from the top), with operand fields
/// starting `code_bits` in. The caller must have verified that
/// `code_bits + fields_total(opcode)` bits are in-stream and fit the
/// window ([`windowed`] does) — every shift here touches only verified
/// bits, and the window's zero padding is never reached.
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
