//! Per-region decode templates for the table plane's Huffman decoder,
//! streamed or at any address.
//!
//! A contour region fixes every operand-field width, so the work of
//! decoding one instruction collapses to: resolve the opcode (one Huffman
//! LUT probe), look up the region's precomputed field total for that
//! opcode, and shift the already-peeked window apart into operand values.
//! [`decode_window`] mirrors [`Inst::from_parts`] arm for arm — same
//! field order, same range checks, same error values — but constructs the
//! instruction straight from the window without an intermediate field
//! buffer or a second opcode dispatch. The differential suite holds it
//! bit-identical to the reference path on every scheme and corpus.

use crate::isa::{
    unzigzag, AluOp, DecodeError, FieldKind, Inst, Opcode, FIELD_KINDS, OPCODES, OPCODE_COUNT,
};

use super::Region;

/// Widths and per-opcode field totals of one contour region, derived once
/// per image so the per-instruction path does no width arithmetic beyond
/// a table lookup.
#[derive(Debug, Clone)]
pub(crate) struct RegionTpl {
    /// Field width in bits per [`FieldKind::index`].
    wd: [u32; FIELD_KINDS.len()],
    /// Sum of operand-field widths per opcode discriminant.
    fields_total: [u32; OPCODE_COUNT],
    /// Modeled cost of the operand fields per opcode discriminant
    /// (3 per field, as the scheme cost formulas charge).
    field_cost: [u32; OPCODE_COUNT],
    /// Base added back onto region-relative branch targets.
    base: u32,
}

impl RegionTpl {
    pub(super) fn new(region: &Region) -> RegionTpl {
        let mut wd = [0u32; FIELD_KINDS.len()];
        for kind in FIELD_KINDS {
            wd[kind.index()] = region.widths.width(kind);
        }
        let mut fields_total = [0u32; OPCODE_COUNT];
        let mut field_cost = [0u32; OPCODE_COUNT];
        for op in OPCODES {
            let kinds = op.field_kinds();
            fields_total[op as usize] = kinds.iter().map(|k| wd[k.index()]).sum();
            field_cost[op as usize] = 3 * kinds.len() as u32;
        }
        RegionTpl {
            wd,
            fields_total,
            field_cost,
            base: region.target_base,
        }
    }

    /// Total operand-field bits of `opcode` in this region.
    #[inline]
    pub(super) fn fields_total(&self, opcode: usize) -> u32 {
        self.fields_total[opcode]
    }

    /// Modeled operand-field cost of `opcode` (3 per field).
    #[inline]
    pub(super) fn field_cost(&self, opcode: usize) -> u32 {
        self.field_cost[opcode]
    }
}

/// Builds the instruction directly from a peeked 57-bit window (value in
/// the low 57 bits, stream order from the top), with operand fields
/// starting `code_bits` in. The caller must have verified that
/// `code_bits + fields_total(opcode)` bits are in-stream — every shift
/// here touches only verified bits, and the window's zero-masked padding
/// is never reached.
///
/// # Errors
///
/// Exactly [`Inst::from_parts`]' errors in the same field order: a
/// [`DecodeError::FieldRange`] for an over-`u32` value (unreachable for
/// width-measured regions, kept for parity) and [`DecodeError::BadAluOp`]
/// for an in-width but unassigned ALU discriminant.
#[inline(always)]
#[allow(unused_assignments)] // each arm's final `take!` advance is unread
pub(super) fn decode_window(
    opcode: Opcode,
    window: u64,
    code_bits: u32,
    tpl: &RegionTpl,
) -> Result<Inst, DecodeError> {
    let mut off = code_bits;
    // Extracts the next field of `kind`, advancing the running offset.
    macro_rules! take {
        ($kind:expr) => {{
            let w = tpl.wd[$kind.index()];
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
            let raw = take!(FieldKind::Target) + tpl.base as u64;
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
