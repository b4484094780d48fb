//! Contextually encoded representation (§3.2: "some economy can be achieved
//! by using contextual information when selecting field sizes").
//!
//! Field widths are chosen *per contour region* (the prelude and each
//! procedure): inside a procedure whose frame has 6 slots, a slot field
//! needs only 3 bits; branch targets are region-relative. The decoder must
//! track the current region and consult its width table before extracting
//! each field, which adds a width lookup to every field's cost.

use crate::bitstream::{BitReader, BitWriter};
use crate::isa::{FieldKind, Inst, Opcode};
use crate::program::Program;

use super::packed::opcode_bits;
use super::{
    ContextTables, DecodeMode, Decoded, DecoderData, Image, ImageError, Scheme, SchemeKind,
};

/// The contextual scheme (unit struct; tables come from the program).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Contextual;

impl Scheme for Contextual {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Contextual
    }

    fn encode(&self, program: &Program) -> Image {
        let tables = ContextTables::build(program);
        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(program.code.len());
        let mut cursor = 0usize;
        for (i, inst) in program.code.iter().enumerate() {
            offsets.push(w.bit_len());
            let region = tables.region_at(&mut cursor, i as u32);
            w.write(inst.opcode() as u64, opcode_bits());
            write_fields(&mut w, inst, region);
        }
        let (bytes, bit_len) = w.finish();
        Image {
            kind: SchemeKind::Contextual,
            bytes,
            bit_len,
            offsets,
            side_table_bits: tables.table_bits(),
            mode: DecodeMode::default(),
            decoder: DecoderData::contextual(tables),
        }
    }
}

/// Writes an instruction's operand fields with the region's widths and
/// region-relative targets. Shared with the frequency-based schemes, which
/// reuse the contextual operand layout.
pub(super) fn write_fields(w: &mut BitWriter, inst: &Inst, region: &super::Region) {
    for (kind, value) in inst.opcode().field_kinds().iter().zip(inst.fields()) {
        let v = match kind {
            FieldKind::Target => {
                debug_assert!(
                    value >= region.target_base as u64,
                    "branch out of region: {value} < {}",
                    region.target_base
                );
                value - region.target_base as u64
            }
            _ => value,
        };
        w.write(v, region.widths.width(*kind));
    }
}

/// Reads an instruction's operand fields with the region's widths,
/// rebasing targets, and assembles the instruction: the per-field reader
/// of every scheme with contextual operand fields. The tree path is the
/// seed decoder — heap-allocated fields, bit-at-a-time reads; the table
/// path collects into a stack buffer with word-batched reads. Contextual
/// and Huffman images read through it on the table plane only where their
/// region's field plan cannot decode from one window (see the `template`
/// module); the pair-coded schemes always do.
#[inline]
pub(super) fn read_inst(
    reader: &mut BitReader<'_>,
    opcode: Opcode,
    region: &super::Region,
    mode: DecodeMode,
) -> Result<Inst, ImageError> {
    let kinds = opcode.field_kinds();
    match mode {
        DecodeMode::Tree => {
            let mut fields = Vec::with_capacity(kinds.len());
            for kind in kinds {
                let raw = DecodeMode::Tree.field(reader, *kind, region.widths.width(*kind))?;
                fields.push(match kind {
                    FieldKind::Target => raw + region.target_base as u64,
                    _ => raw,
                });
            }
            Ok(Inst::from_parts(opcode, &fields)?)
        }
        DecodeMode::Table => {
            let mut buf = [0u64; crate::isa::MAX_FIELDS];
            for (i, kind) in kinds.iter().enumerate() {
                let raw = DecodeMode::Table.field(reader, *kind, region.widths.width(*kind))?;
                buf[i] = match kind {
                    FieldKind::Target => raw + region.target_base as u64,
                    _ => raw,
                };
            }
            Ok(Inst::from_parts(opcode, &buf[..kinds.len()])?)
        }
    }
}

/// Decodes one instruction through the per-field reader; cost: region
/// lookup (1) + extract/mask for the opcode (2) + width
/// lookup/extract/mask per field (3 each).
#[inline]
pub(super) fn decode(
    reader: &mut BitReader<'_>,
    region: &super::Region,
    mode: DecodeMode,
) -> Result<Decoded, ImageError> {
    let op_raw = mode.read(reader, opcode_bits())?;
    let opcode = Opcode::from_u8(op_raw as u8).ok_or(ImageError::Decode(
        crate::isa::DecodeError::BadOpcode(op_raw as u8),
    ))?;
    let inst = read_inst(reader, opcode, region, mode)?;
    Ok(Decoded {
        inst,
        cost: 3 + 3 * opcode.field_kinds().len() as u32,
        bits: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    #[test]
    fn round_trip_all_samples() {
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let image = Contextual.encode(&p);
            assert_eq!(image.decode_all().unwrap(), p.code, "{}", s.name);
        }
    }

    #[test]
    fn contextual_is_smaller_than_packed() {
        // Multi-procedure programs, where per-contour widths differ.
        for s in [&hlr::programs::QUEENS, &hlr::programs::COLLATZ] {
            let p = compile(&s.compile().unwrap());
            let packed = super::super::Packed.encode(&p);
            let ctx = Contextual.encode(&p);
            assert!(
                ctx.bit_len < packed.bit_len,
                "{}: {} vs {}",
                s.name,
                ctx.bit_len,
                packed.bit_len
            );
        }
    }

    #[test]
    fn small_procedures_get_narrow_slot_fields() {
        let p = compile(
            &hlr::compile(
                "proc tiny(int a) -> int begin return a; end
                 proc main() begin write tiny(3); end",
            )
            .unwrap(),
        );
        let tables = ContextTables::build(&p);
        // Find the region of `tiny` (frame of 1 slot): slot width must be 1.
        let tiny = &p.procs[0];
        let region = tables.region_of(tiny.entry);
        assert_eq!(region.widths.width(FieldKind::Slot), 1);
    }

    #[test]
    fn targets_are_region_relative() {
        let p = compile(
            &hlr::compile("proc main() begin int i := 0; while i < 5 do i := i + 1; end").unwrap(),
        );
        let tables = ContextTables::build(&p);
        let main = &p.procs[0];
        let region = tables.region_of(main.entry);
        // Region-relative target widths are far narrower than absolute.
        assert!(region.widths.width(FieldKind::Target) <= 5);
    }
}
