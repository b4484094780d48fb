//! Packed-field representation: the "simplest form of encoding" (§3.2).
//!
//! Fields are bit-packed and may span memory-unit boundaries; each field
//! kind gets one program-wide width, just large enough for the largest
//! value that actually occurs. The decoder must extract and mask each
//! field, which the model charges more than the byte-aligned reads.
//!
//! On the host's table plane one program-wide field plan (see the
//! `template` module) decodes an instruction from one 57-bit window: a
//! 5-bit opcode, then shifts by the plan's widths. [`decode`] is the
//! per-field reader behind it — the tree plane's decoder, and the table
//! plane's for what the window cannot decode.

use crate::bitstream::{bits_for, BitReader, BitWriter};
use crate::isa::{Inst, Opcode, OPCODE_COUNT};
use crate::program::Program;

use super::{DecodeMode, Decoded, DecoderData, FieldWidths, Image, ImageError, Scheme, SchemeKind};

/// The packed scheme (unit struct; widths are measured from the program).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Packed;

/// Width of the opcode field: fixed, large enough for all opcodes.
pub(super) fn opcode_bits() -> u32 {
    bits_for(OPCODE_COUNT as u64 - 1)
}

impl Scheme for Packed {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Packed
    }

    fn encode(&self, program: &Program) -> Image {
        let widths = FieldWidths::measure(program.code.iter(), None);
        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(program.code.len());
        for inst in &program.code {
            offsets.push(w.bit_len());
            w.write(inst.opcode() as u64, opcode_bits());
            for (kind, value) in inst.opcode().field_kinds().iter().zip(inst.fields()) {
                w.write(value, widths.width(*kind));
            }
        }
        let (bytes, bit_len) = w.finish();
        Image {
            kind: SchemeKind::Packed,
            bytes,
            bit_len,
            offsets,
            side_table_bits: widths.table_bits(),
            mode: DecodeMode::default(),
            decoder: DecoderData::packed(widths),
        }
    }
}

/// Decodes one instruction through the per-field reader; cost: extract +
/// mask (2 ops) for the opcode and for each field. Always inlined, so the
/// tree plane's copy of the whole-image loop folds `mode` into it: left
/// to the optimiser, it is not inlined there, and the traced tree-plane
/// decode of a Packed image reads ~15% slower.
#[inline(always)]
pub(super) fn decode(
    reader: &mut BitReader<'_>,
    widths: &FieldWidths,
    mode: DecodeMode,
) -> Result<Decoded, ImageError> {
    let op_raw = mode.read(reader, opcode_bits())?;
    let opcode = Opcode::from_u8(op_raw as u8).ok_or(ImageError::Decode(
        crate::isa::DecodeError::BadOpcode(op_raw as u8),
    ))?;
    let kinds = opcode.field_kinds();
    let inst = match mode {
        DecodeMode::Tree => {
            let mut fields = Vec::with_capacity(kinds.len());
            for kind in kinds {
                fields.push(DecodeMode::Tree.field(reader, *kind, widths.width(*kind))?);
            }
            Inst::from_parts(opcode, &fields)?
        }
        DecodeMode::Table => {
            let mut buf = [0u64; crate::isa::MAX_FIELDS];
            for (i, kind) in kinds.iter().enumerate() {
                buf[i] = DecodeMode::Table.field(reader, *kind, widths.width(*kind))?;
            }
            Inst::from_parts(opcode, &buf[..kinds.len()])?
        }
    };
    Ok(Decoded {
        inst,
        cost: 2 + 2 * kinds.len() as u32,
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
            let image = Packed.encode(&p);
            assert_eq!(image.decode_all().unwrap(), p.code, "{}", s.name);
        }
    }

    #[test]
    fn packed_is_smaller_than_byte_aligned() {
        let p = compile(&hlr::programs::MATMUL.compile().unwrap());
        let byte = super::super::ByteAligned.encode(&p);
        let packed = Packed.encode(&p);
        assert!(packed.bit_len < byte.bit_len);
    }

    #[test]
    fn widths_fit_largest_values() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let widths = FieldWidths::measure(p.code.iter(), None);
        for inst in &p.code {
            for (kind, value) in inst.opcode().field_kinds().iter().zip(inst.fields()) {
                let w = widths.width(*kind);
                assert!(w == 64 || value < (1 << w), "{inst:?} field {kind:?}");
            }
        }
    }

    #[test]
    fn opcode_width_is_five_bits() {
        // 25 opcodes need 5 bits.
        assert_eq!(opcode_bits(), 5);
    }
}
