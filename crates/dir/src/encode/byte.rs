//! Byte-aligned, unencoded representation: the baseline "expanded" DIR.
//!
//! Every opcode takes one byte; operand fields take natural fixed widths
//! (two bytes for slots, four for targets, eight for immediates). This is
//! the generous-but-fast layout a naive DIR would use, and the baseline the
//! Wilner/Hehner compaction percentages are measured against.

use crate::bitstream::{BitReader, BitWriter, BitsExhausted};
use crate::isa::{FieldKind, Inst, Opcode, FIELD_KINDS};
use crate::program::Program;

use super::{DecodeMode, Decoded, DecoderData, FieldWidths, Image, ImageError, Scheme, SchemeKind};

/// The byte-aligned scheme (unit struct; it has no parameters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteAligned;

/// Width in bits of the opcode field.
pub(super) const OPCODE_BITS: u32 = 8;

/// Fixed width in bits of each field kind.
fn field_bits(kind: FieldKind) -> u32 {
    match kind {
        FieldKind::Slot | FieldKind::GlobalSlot | FieldKind::Len | FieldKind::Proc => 16,
        FieldKind::Target => 32,
        FieldKind::Imm => 64,
        FieldKind::Alu => 8,
    }
}

/// The fixed widths as a width table, for the scheme's field plan.
pub(super) fn widths() -> FieldWidths {
    FieldWidths {
        widths: FIELD_KINDS.map(field_bits),
    }
}

impl Scheme for ByteAligned {
    fn kind(&self) -> SchemeKind {
        SchemeKind::ByteAligned
    }

    fn encode(&self, program: &Program) -> Image {
        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(program.code.len());
        for inst in &program.code {
            offsets.push(w.bit_len());
            w.write(inst.opcode() as u64, OPCODE_BITS);
            for (kind, value) in inst.opcode().field_kinds().iter().zip(inst.fields()) {
                w.write(value, field_bits(*kind));
            }
        }
        let (bytes, bit_len) = w.finish();
        Image {
            kind: SchemeKind::ByteAligned,
            bytes,
            bit_len,
            offsets,
            side_table_bits: 0,
            mode: DecodeMode::default(),
            decoder: DecoderData::byte(),
        }
    }
}

/// Decodes one instruction through the per-field reader; cost: one read
/// for the opcode plus one per operand field.
#[inline]
pub(super) fn decode(reader: &mut BitReader<'_>, mode: DecodeMode) -> Result<Decoded, ImageError> {
    let op_raw = mode.read(reader, OPCODE_BITS)?;
    let opcode = Opcode::from_u8(op_raw as u8).ok_or(ImageError::Decode(
        crate::isa::DecodeError::BadOpcode(op_raw as u8),
    ))?;
    let kinds = opcode.field_kinds();
    let inst = match mode {
        DecodeMode::Tree => {
            let mut fields = Vec::with_capacity(kinds.len());
            for kind in kinds {
                fields.push(DecodeMode::Tree.field(reader, *kind, field_bits(*kind))?);
            }
            Inst::from_parts(opcode, &fields)?
        }
        DecodeMode::Table => {
            let mut buf = [0u64; crate::isa::MAX_FIELDS];
            for (i, kind) in kinds.iter().enumerate() {
                buf[i] = DecodeMode::Table.field(reader, *kind, field_bits(*kind))?;
            }
            Inst::from_parts(opcode, &buf[..kinds.len()])?
        }
    };
    Ok(Decoded {
        inst,
        cost: 1 + kinds.len() as u32,
        bits: 0, // filled by Image::decode
    })
}

// Make the BitsExhausted conversion reachable for rustc's trait solver.
#[allow(unused)]
fn _exhausted(e: BitsExhausted) -> ImageError {
    e.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    #[test]
    fn round_trip() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let image = ByteAligned.encode(&p);
        assert_eq!(image.decode_all().unwrap(), p.code);
    }

    #[test]
    fn size_matches_schema() {
        let p = compile(&hlr::compile("proc main() begin write 1; end").unwrap());
        let image = ByteAligned.encode(&p);
        // prelude: Call(8+16) Halt(8); main: PushConst(8+64) Write(8) Return(8)
        assert_eq!(image.bit_len, 24 + 8 + 72 + 8 + 8);
    }

    #[test]
    fn decode_cost_is_field_count_plus_one() {
        let p = compile(&hlr::compile("proc main() begin write 1; end").unwrap());
        let image = ByteAligned.encode(&p);
        // instruction 0 is Call (1 field), 1 is Halt (0 fields)
        assert_eq!(image.decode(0).unwrap().cost, 2);
        assert_eq!(image.decode(1).unwrap().cost, 1);
    }

    #[test]
    fn corrupt_opcode_reports_error() {
        let p = compile(&hlr::compile("proc main() begin skip; end").unwrap());
        let mut image = ByteAligned.encode(&p);
        image.bytes[0] = 0xFF; // invalid opcode discriminant
        assert!(matches!(
            image.decode(0),
            Err(ImageError::Decode(crate::isa::DecodeError::BadOpcode(0xFF)))
        ));
    }
}
