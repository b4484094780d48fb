//! Frequency-based (Huffman) opcode encoding over contextual operand
//! fields (§3.2: "a more sophisticated encoding of the Huffman type may be
//! employed by measuring the frequency of occurrence of each operator ...
//! in the static representation of the program").
//!
//! Decoding a Huffman code "entails traversing a decoding tree guided by an
//! examination of the encoded field"; the cost model charges the paper's
//! two host instructions per level of the walk.

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::Tree;
use crate::isa::Opcode;
use crate::program::Program;

use super::contextual::{read_inst, write_fields};
use super::{
    ContextTables, DecodeMode, Decoded, DecoderData, Image, ImageError, Region, Scheme, SchemeKind,
};

/// The Huffman scheme (unit struct; the codebook is measured from the
/// program's static opcode frequencies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HuffmanScheme;

impl Scheme for HuffmanScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Huffman
    }

    fn encode(&self, program: &Program) -> Image {
        let tables = ContextTables::build(program);
        let tree = Tree::from_frequencies(&program.opcode_histogram());
        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(program.code.len());
        let mut cursor = 0usize;
        for (i, inst) in program.code.iter().enumerate() {
            offsets.push(w.bit_len());
            let region = tables.region_at(&mut cursor, i as u32);
            tree.encode(inst.opcode() as usize, &mut w);
            write_fields(&mut w, inst, region);
        }
        let (bytes, bit_len) = w.finish();
        Image {
            kind: SchemeKind::Huffman,
            bytes,
            bit_len,
            offsets,
            side_table_bits: tables.table_bits() + tree.table_bits(),
            mode: DecodeMode::default(),
            decoder: DecoderData::huffman(tree, tables),
        }
    }
}

/// Decodes one instruction through the per-field reader; cost: region
/// lookup (1) + tree walk (2 per code bit) + width lookup/extract/mask per
/// field (3 each). On the table plane, the fallback of the region's field
/// plan (see the `template` module).
#[inline]
pub(super) fn decode(
    reader: &mut BitReader<'_>,
    tree: &Tree,
    region: &Region,
    mode: DecodeMode,
) -> Result<Decoded, ImageError> {
    let (symbol, code_bits) = mode.huff(tree, reader)?;
    let opcode = Opcode::from_u8(symbol as u8).ok_or(ImageError::Decode(
        crate::isa::DecodeError::BadOpcode(symbol as u8),
    ))?;
    let inst = read_inst(reader, opcode, region, mode)?;
    Ok(Decoded {
        inst,
        cost: 1 + 2 * code_bits + 3 * opcode.field_kinds().len() as u32,
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
            let image = HuffmanScheme.encode(&p);
            assert_eq!(image.decode_all().unwrap(), p.code, "{}", s.name);
        }
    }

    #[test]
    fn huffman_beats_contextual_on_skewed_programs() {
        // Array-heavy code has very skewed opcode usage.
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let ctx = super::super::Contextual.encode(&p);
        let huff = HuffmanScheme.encode(&p);
        assert!(huff.bit_len < ctx.bit_len);
    }

    #[test]
    fn opcode_stream_is_within_a_bit_of_entropy() {
        let p = compile(&hlr::programs::MATMUL.compile().unwrap());
        let freqs = p.opcode_histogram();
        let tree = Tree::from_frequencies(&freqs);
        let h = crate::huffman::entropy(&freqs);
        let w = tree.expected_width(&freqs);
        assert!(w < h + 1.0, "expected width {w}, entropy {h}");
    }

    #[test]
    fn decode_cost_reflects_code_length() {
        let p = compile(&hlr::programs::SIEVE.compile().unwrap());
        let image = HuffmanScheme.encode(&p);
        // Costs must vary across instructions (rare opcodes walk deeper).
        let costs: Vec<u32> = (0..image.len() as u32)
            .map(|i| image.decode(i).unwrap().cost)
            .collect();
        let min = costs.iter().min().unwrap();
        let max = costs.iter().max().unwrap();
        assert!(
            max > min,
            "uniform costs suggest the tree walk is not charged"
        );
    }
}
