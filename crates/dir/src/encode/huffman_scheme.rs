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
use super::template::RegionTpl;
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

/// Decodes one instruction; cost: region lookup (1) + tree walk (2 per code
/// bit) + width lookup/extract/mask per field (3 each).
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

/// Streaming table-plane decoder: [`table_step`] per instruction, with
/// one reader crossing the stream once and each contour's
/// [`RegionTpl`] taken in turn. Instructions, consumed widths, modeled
/// costs, and errors are bit-identical to [`decode`] in `Table` mode on
/// the same stream.
pub(super) fn stream_table(
    im: &Image,
    tree: &Tree,
    tables: &ContextTables,
    tpls: &[RegionTpl],
) -> Result<Vec<Decoded>, ImageError> {
    let n = im.len() as u32;
    let mut out = Vec::with_capacity(n as usize);
    let mut reader = BitReader::new(&im.bytes, im.bit_len);
    for (region, tpl) in tables.regions.iter().zip(tpls) {
        for _index in region.start..region.end.min(n) {
            out.push(table_step(&mut reader, tree, region, tpl)?);
        }
    }
    Ok(out)
}

/// One instruction on the table plane, streamed or at any address: one
/// 57-bit peek resolves the opcode through the Huffman LUT *and*
/// supplies every operand field, so the common case costs a single
/// window probe, one `consume`, and shift extraction straight into the
/// instruction — no per-field reads, no intermediate field buffer, no
/// second opcode dispatch. The region's widths come precomputed in
/// `tpl`. Long codes and instructions wider than the window fall back to
/// the per-field reader. Instructions, consumed widths, modeled costs,
/// and errors are bit-identical to [`decode`] in `Table` mode.
#[inline(always)]
pub(super) fn table_step(
    reader: &mut BitReader<'_>,
    tree: &Tree,
    region: &Region,
    tpl: &RegionTpl,
) -> Result<Decoded, ImageError> {
    let window = reader.peek(57);
    Ok(match tree.lut_hit(window) {
        Some((symbol, code_bits)) => {
            let opcode = Opcode::from_u8(symbol as u8).ok_or(ImageError::Decode(
                crate::isa::DecodeError::BadOpcode(symbol as u8),
            ))?;
            let total = code_bits + tpl.fields_total(symbol);
            if total <= 57 {
                // One consume covers the opcode and all fields; the
                // peeked window already zero-masks padding, and the
                // consume proves every extracted bit is in-stream.
                reader.consume(total)?;
                let inst = super::template::decode_window(opcode, window, code_bits, tpl)?;
                Decoded {
                    inst,
                    cost: 1 + 2 * code_bits + tpl.field_cost(symbol),
                    bits: total as u64,
                }
            } else {
                slow_step(reader, tree, region)?
            }
        }
        None => slow_step(reader, tree, region)?,
    })
}

/// Fallback for codes longer than the LUT window or instructions wider
/// than one peek: the ordinary per-field table decoder.
#[cold]
fn slow_step(
    reader: &mut BitReader<'_>,
    tree: &Tree,
    region: &Region,
) -> Result<Decoded, ImageError> {
    let start = reader.position();
    let d = decode(reader, tree, region, DecodeMode::Table)?;
    Ok(Decoded {
        bits: reader.position() - start,
        ..d
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
