//! Full frequency coding: §3.2 measures "the frequency of occurrence of
//! each operator **and operand** in the static representation". This
//! scheme is the far-right point of the encoding axis: opcodes are coded
//! with the predecessor-conditioned codebooks of the pair scheme *and*
//! every operand field is Huffman-coded over the distinct values that
//! actually occur for its field kind (slots, lengths, relative targets,
//! immediates, ...), with an ESCAPE code falling back to a raw contextual
//! field for unseen values.
//!
//! Programs reference few distinct slots and small immediates over and
//! over, so operand streams compress hard — while the decoder now needs a
//! decode tree and a value table *per field kind* on top of the
//! per-predecessor opcode trees, the largest interpreter footprint of any
//! scheme, "increas[ing] the amount of memory occupied by the interpreter"
//! exactly as the paper warns.

use std::collections::HashMap;

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::Tree;
use crate::isa::{FieldKind, Inst, Opcode, FIELD_KINDS, OPCODE_COUNT};
use crate::program::Program;

use super::pair::CtxCode;
use super::{
    ContextTables, DecodeMode, Decoded, DecoderData, Image, ImageError, Region, Scheme, SchemeKind,
};

/// The full-frequency scheme (unit struct; all codebooks are measured from
/// the program).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueHuffman;

/// Predecessor index used for region-leading instructions.
const START: usize = OPCODE_COUNT;

/// A per-field-kind value codebook: the distinct values observed, Huffman
/// coded with a trailing ESCAPE symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ValueCode {
    /// Distinct observed values; local symbol `i` ↔ `values[i]`, and the
    /// local symbol `values.len()` is ESCAPE.
    values: Vec<u64>,
    /// Encode-side index of `values`.
    index: HashMap<u64, usize>,
    /// Tree over `values.len() + 1` local symbols.
    tree: Tree,
}

impl ValueCode {
    fn build(freqs: &HashMap<u64, u64>) -> ValueCode {
        // Deterministic order: by descending frequency, then value.
        let mut pairs: Vec<(u64, u64)> = freqs.iter().map(|(&v, &f)| (v, f)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let values: Vec<u64> = pairs.iter().map(|&(v, _)| v).collect();
        let mut local: Vec<u64> = pairs.iter().map(|&(_, f)| f).collect();
        local.push(1); // ESCAPE
        ValueCode {
            index: values.iter().enumerate().map(|(i, &v)| (v, i)).collect(),
            tree: Tree::from_frequencies(&local),
            values,
        }
    }

    fn escape_symbol(&self) -> usize {
        self.values.len()
    }

    /// The Huffman tree coding this field kind's values (for codec
    /// validation).
    pub(crate) fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Encodes one field value; unseen values escape to a raw field of the
    /// region's contextual width (which always fits, because the widths
    /// were measured over the same program region).
    fn encode(&self, value: u64, raw_width: u32, out: &mut BitWriter) {
        match self.index.get(&value) {
            Some(&local) => self.tree.encode(local, out),
            None => {
                self.tree.encode(self.escape_symbol(), out);
                out.write(value, raw_width.max(1));
            }
        }
    }

    /// Decodes one field value, returning `(value, cost_ops)`.
    fn decode(
        &self,
        raw_width: u32,
        reader: &mut BitReader<'_>,
        mode: DecodeMode,
    ) -> Result<(u64, u32), ImageError> {
        let (local, bits) = mode.huff(&self.tree, reader)?;
        if local == self.escape_symbol() {
            let width = raw_width.max(1);
            let raw = mode.read(reader, width)?;
            Ok((raw, 2 * bits + 3))
        } else {
            Ok((self.values[local], 2 * bits))
        }
    }

    /// Interpreter footprint: tree links plus a 64-bit entry per value.
    fn table_bits(&self) -> u64 {
        self.tree.table_bits() + self.values.len() as u64 * 64
    }
}

/// Rebases a field value the way the contextual layout does (targets
/// become region-relative), so value statistics are position-independent.
fn rebase(kind: FieldKind, value: u64, region: &Region) -> u64 {
    match kind {
        FieldKind::Target => value - region.target_base as u64,
        _ => value,
    }
}

fn unrebase(kind: FieldKind, value: u64, region: &Region) -> u64 {
    match kind {
        FieldKind::Target => value + region.target_base as u64,
        _ => value,
    }
}

impl Scheme for ValueHuffman {
    fn kind(&self) -> SchemeKind {
        SchemeKind::ValueHuffman
    }

    fn encode(&self, program: &Program) -> Image {
        let tables = ContextTables::build(program);

        // Opcode digram statistics, as in the pair scheme.
        let mut preds = vec![START as u8; program.code.len()];
        for region in &tables.regions {
            for i in (region.start + 1)..region.end {
                preds[i as usize] = program.code[i as usize - 1].opcode() as u8;
            }
        }
        let mut op_freqs = vec![[0u64; OPCODE_COUNT]; OPCODE_COUNT + 1];
        for (i, inst) in program.code.iter().enumerate() {
            op_freqs[preds[i] as usize][inst.opcode() as usize] += 1;
        }
        let global = Tree::from_frequencies(&program.opcode_histogram());
        let ctx: Vec<CtxCode> = op_freqs.iter().map(CtxCode::build).collect();

        // Value statistics per field kind (rebased).
        let mut value_freqs: Vec<HashMap<u64, u64>> = vec![HashMap::new(); FIELD_KINDS.len()];
        let mut cursor = 0usize;
        for (i, inst) in program.code.iter().enumerate() {
            let region = tables.region_at(&mut cursor, i as u32);
            for (kind, value) in inst.opcode().field_kinds().iter().zip(inst.fields()) {
                *value_freqs[kind.index()]
                    .entry(rebase(*kind, value, region))
                    .or_insert(0) += 1;
            }
        }
        let values: Vec<ValueCode> = value_freqs.iter().map(ValueCode::build).collect();

        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(program.code.len());
        let mut cursor = 0usize;
        for (i, inst) in program.code.iter().enumerate() {
            offsets.push(w.bit_len());
            let region = tables.region_at(&mut cursor, i as u32);
            ctx[preds[i] as usize].encode(inst.opcode(), &global, &mut w);
            for (kind, value) in inst.opcode().field_kinds().iter().zip(inst.fields()) {
                values[kind.index()].encode(
                    rebase(*kind, value, region),
                    region.widths.width(*kind),
                    &mut w,
                );
            }
        }
        let (bytes, bit_len) = w.finish();
        let side = tables.table_bits()
            + global.table_bits()
            + ctx.iter().map(CtxCode::table_bits).sum::<u64>()
            + values.iter().map(ValueCode::table_bits).sum::<u64>();
        Image {
            kind: SchemeKind::ValueHuffman,
            bytes,
            bit_len,
            offsets,
            side_table_bits: side,
            mode: DecodeMode::default(),
            decoder: DecoderData::ValueHuffman {
                ctx,
                global,
                preds,
                tables,
                values,
            },
        }
    }
}

/// Decodes one instruction; cost: region lookup (1) + opcode tree select +
/// walk, then per field: codebook select (1) + value tree walk (2 per code
/// bit, +3 raw on escape).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(super) fn decode(
    reader: &mut BitReader<'_>,
    ctx: &[CtxCode],
    global: &Tree,
    preds: &[u8],
    region: &Region,
    values: &[ValueCode],
    index: u32,
    mode: DecodeMode,
) -> Result<Decoded, ImageError> {
    let pred = *preds
        .get(index as usize)
        .ok_or(ImageError::BadIndex(index))?;
    let (symbol, op_cost) = ctx[pred as usize].decode(global, reader, mode)?;
    let opcode = Opcode::from_u8(symbol).ok_or(ImageError::Decode(
        crate::isa::DecodeError::BadOpcode(symbol),
    ))?;
    let kinds = opcode.field_kinds();
    let mut field_cost = 0u32;
    let inst = match mode {
        DecodeMode::Tree => {
            let mut fields = Vec::with_capacity(kinds.len());
            for kind in kinds {
                let (coded, cost) =
                    values[kind.index()].decode(region.widths.width(*kind), reader, mode)?;
                field_cost += 1 + cost;
                fields.push(unrebase(*kind, coded, region));
            }
            Inst::from_parts(opcode, &fields)?
        }
        DecodeMode::Table => {
            let mut buf = [0u64; crate::isa::MAX_FIELDS];
            for (i, kind) in kinds.iter().enumerate() {
                let (coded, cost) =
                    values[kind.index()].decode(region.widths.width(*kind), reader, mode)?;
                field_cost += 1 + cost;
                buf[i] = unrebase(*kind, coded, region);
            }
            Inst::from_parts(opcode, &buf[..kinds.len()])?
        }
    };
    Ok(Decoded {
        inst,
        cost: 2 + op_cost + field_cost,
        bits: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    #[test]
    fn round_trip_all_samples_both_tiers() {
        for s in hlr::programs::ALL {
            let base = compile(&s.compile().unwrap());
            let (fused, _) = crate::fuse::fuse(&base);
            for p in [&base, &fused] {
                let image = ValueHuffman.encode(p);
                assert_eq!(image.decode_all().unwrap(), p.code, "{}", s.name);
            }
        }
    }

    #[test]
    fn beats_pair_on_most_samples() {
        let mut wins = 0;
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let pair = super::super::PairHuffman.encode(&p).bit_len;
            let value = ValueHuffman.encode(&p).bit_len;
            if value < pair {
                wins += 1;
            }
        }
        assert!(
            wins * 3 >= hlr::programs::ALL.len() * 2,
            "value coding won on only {wins}/{} samples",
            hlr::programs::ALL.len()
        );
    }

    #[test]
    fn interpreter_tables_are_the_largest_of_any_scheme() {
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let value = ValueHuffman.encode(&p).side_table_bits;
        for scheme in [
            SchemeKind::Packed,
            SchemeKind::Contextual,
            SchemeKind::Huffman,
            SchemeKind::PairHuffman,
        ] {
            assert!(value > scheme.encode(&p).side_table_bits, "{scheme}");
        }
    }

    #[test]
    fn escape_path_handles_unseen_values() {
        let mut freqs = HashMap::new();
        freqs.insert(3u64, 10u64);
        freqs.insert(7, 5);
        let code = ValueCode::build(&freqs);
        let mut w = BitWriter::new();
        code.encode(3, 8, &mut w); // known
        code.encode(100, 8, &mut w); // escape
        let (buf, len) = w.finish();
        for mode in DecodeMode::all() {
            let mut r = BitReader::new(&buf, len);
            assert_eq!(code.decode(8, &mut r, mode).unwrap().0, 3);
            let (v, cost) = code.decode(8, &mut r, mode).unwrap();
            assert_eq!(v, 100);
            assert!(cost > 2, "escape costs the raw read too ({mode})");
        }
    }

    #[test]
    fn deterministic_construction() {
        let p = compile(&hlr::programs::MIXED.compile().unwrap());
        let a = ValueHuffman.encode(&p);
        let b = ValueHuffman.encode(&p);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.bit_len, b.bit_len);
    }
}
