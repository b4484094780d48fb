//! Pair-frequency encoding (§3.2: "the idea of frequency based encoding may
//! be generalized by considering the frequency of occurrence of pairs ...
//! an encoding based on the frequency of pairs of fields would require a
//! separate decode tree for each possible predecessor field").
//!
//! Each instruction's opcode is coded under a codebook conditioned on the
//! *static predecessor* opcode within the same contour region;
//! region-leading instructions use a dedicated start codebook. Every
//! conditional codebook covers only the successor opcodes actually observed
//! after its predecessor, plus an ESCAPE code that falls back to the
//! unconditioned (global) Huffman tree — so any legal program remains
//! encodable while common digrams such as `PushLocal → PushLocal` cost a
//! single bit. Operand fields use the contextual layout.
//!
//! A sequential decoder knows the predecessor because it has just decoded
//! it; for the random access the DTB's translator performs, the image keeps
//! the predecessor table explicitly. That table is reconstructible from the
//! stream, so it is charged to neither program nor interpreter size — but
//! the per-predecessor decode *trees* are charged to the interpreter, and
//! they dominate it, exactly as the paper warns.

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::Tree;
use crate::isa::{Opcode, OPCODE_COUNT};
use crate::program::Program;

use super::contextual::{read_inst, write_fields};
use super::{
    ContextTables, DecodeMode, Decoded, DecoderData, Image, ImageError, Region, Scheme, SchemeKind,
};

/// The pair-frequency scheme (unit struct; codebooks are measured from the
/// program's static opcode digrams).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairHuffman;

/// Predecessor index used for region-leading instructions.
const START: usize = OPCODE_COUNT;

/// A conditional codebook: the successor opcodes observed after one
/// predecessor, Huffman-coded together with a trailing ESCAPE symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CtxCode {
    /// Observed successor opcodes (local symbol `i` ↔ `symbols[i]`); the
    /// local symbol `symbols.len()` is ESCAPE.
    pub(crate) symbols: Vec<u8>,
    /// Tree over `symbols.len() + 1` local symbols.
    pub(crate) tree: Tree,
}

impl CtxCode {
    pub(crate) fn build(freqs: &[u64; OPCODE_COUNT]) -> CtxCode {
        let symbols: Vec<u8> = (0..OPCODE_COUNT as u8)
            .filter(|&s| freqs[s as usize] > 0)
            .collect();
        let mut local: Vec<u64> = symbols.iter().map(|&s| freqs[s as usize]).collect();
        local.push(1); // ESCAPE
        CtxCode {
            tree: Tree::from_frequencies(&local),
            symbols,
        }
    }

    fn escape_symbol(&self) -> usize {
        self.symbols.len()
    }

    pub(crate) fn encode(&self, opcode: Opcode, global: &Tree, out: &mut BitWriter) {
        match self.symbols.iter().position(|&s| s == opcode as u8) {
            Some(local) => self.tree.encode(local, out),
            None => {
                self.tree.encode(self.escape_symbol(), out);
                global.encode(opcode as usize, out);
            }
        }
    }

    /// Decodes an opcode, returning `(opcode_discriminant, cost_ops)`.
    #[inline]
    pub(crate) fn decode(
        &self,
        global: &Tree,
        reader: &mut BitReader<'_>,
        mode: DecodeMode,
    ) -> Result<(u8, u32), ImageError> {
        let (local, bits) = mode.huff(&self.tree, reader)?;
        if local == self.escape_symbol() {
            let (sym, gbits) = mode.huff(global, reader)?;
            // Escape: both walks plus the fallback dispatch.
            Ok((sym as u8, 2 * bits + 2 * gbits + 1))
        } else {
            Ok((self.symbols[local], 2 * bits))
        }
    }

    pub(crate) fn table_bits(&self) -> u64 {
        // Tree links plus the local->global symbol map (one byte each).
        self.tree.table_bits() + self.symbols.len() as u64 * 8
    }
}

impl Scheme for PairHuffman {
    fn kind(&self) -> SchemeKind {
        SchemeKind::PairHuffman
    }

    fn encode(&self, program: &Program) -> Image {
        let tables = ContextTables::build(program);

        // Predecessor of each instruction (START at region boundaries).
        let mut preds = vec![START as u8; program.code.len()];
        for region in &tables.regions {
            for i in (region.start + 1)..region.end {
                preds[i as usize] = program.code[i as usize - 1].opcode() as u8;
            }
        }

        // Digram frequencies -> escape-coded codebook per predecessor.
        let mut freqs = vec![[0u64; OPCODE_COUNT]; OPCODE_COUNT + 1];
        for (i, inst) in program.code.iter().enumerate() {
            freqs[preds[i] as usize][inst.opcode() as usize] += 1;
        }
        let global = Tree::from_frequencies(&program.opcode_histogram());
        let ctx: Vec<CtxCode> = freqs.iter().map(CtxCode::build).collect();

        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(program.code.len());
        let mut cursor = 0usize;
        for (i, inst) in program.code.iter().enumerate() {
            offsets.push(w.bit_len());
            let region = tables.region_at(&mut cursor, i as u32);
            ctx[preds[i] as usize].encode(inst.opcode(), &global, &mut w);
            write_fields(&mut w, inst, region);
        }
        let (bytes, bit_len) = w.finish();
        let tree_bits: u64 = ctx.iter().map(CtxCode::table_bits).sum::<u64>() + global.table_bits();
        Image {
            kind: SchemeKind::PairHuffman,
            bytes,
            bit_len,
            offsets,
            side_table_bits: tables.table_bits() + tree_bits,
            mode: DecodeMode::default(),
            decoder: DecoderData::Pair {
                ctx,
                global,
                preds,
                tables,
            },
        }
    }
}

/// Decodes one instruction; cost: region lookup (1) + tree select (1) +
/// tree walk (2 per code bit, doubled through the global tree on escape) +
/// width lookup/extract/mask per field (3 each).
#[inline]
pub(super) fn decode(
    reader: &mut BitReader<'_>,
    ctx: &[CtxCode],
    global: &Tree,
    preds: &[u8],
    region: &Region,
    index: u32,
    mode: DecodeMode,
) -> Result<Decoded, ImageError> {
    let pred = *preds
        .get(index as usize)
        .ok_or(ImageError::BadIndex(index))?;
    let (symbol, walk_cost) = ctx[pred as usize].decode(global, reader, mode)?;
    let opcode = Opcode::from_u8(symbol).ok_or(ImageError::Decode(
        crate::isa::DecodeError::BadOpcode(symbol),
    ))?;
    let inst = read_inst(reader, opcode, region, mode)?;
    Ok(Decoded {
        inst,
        cost: 2 + walk_cost + 3 * opcode.field_kinds().len() as u32,
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
            let image = PairHuffman.encode(&p);
            assert_eq!(image.decode_all().unwrap(), p.code, "{}", s.name);
        }
    }

    #[test]
    fn round_trip_fused_samples() {
        for s in hlr::programs::ALL {
            let (p, _) = crate::fuse::fuse(&compile(&s.compile().unwrap()));
            let image = PairHuffman.encode(&p);
            assert_eq!(image.decode_all().unwrap(), p.code, "{}", s.name);
        }
    }

    #[test]
    fn pair_coding_beats_plain_huffman_on_most_samples() {
        let mut wins = 0;
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let plain = super::super::HuffmanScheme.encode(&p).bit_len;
            let pair = PairHuffman.encode(&p).bit_len;
            if pair < plain {
                wins += 1;
            }
        }
        assert!(
            wins * 3 >= hlr::programs::ALL.len() * 2,
            "pair coding won on only {wins}/{} samples",
            hlr::programs::ALL.len()
        );
    }

    #[test]
    fn interpreter_side_tables_are_larger() {
        // One decode structure per predecessor costs more interpreter
        // memory than the single unconditioned tree (paper §3.2).
        let p = compile(&hlr::programs::QUEENS.compile().unwrap());
        let plain = super::super::HuffmanScheme.encode(&p);
        let pair = PairHuffman.encode(&p);
        assert!(
            pair.side_table_bits > plain.side_table_bits,
            "{} vs {}",
            pair.side_table_bits,
            plain.side_table_bits
        );
    }

    #[test]
    fn region_leading_instructions_use_start_tree() {
        let p = compile(&hlr::programs::FIB_REC.compile().unwrap());
        let image = PairHuffman.encode(&p);
        if let DecoderData::Pair { preds, .. } = &image.decoder {
            assert_eq!(preds[0] as usize, START);
            for proc in &p.procs {
                assert_eq!(preds[proc.entry as usize] as usize, START);
            }
        } else {
            panic!("wrong decoder kind");
        }
    }

    #[test]
    fn escape_path_decodes_foreign_opcodes() {
        // Build a codebook from a context that never saw `Halt`, then force
        // the escape path by encoding `Halt` under it.
        let mut freqs = [0u64; OPCODE_COUNT];
        freqs[Opcode::PushLocal as usize] = 10;
        freqs[Opcode::Bin as usize] = 5;
        let ctx = CtxCode::build(&freqs);
        let global = Tree::from_frequencies(&[1u64; OPCODE_COUNT]);
        let mut w = BitWriter::new();
        ctx.encode(Opcode::Halt, &global, &mut w);
        let (buf, len) = w.finish();
        for mode in DecodeMode::all() {
            let mut r = BitReader::new(&buf, len);
            let (sym, cost) = ctx.decode(&global, &mut r, mode).unwrap();
            assert_eq!(sym, Opcode::Halt as u8);
            assert!(cost > 2, "escape path must cost both walks ({mode})");
        }
    }
}
