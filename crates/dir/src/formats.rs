//! Table 1: equivalence of a PSDER call sequence to more compact, encoded
//! machine formats.
//!
//! The paper's Table 1 shows one two-operand update (`op2 := op2 OP op1`)
//! expressed three ways: as an explicit PSDER sequence of procedure calls
//! with arguments, as a PDP-11-style two-operand instruction, and as a
//! System/360 RX-style instruction (with the index-register field omitted
//! for the second operand, per the paper's footnote). This module encodes
//! all three at the bit level so the `representations` benchmark binary
//! can print the comparison with real sizes.

use crate::bitstream::BitWriter;

/// One step of the PSDER call sequence, mirroring the paper's six numbered
/// items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsderStep {
    /// What the step does (paper's wording, abridged).
    pub description: &'static str,
    /// Encoded width of the short-format instruction implementing it.
    pub bits: u32,
}

/// The PSDER sequence equivalent to `op2 := op2 OP op1` with
/// base+displacement operands.
///
/// Short-format instructions are 24 bits: a 4-bit opcode (CALL/PUSH/POP/
/// INTERP and addressing-mode flavours) and a 20-bit operand — the format
/// the UHM's IU2 executes out of the dynamic translation buffer.
pub fn psder_sequence() -> Vec<PsderStep> {
    vec![
        PsderStep {
            description: "PUSH address of operand-1 register cell (direct mode)",
            bits: 24,
        },
        PsderStep {
            description: "PUSH operand-1 displacement (immediate mode)",
            bits: 24,
        },
        PsderStep {
            description: "CALL effective-address calculation procedure",
            bits: 24,
        },
        PsderStep {
            description: "PUSH operand-2 displacement (immediate mode)",
            bits: 24,
        },
        PsderStep {
            description: "CALL functional procedure (the operation)",
            bits: 24,
        },
        PsderStep {
            description: "CALL store via address computed earlier (implicit)",
            bits: 24,
        },
    ]
}

/// Addressing modes of the PDP-11-style format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Pdp11Mode {
    /// Register direct.
    Register = 0,
    /// Register deferred (indirect).
    Deferred = 1,
    /// Auto-increment.
    AutoInc = 2,
    /// Indexed (base + displacement).
    Indexed = 6,
}

/// A PDP-11-style two-operand instruction: 4-bit opcode, two 6-bit operand
/// specifiers (3-bit mode + 3-bit register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pdp11Inst {
    /// Operation code (ADD, SUB, ...).
    pub opcode: u8,
    /// Source operand mode.
    pub src_mode: Pdp11Mode,
    /// Source register.
    pub src_reg: u8,
    /// Destination operand mode (source *and* destination).
    pub dst_mode: Pdp11Mode,
    /// Destination register.
    pub dst_reg: u8,
}

impl Pdp11Inst {
    /// Width of the encoded instruction word.
    pub const BITS: u32 = 16;

    /// Encodes to the 16-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics if `opcode > 15` or a register number exceeds 7.
    pub fn encode(&self) -> u16 {
        assert!(self.opcode <= 0xF, "opcode must fit 4 bits");
        assert!(
            self.src_reg <= 7 && self.dst_reg <= 7,
            "registers are 3 bits"
        );
        let mut w = BitWriter::new();
        w.write(self.opcode as u64, 4);
        w.write(self.src_mode as u64, 3);
        w.write(self.src_reg as u64, 3);
        w.write(self.dst_mode as u64, 3);
        w.write(self.dst_reg as u64, 3);
        let (bytes, len) = w.finish();
        debug_assert_eq!(len, 16);
        u16::from_be_bytes([bytes[0], bytes[1]])
    }
}

/// A System/360 RX-style instruction *without* the index-register field
/// (paper's footnote 6): 8-bit opcode, 4-bit R1, 4-bit B2, 12-bit D2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxInst {
    /// Operation code.
    pub opcode: u8,
    /// First-operand register.
    pub r1: u8,
    /// Base register of the second operand.
    pub b2: u8,
    /// Displacement of the second operand.
    pub d2: u16,
}

impl RxInst {
    /// Width of the encoded instruction (8 + 4 + 4 + 12).
    pub const BITS: u32 = 28;

    /// Encodes to the 28-bit pattern, right-aligned in a `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `r1`/`b2` exceed 15 or `d2` exceeds 4095.
    pub fn encode(&self) -> u32 {
        assert!(self.r1 <= 0xF && self.b2 <= 0xF, "registers are 4 bits");
        assert!(self.d2 <= 0xFFF, "displacement is 12 bits");
        ((self.opcode as u32) << 20)
            | ((self.r1 as u32) << 16)
            | ((self.b2 as u32) << 12)
            | self.d2 as u32
    }
}

/// One row of the Table 1 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Representation name.
    pub representation: &'static str,
    /// Items making up the representation.
    pub items: Vec<String>,
    /// Total encoded bits.
    pub total_bits: u64,
}

/// Builds the Table 1 comparison for the statement `R3 := R3 + base[disp]`.
pub fn table1() -> Vec<Table1Row> {
    let psder = psder_sequence();
    let psder_bits: u64 = psder.iter().map(|s| s.bits as u64).sum();
    let pdp = Pdp11Inst {
        opcode: 0x6, // ADD
        src_mode: Pdp11Mode::Indexed,
        src_reg: 1,
        dst_mode: Pdp11Mode::Register,
        dst_reg: 3,
    };
    let rx = RxInst {
        opcode: 0x5A, // A (add) in real S/360
        r1: 3,
        b2: 1,
        d2: 0x100,
    };
    vec![
        Table1Row {
            representation: "PSDER sequence",
            items: psder
                .iter()
                .map(|s| format!("{} ({} bits)", s.description, s.bits))
                .collect(),
            total_bits: psder_bits,
        },
        Table1Row {
            representation: "PDP-11 two-operand format",
            items: vec![format!("ADD X(R1), R3 = {:#06x}", pdp.encode())],
            total_bits: Pdp11Inst::BITS as u64 + 16, // + displacement word
        },
        Table1Row {
            representation: "System/360 RX format (no index field)",
            items: vec![format!("A R3, D2(B2) = {:#09x}", rx.encode())],
            total_bits: RxInst::BITS as u64,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psder_sequence_is_six_steps() {
        // The paper enumerates six items for the equivalence.
        assert_eq!(psder_sequence().len(), 6);
    }

    #[test]
    fn sizes_strictly_decrease_down_the_table() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].total_bits > rows[1].total_bits);
        assert!(rows[1].total_bits > rows[2].total_bits);
    }

    #[test]
    fn pdp11_encoding_packs_fields() {
        let inst = Pdp11Inst {
            opcode: 0x6,
            src_mode: Pdp11Mode::Indexed,
            src_reg: 1,
            dst_mode: Pdp11Mode::Register,
            dst_reg: 3,
        };
        let word = inst.encode();
        assert_eq!(word >> 12, 0x6);
        assert_eq!((word >> 9) & 0x7, 6); // indexed mode
        assert_eq!((word >> 6) & 0x7, 1);
        assert_eq!((word >> 3) & 0x7, 0); // register mode
        assert_eq!(word & 0x7, 3);
    }

    #[test]
    fn rx_encoding_packs_fields() {
        let inst = RxInst {
            opcode: 0x5A,
            r1: 3,
            b2: 1,
            d2: 0x100,
        };
        let bits = inst.encode();
        assert_eq!(bits >> 20, 0x5A);
        assert_eq!((bits >> 16) & 0xF, 3);
        assert_eq!((bits >> 12) & 0xF, 1);
        assert_eq!(bits & 0xFFF, 0x100);
    }

    #[test]
    #[should_panic(expected = "opcode must fit")]
    fn pdp11_rejects_wide_opcode() {
        Pdp11Inst {
            opcode: 0x10,
            src_mode: Pdp11Mode::Register,
            src_reg: 0,
            dst_mode: Pdp11Mode::Register,
            dst_reg: 0,
        }
        .encode();
    }
}
