//! Human-readable listings of the PSDER level: micro-assembly for
//! IU1 routines and short-format assembly for IU2 sequences.
//!
//! The listing syntax is stable and used in golden tests; it is the
//! documentation-of-record for the semantic-routine library (the paper's
//! "interpreter and semantic routines" whose size §3.3 worries about).

use std::fmt::Write as _;

use crate::micro::{MicroOp, MicroWord, Reg};
use crate::routines::RoutineLib;
use crate::short::{InterpMode, PopMode, PushMode, RoutineId, ShortInstr};

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reg::A => "A",
            Reg::B => "B",
            Reg::C => "C",
            Reg::D => "D",
            Reg::R => "R",
        };
        f.write_str(s)
    }
}

impl std::fmt::Display for MicroOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MicroOp::Pop(r) => write!(f, "pop {r}"),
            MicroOp::Push(r) => write!(f, "push {r}"),
            MicroOp::Alu { op, a, b, dst } => write!(f, "{dst} := {a} {op:?} {b}"),
            MicroOp::NegOp { src, dst } => write!(f, "{dst} := -{src}"),
            MicroOp::NotOp { src, dst } => write!(f, "{dst} := !{src}"),
            MicroOp::SelectZero {
                cond,
                if_zero,
                if_nonzero,
                dst,
            } => write!(f, "{dst} := {cond}==0 ? {if_zero} : {if_nonzero}"),
            MicroOp::CheckIdx { idx, len } => write!(f, "check {idx} in 0..{len}"),
            MicroOp::LoadFrame { addr, dst } => write!(f, "{dst} := frame[{addr}]"),
            MicroOp::StoreFrame { addr, src } => write!(f, "frame[{addr}] := {src}"),
            MicroOp::LoadGlobal { addr, dst } => write!(f, "{dst} := glob[{addr}]"),
            MicroOp::StoreGlobal { addr, src } => write!(f, "glob[{addr}] := {src}"),
            MicroOp::Output(r) => write!(f, "out {r}"),
            MicroOp::PushRa(r) => write!(f, "ra.push {r}"),
            MicroOp::PopRa(r) => write!(f, "{r} := ra.pop"),
            MicroOp::NewFrame { proc } => write!(f, "frame.new proc={proc}"),
            MicroOp::DropFrame => write!(f, "frame.drop"),
            MicroOp::EntryOf { proc, dst } => write!(f, "{dst} := entry({proc})"),
            MicroOp::HaltOp => write!(f, "halt"),
        }
    }
}

impl std::fmt::Display for MicroWord {
    /// One horizontal word: its ops joined by `|` (parallel issue).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self
            .ops()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        f.write_str(&parts.join(" | "))
    }
}

impl std::fmt::Display for ShortInstr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShortInstr::Push(PushMode::Imm(v)) => write!(f, "PUSH #{v}"),
            ShortInstr::Push(PushMode::Local(s)) => write!(f, "PUSH local {s}"),
            ShortInstr::Push(PushMode::Global(s)) => write!(f, "PUSH global {s}"),
            ShortInstr::Pop(PopMode::Discard) => write!(f, "POP"),
            ShortInstr::Pop(PopMode::Local(s)) => write!(f, "POP local {s}"),
            ShortInstr::Pop(PopMode::Global(s)) => write!(f, "POP global {s}"),
            ShortInstr::Call(id) => write!(f, "CALL {id:?}"),
            ShortInstr::Interp(InterpMode::Imm(a)) => write!(f, "INTERP {a}"),
            ShortInstr::Interp(InterpMode::Stack) => write!(f, "INTERP (stack)"),
        }
    }
}

/// Renders the whole routine library as a micro-assembly listing, one
/// routine per section, one word per line.
pub fn routine_listing(lib: &RoutineLib) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; semantic routine library: {} routines, {} micro-words total",
        RoutineId::all().len(),
        lib.total_words()
    );
    for id in RoutineId::all() {
        let words = lib.words(id);
        let _ = writeln!(out, "{id:?}: ; {} cycles", words.len());
        for w in words {
            let _ = writeln!(out, "    {w}");
        }
    }
    out
}

/// Renders one DIR instruction's translation as short-format assembly.
pub fn sequence_listing(sequence: &[ShortInstr]) -> String {
    sequence.iter().map(|s| format!("    {s}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::Template;

    #[test]
    fn routine_listing_covers_everything() {
        let lib = RoutineLib::new();
        let text = routine_listing(&lib);
        for id in RoutineId::all() {
            assert!(text.contains(&format!("{id:?}:")), "{id:?} missing");
        }
        assert!(text.contains("frame.new proc=A"));
        assert!(text.contains("check C in 0..B"));
    }

    #[test]
    fn word_display_shows_parallel_issue() {
        let lib = RoutineLib::new();
        let bin = lib.words(crate::short::RoutineId::Bin(dir::AluOp::Add));
        assert_eq!(bin[0].to_string(), "pop B | pop A");
        assert_eq!(bin[1].to_string(), "R := A Add B | push R");
    }

    #[test]
    fn sequence_listing_matches_translation() {
        let seq = Template::new(dir::Inst::JumpIfFalse(7), 3);
        let text = sequence_listing(&seq);
        assert_eq!(
            text,
            "    PUSH #7\n    PUSH #3\n    CALL Select\n    INTERP (stack)\n"
        );
    }

    #[test]
    fn short_instr_display_forms() {
        assert_eq!(
            ShortInstr::Push(PushMode::Global(3)).to_string(),
            "PUSH global 3"
        );
        assert_eq!(ShortInstr::Pop(PopMode::Discard).to_string(), "POP");
        assert_eq!(
            ShortInstr::Interp(InterpMode::Imm(9)).to_string(),
            "INTERP 9"
        );
    }
}
