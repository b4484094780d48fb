//! The DIR → PSDER translation templates.
//!
//! This mapping is the heart of dynamic translation: each DIR instruction
//! becomes a short sequence of IU2 instructions that steer control to the
//! semantic routines and pass parameters, ending with the INTERP that
//! chains to the next DIR instruction (§6.2). The mapping is "almost
//! one-to-one", which is why the paper argues the dynamic translator is
//! barely more complex than an interpreter.
//!
//! [`Template::new`] is the one definition of the mapping, built into a
//! fixed array on the caller's stack. It serves three consumers:
//!
//! * the **stencil builder** ([`crate::stencil`]) compiles it once per
//!   instruction shape into the line every translation event stamps out,
//!   and under the fault plane a machine stores its words in the
//!   first-level DTB as the surface faults strike;
//! * the **reference interpreter** ([`crate::interp`]) executes its
//!   words one by one;
//! * the **cost model** and the analyses measure `s1` (short words per
//!   DIR instruction) and `g` (generation cost) from it.
//!
//! Building a template allocates nothing (one dispatch on the opcode,
//! ~5–10 ns), and stamping a stencil allocates nothing either, so no
//! host-side cache sits between the translator and its consumers: the
//! DTB is the only translation cache, as in the paper.

use dir::isa::Inst;

use crate::short::{InterpMode, PopMode, PushMode, RoutineId, ShortInstr};

/// The longest translation any instruction can produce, in short words —
/// the lower bound for a DTB allocation unit that never overflows.
pub const MAX_TRANSLATION_WORDS: usize = 6;

/// One DIR instruction's PSDER translation, held in place: up to
/// [`MAX_TRANSLATION_WORDS`] short words and their count. It derefs to
/// the words, so it goes wherever a `&[ShortInstr]` does.
///
/// ```
/// use dir::isa::Inst;
/// use psder::{InterpMode, PushMode, ShortInstr, Template};
///
/// let t = Template::new(Inst::PushConst(7), 1);
/// assert_eq!(
///     &t[..],
///     [ShortInstr::Push(PushMode::Imm(7)), ShortInstr::Interp(InterpMode::Imm(1))]
/// );
/// ```
#[derive(Clone, Copy)]
pub struct Template {
    words: [ShortInstr; MAX_TRANSLATION_WORDS],
    len: usize,
}

/// What fills a template's unused slots; never read.
const PAD: ShortInstr = ShortInstr::Interp(InterpMode::Stack);

impl Template {
    /// Translates one DIR instruction into its PSDER sequence.
    ///
    /// `next` is the DIR address of the fall-through successor (`pc + 1`),
    /// embedded in the trailing INTERP where the successor is statically
    /// known. `Halt` ends the machine and has no successor.
    pub fn new(inst: Inst, next: u32) -> Template {
        use ShortInstr::*;
        let interp_next = Interp(InterpMode::Imm(next));
        match inst {
            Inst::PushConst(v) => of([Push(PushMode::Imm(v)), interp_next]),
            Inst::PushLocal(s) => of([Push(PushMode::Local(s)), interp_next]),
            Inst::PushGlobal(s) => of([Push(PushMode::Global(s)), interp_next]),
            Inst::StoreLocal(s) => of([Pop(PopMode::Local(s)), interp_next]),
            Inst::StoreGlobal(s) => of([Pop(PopMode::Global(s)), interp_next]),
            Inst::LoadArrLocal { base, len } => of([
                Push(PushMode::Imm(base as i64)),
                Push(PushMode::Imm(len as i64)),
                Call(RoutineId::LoadArrLocal),
                interp_next,
            ]),
            Inst::LoadArrGlobal { base, len } => of([
                Push(PushMode::Imm(base as i64)),
                Push(PushMode::Imm(len as i64)),
                Call(RoutineId::LoadArrGlobal),
                interp_next,
            ]),
            Inst::StoreArrLocal { base, len } => of([
                Push(PushMode::Imm(base as i64)),
                Push(PushMode::Imm(len as i64)),
                Call(RoutineId::StoreArrLocal),
                interp_next,
            ]),
            Inst::StoreArrGlobal { base, len } => of([
                Push(PushMode::Imm(base as i64)),
                Push(PushMode::Imm(len as i64)),
                Call(RoutineId::StoreArrGlobal),
                interp_next,
            ]),
            Inst::Pop => of([Pop(PopMode::Discard), interp_next]),
            Inst::Bin(op) => of([Call(RoutineId::Bin(op)), interp_next]),
            Inst::Neg => of([Call(RoutineId::NegR), interp_next]),
            Inst::Not => of([Call(RoutineId::NotR), interp_next]),
            Inst::Jump(t) => of([Interp(InterpMode::Imm(t))]),
            // Condition is on the stack; push taken/fall-through in the
            // order the Select routine expects (if_zero first).
            Inst::JumpIfFalse(t) => of([
                Push(PushMode::Imm(t as i64)),
                Push(PushMode::Imm(next as i64)),
                Call(RoutineId::Select),
                Interp(InterpMode::Stack),
            ]),
            Inst::JumpIfTrue(t) => of([
                Push(PushMode::Imm(next as i64)),
                Push(PushMode::Imm(t as i64)),
                Call(RoutineId::Select),
                Interp(InterpMode::Stack),
            ]),
            Inst::Call(p) => of([
                Push(PushMode::Imm(p as i64)),
                Push(PushMode::Imm(next as i64)),
                Call(RoutineId::DirCall),
                Interp(InterpMode::Stack),
            ]),
            Inst::Return => of([Call(RoutineId::DirRet), Interp(InterpMode::Stack)]),
            Inst::Halt => of([Call(RoutineId::HaltR)]),
            Inst::Write => of([Call(RoutineId::WriteR), interp_next]),
            // Fused tier: direct-mode pushes/pops reuse the base routines.
            Inst::BinLocals { op, a, b, dst } => of([
                Push(PushMode::Local(a)),
                Push(PushMode::Local(b)),
                Call(RoutineId::Bin(op)),
                Pop(PopMode::Local(dst)),
                interp_next,
            ]),
            Inst::IncLocal { slot, imm } => of([
                Push(PushMode::Local(slot)),
                Push(PushMode::Imm(imm)),
                Call(RoutineId::Bin(dir::AluOp::Add)),
                Pop(PopMode::Local(slot)),
                interp_next,
            ]),
            Inst::SetLocalConst { slot, imm } => of([
                Push(PushMode::Imm(imm)),
                Pop(PopMode::Local(slot)),
                interp_next,
            ]),
            Inst::CmpConstBr {
                op,
                slot,
                imm,
                target,
            } => of([
                Push(PushMode::Local(slot)),
                Push(PushMode::Imm(imm)),
                Push(PushMode::Imm(target as i64)),
                Push(PushMode::Imm(next as i64)),
                Call(RoutineId::CmpBr(op)),
                Interp(InterpMode::Stack),
            ]),
            Inst::CmpLocalsBr { op, a, b, target } => of([
                Push(PushMode::Local(a)),
                Push(PushMode::Local(b)),
                Push(PushMode::Imm(target as i64)),
                Push(PushMode::Imm(next as i64)),
                Call(RoutineId::CmpBr(op)),
                Interp(InterpMode::Stack),
            ]),
        }
    }
}

/// A template of exactly the words given; `N` is checked against
/// [`MAX_TRANSLATION_WORDS`] at compile time.
#[inline(always)]
fn of<const N: usize>(words: [ShortInstr; N]) -> Template {
    const { assert!(N <= MAX_TRANSLATION_WORDS) };
    let mut buf = [PAD; MAX_TRANSLATION_WORDS];
    buf[..N].copy_from_slice(&words);
    Template { words: buf, len: N }
}

impl std::ops::Deref for Template {
    type Target = [ShortInstr];

    #[inline]
    fn deref(&self) -> &[ShortInstr] {
        &self.words[..self.len]
    }
}

impl std::fmt::Debug for Template {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// [`Template::new`] as an owned `Vec`, for callers that keep the words.
pub fn translate(inst: Inst, next: u32) -> Vec<ShortInstr> {
    Template::new(inst, next).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::isa_sample;

    #[test]
    fn every_template_fits_and_terminates() {
        // Every opcode x the 13 ALU ops, with random operands.
        let mut rng = hlr::rng::Rng::new(0x7E3A);
        let sample = isa_sample(8, || rng.next_u64());
        let mut opcodes = std::collections::HashSet::new();
        for &(inst, next) in &sample {
            opcodes.insert(inst.opcode());
            let t = Template::new(inst, next);
            assert!(
                (1..=MAX_TRANSLATION_WORDS).contains(&t.len()),
                "{inst:?} -> {} words",
                t.len()
            );
            match t.last() {
                Some(ShortInstr::Interp(_) | ShortInstr::Call(RoutineId::HaltR)) => {}
                other => panic!("{inst:?} ends with {other:?}"),
            }
        }
        assert_eq!(opcodes.len(), dir::isa::OPCODE_COUNT);
    }

    #[test]
    fn statically_known_successors_use_immediate_interp() {
        let t = Template::new(Inst::PushConst(1), 17);
        assert_eq!(*t.last().unwrap(), ShortInstr::Interp(InterpMode::Imm(17)));
        let t = Template::new(Inst::Jump(99), 17);
        assert_eq!(&t[..], [ShortInstr::Interp(InterpMode::Imm(99))]);
        let halt = Template::new(Inst::Halt, 9);
        assert_eq!(&halt[..], [ShortInstr::Call(RoutineId::HaltR)]);
    }

    #[test]
    fn computed_successors_use_stack_interp() {
        for inst in [
            Inst::JumpIfFalse(3),
            Inst::JumpIfTrue(3),
            Inst::Call(0),
            Inst::Return,
        ] {
            let t = Template::new(inst, 9);
            assert_eq!(*t.last().unwrap(), ShortInstr::Interp(InterpMode::Stack));
        }
    }

    #[test]
    fn jump_flavours_swap_select_operands() {
        let f = Template::new(Inst::JumpIfFalse(3), 9);
        let t = Template::new(Inst::JumpIfTrue(3), 9);
        assert_eq!(f[0], ShortInstr::Push(PushMode::Imm(3)));
        assert_eq!(f[1], ShortInstr::Push(PushMode::Imm(9)));
        assert_eq!(t[0], ShortInstr::Push(PushMode::Imm(9)));
        assert_eq!(t[1], ShortInstr::Push(PushMode::Imm(3)));
    }

    #[test]
    fn mean_s1_is_near_the_papers_three() {
        // Average translation length over a realistic program should be in
        // the neighbourhood of the paper's assumed s1 = 3.
        let hir = hlr::programs::SIEVE.compile().unwrap();
        let p = dir::compiler::compile(&hir);
        let total: usize = p.code.iter().map(|&i| Template::new(i, 0).len()).sum();
        let mean = total as f64 / p.code.len() as f64;
        assert!((1.5..4.0).contains(&mean), "mean s1 = {mean}");
    }
}
