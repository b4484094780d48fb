//! Threaded PSDER: one translation compiled into a flat, fixed-size line.
//!
//! The paper keeps the working set "in a dynamic representation which
//! minimizes execution time". Executing a stored translation word by word
//! re-interprets it on every visit: decode the short word, and for a CALL
//! walk the routine's micro-words one by one. This module specialises
//! that interpreter to one translation — the first Futamura projection:
//! [`Line::compile`] turns a short-word sequence into a flat array of
//! [`Op`]s, where each short word becomes one op and each CALL is replaced
//! by the micro-ops of its routine, inlined in place. The line also
//! carries its constant [`LineMeta`]: the short and routine words it
//! retires and where its inlined routines begin and end, so a cost model
//! can charge the whole line in one add per component.
//!
//! Compilation follows the one termination rule every executor obeys: a
//! sequence ends at its first `INTERP` or at the first `HaltOp` of a
//! routine it calls. Words after that point are unreachable and are not
//! compiled. A sequence with no terminator compiles to a line that runs
//! off its end ([`Flow::Continue`]), which callers report as malformed.
//!
//! The line's capacity is fixed at [`MAX_LINE_OPS`] so it can live in a
//! preallocated slot: a sequence whose ops (or inlined routines, at most
//! [`MAX_LINE_CALLS`]) do not fit is a [`Trap::Malformed`], never a
//! panic. Every translator template fits.

use dir::exec::Trap;

use crate::micro::{MicroOp, MicroWord};
use crate::short::{InterpMode, PopMode, PushMode, RoutineId, ShortInstr};

/// Capacity of one line in ops. The longest template (a fused
/// compare-and-branch: four pushes, a four-word routine and `INTERP`)
/// needs twelve.
pub const MAX_LINE_OPS: usize = 16;

/// Routines one line may inline. A template calls at most one.
pub const MAX_LINE_CALLS: usize = 4;

/// One op of a compiled line: a short word's action, or one micro-op of
/// an inlined semantic routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `PUSH` immediate.
    PushImm(i64),
    /// `PUSH` frame slot.
    PushLocal(u32),
    /// `PUSH` global slot.
    PushGlobal(u32),
    /// `POP` and discard.
    PopDiscard,
    /// `POP` into a frame slot.
    PopLocal(u32),
    /// `POP` into a global slot.
    PopGlobal(u32),
    /// `INTERP` to an immediate DIR address.
    InterpImm(u32),
    /// `INTERP` to the DIR address popped from the operand stack.
    InterpStack,
    /// One micro-op of an inlined routine.
    Micro(MicroOp),
}

impl Op {
    /// The op of a short word, or the routine a `CALL` steers into: a
    /// `CALL` has no op of its own, since its routine is inlined.
    pub(crate) fn lower(word: ShortInstr) -> Result<Op, RoutineId> {
        Ok(match word {
            ShortInstr::Push(PushMode::Imm(v)) => Op::PushImm(v),
            ShortInstr::Push(PushMode::Local(s)) => Op::PushLocal(s),
            ShortInstr::Push(PushMode::Global(s)) => Op::PushGlobal(s),
            ShortInstr::Pop(PopMode::Discard) => Op::PopDiscard,
            ShortInstr::Pop(PopMode::Local(s)) => Op::PopLocal(s),
            ShortInstr::Pop(PopMode::Global(s)) => Op::PopGlobal(s),
            ShortInstr::Interp(InterpMode::Imm(a)) => Op::InterpImm(a),
            ShortInstr::Interp(InterpMode::Stack) => Op::InterpStack,
            ShortInstr::Call(id) => return Err(id),
        })
    }
}

/// Where executing ops leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The ops ran out without a terminator.
    Continue,
    /// An `INTERP` chose the next DIR address.
    Goto(u32),
    /// A routine halted the machine.
    Halt,
}

/// One routine inlined into a line: ops `start..end` are its micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inlined {
    /// The routine.
    pub id: RoutineId,
    /// Index of its first op in the line.
    pub start: u8,
    /// One past its last op.
    pub end: u8,
    /// Micro-words it retires: all of them, or up to and including the
    /// word that halts.
    pub words: u8,
}

const NO_CALL: Inlined = Inlined {
    id: RoutineId::HaltR,
    start: 0,
    end: 0,
    words: 0,
};

/// The constant facts of a compiled line. Execution is straight-line, so
/// a line that exits through its terminator always retires exactly these
/// words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Ops compiled.
    len: u8,
    /// Routines inlined, in order.
    n_calls: u8,
    /// Short words retired, up to and including the terminator.
    pub short_words: u32,
    /// Routine micro-words retired.
    pub routine_words: u32,
    calls: [Inlined; MAX_LINE_CALLS],
}

impl LineMeta {
    /// The ops the line holds.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the line holds no ops (an empty or dropped line).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The routines inlined into the line, in execution order.
    pub fn calls(&self) -> &[Inlined] {
        &self.calls[..usize::from(self.n_calls)]
    }
}

/// A routine boundary crossed while executing a line with
/// [`Engine::exec_line_traced`](crate::Engine::exec_line_traced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Control passed to the routine.
    Enter(RoutineId),
    /// The routine returned (or halted) after retiring this many words.
    Exit(RoutineId, u32),
}

/// A compiled translation in a fixed slot of [`MAX_LINE_OPS`] ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    ops: [Op; MAX_LINE_OPS],
    meta: LineMeta,
}

impl Line {
    /// A line holding nothing.
    pub const EMPTY: Line = Line {
        ops: [Op::PopDiscard; MAX_LINE_OPS],
        meta: LineMeta {
            len: 0,
            n_calls: 0,
            short_words: 0,
            routine_words: 0,
            calls: [NO_CALL; MAX_LINE_CALLS],
        },
    };

    /// Compiles `words` into this slot, replacing what it held, and
    /// returns the line's constant facts. No allocation: the slot is
    /// rewritten in place.
    ///
    /// ```
    /// use dir::{AluOp, Inst};
    /// use psder::line::{Flow, Line};
    /// use psder::{Engine, RoutineLib, Template};
    ///
    /// let prog = dir::compiler::compile(&hlr::compile("proc main() begin skip; end")?);
    /// let lib = RoutineLib::new();
    /// let mut engine = Engine::new(&prog, 16);
    /// let mut line = Line::EMPTY;
    /// let code = [Inst::PushConst(6), Inst::PushConst(7), Inst::Bin(AluOp::Mul)];
    /// for (pc, &inst) in code.iter().enumerate() {
    ///     let next = pc as u32 + 1;
    ///     line.compile(&lib, &Template::new(inst, next))?;
    ///     assert_eq!(engine.exec_line(&line)?, Flow::Goto(next));
    /// }
    /// // MUL is CALL Bin(Mul); INTERP, with the routine's ops inlined.
    /// assert_eq!(line.meta().short_words, 2);
    /// assert_eq!(line.meta().routine_words, 2);
    /// assert_eq!(line.ops().len(), 5); // POP B, POP A, MUL, PUSH R, INTERP
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`Trap::Malformed`] when the reachable ops exceed [`MAX_LINE_OPS`]
    /// or the routines called exceed [`MAX_LINE_CALLS`]; the slot is then
    /// left empty.
    pub fn compile(
        &mut self,
        lib: &crate::RoutineLib,
        words: &[ShortInstr],
    ) -> Result<&LineMeta, Trap> {
        self.clear();
        if let Err(trap) = self.fill(lib, words) {
            self.clear();
            return Err(trap);
        }
        Ok(&self.meta)
    }

    fn fill(&mut self, lib: &crate::RoutineLib, words: &[ShortInstr]) -> Result<(), Trap> {
        const TOO_LONG: Trap = Trap::Malformed("translation exceeds the line capacity");
        let meta = &mut self.meta;
        let mut len = 0usize;
        for &word in words {
            meta.short_words += 1;
            match Op::lower(word) {
                Ok(op) => {
                    *self.ops.get_mut(len).ok_or(TOO_LONG)? = op;
                    len += 1;
                    if matches!(op, Op::InterpImm(_) | Op::InterpStack) {
                        break;
                    }
                }
                Err(id) => {
                    let routine = lib.inlined(id);
                    let end = len + routine.ops.len();
                    let slot = self.ops.get_mut(len..end).ok_or(TOO_LONG)?;
                    slot.copy_from_slice(routine.ops);
                    let call = meta.calls.get_mut(usize::from(meta.n_calls));
                    *call.ok_or(TOO_LONG)? = Inlined {
                        id,
                        start: len as u8,
                        end: end as u8,
                        words: routine.words as u8,
                    };
                    meta.n_calls += 1;
                    meta.routine_words += routine.words;
                    len = end;
                    if routine.halts {
                        break;
                    }
                }
            }
        }
        meta.len = len as u8;
        Ok(())
    }

    /// The line's constant facts.
    pub fn meta(&self) -> &LineMeta {
        &self.meta
    }

    /// The compiled ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops[..self.meta.len()]
    }

    /// Drops the compiled translation: the line runs off its end at once.
    pub fn clear(&mut self) {
        self.meta.len = 0;
        self.meta.n_calls = 0;
        self.meta.short_words = 0;
        self.meta.routine_words = 0;
    }
}

/// A routine in the form a line inlines it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlinedRoutine<'a> {
    /// The routine's micro-ops in issue order, through its first `HaltOp`.
    pub(crate) ops: &'a [Op],
    /// Micro-words those ops span.
    pub(crate) words: u32,
    /// Whether the routine halts the machine.
    pub(crate) halts: bool,
}

/// Flattens one routine's words into line ops, cut after the first
/// `HaltOp`: `(ops, words, halts)`.
pub(crate) fn flatten(words: &[MicroWord]) -> (Vec<Op>, u32, bool) {
    let mut ops = Vec::new();
    let mut count = 0;
    for word in words {
        count += 1;
        for &op in word.ops() {
            ops.push(Op::Micro(op));
            if op == MicroOp::HaltOp {
                return (ops, count, true);
            }
        }
    }
    (ops, count, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, MicroEffect, ShortEffect};
    use crate::micro::Reg;
    use crate::routines::RoutineLib;
    use crate::translator::Template;
    use crate::verify::isa_sample;
    use crate::{mword, ShortInstr};

    /// Seed of the equivalence property.
    const SEED: u64 = 0x7EAD_ED11;

    /// Runs `sequence` word by word, as the oracle does, counting the
    /// short and routine words retired.
    fn word_by_word(
        engine: &mut Engine,
        lib: &RoutineLib,
        sequence: &[ShortInstr],
    ) -> Result<(Flow, u32, u32), dir::exec::Trap> {
        let (mut short, mut routine) = (0, 0);
        for &word in sequence {
            short += 1;
            match engine.exec_short(word)? {
                ShortEffect::Continue => {}
                ShortEffect::CallRoutine(id) => {
                    for w in lib.words(id) {
                        routine += 1;
                        if engine.exec_word(w)? == MicroEffect::Halt {
                            return Ok((Flow::Halt, short, routine));
                        }
                    }
                }
                ShortEffect::Interp(addr) => return Ok((Flow::Goto(addr), short, routine)),
            }
        }
        Ok((Flow::Continue, short, routine))
    }

    fn program() -> dir::program::Program {
        let source = "int g[4]; int h;
            proc f(int a, int b) -> int begin int c[3]; return a + b; end
            proc k(int a) -> int begin return a; end
            proc main() begin write f(1, 2) + k(3); end";
        dir::compiler::compile(&hlr::compile(source).unwrap())
    }

    /// A seeded random engine state: globals, an optional callee frame,
    /// return addresses and an operand stack of small or wide values.
    fn random_engine(program: &dir::program::Program, rng: &mut hlr::rng::Rng) -> Engine {
        use crate::micro::MicroOp::{NewFrame, Pop, PushRa};
        use crate::short::{PopMode, PushMode};
        let mut e = Engine::new(program, 4);
        let value = |rng: &mut hlr::rng::Rng| -> i64 {
            match rng.next_u64() % 4 {
                0 => rng.next_u64() as i64,
                _ => (rng.next_u64() % 12) as i64 - 2,
            }
        };
        let push = |e: &mut Engine, v: i64| {
            e.exec_short(ShortInstr::Push(PushMode::Imm(v))).unwrap();
        };
        for slot in 0..program.globals_size {
            let v = value(rng);
            push(&mut e, v);
            e.exec_short(ShortInstr::Pop(PopMode::Global(slot)))
                .unwrap();
        }
        if rng.next_u64().is_multiple_of(2) {
            let proc = rng.next_u64() % program.procs.len() as u64;
            for _ in 0..program.procs[proc as usize].n_args {
                let v = value(rng);
                push(&mut e, v);
            }
            push(&mut e, proc as i64);
            e.exec_word(&mword![Pop(Reg::A), NewFrame { proc: Reg::A }])
                .unwrap();
        }
        for _ in 0..rng.next_u64() % 3 {
            push(&mut e, (rng.next_u64() % 64) as i64);
            e.exec_word(&mword![Pop(Reg::A), PushRa(Reg::A)]).unwrap();
        }
        for _ in 0..rng.next_u64() % 8 {
            let v = value(rng);
            push(&mut e, v);
        }
        e
    }

    #[test]
    fn lines_equal_word_by_word_execution() {
        let lib = RoutineLib::new();
        let program = program();
        let mut rng = hlr::rng::Rng::new(SEED);
        // Wide operands (mostly out-of-range slots: traps) and small ones
        // (mostly valid slots and addresses: clean exits).
        let mut sample = isa_sample(4, || rng.next_u64());
        sample.extend(isa_sample(4, || rng.next_u64() % (8 << 32)));
        let mut line = Line::EMPTY;
        let mut exits = [0u32; 4];
        for &(inst, next) in &sample {
            let template = Template::new(inst, next);
            let truncated = &template[..template.len() - 1];
            for sequence in [&template[..], truncated] {
                let meta = *line.compile(&lib, sequence).unwrap();
                for _ in 0..4 {
                    let start = random_engine(&program, &mut rng);
                    let mut oracle = start.clone();
                    let want = word_by_word(&mut oracle, &lib, sequence);
                    let mut threaded = start;
                    let got = threaded.exec_line(&line);
                    assert_eq!(threaded, oracle, "{inst:?} {sequence:?}: state");
                    match (want, got) {
                        (Ok((flow, short, routine)), Ok(got)) => {
                            assert_eq!(got, flow, "{inst:?} {sequence:?}");
                            exits[match flow {
                                Flow::Continue => 0,
                                Flow::Goto(_) => 1,
                                Flow::Halt => 2,
                            }] += 1;
                            assert_eq!(
                                (meta.short_words, meta.routine_words),
                                (short, routine),
                                "{inst:?} {sequence:?}: words"
                            );
                        }
                        (Err(want), Err(got)) => {
                            assert_eq!(got, want, "{inst:?} {sequence:?}");
                            exits[3] += 1;
                        }
                        (want, got) => panic!("{inst:?} {sequence:?}: {want:?} vs {got:?}"),
                    }
                }
            }
        }
        // Every kind of exit was exercised.
        assert!(exits.iter().all(|&n| n > 0), "exits {exits:?}");
    }

    #[test]
    fn every_template_fits_a_line() {
        let lib = RoutineLib::new();
        let mut rng = hlr::rng::Rng::new(SEED);
        let mut line = Line::EMPTY;
        let mut longest = 0;
        for (inst, next) in isa_sample(8, || rng.next_u64()) {
            let meta = line.compile(&lib, &Template::new(inst, next)).unwrap();
            longest = longest.max(meta.len());
        }
        assert_eq!(longest, 12, "a fused compare-and-branch");
    }

    #[test]
    fn an_oversized_sequence_is_malformed() {
        let lib = RoutineLib::new();
        let mut line = Line::EMPTY;
        line.compile(&lib, &Template::new(dir::Inst::Write, 1))
            .unwrap();
        let long = [ShortInstr::Call(RoutineId::StoreArrLocal); 3];
        let err = line.compile(&lib, &long).unwrap_err();
        assert!(matches!(err, Trap::Malformed(_)), "{err:?}");
        assert!(
            line.meta().is_empty(),
            "a failed compile leaves the slot empty"
        );
        let calls = [ShortInstr::Call(RoutineId::WriteR); MAX_LINE_CALLS + 1];
        assert!(matches!(
            line.compile(&lib, &calls),
            Err(Trap::Malformed(_))
        ));
        line.compile(&lib, &calls[..MAX_LINE_CALLS]).unwrap();
        assert_eq!(line.meta().calls().len(), MAX_LINE_CALLS);
    }

    #[test]
    fn traced_lines_report_routine_edges() {
        let lib = RoutineLib::new();
        let program = program();
        let mut line = Line::EMPTY;
        line.compile(&lib, &Template::new(dir::Inst::Bin(dir::AluOp::Add), 4))
            .unwrap();
        let mut e = Engine::new(&program, 4);
        e.exec_short(ShortInstr::Push(crate::PushMode::Imm(2)))
            .unwrap();
        e.exec_short(ShortInstr::Push(crate::PushMode::Imm(3)))
            .unwrap();
        let mut edges = Vec::new();
        let flow = e.exec_line_traced(&line, |edge| edges.push(edge)).unwrap();
        assert_eq!(flow, Flow::Goto(4));
        let id = RoutineId::Bin(dir::AluOp::Add);
        assert_eq!(edges, [Edge::Enter(id), Edge::Exit(id, 2)]);
        // A halting routine exits with the words it retired.
        line.compile(&lib, &Template::new(dir::Inst::Halt, 0))
            .unwrap();
        edges.clear();
        assert_eq!(
            e.exec_line_traced(&line, |edge| edges.push(edge)).unwrap(),
            Flow::Halt
        );
        assert_eq!(
            edges,
            [
                Edge::Enter(RoutineId::HaltR),
                Edge::Exit(RoutineId::HaltR, 1)
            ]
        );
        // A trapping routine is entered but never exits.
        line.compile(&lib, &Template::new(dir::Inst::Bin(dir::AluOp::Div), 4))
            .unwrap();
        e.exec_short(ShortInstr::Push(crate::PushMode::Imm(0)))
            .unwrap();
        edges.clear();
        let trap = e
            .exec_line_traced(&line, |edge| edges.push(edge))
            .unwrap_err();
        assert_eq!(trap, Trap::DivByZero);
        assert_eq!(edges, [Edge::Enter(RoutineId::Bin(dir::AluOp::Div))]);
    }
}
