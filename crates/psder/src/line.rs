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
//! retires, where its inlined routines begin and end, and its exit, so a
//! cost model can charge the whole line in one add per component.
//!
//! Lowering specialises further, to the op statistics of real programs:
//!
//! * **Exit folding.** A trailing `INTERP` immediate compiles to no op at
//!   all: it becomes the line's [`LineMeta::exit`], returned once the ops
//!   run out.
//! * **Superoperators.** A CALL whose routine has a frequent shape — with
//!   the two immediates pushed before it and the `INTERP`-stack after it,
//!   where the shape includes them — compiles to one op instead of the
//!   routine's micro-ops: [`Op::StackBin`], [`Op::Branch`], the two
//!   global array accesses, [`Op::DirCall`] and [`Op::DirRet`].
//!   [`Op::expansion`] defines each one as the ops it replaces. A superop spans exactly one inlined routine, whose
//!   [`Inlined`] range is the single op, so routine edges stay exact.
//!
//! Every superop is *check-then-commit*: it tests every condition its
//! expansion could trap on (stack depth, divisor, index range, slot
//! range, depth limit, address range) before it has any side effect, and
//! when one fails it runs its expansion op by op from the unchanged
//! state. A trapping superop therefore leaves exactly the partial state,
//! and raises exactly the trap, of the words run one by one.
//!
//! Machines never call [`Line::compile`] themselves: fusion and exit
//! folding depend only on an instruction's shape, so
//! [`stencil`](crate::stencil) compiles each shape once and every
//! translation event copies that line and patches its operands in.
//! Compiling from words is left to the stencil builder and to the tests
//! that check a stamped line against the words it stands for.
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
use dir::AluOp;

use crate::micro::{MicroOp, MicroWord};
use crate::short::{InterpMode, PopMode, PushMode, RoutineId, ShortInstr};

/// Capacity of one line in ops. The longest template (a fused
/// compare-and-branch: four pushes, a four-word routine and `INTERP`)
/// needs twelve.
pub const MAX_LINE_OPS: usize = 16;

/// Routines one line may inline. A template calls at most one.
pub const MAX_LINE_CALLS: usize = 4;

/// One op of a compiled line: a short word's action, one micro-op of an
/// inlined semantic routine, or a superoperator standing for a routine
/// together with the words around it ([`Op::expansion`]).
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
    /// `CALL Bin(op)`: pops `b` then `a`, pushes `a op b`.
    StackBin(AluOp),
    /// `PUSH z; PUSH nz; CALL Select; INTERP`-stack: pops the condition
    /// and goes to `z` when it is zero, else to `nz`.
    Branch(u32, u32),
    /// `PUSH base; PUSH len; CALL LoadArrGlobal`.
    LoadArrGlobal(u32, u32),
    /// `PUSH base; PUSH len; CALL StoreArrGlobal`.
    StoreArrGlobal(u32, u32),
    /// `PUSH proc; PUSH next; CALL DirCall; INTERP`-stack.
    DirCall(u32, u32),
    /// `CALL DirRet; INTERP`-stack.
    DirRet,
}

// One op is two words: the line slot and every DTB way's line are sized by it.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// What a superoperator stands for: the two immediates pushed before its
/// routine, if any; the routine; and whether an `INTERP`-stack follows.
type Shape = (Option<[u32; 2]>, RoutineId, bool);

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

    /// The superoperator's shape; `None` for a plain op. The one table
    /// between superops and the routines they stand for.
    fn shape(self) -> Option<Shape> {
        use RoutineId as R;
        Some(match self {
            Op::StackBin(op) => (None, R::Bin(op), false),
            Op::Branch(z, nz) => (Some([z, nz]), R::Select, true),
            Op::LoadArrGlobal(base, len) => (Some([base, len]), R::LoadArrGlobal, false),
            Op::StoreArrGlobal(base, len) => (Some([base, len]), R::StoreArrGlobal, false),
            Op::DirCall(proc, next) => (Some([proc, next]), R::DirCall, true),
            Op::DirRet => (None, R::DirRet, true),
            _ => return None,
        })
    }

    /// The superoperator for a `CALL` of `routine`, given the immediates
    /// the two words before it pushed (when both fit a `u32`) and whether
    /// an `INTERP`-stack follows it: the candidate whose [`Op::shape`]
    /// names that routine and needs no word the sequence lacks.
    fn fuse(routine: RoutineId, imms: Option<[u32; 2]>, then_interp: bool) -> Option<(Op, Shape)> {
        let [a, b] = imms.unwrap_or_default();
        // `StackBin` takes its operator from a `Bin` routine; for any
        // other routine its candidate cannot match, whatever the operator.
        let alu = match routine {
            RoutineId::Bin(alu) => alu,
            _ => AluOp::Add,
        };
        [
            Op::StackBin(alu),
            Op::Branch(a, b),
            Op::LoadArrGlobal(a, b),
            Op::StoreArrGlobal(a, b),
            Op::DirCall(a, b),
            Op::DirRet,
        ]
        .into_iter()
        .filter_map(|op| Some((op, op.shape()?)))
        .find(|&(_, (pushed, id, interp))| {
            id == routine && (pushed.is_none() || imms.is_some()) && (then_interp || !interp)
        })
    }

    /// The plain ops this op stands for, in order: a superoperator's
    /// pushes, its routine's micro-ops and its `INTERP`-stack, exactly as
    /// the words lower without fusion. A plain op stands for itself.
    ///
    /// ```
    /// use dir::AluOp;
    /// use psder::line::Op;
    /// use psder::micro::{MicroOp::*, Reg::*};
    ///
    /// let add = Alu { op: AluOp::Add, a: A, b: B, dst: R };
    /// let ops: Vec<Op> = Op::StackBin(AluOp::Add).expansion().collect();
    /// assert_eq!(ops, [Op::Micro(Pop(B)), Op::Micro(Pop(A)), Op::Micro(add), Op::Micro(Push(R))]);
    /// assert_eq!(Op::PopDiscard.expansion().collect::<Vec<_>>(), [Op::PopDiscard]);
    /// ```
    pub fn expansion(self) -> impl Iterator<Item = Op> {
        let (imms, routine, tail) = match self.shape() {
            Some((imms, id, interp)) => (
                imms,
                crate::RoutineLib::shared().inlined(id).ops,
                interp.then_some(Op::InterpStack),
            ),
            None => (None, &[][..], Some(self)),
        };
        imms.into_iter()
            .flatten()
            .map(|v| Op::PushImm(i64::from(v)))
            .chain(routine.iter().copied())
            .chain(tail)
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

/// One routine inlined into a line: ops `start..end` are its micro-ops,
/// or the one superoperator standing for it.
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
    /// Where the line goes when its ops run out.
    pub(crate) exit: Flow,
    calls: [Inlined; MAX_LINE_CALLS],
}

impl LineMeta {
    /// The ops the line holds.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the line holds no ops: an empty or dropped line, or one
    /// whose only word was a folded `INTERP` immediate.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The routines inlined into the line, in execution order.
    pub fn calls(&self) -> &[Inlined] {
        &self.calls[..usize::from(self.n_calls)]
    }

    /// Where the line goes once its ops run out without a superop or a
    /// routine ending it: the target of a folded trailing `INTERP`
    /// immediate, or [`Flow::Continue`] when the sequence had none.
    pub fn exit(&self) -> Flow {
        self.exit
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
    pub(crate) ops: [Op; MAX_LINE_OPS],
    pub(crate) meta: LineMeta,
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
            exit: Flow::Continue,
            calls: [NO_CALL; MAX_LINE_CALLS],
        },
    };

    /// Compiles `words` into this slot, replacing what it held, and
    /// returns the line's constant facts. No allocation: the slot is
    /// rewritten in place.
    ///
    /// ```
    /// use dir::{AluOp, Inst};
    /// use psder::line::{Flow, Line, Op};
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
    /// // MUL is CALL Bin(Mul); INTERP: the routine fuses into one
    /// // superop and the INTERP folds into the line's exit.
    /// assert_eq!(line.meta().short_words, 2);
    /// assert_eq!(line.meta().routine_words, 2);
    /// assert_eq!(line.ops(), [Op::StackBin(AluOp::Mul)]);
    /// assert_eq!(line.meta().exit(), Flow::Goto(3));
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

    /// Lowers `words` into the cleared slot, fusing superoperators and
    /// folding the exit as it goes.
    fn fill(&mut self, lib: &crate::RoutineLib, words: &[ShortInstr]) -> Result<(), Trap> {
        const TOO_LONG: Trap = Trap::Malformed("translation exceeds the line capacity");
        const INTERP_STACK: ShortInstr = ShortInstr::Interp(InterpMode::Stack);
        let meta = &mut self.meta;
        let mut len = 0usize;
        let mut rest = words;
        while let Some((&word, tail)) = rest.split_first() {
            rest = tail;
            meta.short_words += 1;
            let id = match Op::lower(word) {
                Ok(Op::InterpImm(addr)) => {
                    meta.exit = Flow::Goto(addr);
                    break;
                }
                Ok(op) => {
                    *self.ops.get_mut(len).ok_or(TOO_LONG)? = op;
                    len += 1;
                    if op == Op::InterpStack {
                        break;
                    }
                    continue;
                }
                Err(id) => id,
            };
            let routine = lib.inlined(id);
            let imms = match self.ops[..len] {
                [.., Op::PushImm(a), Op::PushImm(b)] => u32::try_from(a)
                    .ok()
                    .zip(u32::try_from(b).ok())
                    .map(|(a, b)| [a, b]),
                _ => None,
            };
            let then_interp = rest.first() == Some(&INTERP_STACK);
            let (start, end, ends_line) = match Op::fuse(id, imms, then_interp) {
                Some((op, (pushed, _, interp))) => {
                    let start = len - if pushed.is_some() { 2 } else { 0 };
                    *self.ops.get_mut(start).ok_or(TOO_LONG)? = op;
                    if interp {
                        // The INTERP-stack is part of the superop.
                        rest = &rest[1..];
                        meta.short_words += 1;
                    }
                    (start, start + 1, interp)
                }
                None => {
                    let end = len + routine.ops.len();
                    let slot = self.ops.get_mut(len..end).ok_or(TOO_LONG)?;
                    slot.copy_from_slice(routine.ops);
                    (len, end, false)
                }
            };
            let call = meta.calls.get_mut(usize::from(meta.n_calls));
            *call.ok_or(TOO_LONG)? = Inlined {
                id,
                start: start as u8,
                end: end as u8,
                words: routine.words as u8,
            };
            meta.n_calls += 1;
            meta.routine_words += routine.words;
            len = end;
            if routine.halts || ends_line {
                break;
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
        self.meta = Line::EMPTY.meta;
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
    use std::collections::BTreeMap;

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

    /// `sequence` lowered without fusion or exit folding: one op per
    /// short word, each routine's micro-ops inlined, cut at the first
    /// terminator.
    fn unfused(lib: &RoutineLib, sequence: &[ShortInstr]) -> Vec<Op> {
        let mut ops = Vec::new();
        for &word in sequence {
            match Op::lower(word) {
                Ok(op) => {
                    ops.push(op);
                    if matches!(op, Op::InterpImm(_) | Op::InterpStack) {
                        break;
                    }
                }
                Err(id) => {
                    let routine = lib.inlined(id);
                    ops.extend_from_slice(routine.ops);
                    if routine.halts {
                        break;
                    }
                }
            }
        }
        ops
    }

    fn program() -> dir::program::Program {
        // Arrays larger than the small samples' bases, so in-range
        // indices reach valid slots.
        let source = "int g[12]; int h;
            proc f(int a, int b) -> int begin int c[12]; return a + b; end
            proc k(int a) -> int begin return a; end
            proc main() begin write f(1, 2) + k(3); end";
        dir::compiler::compile(&hlr::compile(source).unwrap())
    }

    /// A seeded random engine state: globals, usually a callee frame,
    /// return addresses and an operand stack of small or wide values —
    /// often only 0, 1 or 2 of them, so superops find too few operands.
    fn random_engine(program: &dir::program::Program, rng: &mut hlr::rng::Rng) -> Engine {
        use crate::micro::MicroOp::{NewFrame, Pop, PushRa};
        use crate::short::{PopMode, PushMode};
        let mut e = Engine::new(program, 4);
        // Small values include zero divisors and out-of-range indices.
        let value = |rng: &mut hlr::rng::Rng| -> i64 {
            match rng.next_u64() % 4 {
                0 => rng.next_u64() as i64,
                _ => (rng.next_u64() % 8) as i64 - 1,
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
        if !rng.next_u64().is_multiple_of(4) {
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
        let depth = match rng.next_u64() % 2 {
            0 => rng.next_u64() % 3,
            _ => rng.next_u64() % 8,
        };
        for _ in 0..depth {
            let v = value(rng);
            push(&mut e, v);
        }
        e
    }

    /// The superop a line holds, if any: a template calls at most one
    /// routine.
    fn superop(line: &Line) -> Option<Op> {
        line.ops().iter().copied().find(|op| op.shape().is_some())
    }

    /// The variant name of a superop, e.g. `StackBin`.
    fn kind(op: Op) -> String {
        let name = format!("{op:?}");
        name.split('(').next().unwrap().to_string()
    }

    #[test]
    fn lines_equal_word_by_word_execution() {
        let lib = RoutineLib::new();
        let program = program();
        let mut rng = hlr::rng::Rng::new(SEED);
        // Wide operands (mostly out-of-range slots: traps) and small ones
        // (mostly valid slots and addresses: clean exits).
        let mut sample = isa_sample(4, || rng.next_u64());
        sample.extend(isa_sample(8, || rng.next_u64() % (8 << 32)));
        let mut line = Line::EMPTY;
        let mut exits = [0u32; 4];
        // Per superop kind: [fast-path exits, fallback exits].
        let mut superops: BTreeMap<String, [u32; 2]> = BTreeMap::new();
        for &(inst, next) in &sample {
            let template = Template::new(inst, next);
            let truncated = &template[..template.len() - 1];
            for sequence in [&template[..], truncated] {
                let meta = *line.compile(&lib, sequence).unwrap();
                // The superops and the exit stand for exactly the ops
                // the words lower to without fusion.
                let mut expanded: Vec<Op> =
                    line.ops().iter().flat_map(|op| op.expansion()).collect();
                if let Flow::Goto(addr) = meta.exit() {
                    expanded.push(Op::InterpImm(addr));
                }
                assert_eq!(expanded, unfused(&lib, sequence), "{inst:?} {sequence:?}");
                let fused = superop(&line);
                for _ in 0..8 {
                    let start = random_engine(&program, &mut rng);
                    let mut oracle = start.clone();
                    let want = word_by_word(&mut oracle, &lib, sequence);
                    let mut threaded = start;
                    let mut edges = Vec::new();
                    let got = threaded.exec_line_traced(&line, |edge| edges.push(edge));
                    assert_eq!(threaded, oracle, "{inst:?} {sequence:?}: state");
                    // A superop that exits its routine took the fast path;
                    // one that traps inside it fell back to its expansion.
                    if let (Some(op), Some(&Edge::Enter(_))) = (fused, edges.first()) {
                        let path = usize::from(got.is_err() && edges.len() == 1);
                        superops.entry(kind(op)).or_default()[path] += 1;
                    }
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
        // Every superop ran both its fast path and its fallback.
        let kinds: Vec<&str> = superops.keys().map(String::as_str).collect();
        assert_eq!(
            kinds,
            [
                "Branch",
                "DirCall",
                "DirRet",
                "LoadArrGlobal",
                "StackBin",
                "StoreArrGlobal"
            ]
        );
        assert!(
            superops.values().all(|paths| paths.iter().all(|&n| n > 0)),
            "superop [fast, fallback] exits {superops:?}"
        );
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
        assert_eq!(line.ops(), [Op::StackBin(dir::AluOp::Div)]);
        assert_eq!(edges, [Edge::Enter(RoutineId::Bin(dir::AluOp::Div))]);
        // So is an array access whose index is out of range.
        let load = dir::Inst::LoadArrGlobal { base: 0, len: 4 };
        line.compile(&lib, &Template::new(load, 5)).unwrap();
        assert_eq!(line.ops(), [Op::LoadArrGlobal(0, 4)]);
        e.exec_short(ShortInstr::Push(crate::PushMode::Imm(4)))
            .unwrap();
        edges.clear();
        let trap = e
            .exec_line_traced(&line, |edge| edges.push(edge))
            .unwrap_err();
        assert_eq!(trap, Trap::IndexOutOfBounds { index: 4, len: 4 });
        assert_eq!(edges, [Edge::Enter(RoutineId::LoadArrGlobal)]);
    }
}
