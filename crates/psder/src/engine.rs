//! The execution core shared by every machine configuration.
//!
//! The engine holds the architectural state the paper's UHM exposes to its
//! two instruction units — operand stack, return-address stack, frame
//! storage, global area, register file and output — and knows how to apply
//! one micro-word (IU1), one short instruction (IU2) or one compiled
//! [`Line`] — all three through one per-op function, so they cannot
//! disagree. It deliberately
//! performs **no fetch, no decode and no cycle accounting**: those policies
//! are what distinguish the interpreter, DTB and i-cache machines, and they
//! live in the `uhm` crate. This split keeps the semantics testable in
//! isolation and guarantees all machines compute identical results.
//!
//! A line's superoperators run check-then-commit: each tests every
//! condition its [`expansion`](Op::expansion) could trap on before it
//! touches any state, writes the registers the expansion writes, and
//! when a test fails runs the expansion op by op through the same per-op
//! function instead. A trap therefore always comes from the plain ops,
//! with the partial state and the trap order of the words run one by one.
//! A line whose ops run out returns its [`exit`](crate::LineMeta::exit):
//! the trailing `INTERP` immediate folded at compile time.

use dir::exec::Trap;
use dir::program::Program;
use dir::AluOp;

use crate::line::{Edge, Flow, Line, Op};
use crate::micro::{MicroOp, MicroWord, Reg, REG_COUNT};
use crate::short::{RoutineId, ShortInstr};

/// Per-procedure metadata the engine needs at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProcMeta {
    entry: u32,
    n_args: u32,
    frame_size: u32,
}

/// Effect of executing one micro-word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroEffect {
    /// Continue with the next word.
    Continue,
    /// The machine halted.
    Halt,
}

/// Effect of executing one short instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortEffect {
    /// Continue with the next short instruction.
    Continue,
    /// IU2 relinquishes control to IU1 for this semantic routine.
    CallRoutine(RoutineId),
    /// INTERP: continue at this DIR address.
    Interp(u32),
}

/// The architectural state of the universal host machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engine {
    /// Operand stack (shared by IU2 pushes/pops and the routines).
    stack: Vec<i64>,
    /// DIR-level return-address stack.
    ra_stack: Vec<u32>,
    /// Frame base offsets into `slots`.
    frames: Vec<usize>,
    /// Flat storage for all live frames.
    slots: Vec<i64>,
    /// Global area.
    globals: Vec<i64>,
    /// Micro register file.
    regs: [i64; REG_COUNT],
    /// Program output.
    output: Vec<i64>,
    procs: Vec<ProcMeta>,
    max_depth: u32,
}

impl Engine {
    /// Creates the engine for a program, with the prelude's empty frame
    /// in place.
    pub fn new(program: &Program, max_depth: u32) -> Engine {
        Engine {
            stack: Vec::with_capacity(64),
            ra_stack: Vec::with_capacity(64),
            frames: vec![0],
            slots: Vec::new(),
            globals: vec![0; program.globals_size as usize],
            regs: [0; REG_COUNT],
            output: Vec::new(),
            procs: program
                .procs
                .iter()
                .map(|p| ProcMeta {
                    entry: p.entry,
                    n_args: p.n_args,
                    frame_size: p.frame_size,
                })
                .collect(),
            max_depth,
        }
    }

    /// The program output so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Consumes the engine, returning the output.
    pub fn into_output(self) -> Vec<i64> {
        self.output
    }

    /// Current call depth (frames live).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Current operand-stack height (for diagnostics and tests).
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    fn reg(&self, r: Reg) -> i64 {
        self.regs[r as usize]
    }

    fn set_reg(&mut self, r: Reg, v: i64) {
        self.regs[r as usize] = v;
    }

    #[inline]
    fn pop(&mut self) -> Result<i64, Trap> {
        self.stack
            .pop()
            .ok_or(Trap::Malformed("operand stack underflow"))
    }

    fn frame_base(&self) -> Result<usize, Trap> {
        self.frames
            .last()
            .copied()
            .ok_or(Trap::Malformed("no active frame"))
    }

    #[inline]
    fn frame_slot(&mut self, slot: i64) -> Result<&mut i64, Trap> {
        let base = self.frame_base()?;
        if slot < 0 {
            return Err(Trap::Malformed("negative frame slot"));
        }
        self.slots
            .get_mut(base + slot as usize)
            .ok_or(Trap::Malformed("frame slot out of range"))
    }

    #[inline]
    fn global_slot(&mut self, slot: i64) -> Result<&mut i64, Trap> {
        if slot < 0 {
            return Err(Trap::Malformed("negative global slot"));
        }
        self.globals
            .get_mut(slot as usize)
            .ok_or(Trap::Malformed("global slot out of range"))
    }

    /// Applies one short-format instruction (IU2).
    ///
    /// # Errors
    ///
    /// Traps on stack underflow or invalid slots (which translator-produced
    /// code never exhibits).
    pub fn exec_short(&mut self, inst: ShortInstr) -> Result<ShortEffect, Trap> {
        let op = match Op::lower(inst) {
            Ok(op) => op,
            Err(id) => return Ok(ShortEffect::CallRoutine(id)),
        };
        Ok(match self.step(op)? {
            Flow::Goto(addr) => ShortEffect::Interp(addr),
            // Only a micro-op halts.
            Flow::Continue | Flow::Halt => ShortEffect::Continue,
        })
    }

    /// Applies one long-format micro-word (IU1).
    ///
    /// # Errors
    ///
    /// Propagates semantic traps (division by zero, bounds failures, call
    /// depth exhaustion) and malformed-state traps.
    pub fn exec_word(&mut self, word: &MicroWord) -> Result<MicroEffect, Trap> {
        for &op in word.ops() {
            if self.micro(op)? == Flow::Halt {
                return Ok(MicroEffect::Halt);
            }
        }
        Ok(MicroEffect::Continue)
    }

    /// Runs a compiled line to its exit: the `INTERP` target, a halt, or
    /// [`Flow::Continue`] when the line has no terminator.
    ///
    /// # Errors
    ///
    /// The trap of the first op that faults; the ops before it have taken
    /// effect, exactly as when the words run one by one.
    #[inline]
    pub fn exec_line(&mut self, line: &Line) -> Result<Flow, Trap> {
        self.exec_ops(line).map_err(|(_, trap)| trap)
    }

    /// [`Engine::exec_line`], then reports to `edge` the entry and exit of
    /// each inlined routine control reached, in order. A routine that
    /// traps is entered but never exits, and one after the trap is never
    /// entered, as when the words run one by one.
    ///
    /// # Errors
    ///
    /// As [`Engine::exec_line`].
    pub fn exec_line_traced(
        &mut self,
        line: &Line,
        mut edge: impl FnMut(Edge),
    ) -> Result<Flow, Trap> {
        let result = self.exec_ops(line);
        // The ops before `trapped` completed; the op at `trapped` faulted.
        let trapped = result.as_ref().map_or_else(|&(at, _)| at, |_| usize::MAX);
        for call in line.meta().calls() {
            if usize::from(call.start) > trapped {
                break;
            }
            edge(Edge::Enter(call.id));
            if usize::from(call.end) > trapped {
                break;
            }
            edge(Edge::Exit(call.id, u32::from(call.words)));
        }
        result.map_err(|(_, trap)| trap)
    }

    /// Runs the line's ops in order, then takes its exit; on a trap, also
    /// returns the index of the op that faulted.
    #[inline(always)]
    fn exec_ops(&mut self, line: &Line) -> Result<Flow, (usize, Trap)> {
        for (at, &op) in line.ops().iter().enumerate() {
            match self.step(op) {
                Ok(Flow::Continue) => {}
                Ok(flow) => return Ok(flow),
                Err(trap) => return Err((at, trap)),
            }
        }
        Ok(line.meta().exit())
    }

    /// The semantics of one op: every executor — word by word or by
    /// line — goes through here.
    #[inline(always)]
    fn step(&mut self, op: Op) -> Result<Flow, Trap> {
        match op {
            Op::PushImm(v) => self.stack.push(v),
            Op::PushLocal(s) => {
                let v = *self.frame_slot(s as i64)?;
                self.stack.push(v);
            }
            Op::PushGlobal(s) => {
                let v = *self.global_slot(s as i64)?;
                self.stack.push(v);
            }
            Op::PopDiscard => {
                self.pop()?;
            }
            Op::PopLocal(s) => {
                let v = self.pop()?;
                *self.frame_slot(s as i64)? = v;
            }
            Op::PopGlobal(s) => {
                let v = self.pop()?;
                *self.global_slot(s as i64)? = v;
            }
            Op::InterpImm(addr) => return Ok(Flow::Goto(addr)),
            Op::InterpStack => {
                let v = self.pop()?;
                let addr = u32::try_from(v).map_err(|_| Trap::Malformed("bad DIR address"))?;
                return Ok(Flow::Goto(addr));
            }
            Op::Micro(op) => return self.micro(op),
            // A superop's fast path yields `None` when one of its checks
            // fails; its expansion then runs instead.
            Op::StackBin(alu) => return self.stack_bin(alu).map_or_else(|| self.expand(op), Ok),
            Op::Branch(z, nz) => return self.branch(z, nz).map_or_else(|| self.expand(op), Ok),
            Op::LoadArrGlobal(base, len) => {
                return self.load_arr(base, len).map_or_else(|| self.expand(op), Ok)
            }
            Op::StoreArrGlobal(base, len) => {
                return self
                    .store_arr(base, len)
                    .map_or_else(|| self.expand(op), Ok)
            }
            Op::DirCall(proc, next) => {
                return self
                    .dir_call(proc, next)
                    .map_or_else(|| self.expand(op), Ok)
            }
            Op::DirRet => return self.dir_ret().map_or_else(|| self.expand(op), Ok),
        }
        Ok(Flow::Continue)
    }

    /// Runs a superoperator's expansion op by op from the unchanged
    /// state, so it traps exactly as the words do.
    #[cold]
    #[inline(never)]
    fn expand(&mut self, op: Op) -> Result<Flow, Trap> {
        for op in op.expansion() {
            match self.step(op)? {
                Flow::Continue => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Continue)
    }

    /// [`Op::StackBin`]: `Pop B; Pop A; R := A op B; Push R`.
    #[inline(always)]
    fn stack_bin(&mut self, op: AluOp) -> Option<Flow> {
        let n = self.stack.len();
        let [.., a, b] = self.stack[..] else {
            return None;
        };
        let v = op.apply(a, b).ok()?;
        self.stack[n - 2] = v;
        self.stack.truncate(n - 1);
        self.set_reg(Reg::A, a);
        self.set_reg(Reg::B, b);
        self.set_reg(Reg::R, v);
        Some(Flow::Continue)
    }

    /// [`Op::Branch`]: `Pop D; Pop C; Pop A; R := A == 0 ? C : D`, then
    /// `INTERP` to `R`. Both targets fit a DIR address.
    #[inline(always)]
    fn branch(&mut self, z: u32, nz: u32) -> Option<Flow> {
        let cond = self.stack.pop()?;
        let to = if cond == 0 { z } else { nz };
        self.set_reg(Reg::A, cond);
        self.set_reg(Reg::C, i64::from(z));
        self.set_reg(Reg::D, i64::from(nz));
        self.set_reg(Reg::R, i64::from(to));
        Some(Flow::Goto(to))
    }

    /// The slot address an array access at `index` selects, when `index`
    /// is in `0..len`.
    #[inline(always)]
    fn arr_index(index: i64, base: u32, len: u32) -> Option<i64> {
        (0..i64::from(len))
            .contains(&index)
            .then(|| i64::from(base) + index)
    }

    /// [`Op::LoadArrGlobal`]: `Pop B; Pop A; Pop C; check C in 0..B;
    /// A := A + C; R := global[A]; Push R`.
    #[inline(always)]
    fn load_arr(&mut self, base: u32, len: u32) -> Option<Flow> {
        let &index = self.stack.last()?;
        let addr = Self::arr_index(index, base, len)?;
        let v = *self.global_slot(addr).ok()?;
        *self.stack.last_mut()? = v;
        self.set_reg(Reg::A, addr);
        self.set_reg(Reg::B, i64::from(len));
        self.set_reg(Reg::C, index);
        self.set_reg(Reg::R, v);
        Some(Flow::Continue)
    }

    /// [`Op::StoreArrGlobal`]: `Pop B; Pop A; Pop C; Pop D; check D in
    /// 0..B; A := A + D; global[A] := C`.
    #[inline(always)]
    fn store_arr(&mut self, base: u32, len: u32) -> Option<Flow> {
        let n = self.stack.len();
        let [.., index, v] = self.stack[..] else {
            return None;
        };
        let addr = Self::arr_index(index, base, len)?;
        *self.global_slot(addr).ok()? = v;
        self.stack.truncate(n - 2);
        self.set_reg(Reg::A, addr);
        self.set_reg(Reg::B, i64::from(len));
        self.set_reg(Reg::C, v);
        self.set_reg(Reg::D, index);
        Some(Flow::Continue)
    }

    /// [`Op::DirCall`]: `Pop B; Pop A; push B on the return-address
    /// stack; NewFrame A; R := entry of A`, then `INTERP` to `R`.
    #[inline(always)]
    fn dir_call(&mut self, proc: u32, next: u32) -> Option<Flow> {
        if self.frames.len() as u32 > self.max_depth {
            return None;
        }
        let meta = self.proc_meta(i64::from(proc)).ok()?;
        let args = self.stack.len().checked_sub(meta.n_args as usize)?;
        self.ra_stack.push(next);
        let base = self.slots.len();
        self.slots.resize(base + meta.frame_size as usize, 0);
        self.slots[base..base + meta.n_args as usize].copy_from_slice(&self.stack[args..]);
        self.stack.truncate(args);
        self.frames.push(base);
        self.set_reg(Reg::A, i64::from(proc));
        self.set_reg(Reg::B, i64::from(next));
        self.set_reg(Reg::R, i64::from(meta.entry));
        Some(Flow::Goto(meta.entry))
    }

    /// [`Op::DirRet`]: `DropFrame; R := pop the return-address stack`,
    /// then `INTERP` to `R`.
    #[inline(always)]
    fn dir_ret(&mut self) -> Option<Flow> {
        if self.frames.len() <= 1 {
            return None;
        }
        let to = self.ra_stack.pop()?;
        let base = self.frames.pop()?;
        self.slots.truncate(base);
        self.set_reg(Reg::R, i64::from(to));
        Some(Flow::Goto(to))
    }

    /// The semantics of one micro-op: [`Flow::Halt`] or
    /// [`Flow::Continue`].
    #[inline(always)]
    fn micro(&mut self, op: MicroOp) -> Result<Flow, Trap> {
        match op {
            MicroOp::Pop(r) => {
                let v = self.pop()?;
                self.set_reg(r, v);
            }
            MicroOp::Push(r) => self.stack.push(self.reg(r)),
            MicroOp::Alu { op, a, b, dst } => {
                let (va, vb) = (self.reg(a), self.reg(b));
                let v = op.apply(va, vb).map_err(|_| Trap::DivByZero)?;
                self.set_reg(dst, v);
            }
            MicroOp::NegOp { src, dst } => self.set_reg(dst, self.reg(src).wrapping_neg()),
            MicroOp::NotOp { src, dst } => self.set_reg(dst, (self.reg(src) == 0) as i64),
            MicroOp::SelectZero {
                cond,
                if_zero,
                if_nonzero,
                dst,
            } => {
                let v = if self.reg(cond) == 0 {
                    self.reg(if_zero)
                } else {
                    self.reg(if_nonzero)
                };
                self.set_reg(dst, v);
            }
            MicroOp::CheckIdx { idx, len } => {
                let index = self.reg(idx);
                let len = self.reg(len);
                if index < 0 || index >= len {
                    return Err(Trap::IndexOutOfBounds {
                        index,
                        len: len as u32,
                    });
                }
            }
            MicroOp::LoadFrame { addr, dst } => {
                let v = *self.frame_slot(self.reg(addr))?;
                self.set_reg(dst, v);
            }
            MicroOp::StoreFrame { addr, src } => {
                let v = self.reg(src);
                *self.frame_slot(self.reg(addr))? = v;
            }
            MicroOp::LoadGlobal { addr, dst } => {
                let v = *self.global_slot(self.reg(addr))?;
                self.set_reg(dst, v);
            }
            MicroOp::StoreGlobal { addr, src } => {
                let v = self.reg(src);
                *self.global_slot(self.reg(addr))? = v;
            }
            MicroOp::Output(r) => self.output.push(self.reg(r)),
            MicroOp::PushRa(r) => {
                let v = self.reg(r);
                let addr = u32::try_from(v).map_err(|_| Trap::Malformed("bad return address"))?;
                self.ra_stack.push(addr);
            }
            MicroOp::PopRa(dst) => {
                let v = self
                    .ra_stack
                    .pop()
                    .ok_or(Trap::Malformed("return-address stack underflow"))?;
                self.set_reg(dst, v as i64);
            }
            MicroOp::NewFrame { proc } => {
                if self.frames.len() as u32 > self.max_depth {
                    return Err(Trap::DepthLimit);
                }
                let meta = self.proc_meta(self.reg(proc))?;
                let base = self.slots.len();
                self.slots.resize(base + meta.frame_size as usize, 0);
                for i in (0..meta.n_args).rev() {
                    let v = self.pop()?;
                    self.slots[base + i as usize] = v;
                }
                self.frames.push(base);
            }
            MicroOp::DropFrame => {
                if self.frames.len() <= 1 {
                    return Err(Trap::Malformed("return from prelude"));
                }
                let base = self
                    .frames
                    .pop()
                    .ok_or(Trap::Malformed("return from prelude"))?;
                self.slots.truncate(base);
            }
            MicroOp::EntryOf { proc, dst } => {
                let entry = self.proc_meta(self.reg(proc))?.entry;
                self.set_reg(dst, entry as i64);
            }
            MicroOp::HaltOp => return Ok(Flow::Halt),
        }
        Ok(Flow::Continue)
    }

    fn proc_meta(&self, index: i64) -> Result<ProcMeta, Trap> {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.procs.get(i))
            .copied()
            .ok_or(Trap::Malformed("procedure index out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::MicroOp::*;
    use crate::micro::Reg::*;
    use crate::mword;
    use crate::short::{InterpMode, PopMode, PushMode};
    use dir::AluOp;

    fn engine() -> Engine {
        let hir = hlr::compile(
            "int g;
             proc f(int a, int b) -> int begin return a + b; end
             proc main() begin write f(1, 2); end",
        )
        .unwrap();
        Engine::new(&dir::compiler::compile(&hir), 100)
    }

    #[test]
    fn push_pop_modes() {
        let mut e = engine();
        e.exec_short(ShortInstr::Push(PushMode::Imm(5))).unwrap();
        e.exec_short(ShortInstr::Pop(PopMode::Global(0))).unwrap();
        e.exec_short(ShortInstr::Push(PushMode::Global(0))).unwrap();
        assert_eq!(e.stack_len(), 1);
        e.exec_short(ShortInstr::Pop(PopMode::Discard)).unwrap();
        assert_eq!(e.stack_len(), 0);
    }

    #[test]
    fn alu_word_computes() {
        let mut e = engine();
        e.exec_short(ShortInstr::Push(PushMode::Imm(6))).unwrap();
        e.exec_short(ShortInstr::Push(PushMode::Imm(7))).unwrap();
        let effect = e.exec_word(&mword![Pop(B), Pop(A),]).unwrap();
        assert_eq!(effect, MicroEffect::Continue);
        e.exec_word(&mword![
            Alu {
                op: AluOp::Mul,
                a: A,
                b: B,
                dst: R
            },
            Push(R)
        ])
        .unwrap();
        e.exec_word(&mword![Pop(A), Output(A)]).unwrap();
        assert_eq!(e.output(), &[42]);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut e = engine();
        e.exec_short(ShortInstr::Push(PushMode::Imm(1))).unwrap();
        e.exec_short(ShortInstr::Push(PushMode::Imm(0))).unwrap();
        e.exec_word(&mword![Pop(B), Pop(A)]).unwrap();
        let r = e.exec_word(&mword![Alu {
            op: AluOp::Div,
            a: A,
            b: B,
            dst: R
        }]);
        assert_eq!(r.unwrap_err(), Trap::DivByZero);
    }

    #[test]
    fn check_idx_traps_out_of_range() {
        let mut e = engine();
        e.exec_short(ShortInstr::Push(PushMode::Imm(5))).unwrap(); // idx
        e.exec_short(ShortInstr::Push(PushMode::Imm(4))).unwrap(); // len
        e.exec_word(&mword![Pop(B), Pop(A)]).unwrap();
        let r = e.exec_word(&mword![CheckIdx { idx: A, len: B }]);
        assert_eq!(r.unwrap_err(), Trap::IndexOutOfBounds { index: 5, len: 4 });
    }

    #[test]
    fn frame_lifecycle_and_args() {
        let mut e = engine();
        // Call proc 0 (f) with args 10, 20.
        e.exec_short(ShortInstr::Push(PushMode::Imm(10))).unwrap();
        e.exec_short(ShortInstr::Push(PushMode::Imm(20))).unwrap();
        e.exec_short(ShortInstr::Push(PushMode::Imm(0))).unwrap(); // proc
        e.exec_word(&mword![Pop(A)]).unwrap();
        e.exec_word(&mword![NewFrame { proc: A }]).unwrap();
        assert_eq!(e.depth(), 2);
        // Args landed in slots 0 and 1 in order.
        e.exec_short(ShortInstr::Push(PushMode::Local(0))).unwrap();
        e.exec_short(ShortInstr::Push(PushMode::Local(1))).unwrap();
        e.exec_word(&mword![Pop(B), Pop(A)]).unwrap();
        e.exec_word(&mword![
            Alu {
                op: AluOp::Sub,
                a: A,
                b: B,
                dst: R
            },
            Output(R)
        ])
        .unwrap();
        assert_eq!(e.output(), &[-10]); // 10 - 20
        e.exec_word(&mword![DropFrame]).unwrap();
        assert_eq!(e.depth(), 1);
    }

    #[test]
    fn ra_stack_round_trips() {
        let mut e = engine();
        e.exec_short(ShortInstr::Push(PushMode::Imm(77))).unwrap();
        e.exec_word(&mword![Pop(A), PushRa(A)]).unwrap();
        e.exec_word(&mword![PopRa(R), Push(R)]).unwrap();
        let eff = e.exec_short(ShortInstr::Interp(InterpMode::Stack)).unwrap();
        assert_eq!(eff, ShortEffect::Interp(77));
    }

    #[test]
    fn call_routine_effect_defers_to_caller() {
        let mut e = engine();
        let eff = e.exec_short(ShortInstr::Call(RoutineId::WriteR)).unwrap();
        assert_eq!(eff, ShortEffect::CallRoutine(RoutineId::WriteR));
    }

    #[test]
    fn depth_limit_traps() {
        let hir = hlr::compile("proc main() begin skip; end").unwrap();
        let p = dir::compiler::compile(&hir);
        let mut e = Engine::new(&p, 1);
        e.exec_short(ShortInstr::Push(PushMode::Imm(0))).unwrap();
        e.exec_word(&mword![Pop(A)]).unwrap();
        e.exec_word(&mword![NewFrame { proc: A }]).unwrap(); // depth 2 > 1? frames.len()=1 before push -> allowed
        e.exec_short(ShortInstr::Push(PushMode::Imm(0))).unwrap();
        e.exec_word(&mword![Pop(A)]).unwrap();
        let r = e.exec_word(&mword![NewFrame { proc: A }]);
        assert_eq!(r.unwrap_err(), Trap::DepthLimit);
    }

    #[test]
    fn underflow_is_a_malformed_trap() {
        let mut e = engine();
        let r = e.exec_short(ShortInstr::Pop(PopMode::Discard));
        assert!(matches!(r.unwrap_err(), Trap::Malformed(_)));
    }

    #[test]
    fn halt_effect_surfaces() {
        let mut e = engine();
        let eff = e.exec_word(&mword![HaltOp]).unwrap();
        assert_eq!(eff, MicroEffect::Halt);
    }
}
