//! Pass 2: per-region abstract interpretation of the DIR stack machine.
//!
//! Each region (the prelude, then every procedure) is interpreted over an
//! abstract state of *(operand-stack depth, must-initialized locals)*. The
//! worklist iterates to a fixpoint with the join *equal depth, intersected
//! init sets* — the JVM verifier's discipline specialized to an untyped
//! operand stack. On a clean program this proves, per reachable path:
//!
//! - no operand-stack underflow, and a finite maximum stack depth;
//! - every `Return` executes at exactly the declared result depth;
//! - every branch lands inside the owning region;
//! - every slot operand stays inside its declared frame/global area;
//! - locals are stored before they are read (array-backed slots are
//!   exempt: frames zero-fill, so their reads are defined).
//!
//! These are exactly the malformed-program traps a loaded image must never
//! reach, so every finding here is a hard verification error — except read-before-store of a scalar that *is* stored elsewhere
//! in the region, which the runtime defines as reading zero and is
//! reported as a warning.

use std::collections::BTreeSet;

use dir::isa::{Inst, Opcode};
use dir::program::Program;

use crate::diag::{DiagCode, Diagnostic};

/// One analysis region: the prelude or a procedure body.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    /// `<prelude>` or the procedure name.
    pub name: String,
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Arguments, pre-initialized by `Call`.
    pub n_args: u32,
    /// Frame slots available.
    pub frame_size: u32,
    /// Whether `Return` must leave exactly one operand.
    pub returns_value: bool,
    /// The prelude runs in a pseudo-frame and must not `Return`.
    pub is_prelude: bool,
}

/// Decomposes a program into the prelude region followed by every
/// procedure in table order (the same contours the contextual encoders
/// key on).
pub(crate) fn regions(program: &Program) -> Vec<Region> {
    let prelude_end = program
        .procs
        .iter()
        .map(|p| p.entry)
        .min()
        .unwrap_or(program.code.len() as u32);
    let mut out = vec![Region {
        name: "<prelude>".to_string(),
        start: 0,
        end: prelude_end,
        n_args: 0,
        frame_size: 0,
        returns_value: false,
        is_prelude: true,
    }];
    out.extend(program.procs.iter().map(|p| Region {
        name: p.name.clone(),
        start: p.entry,
        end: p.end,
        n_args: p.n_args,
        frame_size: p.frame_size,
        returns_value: p.returns_value,
        is_prelude: false,
    }));
    out
}

/// Stack effect `(pops, pushes)` of every opcode whose effect is
/// shape-independent; `Call` and `Return` are frame-mediated and return
/// `None` (the interpreter handles them with procedure metadata).
pub(crate) fn basic_effect(inst: &Inst) -> Option<(u32, u32)> {
    Some(match inst.opcode() {
        Opcode::PushConst | Opcode::PushLocal | Opcode::PushGlobal => (0, 1),
        Opcode::StoreLocal
        | Opcode::StoreGlobal
        | Opcode::Pop
        | Opcode::Write
        | Opcode::JumpIfFalse
        | Opcode::JumpIfTrue => (1, 0),
        Opcode::LoadArrLocal | Opcode::LoadArrGlobal => (1, 1),
        Opcode::StoreArrLocal | Opcode::StoreArrGlobal => (2, 0),
        Opcode::Bin => (2, 1),
        Opcode::Neg | Opcode::Not => (1, 1),
        Opcode::Jump | Opcode::Halt => (0, 0),
        Opcode::BinLocals
        | Opcode::IncLocal
        | Opcode::SetLocalConst
        | Opcode::CmpConstBr
        | Opcode::CmpLocalsBr => (0, 0),
        Opcode::Call | Opcode::Return => return None,
    })
}

/// Words of a [`SlotSet`] held inline: frames of up to 256 slots, which
/// covers every frame the compiler emits for the sample and generated
/// programs, cost no allocation per worklist state.
const INLINE_WORDS: usize = 4;

/// A dense bitset over frame slots, inline for frames of up to
/// `64 * INLINE_WORDS` slots and on the heap above that.
#[derive(Debug, Clone)]
enum SlotSet {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl SlotSet {
    fn new(n: usize) -> SlotSet {
        let words = n.div_ceil(64);
        if words <= INLINE_WORDS {
            SlotSet::Inline([0; INLINE_WORDS])
        } else {
            SlotSet::Heap(vec![0; words])
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            SlotSet::Inline(w) => w,
            SlotSet::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            SlotSet::Inline(w) => w,
            SlotSet::Heap(w) => w,
        }
    }

    fn set(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Intersects in place; reports whether anything changed.
    fn intersect_with(&mut self, other: &SlotSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

/// Frame slots an instruction reads directly (not through the stack).
fn local_reads(inst: &Inst, buf: &mut Vec<u32>) {
    buf.clear();
    match *inst {
        Inst::PushLocal(s) => buf.push(s),
        Inst::BinLocals { a, b, .. } | Inst::CmpLocalsBr { a, b, .. } => {
            buf.push(a);
            buf.push(b);
        }
        Inst::IncLocal { slot, .. } | Inst::CmpConstBr { slot, .. } => buf.push(slot),
        _ => {}
    }
}

/// The frame slot an instruction writes, if any.
fn local_write(inst: &Inst) -> Option<u32> {
    match *inst {
        Inst::StoreLocal(s) => Some(s),
        Inst::BinLocals { dst, .. } => Some(dst),
        Inst::IncLocal { slot, .. } | Inst::SetLocalConst { slot, .. } => Some(slot),
        _ => None,
    }
}

/// What the abstract interpreter proved about one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSummary {
    /// `<prelude>` or the procedure name.
    pub name: String,
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Maximum operand-stack depth on any path through the region.
    pub max_stack: u32,
}

/// Runs the abstract interpreter over every region, appending findings to
/// `diags` and returning the per-region summaries.
pub(crate) fn analyze_regions(
    program: &Program,
    diags: &mut Vec<Diagnostic>,
) -> Vec<RegionSummary> {
    regions(program)
        .into_iter()
        .map(|r| {
            let max_stack = analyze_region(program, &r, diags);
            RegionSummary {
                name: r.name,
                start: r.start,
                end: r.end,
                max_stack,
            }
        })
        .collect()
}

/// Deduplicated reporting: the worklist revisits instructions as init sets
/// narrow, so each `(address, code, detail)` triple is reported once.
type Reported = BTreeSet<(u32, DiagCode, u32)>;

fn report_once(
    reported: &mut Reported,
    diags: &mut Vec<Diagnostic>,
    code: DiagCode,
    addr: u32,
    aux: u32,
    region: &str,
    message: String,
) {
    if reported.insert((addr, code, aux)) {
        diags.push(Diagnostic::at(code, addr, region, message));
    }
}

fn analyze_region(program: &Program, region: &Region, diags: &mut Vec<Diagnostic>) -> u32 {
    let code = &program.code;
    let start = region.start as usize;
    let end = region.end as usize;
    if start >= end || end > code.len() {
        return 0;
    }
    let n = end - start;
    let fs = region.frame_size as usize;

    // One scan up front for the two-tier uninitialized rule: array-backed
    // slots are exempt (zero-filled frames make their reads defined), and
    // scalars stored *somewhere* in the region downgrade a premature read
    // from error to warning.
    let mut exempt = SlotSet::new(fs);
    let mut written_anywhere = SlotSet::new(fs);
    for inst in &code[start..end] {
        if let Inst::LoadArrLocal { base, len } | Inst::StoreArrLocal { base, len } = *inst {
            for s in base..base.saturating_add(len).min(region.frame_size) {
                exempt.set(s as usize);
            }
        }
        if let Some(s) = local_write(inst) {
            if (s as usize) < fs {
                written_anywhere.set(s as usize);
            }
        }
    }

    let mut entry_init = SlotSet::new(fs);
    for a in 0..region.n_args.min(region.frame_size) {
        entry_init.set(a as usize);
    }

    let mut states: Vec<Option<(u32, SlotSet)>> = vec![None; n];
    states[0] = Some((0, entry_init));
    let mut work: Vec<usize> = vec![0];
    let mut reported = Reported::new();
    let mut uninit_reads: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut reads = Vec::new();
    let mut max_stack = 0u32;

    while let Some(rel) = work.pop() {
        let (depth, init) = states[rel].clone().expect("queued index has a state");
        let addr = (start + rel) as u32;
        let inst = code[start + rel];

        // Slot-range screening: an out-of-range operand would trap as a
        // malformed program at run time, so it is a hard error and no
        // sound state propagates past it.
        let mut slots_ok = true;
        local_reads(&inst, &mut reads);
        let write = local_write(&inst);
        for s in reads.iter().copied().chain(write) {
            if s >= region.frame_size {
                slots_ok = false;
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::SlotOutOfRange,
                    addr,
                    s,
                    &region.name,
                    format!("frame slot {s} outside declared size {}", region.frame_size),
                );
            }
        }
        match inst {
            Inst::PushGlobal(s) | Inst::StoreGlobal(s) if s >= program.globals_size => {
                slots_ok = false;
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::SlotOutOfRange,
                    addr,
                    s,
                    &region.name,
                    format!(
                        "global slot {s} outside declared size {}",
                        program.globals_size
                    ),
                );
            }
            Inst::LoadArrLocal { base, len } | Inst::StoreArrLocal { base, len }
                if base.saturating_add(len) > region.frame_size =>
            {
                slots_ok = false;
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::SlotOutOfRange,
                    addr,
                    base,
                    &region.name,
                    format!(
                        "frame array {base}+{len} outside declared size {}",
                        region.frame_size
                    ),
                );
            }
            Inst::LoadArrGlobal { base, len } | Inst::StoreArrGlobal { base, len }
                if base.saturating_add(len) > program.globals_size =>
            {
                slots_ok = false;
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::SlotOutOfRange,
                    addr,
                    base,
                    &region.name,
                    format!(
                        "global array {base}+{len} outside declared size {}",
                        program.globals_size
                    ),
                );
            }
            _ => {}
        }
        if !slots_ok {
            continue;
        }

        // Read-before-store bookkeeping (resolved to error/warning after
        // the fixpoint, when `written_anywhere` is known to be complete).
        for &s in &reads {
            if !(init.get(s as usize) || exempt.get(s as usize)) {
                uninit_reads.insert((addr, s));
            }
        }

        // Stack effect.
        let (pops, pushes) = match inst {
            Inst::Call(p) => {
                if p as usize >= program.procs.len() {
                    report_once(
                        &mut reported,
                        diags,
                        DiagCode::BadCallee,
                        addr,
                        p,
                        &region.name,
                        format!(
                            "call to procedure {p} outside table of {}",
                            program.procs.len()
                        ),
                    );
                    continue;
                }
                let callee = &program.procs[p as usize];
                (callee.n_args, callee.returns_value as u32)
            }
            Inst::Return => {
                if region.is_prelude {
                    report_once(
                        &mut reported,
                        diags,
                        DiagCode::ReturnImbalance,
                        addr,
                        0,
                        &region.name,
                        "return executes in the prelude pseudo-frame".to_string(),
                    );
                } else {
                    let want = region.returns_value as u32;
                    if depth != want {
                        report_once(
                            &mut reported,
                            diags,
                            DiagCode::ReturnImbalance,
                            addr,
                            depth,
                            &region.name,
                            format!("return at stack depth {depth}, expected {want}"),
                        );
                    }
                }
                continue; // terminal
            }
            _ => basic_effect(&inst).expect("call/return handled above"),
        };
        if depth < pops {
            report_once(
                &mut reported,
                diags,
                DiagCode::StackUnderflow,
                addr,
                depth,
                &region.name,
                format!("{:?} pops {pops} at stack depth {depth}", inst.opcode()),
            );
            continue;
        }
        let depth2 = depth - pops + pushes;
        max_stack = max_stack.max(depth).max(depth2);

        let mut init2 = init;
        if let Some(s) = write {
            init2.set(s as usize);
        }

        // Successors, screened against the code array and the owning
        // region (a branch that escapes its region would execute under the
        // wrong frame).
        let mut succs: [Option<u32>; 2] = [None, None];
        let branch_target = inst.target();
        if let Some(t) = branch_target {
            if t as usize >= code.len() {
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::JumpOutOfRange,
                    addr,
                    t,
                    &region.name,
                    format!(
                        "branch target {t} outside code of {} instructions",
                        code.len()
                    ),
                );
            } else if t < region.start || t >= region.end {
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::JumpCrossesProcedure,
                    addr,
                    t,
                    &region.name,
                    format!(
                        "branch target {t} outside owning region {}..{}",
                        region.start, region.end
                    ),
                );
            } else {
                succs[0] = Some(t);
            }
        }
        let falls_through = !matches!(inst.opcode(), Opcode::Jump | Opcode::Return | Opcode::Halt);
        if falls_through {
            let next = addr + 1;
            if next >= region.end {
                report_once(
                    &mut reported,
                    diags,
                    DiagCode::FallsThroughRegion,
                    addr,
                    0,
                    &region.name,
                    format!("{:?} falls through the region end", inst.opcode()),
                );
            } else {
                succs[1] = Some(next);
            }
        }

        for t in succs.into_iter().flatten() {
            let trel = t as usize - start;
            match &mut states[trel] {
                slot @ None => {
                    *slot = Some((depth2, init2.clone()));
                    work.push(trel);
                }
                Some((d, s)) => {
                    if *d != depth2 {
                        let have = *d;
                        report_once(
                            &mut reported,
                            diags,
                            DiagCode::StackImbalance,
                            t,
                            depth2,
                            &region.name,
                            format!("paths join at stack depths {have} and {depth2}"),
                        );
                    } else if s.intersect_with(&init2) {
                        work.push(trel);
                    }
                }
            }
        }
    }

    for (addr, slot) in uninit_reads {
        let (code_, msg) = if written_anywhere.get(slot as usize) {
            (
                DiagCode::MaybeUninitializedLocal,
                format!("local {slot} may be read before its first store"),
            )
        } else {
            (
                DiagCode::UninitializedLocal,
                format!("local {slot} is read but never stored in this region"),
            )
        };
        diags.push(Diagnostic::at(code_, addr, &region.name, msg));
    }

    max_stack
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inline and heap sets behave as a plain `Vec<bool>` under the same
    /// seeded sets and intersections, on either side of the inline bound.
    #[test]
    fn slot_sets_match_a_bool_vector_inline_and_on_the_heap() {
        let mut x = 0x51_07_5E_7Du64;
        for n in [
            0usize,
            1,
            63,
            64,
            65,
            64 * INLINE_WORDS,
            64 * INLINE_WORDS + 1,
            700,
        ] {
            let mut a = SlotSet::new(n);
            let mut b = SlotSet::new(n);
            assert_eq!(
                matches!(a, SlotSet::Inline(_)),
                n <= 64 * INLINE_WORDS,
                "{n}"
            );
            let (mut ra, mut rb) = (vec![false; n], vec![false; n]);
            for i in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 63 == 1 {
                    a.set(i);
                    ra[i] = true;
                }
                if (x >> 62) & 1 == 1 {
                    b.set(i);
                    rb[i] = true;
                }
            }
            let changed = a.intersect_with(&b);
            let want: Vec<bool> = ra.iter().zip(&rb).map(|(&p, &q)| p && q).collect();
            assert_eq!(changed, want != ra, "{n}");
            assert!((0..n).all(|i| a.get(i) == want[i]), "{n}");
            assert!(
                !a.intersect_with(&b),
                "{n}: a second intersection changes nothing"
            );
        }
    }
}
