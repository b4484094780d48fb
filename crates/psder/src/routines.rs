//! The semantic-routine library: one micro-program per [`RoutineId`].
//!
//! These are the procedures a PSDER's calls steer into (§3.1): generalised
//! routines that take their parameters from the operand stack, perform one
//! DIR-level semantic action, and return to IU2. Their micro-word counts
//! are the measured source of the paper's parameter `x` (average time spent
//! in the semantic routines per DIR instruction).

use crate::line::{flatten, InlinedRoutine, Op};
use crate::micro::MicroOp::*;
use crate::micro::MicroWord;
use crate::micro::Reg::*;
use crate::mword;
use crate::short::{RoutineId, ROUTINE_COUNT};

/// The complete routine library, indexed by [`RoutineId::index`].
#[derive(Debug, Clone)]
pub struct RoutineLib {
    routines: Vec<Vec<MicroWord>>,
    /// Every routine's micro-ops as line ops, back to back.
    flat: Vec<Op>,
    /// Per routine: its range in `flat`, its words and whether it halts.
    inlined: Vec<(std::ops::Range<usize>, u32, bool)>,
}

impl Default for RoutineLib {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutineLib {
    /// Builds the library.
    pub fn new() -> RoutineLib {
        let mut routines = vec![Vec::new(); ROUTINE_COUNT];
        for id in RoutineId::all() {
            routines[id.index()] = build(id);
        }
        let mut flat = Vec::new();
        let mut inlined = Vec::with_capacity(ROUTINE_COUNT);
        for words in &routines {
            let (ops, count, halts) = flatten(words);
            inlined.push((flat.len()..flat.len() + ops.len(), count, halts));
            flat.extend(ops);
        }
        RoutineLib {
            routines,
            flat,
            inlined,
        }
    }

    /// The library every machine shares: it is a constant of the ISA, so
    /// it is built once per process.
    pub fn shared() -> &'static RoutineLib {
        static LIB: std::sync::OnceLock<RoutineLib> = std::sync::OnceLock::new();
        LIB.get_or_init(RoutineLib::new)
    }

    /// The micro-program of `id`.
    pub fn words(&self, id: RoutineId) -> &[MicroWord] {
        &self.routines[id.index()]
    }

    /// The routine in the form a [`Line`](crate::line::Line) inlines: its
    /// micro-ops in issue order, cut after the first `HaltOp`.
    pub(crate) fn inlined(&self, id: RoutineId) -> InlinedRoutine<'_> {
        let (range, words, halts) = &self.inlined[id.index()];
        InlinedRoutine {
            ops: &self.flat[range.clone()],
            words: *words,
            halts: *halts,
        }
    }

    /// Cycle cost of `id` (one cycle per word): the routine's contribution
    /// to the paper's `x`.
    pub fn cost(&self, id: RoutineId) -> u64 {
        self.words(id).len() as u64
    }

    /// Total size of the library in micro-words — the "size of the
    /// semantic routines" that must fit in the fast level-1 store (§3.3).
    pub fn total_words(&self) -> usize {
        self.routines.iter().map(Vec::len).sum()
    }
}

/// Builds the micro-program for one routine.
fn build(id: RoutineId) -> Vec<MicroWord> {
    match id {
        // Pops b then a, pushes a op b.
        RoutineId::Bin(op) => vec![
            mword![Pop(B), Pop(A)],
            mword![
                Alu {
                    op,
                    a: A,
                    b: B,
                    dst: R
                },
                Push(R)
            ],
        ],
        RoutineId::NegR => vec![mword![Pop(A)], mword![NegOp { src: A, dst: R }, Push(R)]],
        RoutineId::NotR => vec![mword![Pop(A)], mword![NotOp { src: A, dst: R }, Push(R)]],
        // Stack on entry: [..., index, base, len].
        RoutineId::LoadArrLocal | RoutineId::LoadArrGlobal => {
            let load = if id == RoutineId::LoadArrLocal {
                LoadFrame { addr: A, dst: R }
            } else {
                LoadGlobal { addr: A, dst: R }
            };
            vec![
                mword![Pop(B), Pop(A), Pop(C)], // len, base, index
                mword![
                    CheckIdx { idx: C, len: B },
                    Alu {
                        op: dir::AluOp::Add,
                        a: A,
                        b: C,
                        dst: A
                    }
                ],
                mword![load, Push(R)],
            ]
        }
        // Stack on entry: [..., index, value, base, len].
        RoutineId::StoreArrLocal | RoutineId::StoreArrGlobal => {
            let store = if id == RoutineId::StoreArrLocal {
                StoreFrame { addr: A, src: C }
            } else {
                StoreGlobal { addr: A, src: C }
            };
            vec![
                mword![Pop(B), Pop(A), Pop(C)], // len, base, value
                mword![Pop(D)],                 // index
                mword![
                    CheckIdx { idx: D, len: B },
                    Alu {
                        op: dir::AluOp::Add,
                        a: A,
                        b: D,
                        dst: A
                    }
                ],
                mword![store],
            ]
        }
        // Stack on entry: [..., cond, if_zero, if_nonzero]; pushes the
        // chosen DIR address for INTERP-stack.
        RoutineId::Select => vec![
            mword![Pop(D), Pop(C), Pop(A)], // if_nonzero, if_zero, cond
            mword![
                SelectZero {
                    cond: A,
                    if_zero: C,
                    if_nonzero: D,
                    dst: R
                },
                Push(R)
            ],
        ],
        // Stack on entry: [..., a, b, target, next]; pushes `target` when
        // `a op b` is false, else `next`.
        RoutineId::CmpBr(op) => vec![
            mword![Pop(D), Pop(C)], // next, target
            mword![Pop(B), Pop(A)], // b, a
            mword![Alu {
                op,
                a: A,
                b: B,
                dst: A
            }],
            mword![
                SelectZero {
                    cond: A,
                    if_zero: C,
                    if_nonzero: D,
                    dst: R
                },
                Push(R)
            ],
        ],
        // Stack on entry: [..., args..., proc, next]; builds the callee
        // frame (popping the args), saves `next`, pushes the entry address.
        RoutineId::DirCall => vec![
            mword![Pop(B), Pop(A)], // next, proc
            mword![PushRa(B), NewFrame { proc: A }],
            mword![EntryOf { proc: A, dst: R }, Push(R)],
        ],
        RoutineId::DirRet => vec![mword![DropFrame, PopRa(R)], mword![Push(R)]],
        RoutineId::WriteR => vec![mword![Pop(A), Output(A)]],
        RoutineId::HaltR => vec![mword![HaltOp]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_routine_is_built() {
        let lib = RoutineLib::new();
        for id in RoutineId::all() {
            assert!(!lib.words(id).is_empty(), "{id:?} missing");
        }
    }

    #[test]
    fn costs_match_word_counts() {
        let lib = RoutineLib::new();
        assert_eq!(lib.cost(RoutineId::Bin(dir::AluOp::Add)), 2);
        assert_eq!(lib.cost(RoutineId::LoadArrLocal), 3);
        assert_eq!(lib.cost(RoutineId::StoreArrGlobal), 4);
        assert_eq!(lib.cost(RoutineId::CmpBr(dir::AluOp::Lt)), 4);
        assert_eq!(lib.cost(RoutineId::DirCall), 3);
        assert_eq!(lib.cost(RoutineId::WriteR), 1);
        assert_eq!(lib.cost(RoutineId::HaltR), 1);
    }

    #[test]
    fn library_fits_a_small_fast_store() {
        // The point of the PSDER: semantic routines are compact enough for
        // level-1 residence. ~37 routines, a few words each.
        let lib = RoutineLib::new();
        assert!(lib.total_words() < 256, "library is {}", lib.total_words());
    }

    #[test]
    fn routines_end_by_falling_off_the_end() {
        // The last word returns control to IU2 implicitly; no routine may
        // be empty (checked above) and every word respects the issue width
        // (checked by MicroWord::new at construction).
        let lib = RoutineLib::new();
        for id in RoutineId::all() {
            for w in lib.words(id) {
                assert!(w.ops().len() <= crate::micro::MicroWord::WIDTH);
            }
        }
    }
}
