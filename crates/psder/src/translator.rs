//! The DIR → PSDER translation templates.
//!
//! This mapping is the heart of dynamic translation: each DIR instruction
//! becomes a short sequence of IU2 instructions that steer control to the
//! semantic routines and pass parameters, ending with the INTERP that
//! chains to the next DIR instruction (§6.2). The mapping is "almost
//! one-to-one", which is why the paper argues the dynamic translator is
//! barely more complex than an interpreter.
//!
//! The same templates serve three consumers:
//!
//! * the **dynamic translator** fills DTB allocation units with them;
//! * the **pure interpreter** executes them directly after decoding,
//!   without storing them anywhere;
//! * the **cost model** measures `s1` (short words per DIR instruction)
//!   and `g` (generation cost) from them.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use dir::isa::Inst;

use crate::short::{InterpMode, PopMode, PushMode, RoutineId, ShortInstr};

/// Translates one DIR instruction into its PSDER sequence.
///
/// `next` is the DIR address of the fall-through successor (`pc + 1`),
/// embedded in the trailing INTERP where the successor is statically known.
/// `Halt` ends the machine and has no successor.
pub fn translate(inst: Inst, next: u32) -> Vec<ShortInstr> {
    use ShortInstr::*;
    let interp_next = Interp(InterpMode::Imm(next));
    match inst {
        Inst::PushConst(v) => vec![Push(PushMode::Imm(v)), interp_next],
        Inst::PushLocal(s) => vec![Push(PushMode::Local(s)), interp_next],
        Inst::PushGlobal(s) => vec![Push(PushMode::Global(s)), interp_next],
        Inst::StoreLocal(s) => vec![Pop(PopMode::Local(s)), interp_next],
        Inst::StoreGlobal(s) => vec![Pop(PopMode::Global(s)), interp_next],
        Inst::LoadArrLocal { base, len } => vec![
            Push(PushMode::Imm(base as i64)),
            Push(PushMode::Imm(len as i64)),
            Call(RoutineId::LoadArrLocal),
            interp_next,
        ],
        Inst::LoadArrGlobal { base, len } => vec![
            Push(PushMode::Imm(base as i64)),
            Push(PushMode::Imm(len as i64)),
            Call(RoutineId::LoadArrGlobal),
            interp_next,
        ],
        Inst::StoreArrLocal { base, len } => vec![
            Push(PushMode::Imm(base as i64)),
            Push(PushMode::Imm(len as i64)),
            Call(RoutineId::StoreArrLocal),
            interp_next,
        ],
        Inst::StoreArrGlobal { base, len } => vec![
            Push(PushMode::Imm(base as i64)),
            Push(PushMode::Imm(len as i64)),
            Call(RoutineId::StoreArrGlobal),
            interp_next,
        ],
        Inst::Pop => vec![Pop(PopMode::Discard), interp_next],
        Inst::Bin(op) => vec![Call(RoutineId::Bin(op)), interp_next],
        Inst::Neg => vec![Call(RoutineId::NegR), interp_next],
        Inst::Not => vec![Call(RoutineId::NotR), interp_next],
        Inst::Jump(t) => vec![Interp(InterpMode::Imm(t))],
        // Condition is on the stack; push taken/fall-through in the order
        // the Select routine expects (if_zero first).
        Inst::JumpIfFalse(t) => vec![
            Push(PushMode::Imm(t as i64)),
            Push(PushMode::Imm(next as i64)),
            Call(RoutineId::Select),
            Interp(InterpMode::Stack),
        ],
        Inst::JumpIfTrue(t) => vec![
            Push(PushMode::Imm(next as i64)),
            Push(PushMode::Imm(t as i64)),
            Call(RoutineId::Select),
            Interp(InterpMode::Stack),
        ],
        Inst::Call(p) => vec![
            Push(PushMode::Imm(p as i64)),
            Push(PushMode::Imm(next as i64)),
            Call(RoutineId::DirCall),
            Interp(InterpMode::Stack),
        ],
        Inst::Return => vec![Call(RoutineId::DirRet), Interp(InterpMode::Stack)],
        Inst::Halt => vec![Call(RoutineId::HaltR)],
        Inst::Write => vec![Call(RoutineId::WriteR), interp_next],
        // Fused tier: direct-mode pushes/pops reuse the base routines.
        Inst::BinLocals { op, a, b, dst } => vec![
            Push(PushMode::Local(a)),
            Push(PushMode::Local(b)),
            Call(RoutineId::Bin(op)),
            Pop(PopMode::Local(dst)),
            interp_next,
        ],
        Inst::IncLocal { slot, imm } => vec![
            Push(PushMode::Local(slot)),
            Push(PushMode::Imm(imm)),
            Call(RoutineId::Bin(dir::AluOp::Add)),
            Pop(PopMode::Local(slot)),
            interp_next,
        ],
        Inst::SetLocalConst { slot, imm } => vec![
            Push(PushMode::Imm(imm)),
            Pop(PopMode::Local(slot)),
            interp_next,
        ],
        Inst::CmpConstBr {
            op,
            slot,
            imm,
            target,
        } => vec![
            Push(PushMode::Local(slot)),
            Push(PushMode::Imm(imm)),
            Push(PushMode::Imm(target as i64)),
            Push(PushMode::Imm(next as i64)),
            Call(RoutineId::CmpBr(op)),
            Interp(InterpMode::Stack),
        ],
        Inst::CmpLocalsBr { op, a, b, target } => vec![
            Push(PushMode::Local(a)),
            Push(PushMode::Local(b)),
            Push(PushMode::Imm(target as i64)),
            Push(PushMode::Imm(next as i64)),
            Call(RoutineId::CmpBr(op)),
            Interp(InterpMode::Stack),
        ],
    }
}

/// The longest translation any instruction can produce, in short words —
/// the lower bound for a DTB allocation unit that never overflows.
pub const MAX_TRANSLATION_WORDS: usize = 6;

/// Summary of a translation for the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationShape {
    /// Short words emitted (the paper's per-instruction `s1`).
    pub words: u32,
    /// Semantic-routine calls within the sequence.
    pub calls: u32,
}

/// Computes the shape of an instruction's translation without building it.
pub fn shape(inst: Inst) -> TranslationShape {
    let t = translate(inst, 0);
    TranslationShape {
        words: t.len() as u32,
        calls: t.iter().filter(|s| s.routine().is_some()).count() as u32,
    }
}

/// Memoized decode templates: a `(instruction, successor)` → sequence
/// cache over [`translate`].
///
/// The DTB retranslates the same hot lines every time they are evicted
/// and re-missed, and the pure interpreter retranslates every instruction
/// of a loop on every iteration. The *modeled* generation cost is charged
/// per the paper regardless — this cache only removes the host-side
/// allocation and template construction, returning the memoized slice,
/// whose contents are identical to a fresh [`translate`] call.
///
/// The sequences are `Arc`s (not `Rc`s) so a cache can be
/// [frozen](TransCache::freeze) into a [`FrozenTransCache`] and shared
/// read-only across worker threads — the multi-tenant pool's
/// "specialization products built once" path.
#[derive(Debug, Default)]
pub struct TransCache {
    map: HashMap<(Inst, u32), Arc<[ShortInstr]>, BuildTemplateHasher>,
    hits: u64,
    misses: u64,
}

/// Multiply-rotate hasher for the template cache. The keys are tiny (one
/// instruction plus one address) and lookups sit on the hot translate
/// path, where the standard SipHash setup costs more than the template
/// it saves; there is no untrusted-key DoS concern inside a cache of
/// program instructions.
#[derive(Debug, Default)]
struct TemplateHasher(u64);

type BuildTemplateHasher = std::hash::BuildHasherDefault<TemplateHasher>;

impl TemplateHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for TemplateHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.fold(tail);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.fold(v as u64);
    }
}

impl TransCache {
    /// An empty cache.
    pub fn new() -> TransCache {
        TransCache::default()
    }

    /// Translates `inst` with fall-through successor `next`, reusing the
    /// memoized sequence when this exact pair has been seen before.
    #[inline]
    pub fn translate(&mut self, inst: Inst, next: u32) -> &[ShortInstr] {
        match self.map.entry((inst, next)) {
            Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                v.insert(Arc::from(translate(inst, next)))
            }
        }
    }

    /// Freezes the cache into an immutable, thread-shareable snapshot,
    /// discarding the hit/miss counters.
    pub fn freeze(self) -> FrozenTransCache {
        FrozenTransCache { map: self.map }
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run the translator.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct `(instruction, successor)` pairs cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache has seen no translations yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// An immutable snapshot of a [`TransCache`], shareable across threads.
///
/// Dynamic translation's decode templates are pure functions of
/// `(instruction, successor)` — specialization products in the Futamura
/// sense — so one frozen table can serve any number of concurrent
/// tenants read-only. [`FrozenTransCache::for_program`] pre-translates
/// every static instruction of a program, so workers dispatching through
/// the snapshot never miss; pairs outside the snapshot (e.g. addresses
/// reached only through computed control flow) simply fall back to the
/// caller's private cache.
///
/// The *modeled* generation cost is unaffected: the machine charges
/// per translation event whether the host built the sequence or fetched
/// it from a snapshot.
///
/// ```
/// use psder::{translate, FrozenTransCache};
/// use dir::isa::Inst;
///
/// let code = [Inst::PushConst(7), Inst::Write, Inst::Halt];
/// let frozen = FrozenTransCache::for_program(&code);
/// // Shared lookups return exactly what a fresh translation would build.
/// let seq = frozen.get(Inst::PushConst(7), 1).expect("pre-translated");
/// assert_eq!(&seq[..], &translate(Inst::PushConst(7), 1)[..]);
/// // Unknown pairs are not invented: callers fall back to translating.
/// assert!(frozen.get(Inst::PushConst(999), 1).is_none());
/// ```
#[derive(Debug, Default)]
pub struct FrozenTransCache {
    map: HashMap<(Inst, u32), Arc<[ShortInstr]>, BuildTemplateHasher>,
}

impl FrozenTransCache {
    /// Pre-translates every `(code[pc], pc + 1)` pair of a program: the
    /// complete static template set a machine executing `code` can
    /// request along fall-through successors.
    pub fn for_program(code: &[Inst]) -> FrozenTransCache {
        let mut cache = TransCache::new();
        for (pc, &inst) in code.iter().enumerate() {
            cache.translate(inst, pc as u32 + 1);
        }
        cache.freeze()
    }

    /// Looks up the memoized sequence for `(inst, next)`, if present.
    #[inline]
    pub fn get(&self, inst: Inst, next: u32) -> Option<&[ShortInstr]> {
        self.map.get(&(inst, next)).map(|seq| &seq[..])
    }

    /// Distinct `(instruction, successor)` pairs in the snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the snapshot holds no translations.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A deterministically corrupted copy: every template loses its
    /// final short word — the `INTERP` terminator (or, for one-word
    /// templates, the whole sequence). Dispatching any poisoned template
    /// runs off its end, which the machine reports as a
    /// `Malformed("… ended without INTERP")` trap at the *first*
    /// instruction executed through the snapshot.
    ///
    /// This is the chaos plane's shared-artifact corruption: unlike a
    /// random bit flip, truncation is guaranteed detectable (the engine
    /// cannot silently mis-execute a too-short sequence into a clean
    /// run), so campaigns can assert that corrupted artifacts are always
    /// caught and recovered by re-translation, never absorbed.
    pub fn poisoned(&self) -> FrozenTransCache {
        let map = self
            .map
            .iter()
            .map(|(&key, seq)| {
                let truncated: Arc<[ShortInstr]> = seq[..seq.len().saturating_sub(1)].into();
                (key, truncated)
            })
            .collect();
        FrozenTransCache { map }
    }
}

/// Superinstruction fusion: translates a straight-line run of DIR
/// instructions starting at address `start` into one PSDER block,
/// omitting the interior `INTERP` terminators that would bounce through
/// the instruction-unit dispatch between consecutive fall-through
/// instructions. Fusion stops after the first instruction whose successor
/// is not the static fall-through (branches, calls, returns, halt) or
/// when `code` runs out; the block keeps that instruction's own
/// terminator, so control leaves the block exactly as it would leave the
/// unfused sequence.
///
/// Returns the fused block and the number of DIR instructions it covers.
///
/// This is a *host-side* representation raise (the translation analogue
/// of `dir::fuse`): the machine's modeled cost accounting deliberately
/// does not use it, because dropping modeled INTERP dispatches would
/// change the paper's cycle counts.
pub fn fuse_block(code: &[Inst], start: u32) -> (Vec<ShortInstr>, usize) {
    let mut out = Vec::new();
    let mut taken = 0usize;
    for (i, &inst) in code.iter().enumerate() {
        let next = start + i as u32 + 1;
        let t = translate(inst, next);
        taken += 1;
        let falls_through =
            matches!(t.last(), Some(&ShortInstr::Interp(InterpMode::Imm(n))) if n == next);
        if falls_through && i + 1 < code.len() {
            out.extend_from_slice(&t[..t.len() - 1]);
        } else {
            out.extend_from_slice(&t);
            break;
        }
    }
    (out, taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::AluOp;

    #[test]
    fn no_translation_exceeds_the_allocation_bound() {
        // Cover every opcode through representative instructions.
        let reps = vec![
            Inst::PushConst(1),
            Inst::PushLocal(0),
            Inst::PushGlobal(0),
            Inst::StoreLocal(0),
            Inst::StoreGlobal(0),
            Inst::LoadArrLocal { base: 0, len: 1 },
            Inst::LoadArrGlobal { base: 0, len: 1 },
            Inst::StoreArrLocal { base: 0, len: 1 },
            Inst::StoreArrGlobal { base: 0, len: 1 },
            Inst::Pop,
            Inst::Bin(AluOp::Add),
            Inst::Neg,
            Inst::Not,
            Inst::Jump(0),
            Inst::JumpIfFalse(0),
            Inst::JumpIfTrue(0),
            Inst::Call(0),
            Inst::Return,
            Inst::Halt,
            Inst::Write,
            Inst::BinLocals {
                op: AluOp::Add,
                a: 0,
                b: 0,
                dst: 0,
            },
            Inst::IncLocal { slot: 0, imm: 1 },
            Inst::SetLocalConst { slot: 0, imm: 0 },
            Inst::CmpConstBr {
                op: AluOp::Lt,
                slot: 0,
                imm: 0,
                target: 0,
            },
            Inst::CmpLocalsBr {
                op: AluOp::Lt,
                a: 0,
                b: 0,
                target: 0,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for inst in reps {
            seen.insert(inst.opcode());
            let t = translate(inst, 42);
            assert!(
                t.len() <= MAX_TRANSLATION_WORDS,
                "{inst:?} -> {} words",
                t.len()
            );
            assert!(!t.is_empty());
        }
        assert_eq!(seen.len(), dir::isa::OPCODE_COUNT);
    }

    #[test]
    fn every_translation_ends_in_interp_or_halt() {
        for inst in [
            Inst::PushConst(7),
            Inst::Bin(AluOp::Mul),
            Inst::Jump(3),
            Inst::Return,
            Inst::Call(0),
        ] {
            let t = translate(inst, 9);
            match t.last().unwrap() {
                ShortInstr::Interp(_) => {}
                other => panic!("{inst:?} ends with {other:?}"),
            }
        }
        let halt = translate(Inst::Halt, 9);
        assert_eq!(halt, vec![ShortInstr::Call(RoutineId::HaltR)]);
    }

    #[test]
    fn statically_known_successors_use_immediate_interp() {
        let t = translate(Inst::PushConst(1), 17);
        assert_eq!(*t.last().unwrap(), ShortInstr::Interp(InterpMode::Imm(17)));
        let t = translate(Inst::Jump(99), 17);
        assert_eq!(t, vec![ShortInstr::Interp(InterpMode::Imm(99))]);
    }

    #[test]
    fn computed_successors_use_stack_interp() {
        for inst in [
            Inst::JumpIfFalse(3),
            Inst::JumpIfTrue(3),
            Inst::Call(0),
            Inst::Return,
        ] {
            let t = translate(inst, 9);
            assert_eq!(*t.last().unwrap(), ShortInstr::Interp(InterpMode::Stack));
        }
    }

    #[test]
    fn jump_flavours_swap_select_operands() {
        let f = translate(Inst::JumpIfFalse(3), 9);
        let t = translate(Inst::JumpIfTrue(3), 9);
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
        let total: usize = p.code.iter().map(|&i| translate(i, 0).len()).sum();
        let mean = total as f64 / p.code.len() as f64;
        assert!((1.5..4.0).contains(&mean), "mean s1 = {mean}");
    }

    #[test]
    fn cache_returns_identical_sequences() {
        let mut cache = TransCache::new();
        let insts = [
            (Inst::PushConst(7), 1),
            (Inst::Bin(AluOp::Add), 2),
            (Inst::PushConst(7), 1), // repeat: must hit
            (Inst::PushConst(7), 5), // same inst, new successor: miss
            (Inst::JumpIfFalse(3), 9),
        ];
        for &(inst, next) in &insts {
            let cached = cache.translate(inst, next);
            assert_eq!(cached, &translate(inst, next)[..], "{inst:?}");
        }
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_amortizes_a_hot_loop() {
        // The workload that motivates memoization: a loop body translated
        // once per iteration. After iteration one, everything hits.
        let body = [
            (Inst::PushLocal(0), 11),
            (Inst::PushConst(1), 12),
            (Inst::Bin(AluOp::Add), 13),
            (Inst::StoreLocal(0), 14),
        ];
        let mut cache = TransCache::new();
        for _ in 0..100 {
            for &(inst, next) in &body {
                cache.translate(inst, next);
            }
        }
        assert_eq!(cache.misses(), body.len() as u64);
        assert_eq!(cache.hits(), 99 * body.len() as u64);
    }

    #[test]
    fn fused_block_drops_only_interior_terminators() {
        let code = [
            Inst::PushLocal(0),
            Inst::PushConst(1),
            Inst::Bin(AluOp::Add),
            Inst::StoreLocal(0),
        ];
        let (fused, taken) = fuse_block(&code, 10);
        assert_eq!(taken, code.len());
        let unfused_words: usize = code
            .iter()
            .enumerate()
            .map(|(i, &inst)| translate(inst, 10 + i as u32 + 1).len())
            .sum();
        // One terminator survives; the other three are fused away.
        assert_eq!(fused.len(), unfused_words - (code.len() - 1));
        let interps = fused
            .iter()
            .filter(|s| matches!(s, ShortInstr::Interp(_)))
            .count();
        assert_eq!(interps, 1);
        assert_eq!(
            *fused.last().unwrap(),
            ShortInstr::Interp(InterpMode::Imm(14)),
            "block exits to the fall-through of its last instruction"
        );
        // Fusion only removes terminators: the non-INTERP words appear in
        // the same order as in the unfused sequences.
        let non_interp = |seq: &[ShortInstr]| {
            seq.iter()
                .filter(|s| !matches!(s, ShortInstr::Interp(_)))
                .copied()
                .collect::<Vec<_>>()
        };
        let mut expected = Vec::new();
        for (i, &inst) in code.iter().enumerate() {
            expected.extend(non_interp(&translate(inst, 10 + i as u32 + 1)));
        }
        assert_eq!(non_interp(&fused), expected);
    }

    #[test]
    fn fusion_stops_at_control_transfers() {
        let code = [
            Inst::PushConst(1),
            Inst::JumpIfFalse(40),
            Inst::PushConst(2), // unreachable by fusion
        ];
        let (fused, taken) = fuse_block(&code, 0);
        assert_eq!(taken, 2, "fusion must not run past a branch");
        assert_eq!(
            *fused.last().unwrap(),
            ShortInstr::Interp(InterpMode::Stack)
        );
        let (jump_only, taken) = fuse_block(&[Inst::Jump(7)], 3);
        assert_eq!(taken, 1);
        assert_eq!(jump_only, vec![ShortInstr::Interp(InterpMode::Imm(7))]);
        assert_eq!(fuse_block(&[], 0), (Vec::new(), 0));
    }

    #[test]
    fn frozen_snapshot_matches_fresh_translation() {
        let hir = hlr::programs::SIEVE.compile().unwrap();
        let p = dir::compiler::compile(&hir);
        let frozen = FrozenTransCache::for_program(&p.code);
        assert!(!frozen.is_empty());
        assert!(frozen.len() <= p.code.len());
        for (pc, &inst) in p.code.iter().enumerate() {
            let next = pc as u32 + 1;
            let seq = frozen.get(inst, next).expect("every static pair present");
            assert_eq!(seq, &translate(inst, next)[..], "{inst:?}");
        }
        // A pair outside the fall-through set is absent, not invented.
        assert!(frozen.get(Inst::PushConst(i64::MIN), 0).is_none());
    }

    #[test]
    fn poisoned_snapshot_truncates_every_template() {
        let hir = hlr::programs::FIB_ITER.compile().unwrap();
        let p = dir::compiler::compile(&hir);
        let frozen = FrozenTransCache::for_program(&p.code);
        let poisoned = frozen.poisoned();
        assert_eq!(poisoned.len(), frozen.len());
        for (pc, &inst) in p.code.iter().enumerate() {
            let next = pc as u32 + 1;
            let clean = frozen.get(inst, next).unwrap();
            let bad = poisoned.get(inst, next).unwrap();
            assert_eq!(bad.len(), clean.len() - 1, "{inst:?}");
            assert_eq!(bad, &clean[..clean.len() - 1], "{inst:?}");
            // The dropped word is the terminator, so no poisoned template
            // can end a dispatch cleanly.
            assert!(!matches!(bad.last(), Some(ShortInstr::Interp(_))));
        }
    }

    #[test]
    fn freeze_preserves_cached_sequences() {
        let mut cache = TransCache::new();
        let live = cache.translate(Inst::Bin(AluOp::Mul), 5).as_ptr();
        let frozen = cache.freeze();
        assert_eq!(frozen.len(), 1);
        let shared = frozen.get(Inst::Bin(AluOp::Mul), 5).unwrap();
        assert_eq!(live, shared.as_ptr(), "freeze must not reallocate");
    }

    #[test]
    fn frozen_cache_is_shareable_across_threads() {
        let hir = hlr::programs::FIB_ITER.compile().unwrap();
        let p = dir::compiler::compile(&hir);
        let frozen = Arc::new(FrozenTransCache::for_program(&p.code));
        let words: Vec<u64> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let frozen = Arc::clone(&frozen);
                    let code = &p.code;
                    scope.spawn(move || {
                        code.iter()
                            .enumerate()
                            .map(|(pc, &inst)| {
                                frozen.get(inst, pc as u32 + 1).expect("present").len() as u64
                            })
                            .sum()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(words.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn shape_matches_translate() {
        let s = shape(Inst::CmpLocalsBr {
            op: AluOp::Le,
            a: 0,
            b: 1,
            target: 4,
        });
        assert_eq!(s.words, 6);
        assert_eq!(s.calls, 1);
    }
}
