//! Static verification of the PSDER level: stack-effect balance.
//!
//! Every semantic routine and every translation template has a *net
//! operand-stack effect* that must compose correctly: when a DIR
//! instruction's PSDER sequence finishes, the operand stack must hold
//! exactly what the DIR instruction's own stack semantics dictate.
//! Mismatches here are the classic interpreter bug class (an operand left
//! behind corrupts every later computation). The balance is a property of
//! the instruction set, not of any one image: the test suite proves it as
//! a seeded property over every opcode, every ALU operation and random
//! operands ([`isa_sample`], [`check_all`]), so no load pass rechecks it.

use dir::isa::{AluOp, FieldKind, Inst, Opcode, ALU_OPS, OPCODES};

use crate::micro::MicroOp;
use crate::routines::RoutineLib;
use crate::short::{InterpMode, RoutineId, ShortInstr};
use crate::translator::Template;

/// Net operand-stack effect (pushes − pops) of one micro-op, ignoring
/// machine-state side channels.
fn micro_effect(op: &MicroOp) -> i32 {
    match op {
        MicroOp::Pop(_) => -1,
        MicroOp::Push(_) => 1,
        // NewFrame pops the callee's arguments; its effect is
        // argument-dependent and handled by the caller of `routine_effect`.
        MicroOp::NewFrame { .. } => 0,
        _ => 0,
    }
}

/// Net operand-stack effect of a routine, excluding argument consumption
/// by `NewFrame` (reported separately as `pops_args`).
pub fn routine_effect(lib: &RoutineLib, id: RoutineId) -> RoutineEffect {
    let mut net = 0i32;
    let mut pops_args = false;
    for word in lib.words(id) {
        for op in word.ops() {
            net += micro_effect(op);
            if matches!(op, MicroOp::NewFrame { .. }) {
                pops_args = true;
            }
        }
    }
    RoutineEffect { net, pops_args }
}

/// The statically computed stack effect of a routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutineEffect {
    /// Pushes minus pops, excluding `NewFrame` argument consumption.
    pub net: i32,
    /// Whether the routine builds a frame (popping `n_args` operands).
    pub pops_args: bool,
}

/// The expected net stack effect of executing one DIR instruction's whole
/// PSDER sequence (relative to the stack *before* the sequence, with the
/// instruction's own inputs already on the stack), excluding call-argument
/// consumption and excluding the value produced by a `Call` (pushed by the
/// callee's `Return`, not by this sequence).
///
/// This is the PSDER side of the cross-level contract: the analyze crate's
/// tests hold its *abstract DIR stack model* to this table, so it is
/// public.
pub fn expected_effect(inst: Inst) -> i32 {
    match inst.opcode() {
        // Consume their stack inputs, push one result.
        Opcode::Bin => -1,                                    // pops 2, pushes 1
        Opcode::Neg | Opcode::Not => 0,                       // pops 1, pushes 1
        Opcode::LoadArrLocal | Opcode::LoadArrGlobal => 0,    // pops index, pushes elem
        Opcode::StoreArrLocal | Opcode::StoreArrGlobal => -2, // pops index+value
        Opcode::PushConst | Opcode::PushLocal | Opcode::PushGlobal => 1,
        Opcode::StoreLocal | Opcode::StoreGlobal | Opcode::Pop => -1,
        Opcode::Write => -1,
        Opcode::Jump | Opcode::Halt => 0,
        Opcode::JumpIfFalse | Opcode::JumpIfTrue => -1, // pops the condition
        // Call: args are popped by NewFrame (excluded); nothing else left.
        Opcode::Call => 0,
        // Return: pushes the saved DIR address, consumed by INTERP-stack.
        Opcode::Return => 0,
        Opcode::BinLocals | Opcode::IncLocal | Opcode::SetLocalConst => 0,
        Opcode::CmpConstBr | Opcode::CmpLocalsBr => 0,
    }
}

/// A stack-balance violation found by [`check_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceError {
    /// The offending instruction shape.
    pub inst: Inst,
    /// Expected net effect.
    pub expected: i32,
    /// Computed net effect.
    pub got: i32,
}

impl std::fmt::Display for BalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stack imbalance for {:?}: expected net {}, got {}",
            self.inst, self.expected, self.got
        )
    }
}

impl std::error::Error for BalanceError {}

/// Computes the net stack effect of a full translation sequence: IU2
/// pushes/pops plus every called routine's effect, with INTERP-stack
/// popping its target.
pub fn sequence_effect(lib: &RoutineLib, sequence: &[ShortInstr]) -> i32 {
    let mut net = 0i32;
    for s in sequence {
        match s {
            ShortInstr::Push(_) => net += 1,
            ShortInstr::Pop(_) => net -= 1,
            ShortInstr::Call(id) => net += routine_effect(lib, *id).net,
            ShortInstr::Interp(InterpMode::Imm(_)) => {}
            ShortInstr::Interp(InterpMode::Stack) => net -= 1,
        }
    }
    net
}

/// A seeded sample of every instruction shape a decoder can produce, each
/// paired with a fall-through address `next`.
///
/// For every opcode in [`OPCODES`] it builds `draws` instructions for each
/// of the 13 [`ALU_OPS`] in the opcode's `Alu` field (`draws` in all for an
/// opcode without one), drawing every other field and `next` from
/// `random`. Each is built through [`Inst::from_parts`], the constructor
/// every decoder uses, so the sample ranges over everything a hostile
/// image can decode to.
pub fn isa_sample(draws: usize, mut random: impl FnMut() -> u64) -> Vec<(Inst, u32)> {
    let mut sample = Vec::new();
    for opcode in OPCODES {
        let kinds = opcode.field_kinds();
        let alus: &[AluOp] = if kinds.contains(&FieldKind::Alu) {
            &ALU_OPS
        } else {
            &[AluOp::Add]
        };
        for &alu in alus {
            for _ in 0..draws {
                let fields: Vec<u64> = kinds
                    .iter()
                    .map(|&kind| match kind {
                        FieldKind::Alu => alu as u64,
                        FieldKind::Imm => random(),
                        _ => random() >> 32,
                    })
                    .collect();
                let inst = Inst::from_parts(opcode, &fields).expect("fields are in range");
                sample.push((inst, (random() >> 32) as u32));
            }
        }
    }
    sample
}

/// Checks that the translation sequence of every instruction in `sample`
/// nets exactly [`expected_effect`] on the operand stack.
///
/// # Errors
///
/// Returns every violation found (empty means the PSDER level is balanced).
pub fn check_all(lib: &RoutineLib, sample: &[(Inst, u32)]) -> Result<(), Vec<BalanceError>> {
    let errors: Vec<BalanceError> = sample
        .iter()
        .filter_map(|&(inst, next)| {
            let got = sequence_effect(lib, &Template::new(inst, next));
            let expected = expected_effect(inst);
            (got != expected).then_some(BalanceError {
                inst,
                expected,
                got,
            })
        })
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::isa::OPCODE_COUNT;

    /// Seed and per-shape draw count of the ISA stack-balance property.
    const SEED: u64 = 0x15A_BA1A;
    const DRAWS: usize = 8;

    /// The ALU operation in an instruction's `Alu` field, if it has one.
    fn alu_of(inst: Inst) -> Option<u64> {
        let at = inst
            .opcode()
            .field_kinds()
            .iter()
            .position(|&k| k == FieldKind::Alu)?;
        Some(inst.fields()[at])
    }

    #[test]
    fn every_decodable_instruction_is_stack_balanced() {
        let mut rng = hlr::rng::Rng::new(SEED);
        let sample = isa_sample(DRAWS, || rng.next_u64());
        let mut shapes = std::collections::BTreeSet::new();
        for &(inst, _) in &sample {
            shapes.insert((inst.opcode() as u8, alu_of(inst)));
        }
        let alu_opcodes = OPCODES
            .iter()
            .filter(|op| op.field_kinds().contains(&FieldKind::Alu))
            .count();
        assert_eq!(alu_opcodes, 4, "Bin, BinLocals, CmpConstBr, CmpLocalsBr");
        assert_eq!(
            shapes.len(),
            OPCODE_COUNT - alu_opcodes + alu_opcodes * ALU_OPS.len(),
            "every opcode, with every ALU op in every Alu field"
        );
        if let Err(errors) = check_all(&RoutineLib::new(), &sample) {
            for e in &errors {
                eprintln!("{e}");
            }
            panic!("{} stack-balance violations", errors.len());
        }
    }

    #[test]
    fn individual_routine_effects() {
        let lib = RoutineLib::new();
        assert_eq!(
            routine_effect(&lib, RoutineId::Bin(dir::AluOp::Add)),
            RoutineEffect {
                net: -1,
                pops_args: false
            }
        );
        assert_eq!(routine_effect(&lib, RoutineId::WriteR).net, -1);
        assert_eq!(routine_effect(&lib, RoutineId::Select).net, -2); // 3 pops, 1 push
        let call = routine_effect(&lib, RoutineId::DirCall);
        assert_eq!(call.net, -1); // pops proc+next, pushes entry
        assert!(call.pops_args);
        assert_eq!(routine_effect(&lib, RoutineId::DirRet).net, 1);
    }

    #[test]
    fn sequence_effect_counts_interp_stack() {
        let lib = RoutineLib::new();
        let seq = Template::new(Inst::JumpIfFalse(3), 4);
        // cond on stack before; 2 pushes, Select (-2), INTERP-stack (-1).
        assert_eq!(sequence_effect(&lib, &seq), -1);
    }

    #[test]
    fn balance_error_formats() {
        let e = BalanceError {
            inst: Inst::Pop,
            expected: -1,
            got: 0,
        };
        assert!(e.to_string().contains("expected net -1"));
    }
}
