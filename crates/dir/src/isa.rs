//! The DIR instruction set.
//!
//! A *directly interpretable representation* in Rau's sense: no associative
//! memory is needed (all names are numeric slots), the syntax is a flat,
//! context-insensitive instruction sequence, and no preliminary scan is
//! required before interpretation can begin.
//!
//! The ISA is a stack intermediate language with two semantic tiers:
//!
//! * the **base tier** emitted by the [`compiler`](crate::compiler) — pure
//!   stack operations, one effect per instruction;
//! * the **fused tier** produced by the [`fuse`](crate::fuse) pass — two- and
//!   three-address instructions (`BinLocals`, `IncLocal`, `CmpConstBr`, ...)
//!   that raise the semantic level, shrink the program and reduce the
//!   steering work per operation, exactly the "increase the complexity and
//!   variety of the opcodes" move of the paper's Section 3.2.
//!
//! Every instruction exposes a uniform *(opcode, fields)* view through
//! [`Inst::opcode`] and [`Inst::fields`]; the five encoding schemes in
//! [`encode`](crate::encode) are written against that view only, so adding
//! an instruction automatically extends all encoders.

use hlr::ast::BinOp;

/// An arithmetic/logic operation shared by the DIR ALU instructions, the
/// fused instructions and the UHM micro-ALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Wrapping addition.
    Add = 0,
    /// Wrapping subtraction.
    Sub = 1,
    /// Wrapping multiplication.
    Mul = 2,
    /// Truncating division; traps on zero divisor.
    Div = 3,
    /// Remainder; traps on zero divisor.
    Mod = 4,
    /// `==` producing 0/1.
    Eq = 5,
    /// `!=` producing 0/1.
    Ne = 6,
    /// `<` producing 0/1.
    Lt = 7,
    /// `<=` producing 0/1.
    Le = 8,
    /// `>` producing 0/1.
    Gt = 9,
    /// `>=` producing 0/1.
    Ge = 10,
    /// Strict logical and on 0/1 values.
    And = 11,
    /// Strict logical or on 0/1 values.
    Or = 12,
}

/// All binary [`AluOp`]s in discriminant order.
pub const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Mod,
    AluOp::Eq,
    AluOp::Ne,
    AluOp::Lt,
    AluOp::Le,
    AluOp::Gt,
    AluOp::Ge,
    AluOp::And,
    AluOp::Or,
];

/// A division or remainder by zero detected by [`AluOp::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivByZero;

impl AluOp {
    /// True for the operations whose [`AluOp::apply`] can fail: `Div` and
    /// `Mod` trap when the right operand is zero.
    #[must_use]
    pub fn traps_on_zero(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Mod)
    }

    /// Applies the operation with RAUL semantics (wrapping arithmetic, 0/1
    /// booleans).
    ///
    /// # Errors
    ///
    /// Returns [`DivByZero`] for `Div`/`Mod` with `b == 0`.
    pub fn apply(self, a: i64, b: i64) -> Result<i64, DivByZero> {
        Ok(match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return Err(DivByZero);
                }
                a.wrapping_div(b)
            }
            AluOp::Mod => {
                if b == 0 {
                    return Err(DivByZero);
                }
                a.wrapping_rem(b)
            }
            AluOp::Eq => (a == b) as i64,
            AluOp::Ne => (a != b) as i64,
            AluOp::Lt => (a < b) as i64,
            AluOp::Le => (a <= b) as i64,
            AluOp::Gt => (a > b) as i64,
            AluOp::Ge => (a >= b) as i64,
            AluOp::And => ((a != 0) && (b != 0)) as i64,
            AluOp::Or => ((a != 0) || (b != 0)) as i64,
        })
    }

    /// Converts a discriminant back into an `AluOp`.
    #[inline]
    pub fn from_u8(v: u8) -> Option<AluOp> {
        ALU_OPS.get(v as usize).copied()
    }

    /// Maps an HLR binary operator onto its ALU operation.
    pub fn from_binop(op: BinOp) -> AluOp {
        match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Mod => AluOp::Mod,
            BinOp::Eq => AluOp::Eq,
            BinOp::Ne => AluOp::Ne,
            BinOp::Lt => AluOp::Lt,
            BinOp::Le => AluOp::Le,
            BinOp::Gt => AluOp::Gt,
            BinOp::Ge => AluOp::Ge,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
        }
    }
}

/// A DIR instruction.
///
/// Branch targets and `Call` operands are absolute instruction indices in
/// the flat code array — the "DIR address space" that keys the dynamic
/// translation buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    // ---- Base tier: data movement -------------------------------------
    /// Push an immediate constant.
    PushConst(i64),
    /// Push frame slot `.0`.
    PushLocal(u32),
    /// Push global slot `.0`.
    PushGlobal(u32),
    /// Pop into frame slot `.0`.
    StoreLocal(u32),
    /// Pop into global slot `.0`.
    StoreGlobal(u32),
    /// Pop an index, push `frame[base + index]`; traps when out of bounds.
    LoadArrLocal {
        /// First slot of the array in the frame.
        base: u32,
        /// Element count for the bounds check.
        len: u32,
    },
    /// Pop an index, push `globals[base + index]`; traps when out of bounds.
    LoadArrGlobal {
        /// First slot of the array in the global area.
        base: u32,
        /// Element count for the bounds check.
        len: u32,
    },
    /// Pop a value then an index, store into `frame[base + index]`.
    StoreArrLocal {
        /// First slot of the array in the frame.
        base: u32,
        /// Element count for the bounds check.
        len: u32,
    },
    /// Pop a value then an index, store into `globals[base + index]`.
    StoreArrGlobal {
        /// First slot of the array in the global area.
        base: u32,
        /// Element count for the bounds check.
        len: u32,
    },
    /// Discard the top of stack.
    Pop,

    // ---- Base tier: ALU ------------------------------------------------
    /// Pop `b` then `a`, push `a op b`.
    Bin(AluOp),
    /// Negate the top of stack.
    Neg,
    /// Logical-not the top of stack (0/1).
    Not,

    // ---- Base tier: control -------------------------------------------
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when zero.
    JumpIfFalse(u32),
    /// Pop; jump when non-zero.
    JumpIfTrue(u32),
    /// Call procedure `.0` (argument count and frame size come from the
    /// program's procedure table).
    Call(u32),
    /// Return to the caller; a function's result is on the operand stack.
    Return,
    /// Stop execution.
    Halt,
    /// Pop and append to the program output.
    Write,

    // ---- Fused tier (higher semantic level) ----------------------------
    /// `frame[dst] := frame[a] op frame[b]`.
    BinLocals {
        /// Operation.
        op: AluOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// `frame[slot] := frame[slot] + imm` (wrapping).
    IncLocal {
        /// Target slot.
        slot: u32,
        /// Added constant.
        imm: i64,
    },
    /// `frame[slot] := imm`.
    SetLocalConst {
        /// Target slot.
        slot: u32,
        /// Stored constant.
        imm: i64,
    },
    /// `if !(frame[slot] op imm) jump target` — a fused compare-and-branch
    /// (the branch is taken when the comparison is *false*, matching the
    /// `JumpIfFalse` lowering of structured conditionals).
    CmpConstBr {
        /// Comparison operation.
        op: AluOp,
        /// Compared slot.
        slot: u32,
        /// Compared constant.
        imm: i64,
        /// Branch target when the comparison fails.
        target: u32,
    },
    /// `if !(frame[a] op frame[b]) jump target`.
    CmpLocalsBr {
        /// Comparison operation.
        op: AluOp,
        /// Left slot.
        a: u32,
        /// Right slot.
        b: u32,
        /// Branch target when the comparison fails.
        target: u32,
    },
}

/// Opcode identifiers, one per [`Inst`] shape.
///
/// The discriminants are the symbols over which the frequency-based
/// encodings build their code trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // each mirrors the identically-named `Inst` variant
pub enum Opcode {
    PushConst = 0,
    PushLocal,
    PushGlobal,
    StoreLocal,
    StoreGlobal,
    LoadArrLocal,
    LoadArrGlobal,
    StoreArrLocal,
    StoreArrGlobal,
    Pop,
    Bin,
    Neg,
    Not,
    Jump,
    JumpIfFalse,
    JumpIfTrue,
    Call,
    Return,
    Halt,
    Write,
    BinLocals,
    IncLocal,
    SetLocalConst,
    CmpConstBr,
    CmpLocalsBr,
}

/// Number of distinct opcodes.
pub const OPCODE_COUNT: usize = 25;

/// Most operand fields any opcode has ([`Opcode::field_kinds`]): the
/// fused four-field opcodes. The table decoders collect fields on the
/// stack instead of in a heap `Vec`, so they need the bound.
pub const MAX_FIELDS: usize = 4;

/// An instruction's encoded operand fields ([`Inst::fields`]): up to
/// [`MAX_FIELDS`] values held inline, read as a slice of exactly the
/// opcode's field count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields {
    values: [u64; MAX_FIELDS],
    len: u8,
}

impl std::ops::Deref for Fields {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.values[..self.len as usize]
    }
}

impl IntoIterator for Fields {
    type Item = u64;
    type IntoIter = std::iter::Take<std::array::IntoIter<u64, MAX_FIELDS>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter().take(self.len as usize)
    }
}

/// All opcodes in discriminant order.
pub const OPCODES: [Opcode; OPCODE_COUNT] = [
    Opcode::PushConst,
    Opcode::PushLocal,
    Opcode::PushGlobal,
    Opcode::StoreLocal,
    Opcode::StoreGlobal,
    Opcode::LoadArrLocal,
    Opcode::LoadArrGlobal,
    Opcode::StoreArrLocal,
    Opcode::StoreArrGlobal,
    Opcode::Pop,
    Opcode::Bin,
    Opcode::Neg,
    Opcode::Not,
    Opcode::Jump,
    Opcode::JumpIfFalse,
    Opcode::JumpIfTrue,
    Opcode::Call,
    Opcode::Return,
    Opcode::Halt,
    Opcode::Write,
    Opcode::BinLocals,
    Opcode::IncLocal,
    Opcode::SetLocalConst,
    Opcode::CmpConstBr,
    Opcode::CmpLocalsBr,
];

/// The kind of an operand field, which determines its width under each
/// encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// A frame slot number.
    Slot,
    /// A global-area slot number.
    GlobalSlot,
    /// An array length (bounds-check operand).
    Len,
    /// An absolute instruction index (branch target).
    Target,
    /// A procedure index.
    Proc,
    /// A signed immediate, carried zigzag-encoded.
    Imm,
    /// An [`AluOp`] discriminant.
    Alu,
}

/// All field kinds, for tabulation.
pub const FIELD_KINDS: [FieldKind; 7] = [
    FieldKind::Slot,
    FieldKind::GlobalSlot,
    FieldKind::Len,
    FieldKind::Target,
    FieldKind::Proc,
    FieldKind::Imm,
    FieldKind::Alu,
];

impl FieldKind {
    /// Index of this kind within [`FIELD_KINDS`].
    pub fn index(self) -> usize {
        match self {
            FieldKind::Slot => 0,
            FieldKind::GlobalSlot => 1,
            FieldKind::Len => 2,
            FieldKind::Target => 3,
            FieldKind::Proc => 4,
            FieldKind::Imm => 5,
            FieldKind::Alu => 6,
        }
    }
}

/// Zigzag-encodes a signed immediate for width-based field encoding.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// An error produced when reassembling an instruction from its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode discriminant is not a valid [`Opcode`].
    BadOpcode(u8),
    /// An [`AluOp`] field carried an invalid discriminant.
    BadAluOp(u64),
    /// The number of fields did not match the opcode's schema.
    FieldCount {
        /// The opcode being rebuilt.
        opcode: Opcode,
        /// Fields expected by the schema.
        expected: usize,
        /// Fields supplied.
        got: usize,
    },
    /// A field value overflowed its natural type (e.g. a slot > `u32::MAX`).
    FieldRange(FieldKind, u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(v) => write!(f, "invalid opcode discriminant {v}"),
            DecodeError::BadAluOp(v) => write!(f, "invalid alu-op discriminant {v}"),
            DecodeError::FieldCount {
                opcode,
                expected,
                got,
            } => write!(f, "{opcode:?} expects {expected} fields, got {got}"),
            DecodeError::FieldRange(kind, v) => {
                write!(f, "field {kind:?} value {v} out of range")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Opcode {
    /// Converts a discriminant back into an `Opcode`.
    #[inline]
    pub fn from_u8(v: u8) -> Option<Opcode> {
        OPCODES.get(v as usize).copied()
    }

    /// The operand-field schema of this opcode, in encoding order.
    #[inline]
    pub fn field_kinds(self) -> &'static [FieldKind] {
        use FieldKind::*;
        match self {
            Opcode::PushConst => &[Imm],
            Opcode::PushLocal | Opcode::StoreLocal => &[Slot],
            Opcode::PushGlobal | Opcode::StoreGlobal => &[GlobalSlot],
            Opcode::LoadArrLocal | Opcode::StoreArrLocal => &[Slot, Len],
            Opcode::LoadArrGlobal | Opcode::StoreArrGlobal => &[GlobalSlot, Len],
            Opcode::Pop
            | Opcode::Neg
            | Opcode::Not
            | Opcode::Return
            | Opcode::Halt
            | Opcode::Write => &[],
            Opcode::Bin => &[Alu],
            Opcode::Jump | Opcode::JumpIfFalse | Opcode::JumpIfTrue => &[Target],
            Opcode::Call => &[Proc],
            Opcode::BinLocals => &[Alu, Slot, Slot, Slot],
            Opcode::IncLocal => &[Slot, Imm],
            Opcode::SetLocalConst => &[Slot, Imm],
            Opcode::CmpConstBr => &[Alu, Slot, Imm, Target],
            Opcode::CmpLocalsBr => &[Alu, Slot, Slot, Target],
        }
    }

    /// Returns `true` for opcodes introduced by the fusion pass (the higher
    /// semantic tier).
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            Opcode::BinLocals
                | Opcode::IncLocal
                | Opcode::SetLocalConst
                | Opcode::CmpConstBr
                | Opcode::CmpLocalsBr
        )
    }
}

impl Inst {
    /// The opcode of this instruction.
    #[inline]
    pub fn opcode(self) -> Opcode {
        match self {
            Inst::PushConst(_) => Opcode::PushConst,
            Inst::PushLocal(_) => Opcode::PushLocal,
            Inst::PushGlobal(_) => Opcode::PushGlobal,
            Inst::StoreLocal(_) => Opcode::StoreLocal,
            Inst::StoreGlobal(_) => Opcode::StoreGlobal,
            Inst::LoadArrLocal { .. } => Opcode::LoadArrLocal,
            Inst::LoadArrGlobal { .. } => Opcode::LoadArrGlobal,
            Inst::StoreArrLocal { .. } => Opcode::StoreArrLocal,
            Inst::StoreArrGlobal { .. } => Opcode::StoreArrGlobal,
            Inst::Pop => Opcode::Pop,
            Inst::Bin(_) => Opcode::Bin,
            Inst::Neg => Opcode::Neg,
            Inst::Not => Opcode::Not,
            Inst::Jump(_) => Opcode::Jump,
            Inst::JumpIfFalse(_) => Opcode::JumpIfFalse,
            Inst::JumpIfTrue(_) => Opcode::JumpIfTrue,
            Inst::Call(_) => Opcode::Call,
            Inst::Return => Opcode::Return,
            Inst::Halt => Opcode::Halt,
            Inst::Write => Opcode::Write,
            Inst::BinLocals { .. } => Opcode::BinLocals,
            Inst::IncLocal { .. } => Opcode::IncLocal,
            Inst::SetLocalConst { .. } => Opcode::SetLocalConst,
            Inst::CmpConstBr { .. } => Opcode::CmpConstBr,
            Inst::CmpLocalsBr { .. } => Opcode::CmpLocalsBr,
        }
    }

    /// The operand-field values of this instruction in schema order, as
    /// plain numbers: slots, lengths, targets and procedures widened,
    /// immediates as they are, an [`AluOp`] as its discriminant. Entries
    /// past the opcode's field count are zero.
    #[inline]
    pub fn operands(self) -> [i64; MAX_FIELDS] {
        let u = i64::from;
        let alu = |op: AluOp| op as i64;
        match self {
            Inst::PushConst(v) => [v, 0, 0, 0],
            Inst::PushLocal(s)
            | Inst::StoreLocal(s)
            | Inst::PushGlobal(s)
            | Inst::StoreGlobal(s)
            | Inst::Jump(s)
            | Inst::JumpIfFalse(s)
            | Inst::JumpIfTrue(s)
            | Inst::Call(s) => [u(s), 0, 0, 0],
            Inst::LoadArrLocal { base, len }
            | Inst::LoadArrGlobal { base, len }
            | Inst::StoreArrLocal { base, len }
            | Inst::StoreArrGlobal { base, len } => [u(base), u(len), 0, 0],
            Inst::Pop | Inst::Neg | Inst::Not | Inst::Return | Inst::Halt | Inst::Write => {
                [0; MAX_FIELDS]
            }
            Inst::Bin(op) => [alu(op), 0, 0, 0],
            Inst::BinLocals { op, a, b, dst } => [alu(op), u(a), u(b), u(dst)],
            Inst::IncLocal { slot, imm } | Inst::SetLocalConst { slot, imm } => {
                [u(slot), imm, 0, 0]
            }
            Inst::CmpConstBr {
                op,
                slot,
                imm,
                target,
            } => [alu(op), u(slot), imm, u(target)],
            Inst::CmpLocalsBr { op, a, b, target } => [alu(op), u(a), u(b), u(target)],
        }
    }

    /// The operand-field values of this instruction, in schema order, as
    /// the encoders write them: [`Inst::operands`] with immediates
    /// zigzag-encoded. Held inline, so encoding an instruction allocates
    /// nothing.
    #[inline]
    pub fn fields(self) -> Fields {
        let kinds = self.opcode().field_kinds();
        let mut values = [0u64; MAX_FIELDS];
        for ((out, &kind), v) in values.iter_mut().zip(kinds).zip(self.operands()) {
            *out = match kind {
                FieldKind::Imm => zigzag(v),
                _ => v as u64,
            };
        }
        Fields {
            values,
            len: kinds.len() as u8,
        }
    }

    /// Reassembles an instruction from an opcode and raw field values (the
    /// inverse of [`Inst::fields`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the field count, an ALU discriminant
    /// or a field range is invalid.
    #[inline]
    pub fn from_parts(opcode: Opcode, fields: &[u64]) -> Result<Inst, DecodeError> {
        let schema = opcode.field_kinds();
        if fields.len() != schema.len() {
            return Err(DecodeError::FieldCount {
                opcode,
                expected: schema.len(),
                got: fields.len(),
            });
        }
        let u32_at = |i: usize| -> Result<u32, DecodeError> {
            u32::try_from(fields[i]).map_err(|_| DecodeError::FieldRange(schema[i], fields[i]))
        };
        let alu_at = |i: usize| -> Result<AluOp, DecodeError> {
            u8::try_from(fields[i])
                .ok()
                .and_then(AluOp::from_u8)
                .ok_or(DecodeError::BadAluOp(fields[i]))
        };
        Ok(match opcode {
            Opcode::PushConst => Inst::PushConst(unzigzag(fields[0])),
            Opcode::PushLocal => Inst::PushLocal(u32_at(0)?),
            Opcode::PushGlobal => Inst::PushGlobal(u32_at(0)?),
            Opcode::StoreLocal => Inst::StoreLocal(u32_at(0)?),
            Opcode::StoreGlobal => Inst::StoreGlobal(u32_at(0)?),
            Opcode::LoadArrLocal => Inst::LoadArrLocal {
                base: u32_at(0)?,
                len: u32_at(1)?,
            },
            Opcode::LoadArrGlobal => Inst::LoadArrGlobal {
                base: u32_at(0)?,
                len: u32_at(1)?,
            },
            Opcode::StoreArrLocal => Inst::StoreArrLocal {
                base: u32_at(0)?,
                len: u32_at(1)?,
            },
            Opcode::StoreArrGlobal => Inst::StoreArrGlobal {
                base: u32_at(0)?,
                len: u32_at(1)?,
            },
            Opcode::Pop => Inst::Pop,
            Opcode::Bin => Inst::Bin(alu_at(0)?),
            Opcode::Neg => Inst::Neg,
            Opcode::Not => Inst::Not,
            Opcode::Jump => Inst::Jump(u32_at(0)?),
            Opcode::JumpIfFalse => Inst::JumpIfFalse(u32_at(0)?),
            Opcode::JumpIfTrue => Inst::JumpIfTrue(u32_at(0)?),
            Opcode::Call => Inst::Call(u32_at(0)?),
            Opcode::Return => Inst::Return,
            Opcode::Halt => Inst::Halt,
            Opcode::Write => Inst::Write,
            Opcode::BinLocals => Inst::BinLocals {
                op: alu_at(0)?,
                a: u32_at(1)?,
                b: u32_at(2)?,
                dst: u32_at(3)?,
            },
            Opcode::IncLocal => Inst::IncLocal {
                slot: u32_at(0)?,
                imm: unzigzag(fields[1]),
            },
            Opcode::SetLocalConst => Inst::SetLocalConst {
                slot: u32_at(0)?,
                imm: unzigzag(fields[1]),
            },
            Opcode::CmpConstBr => Inst::CmpConstBr {
                op: alu_at(0)?,
                slot: u32_at(1)?,
                imm: unzigzag(fields[2]),
                target: u32_at(3)?,
            },
            Opcode::CmpLocalsBr => Inst::CmpLocalsBr {
                op: alu_at(0)?,
                a: u32_at(1)?,
                b: u32_at(2)?,
                target: u32_at(3)?,
            },
        })
    }

    /// Returns the branch-target operand of this instruction, if any.
    pub fn target(self) -> Option<u32> {
        match self {
            Inst::Jump(t) | Inst::JumpIfFalse(t) | Inst::JumpIfTrue(t) => Some(t),
            Inst::CmpConstBr { target, .. } | Inst::CmpLocalsBr { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Rewrites the branch-target operand through `map`.
    pub fn map_target(self, map: impl Fn(u32) -> u32) -> Inst {
        match self {
            Inst::Jump(t) => Inst::Jump(map(t)),
            Inst::JumpIfFalse(t) => Inst::JumpIfFalse(map(t)),
            Inst::JumpIfTrue(t) => Inst::JumpIfTrue(map(t)),
            Inst::CmpConstBr {
                op,
                slot,
                imm,
                target,
            } => Inst::CmpConstBr {
                op,
                slot,
                imm,
                target: map(target),
            },
            Inst::CmpLocalsBr { op, a, b, target } => Inst::CmpLocalsBr {
                op,
                a,
                b,
                target: map(target),
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative instruction per opcode, with interesting operand
    /// values.
    pub(crate) fn representatives() -> Vec<Inst> {
        vec![
            Inst::PushConst(-12345),
            Inst::PushLocal(3),
            Inst::PushGlobal(7),
            Inst::StoreLocal(0),
            Inst::StoreGlobal(255),
            Inst::LoadArrLocal { base: 4, len: 100 },
            Inst::LoadArrGlobal { base: 0, len: 1 },
            Inst::StoreArrLocal { base: 9, len: 64 },
            Inst::StoreArrGlobal { base: 2, len: 8 },
            Inst::Pop,
            Inst::Bin(AluOp::Mod),
            Inst::Neg,
            Inst::Not,
            Inst::Jump(1000),
            Inst::JumpIfFalse(0),
            Inst::JumpIfTrue(42),
            Inst::Call(5),
            Inst::Return,
            Inst::Halt,
            Inst::Write,
            Inst::BinLocals {
                op: AluOp::Mul,
                a: 1,
                b: 2,
                dst: 3,
            },
            Inst::IncLocal { slot: 6, imm: -1 },
            Inst::SetLocalConst { slot: 2, imm: 99 },
            Inst::CmpConstBr {
                op: AluOp::Le,
                slot: 1,
                imm: 100,
                target: 77,
            },
            Inst::CmpLocalsBr {
                op: AluOp::Lt,
                a: 0,
                b: 1,
                target: 12,
            },
        ]
    }

    #[test]
    fn representatives_cover_every_opcode() {
        let mut seen: Vec<Opcode> = representatives().iter().map(|i| i.opcode()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), OPCODE_COUNT);
    }

    #[test]
    fn fields_round_trip_through_from_parts() {
        for inst in representatives() {
            let op = inst.opcode();
            let fields = inst.fields();
            assert_eq!(fields.len(), op.field_kinds().len(), "{op:?}");
            let back = Inst::from_parts(op, &fields).unwrap();
            assert_eq!(back, inst);
        }
    }

    #[test]
    fn operands_are_the_unencoded_fields() {
        for inst in representatives() {
            let kinds = inst.opcode().field_kinds();
            let operands = inst.operands();
            assert!(operands[kinds.len()..].iter().all(|&v| v == 0), "{inst:?}");
            for ((&kind, field), &v) in kinds.iter().zip(inst.fields()).zip(&operands) {
                let want = if kind == FieldKind::Imm {
                    unzigzag(field)
                } else {
                    field as i64
                };
                assert_eq!(v, want, "{inst:?} {kind:?}");
            }
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes get small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn opcode_from_u8_round_trips() {
        for (i, op) in OPCODES.iter().enumerate() {
            assert_eq!(Opcode::from_u8(i as u8), Some(*op));
            assert_eq!(*op as usize, i);
        }
        assert_eq!(Opcode::from_u8(OPCODE_COUNT as u8), None);
    }

    #[test]
    fn aluop_from_u8_round_trips() {
        for (i, op) in ALU_OPS.iter().enumerate() {
            assert_eq!(AluOp::from_u8(i as u8), Some(*op));
        }
        assert_eq!(AluOp::from_u8(13), None);
    }

    #[test]
    fn alu_semantics_match_reference_evaluator() {
        use hlr::ast::BinOp;
        let binops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ];
        let values = [0i64, 1, -1, 7, -7, i64::MAX, i64::MIN, 100];
        for &op in &binops {
            let alu = AluOp::from_binop(op);
            for &a in &values {
                for &b in &values {
                    let want = hlr::eval::apply_binop(op, a, b);
                    let got = alu.apply(a, b);
                    match (want, got) {
                        (Ok(w), Ok(g)) => assert_eq!(w, g, "{op:?} {a} {b}"),
                        (Err(_), Err(DivByZero)) => {}
                        (w, g) => panic!("{op:?} {a} {b}: {w:?} vs {g:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        assert!(matches!(
            Inst::from_parts(Opcode::PushLocal, &[]),
            Err(DecodeError::FieldCount { .. })
        ));
        assert!(matches!(
            Inst::from_parts(Opcode::Bin, &[99]),
            Err(DecodeError::BadAluOp(99))
        ));
        assert!(matches!(
            Inst::from_parts(Opcode::PushLocal, &[u64::MAX]),
            Err(DecodeError::FieldRange(FieldKind::Slot, _))
        ));
    }

    #[test]
    fn target_mapping() {
        let i = Inst::JumpIfFalse(10);
        assert_eq!(i.target(), Some(10));
        assert_eq!(i.map_target(|t| t + 5).target(), Some(15));
        assert_eq!(Inst::Pop.target(), None);
        let c = Inst::CmpConstBr {
            op: AluOp::Lt,
            slot: 0,
            imm: 3,
            target: 9,
        };
        assert_eq!(c.map_target(|t| t * 2).target(), Some(18));
    }

    #[test]
    fn fused_opcode_classification() {
        assert!(Opcode::BinLocals.is_fused());
        assert!(Opcode::IncLocal.is_fused());
        assert!(!Opcode::PushLocal.is_fused());
        assert!(!Opcode::Bin.is_fused());
    }
}
