//! Copy-and-patch translation: one compiled line per instruction shape.
//!
//! Rau calls the DIR → PSDER mapping "almost one-to-one" (§6.2), and it
//! is: which short words a translation holds, which routine it calls,
//! which superoperator that routine fuses into and whether the exit
//! folds all depend only on the instruction's *shape* — its opcode and,
//! for the four opcodes that carry one, its ALU operation. The operands
//! only fill fields. So the work of [`Line::compile`] is done once per
//! shape, here, and a translation event copies the shape's line and
//! patches its operands in: instructions instantiated from templates at
//! run time, with the compile step specialised over the static part of
//! the instruction.
//!
//! A stencil is made by running the unchanged translator
//! ([`Template::new`]) and line compiler once on a *sentinel* instance
//! of its shape: every operand field and the fall-through address carry
//! a distinct value, and wherever one of those values turns up in the
//! line — in an op, or as the folded exit — the stencil records which
//! operand fills it, a *hole*. [`Template::new`]
//! stays the one definition of the mapping; nothing here knows what any
//! opcode translates to. The short words themselves are not stamped:
//! [`Template::new`] builds them with one dispatch on the opcode and no
//! table to read, which measured cheaper than patching a stored copy.
//! The stencil keeps only their count ([`Instance::words`]), which is
//! what a translation buffer allocates and the modeled charges count.
//!
//! Fusion never depends on operand values: the immediate pairs a
//! superoperator absorbs are all `u32` fields or `next`. The tests pin
//! this by building every stencil from two different sentinel sets.
//!
//! ```
//! use dir::{AluOp, Inst};
//! use psder::line::{Flow, Line, Op};
//! use psder::Stencils;
//!
//! let inst = Inst::BinLocals { op: AluOp::Mul, a: 1, b: 2, dst: 3 };
//! let mut line = Line::EMPTY;
//! Stencils::shared().instance(inst, 8).line_into(&mut line);
//! assert_eq!(
//!     line.ops(),
//!     [Op::PushLocal(1), Op::PushLocal(2), Op::StackBin(AluOp::Mul), Op::PopLocal(3)]
//! );
//! assert_eq!(line.meta().exit(), Flow::Goto(8));
//! ```

use dir::isa::{zigzag, AluOp, FieldKind, Inst, Opcode, ALU_OPS, MAX_FIELDS, OPCODES};

use crate::line::{Flow, Line, Op};
use crate::routines::RoutineLib;
use crate::translator::Template;

/// Instruction shapes: each opcode, and each of the 13 ALU operations
/// for the four opcodes with an `Alu` field (21 + 4 × 13).
const SHAPES: usize = 73;

/// Most ops a stencil's line patches.
const MAX_HOLES: usize = 4;

/// The operand index of the fall-through address `next`; indices below
/// it are the instruction's fields in schema order.
const NEXT: u8 = MAX_FIELDS as u8;

/// One value per operand (the fields, then `next`): what a sentinel
/// instance is built from, and what an instance patches in.
type Operands = [i64; MAX_FIELDS + 1];

/// The sentinels the shared table is built from: distinct, fitting every
/// field kind, and unlike any constant a translation holds.
const SENTINELS: Operands = [
    0x5E00_0001,
    0x5E00_0002,
    0x5E00_0003,
    0x5E00_0004,
    0x5E00_0005,
];

/// The line ops that carry operands: what a hole rebuilds around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// [`Op::PushImm`].
    PushImm,
    /// [`Op::PushLocal`].
    PushLocal,
    /// [`Op::PushGlobal`].
    PushGlobal,
    /// [`Op::PopLocal`].
    PopLocal,
    /// [`Op::PopGlobal`].
    PopGlobal,
    /// [`Op::InterpImm`].
    InterpImm,
    /// [`Op::Branch`].
    Branch,
    /// [`Op::LoadArrGlobal`].
    LoadArrGlobal,
    /// [`Op::StoreArrGlobal`].
    StoreArrGlobal,
    /// [`Op::DirCall`].
    DirCall,
}

impl Form {
    /// The form of `op` and its operands (one, repeated, or a
    /// superoperator's two), if it carries any.
    fn of(op: Op) -> Option<(Form, [i64; 2])> {
        let u = i64::from;
        Some(match op {
            Op::PushImm(v) => (Form::PushImm, [v; 2]),
            Op::PushLocal(s) => (Form::PushLocal, [u(s); 2]),
            Op::PushGlobal(s) => (Form::PushGlobal, [u(s); 2]),
            Op::PopLocal(s) => (Form::PopLocal, [u(s); 2]),
            Op::PopGlobal(s) => (Form::PopGlobal, [u(s); 2]),
            Op::InterpImm(a) => (Form::InterpImm, [u(a); 2]),
            Op::Branch(a, b) => (Form::Branch, [u(a), u(b)]),
            Op::LoadArrGlobal(a, b) => (Form::LoadArrGlobal, [u(a), u(b)]),
            Op::StoreArrGlobal(a, b) => (Form::StoreArrGlobal, [u(a), u(b)]),
            Op::DirCall(a, b) => (Form::DirCall, [u(a), u(b)]),
            _ => return None,
        })
    }

    /// The op of this form carrying `v` (and `w`, a superoperator's
    /// second field). A `u32` operand came from a `u32` field or `next`,
    /// so the casts are exact.
    #[inline(always)]
    fn op(self, [v, w]: [i64; 2]) -> Op {
        let (a, b) = (v as u32, w as u32);
        match self {
            Form::PushImm => Op::PushImm(v),
            Form::PushLocal => Op::PushLocal(a),
            Form::PushGlobal => Op::PushGlobal(a),
            Form::PopLocal => Op::PopLocal(a),
            Form::PopGlobal => Op::PopGlobal(a),
            Form::InterpImm => Op::InterpImm(a),
            Form::Branch => Op::Branch(a, b),
            Form::LoadArrGlobal => Op::LoadArrGlobal(a, b),
            Form::StoreArrGlobal => Op::StoreArrGlobal(a, b),
            Form::DirCall => Op::DirCall(a, b),
        }
    }
}

/// One hole of a stencil: the line op at `at`, rebuilt in `form` around
/// the operands it names — indices into [`Operands`], a field or
/// [`NEXT`]; the second differs from the first only for a
/// superoperator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hole {
    /// Index of the op in the line.
    at: u8,
    /// What is rebuilt there.
    form: Form,
    /// The operands that fill it.
    operands: [u8; 2],
}

/// One shape's compiled line with operand holes: the line with its
/// constant [`LineMeta`](crate::LineMeta), the ops its operands fill,
/// the operand its folded exit jumps to, and its template's length.
#[derive(Debug, Clone)]
struct Stencil {
    line: Line,
    /// Short words in the shape's [`Template::new`] translation.
    words: u8,
    holes: [Hole; MAX_HOLES],
    n_holes: u8,
    /// The operand the line's folded exit jumps to, if it has one.
    exit: Option<u8>,
}

impl Stencil {
    /// Builds the stencil of the shape (`opcode`, `alu`) — `alu` is
    /// ignored for an opcode without an `Alu` field — by translating and
    /// compiling the instance whose operand `k` is `sentinels[k]`. The
    /// sentinels must be distinct and fit their fields.
    ///
    /// # Panics
    ///
    /// Panics if a sentinel does not fit its field, the line has more
    /// than [`MAX_HOLES`] ops with operands, or a superoperator mixes an
    /// operand with a constant; none happens for the sentinels
    /// the shared table uses.
    fn build(lib: &RoutineLib, opcode: Opcode, alu: AluOp, sentinels: Operands) -> Stencil {
        let kinds = opcode.field_kinds();
        let (inst, next) = sentinel_instance(opcode, alu, sentinels);
        let template = Template::new(inst, next);
        let mut line = Line::EMPTY;
        line.compile(lib, &template)
            .expect("every template fits a line");
        // The operand a value stands for, if it is one of this
        // instance's sentinels (an ALU field is part of the shape).
        let operand = |v: i64| -> Option<u8> {
            let is_operand = |k: usize| match kinds.get(k) {
                Some(&kind) => kind != FieldKind::Alu,
                None => k == usize::from(NEXT),
            };
            (0..sentinels.len())
                .find(|&k| is_operand(k) && sentinels[k] == v)
                .map(|k| k as u8)
        };
        let filler = Hole {
            at: 0,
            form: Form::PushImm,
            operands: [0; 2],
        };
        let (mut holes, mut n_holes) = ([filler; MAX_HOLES], 0);
        for (at, &op) in line.ops().iter().enumerate() {
            let Some((form, values)) = Form::of(op) else {
                continue;
            };
            let operands = match values.map(operand) {
                [Some(a), Some(b)] => [a, b],
                [None, None] => continue,
                _ => panic!("superoperator {op:?} mixes operands and constants"),
            };
            let hole = holes.get_mut(n_holes);
            *hole.expect("a line has at most MAX_HOLES holes") = Hole {
                at: at as u8,
                form,
                operands,
            };
            n_holes += 1;
        }
        let exit = match line.meta().exit() {
            Flow::Goto(addr) => operand(i64::from(addr)),
            _ => None,
        };
        Stencil {
            line,
            words: template.len() as u8,
            holes,
            n_holes: n_holes as u8,
            exit,
        }
    }

    /// The ops the operands fill, in op order.
    fn holes(&self) -> &[Hole] {
        &self.holes[..usize::from(self.n_holes)]
    }
}

/// The instance of the shape (`opcode`, `alu`) whose operand `k` is
/// `sentinels[k]`, and its `next`.
///
/// # Panics
///
/// Panics if a sentinel does not fit its field.
fn sentinel_instance(opcode: Opcode, alu: AluOp, sentinels: Operands) -> (Inst, u32) {
    let fields: Vec<u64> = opcode
        .field_kinds()
        .iter()
        .zip(sentinels)
        .map(|(&kind, v)| match kind {
            FieldKind::Alu => alu as u64,
            FieldKind::Imm => zigzag(v),
            _ => v as u64,
        })
        .collect();
    let inst = Inst::from_parts(opcode, &fields).expect("sentinels fit their fields");
    let next = u32::try_from(sentinels[usize::from(NEXT)]).expect("the next sentinel is a u32");
    (inst, next)
}

/// One instruction's translation, ready to be stamped out: its shape's
/// stencil and its operands.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'s> {
    stencil: &'s Stencil,
    operands: Operands,
}

impl Instance<'_> {
    /// Writes the translation's line into `line`, replacing what it held:
    /// [`Line::compile`] of [`Template::new`]'s words, copied from the
    /// stencil with the operands patched in. No allocation and no
    /// compile.
    #[inline]
    pub fn line_into(&self, line: &mut Line) {
        let stencil = &self.stencil.line;
        line.meta = stencil.meta;
        let len = stencil.meta.len();
        for (op, &from) in line.ops.iter_mut().zip(&stencil.ops).take(len) {
            *op = from;
        }
        for hole in self.stencil.holes() {
            let values = hole.operands.map(|k| self.operands[usize::from(k)]);
            line.ops[usize::from(hole.at)] = hole.form.op(values);
        }
        if let Some(k) = self.stencil.exit {
            line.meta.exit = Flow::Goto(self.operands[usize::from(k)] as u32);
        }
    }

    /// The length in short words of the instruction's [`Template::new`]
    /// translation. Not always the line's
    /// [`short_words`](crate::LineMeta::short_words): a line stops
    /// counting at a routine that halts.
    #[inline]
    pub fn words(&self) -> usize {
        usize::from(self.stencil.words)
    }
}

/// The stencil of every instruction shape.
#[derive(Debug)]
pub struct Stencils {
    shapes: Vec<Stencil>,
    /// Per opcode discriminant: its first shape, and whether its ALU
    /// field (operand 0) picks among 13 shapes from there.
    first: [(u8, bool); OPCODES.len()],
}

impl Stencils {
    /// Builds every shape's stencil.
    fn new(lib: &RoutineLib) -> Stencils {
        Stencils::from_sentinels(lib, |_| SENTINELS)
    }

    /// Builds every shape's stencil from the sentinels `sentinels` gives
    /// its opcode.
    fn from_sentinels(lib: &RoutineLib, sentinels: impl Fn(Opcode) -> Operands) -> Stencils {
        let mut shapes = Vec::with_capacity(SHAPES);
        let mut first = [(0, false); OPCODES.len()];
        for opcode in OPCODES {
            let has_alu = opcode.field_kinds().first() == Some(&FieldKind::Alu);
            first[opcode as usize] = (shapes.len() as u8, has_alu);
            let alus: &[AluOp] = if has_alu { &ALU_OPS } else { &[AluOp::Add] };
            for &alu in alus {
                shapes.push(Stencil::build(lib, opcode, alu, sentinels(opcode)));
            }
        }
        assert_eq!(shapes.len(), SHAPES);
        Stencils { shapes, first }
    }

    /// The table every machine shares: like the routine library it is a
    /// constant of the ISA, so it is built once per process.
    pub fn shared() -> &'static Stencils {
        static TABLE: std::sync::OnceLock<Stencils> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| Stencils::new(RoutineLib::shared()))
    }

    /// `inst` with fall-through successor `next`, bound to its shape's
    /// stencil.
    #[inline]
    pub fn instance(&self, inst: Inst, next: u32) -> Instance<'_> {
        let [a, b, c, d] = inst.operands();
        let (first, has_alu) = self.first[inst.opcode() as usize];
        // An ALU field is operand 0, its discriminant below 13.
        let shape = usize::from(first) + if has_alu { a as usize } else { 0 };
        Instance {
            stencil: &self.shapes[shape],
            operands: [a, b, c, d, i64::from(next)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::isa_sample;

    /// Seed of the instantiation property.
    const SEED: u64 = 0x57E7_C115;

    #[test]
    fn instances_equal_the_translator_and_the_compiler() {
        let lib = RoutineLib::new();
        let stencils = Stencils::new(&lib);
        let mut rng = hlr::rng::Rng::new(SEED);
        // Wide operands, then small ones; every `next` is random.
        let mut sample = isa_sample(4, || rng.next_u64());
        sample.extend(isa_sample(8, || rng.next_u64() % (8 << 32)));
        let (mut line, mut compiled) = (Line::EMPTY, Line::EMPTY);
        for (inst, next) in sample {
            stencils.instance(inst, next).line_into(&mut line);
            compiled.compile(&lib, &Template::new(inst, next)).unwrap();
            assert_eq!(line.ops(), compiled.ops(), "{inst:?} {next}");
            assert_eq!(line.meta(), compiled.meta(), "{inst:?} {next}");
        }
    }

    #[test]
    fn fusion_and_holes_do_not_depend_on_the_sentinels() {
        let lib = RoutineLib::new();
        let wide = Stencils::new(&lib);
        // Small sentinels, negative for immediates: unlike the shared
        // set in every way a value could steer fusion.
        let small = Stencils::from_sentinels(&lib, |opcode| {
            let mut set = [3, 5, 7, 9, 11];
            for (v, &kind) in set.iter_mut().zip(opcode.field_kinds()) {
                if kind == FieldKind::Imm {
                    *v = -*v;
                }
            }
            set
        });
        for (a, b) in wide.shapes.iter().zip(&small.shapes) {
            let shape = a.line.ops();
            assert_eq!(a.holes(), b.holes(), "{shape:?}");
            assert_eq!(a.exit, b.exit, "{shape:?}");
            assert_eq!(a.line.meta().calls(), b.line.meta().calls());
        }
        // So every instance is the same line from either table.
        let mut rng = hlr::rng::Rng::new(SEED);
        let (mut x, mut y) = (Line::EMPTY, Line::EMPTY);
        for (inst, next) in isa_sample(2, || rng.next_u64()) {
            wide.instance(inst, next).line_into(&mut x);
            small.instance(inst, next).line_into(&mut y);
            assert_eq!((x.ops(), x.meta()), (y.ops(), y.meta()), "{inst:?}");
        }
    }

    #[test]
    fn instances_count_the_translators_words() {
        let lib = RoutineLib::new();
        let stencils = Stencils::new(&lib);
        // Each shape's sentinel instance, then a sample of every shape.
        let sentinel: Vec<_> = OPCODES
            .iter()
            .flat_map(|&opcode| {
                let has_alu = opcode.field_kinds().first() == Some(&FieldKind::Alu);
                let alus: &[AluOp] = if has_alu { &ALU_OPS } else { &[AluOp::Add] };
                alus.iter()
                    .map(move |&alu| sentinel_instance(opcode, alu, SENTINELS))
            })
            .collect();
        assert_eq!(sentinel.len(), SHAPES);
        let mut rng = hlr::rng::Rng::new(SEED);
        let sample = isa_sample(4, || rng.next_u64());
        for (inst, next) in sentinel.into_iter().chain(sample) {
            let words = Template::new(inst, next).len();
            assert_eq!(stencils.instance(inst, next).words(), words, "{inst:?}");
        }
    }

    #[test]
    fn the_table_has_one_stencil_per_shape() {
        let stencils = Stencils::shared();
        assert_eq!(stencils.shapes.len(), SHAPES);
        let most = stencils.shapes.iter().map(|s| s.holes().len()).max();
        assert_eq!(most, Some(MAX_HOLES), "the fused compare-and-branches");
    }
}
