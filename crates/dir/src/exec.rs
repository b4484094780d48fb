//! A direct executor for DIR programs.
//!
//! This is *not* the universal host machine (no cycle accounting, no DTB);
//! it is the semantic reference for the DIR level, used to verify the
//! compiler against the HLR evaluator and the UHM against the DIR. All
//! three must agree exactly, traps included.

use crate::facts::SiteFacts;
use crate::isa::{AluOp, Inst};
use crate::program::Program;

/// Resource limits for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum DIR instructions executed.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 200_000_000,
            max_depth: 10_000,
        }
    }
}

/// A runtime trap raised by the executor.
///
/// The variants mirror [`hlr::eval::EvalError`] exactly so that differential
/// tests can compare failure modes across levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Division or remainder by zero.
    DivByZero,
    /// Array index out of range.
    IndexOutOfBounds {
        /// Offending index.
        index: i64,
        /// Array length.
        len: u32,
    },
    /// Instruction budget exhausted.
    StepLimit,
    /// Call depth budget exhausted.
    DepthLimit,
    /// The program is structurally broken (should be prevented by
    /// [`Program::validate`]).
    Malformed(&'static str),
    /// The encoded DIR stream at this address no longer decodes: the
    /// static program image — the level-2 ground truth — is corrupt, so
    /// no retranslation can recover it.
    CorruptDir {
        /// DIR address whose encoding failed to decode.
        addr: u32,
    },
    /// Level-2 fetches of this instruction kept failing past the
    /// machine's retry budget (transient fault turned permanent).
    FetchFailed {
        /// DIR address being fetched.
        addr: u32,
    },
    /// The machine's mode and its translation buffers disagree — a
    /// configuration bug reported as a trap instead of a panic.
    MisconfiguredMode(&'static str),
    /// The run's modeled-cycle budget ("fuel") ran out: a host-level
    /// preemption, not a guest fault. The supervised pool maps this to
    /// a timed-out tenant outcome.
    FuelExhausted,
    /// The run's wall-clock deadline passed: a host-level preemption,
    /// not a guest fault. Unlike [`Trap::FuelExhausted`] this depends on
    /// host speed, so nothing deterministic may key off it.
    DeadlineExceeded,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of length {len}")
            }
            Trap::StepLimit => write!(f, "step limit exceeded"),
            Trap::DepthLimit => write!(f, "call depth limit exceeded"),
            Trap::Malformed(what) => write!(f, "malformed program: {what}"),
            Trap::CorruptDir { addr } => {
                write!(f, "corrupt DIR stream at address {addr}")
            }
            Trap::FetchFailed { addr } => {
                write!(
                    f,
                    "level-2 fetch of address {addr} failed past the retry budget"
                )
            }
            Trap::MisconfiguredMode(what) => write!(f, "misconfigured machine mode: {what}"),
            Trap::FuelExhausted => write!(f, "modeled-cycle budget exhausted"),
            Trap::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for Trap {}

/// Converts a reference-evaluator error into the equivalent trap, for
/// differential assertions.
impl From<hlr::eval::EvalError> for Trap {
    fn from(e: hlr::eval::EvalError) -> Self {
        match e {
            hlr::eval::EvalError::DivByZero => Trap::DivByZero,
            hlr::eval::EvalError::IndexOutOfBounds { index, len } => {
                Trap::IndexOutOfBounds { index, len }
            }
            hlr::eval::EvalError::StepLimit => Trap::StepLimit,
            hlr::eval::EvalError::DepthLimit => Trap::DepthLimit,
        }
    }
}

/// Execution statistics gathered by a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// DIR instructions executed (the dynamic instruction count `N`).
    pub instructions: u64,
    /// Dynamic execution counts per opcode.
    pub opcode_counts: [u64; crate::isa::OPCODE_COUNT],
    /// The dynamic instruction-address trace, if tracing was requested.
    pub trace: Option<Vec<u32>>,
}

/// Runs a program with default limits.
///
/// # Errors
///
/// Returns a [`Trap`] on runtime errors or exhausted limits.
pub fn run(program: &Program) -> Result<Vec<i64>, Trap> {
    run_with(program, Limits::default(), false).map(|(out, _)| out)
}

/// Runs a program, optionally recording the dynamic DIR-address trace
/// (used by the working-set and cache studies).
///
/// # Errors
///
/// Returns a [`Trap`] on runtime errors or exhausted limits.
pub fn run_with(
    program: &Program,
    limits: Limits,
    trace: bool,
) -> Result<(Vec<i64>, ExecStats), Trap> {
    execute(program, limits, trace).0
}

/// Runs a program in *audit* mode: an ordinary checked run, after which a
/// divide-by-zero or bounds trap raised at a site the facts claim
/// discharged is recorded in the returned [`SiteAudit`]. The run result is
/// exactly [`run_with`]'s; a non-empty audit is a static-analysis
/// soundness divergence.
pub fn run_audit_with(
    program: &Program,
    facts: &SiteFacts,
    limits: Limits,
    trace: bool,
) -> (Result<(Vec<i64>, ExecStats), Trap>, SiteAudit) {
    let (result, pc) = execute(program, limits, trace);
    let mut audit = SiteAudit::default();
    match result {
        Err(Trap::DivByZero) if facts.div_ok(pc) => audit.div_violations += 1,
        Err(Trap::IndexOutOfBounds { .. }) if facts.idx_ok(pc) => audit.idx_violations += 1,
        _ => return (result, audit),
    }
    audit.sites.push(pc);
    (result, audit)
}

/// Soundness violations observed by [`run_audit_with`]: sites the facts
/// claim discharged whose guard fired anyway.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteAudit {
    /// Proved-nonzero divisor sites where the divisor was zero.
    pub div_violations: u64,
    /// Proved-in-bounds index sites where the index was out of range.
    pub idx_violations: u64,
    /// DIR addresses of the violating sites. A run stops at its first
    /// trap, so an audit records at most one.
    pub sites: Vec<u32>,
}

impl SiteAudit {
    /// True when no discharged guard fired — the facts were dynamically
    /// sound on this run.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.div_violations == 0 && self.idx_violations == 0
    }
}

/// Runs the checked executor, returning the result and the pc it stopped
/// at (the trapping instruction's address on error).
fn execute(
    program: &Program,
    limits: Limits,
    trace: bool,
) -> (Result<(Vec<i64>, ExecStats), Trap>, u32) {
    let mut st = State {
        program,
        pc: 0,
        stack: Vec::with_capacity(64),
        frames: vec![Frame {
            base: 0,
            ret_pc: u32::MAX,
        }],
        slots: Vec::new(),
        globals: vec![0; program.globals_size as usize],
        output: Vec::new(),
        stats: ExecStats {
            trace: trace.then(Vec::new),
            ..ExecStats::default()
        },
        limits,
    };
    let result = st.run();
    let State {
        pc, output, stats, ..
    } = st;
    (result.map(|()| (output, stats)), pc)
}

struct Frame {
    /// First slot of this frame within `slots`.
    base: usize,
    /// Return address; `u32::MAX` marks the prelude pseudo-frame.
    ret_pc: u32,
}

struct State<'p> {
    program: &'p Program,
    pc: u32,
    stack: Vec<i64>,
    frames: Vec<Frame>,
    /// Flat storage for all live frames.
    slots: Vec<i64>,
    globals: Vec<i64>,
    output: Vec<i64>,
    stats: ExecStats,
    limits: Limits,
}

impl State<'_> {
    #[inline]
    fn pop(&mut self) -> Result<i64, Trap> {
        self.stack
            .pop()
            .ok_or(Trap::Malformed("operand stack underflow"))
    }

    fn frame_base(&self) -> usize {
        self.frames.last().expect("frame stack never empty").base
    }

    fn local(&mut self, slot: u32) -> &mut i64 {
        let base = self.frame_base();
        &mut self.slots[base + slot as usize]
    }

    #[inline]
    fn alu(op: AluOp, a: i64, b: i64) -> Result<i64, Trap> {
        op.apply(a, b).map_err(|_| Trap::DivByZero)
    }

    #[inline]
    fn index(index: i64, len: u32) -> Result<usize, Trap> {
        if index < 0 || index >= len as i64 {
            return Err(Trap::IndexOutOfBounds { index, len });
        }
        Ok(index as usize)
    }

    fn run(&mut self) -> Result<(), Trap> {
        loop {
            let inst = *self
                .program
                .code
                .get(self.pc as usize)
                .ok_or(Trap::Malformed("pc out of range"))?;
            self.stats.instructions += 1;
            if self.stats.instructions > self.limits.max_steps {
                return Err(Trap::StepLimit);
            }
            self.stats.opcode_counts[inst.opcode() as usize] += 1;
            if let Some(t) = self.stats.trace.as_mut() {
                t.push(self.pc);
            }
            let mut next = self.pc + 1;
            match inst {
                Inst::PushConst(v) => self.stack.push(v),
                Inst::PushLocal(s) => {
                    let v = *self.local(s);
                    self.stack.push(v);
                }
                Inst::PushGlobal(s) => self.stack.push(self.globals[s as usize]),
                Inst::StoreLocal(s) => {
                    let v = self.pop()?;
                    *self.local(s) = v;
                }
                Inst::StoreGlobal(s) => {
                    let v = self.pop()?;
                    self.globals[s as usize] = v;
                }
                Inst::LoadArrLocal { base, len } => {
                    let i = self.pop()?;
                    let idx = Self::index(i, len)?;
                    let fb = self.frame_base();
                    self.stack.push(self.slots[fb + base as usize + idx]);
                }
                Inst::LoadArrGlobal { base, len } => {
                    let i = self.pop()?;
                    let idx = Self::index(i, len)?;
                    self.stack.push(self.globals[base as usize + idx]);
                }
                Inst::StoreArrLocal { base, len } => {
                    let v = self.pop()?;
                    let i = self.pop()?;
                    let idx = Self::index(i, len)?;
                    let fb = self.frame_base();
                    self.slots[fb + base as usize + idx] = v;
                }
                Inst::StoreArrGlobal { base, len } => {
                    let v = self.pop()?;
                    let i = self.pop()?;
                    let idx = Self::index(i, len)?;
                    self.globals[base as usize + idx] = v;
                }
                Inst::Pop => {
                    self.pop()?;
                }
                Inst::Bin(op) => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    let r = Self::alu(op, a, b)?;
                    self.stack.push(r);
                }
                Inst::Neg => {
                    let v = self.pop()?;
                    self.stack.push(v.wrapping_neg());
                }
                Inst::Not => {
                    let v = self.pop()?;
                    self.stack.push((v == 0) as i64);
                }
                Inst::Jump(t) => next = t,
                Inst::JumpIfFalse(t) => {
                    if self.pop()? == 0 {
                        next = t;
                    }
                }
                Inst::JumpIfTrue(t) => {
                    if self.pop()? != 0 {
                        next = t;
                    }
                }
                Inst::Call(p) => {
                    if self.frames.len() as u32 > self.limits.max_depth {
                        return Err(Trap::DepthLimit);
                    }
                    let info = &self.program.procs[p as usize];
                    let base = self.slots.len();
                    self.slots.resize(base + info.frame_size as usize, 0);
                    // Arguments were pushed left-to-right; pop right-to-left.
                    for i in (0..info.n_args).rev() {
                        let v = self.pop()?;
                        self.slots[base + i as usize] = v;
                    }
                    self.frames.push(Frame { base, ret_pc: next });
                    next = info.entry;
                }
                Inst::Return => {
                    let frame = self
                        .frames
                        .pop()
                        .ok_or(Trap::Malformed("return without frame"))?;
                    if frame.ret_pc == u32::MAX {
                        return Err(Trap::Malformed("return from prelude"));
                    }
                    self.slots.truncate(frame.base);
                    next = frame.ret_pc;
                }
                Inst::Halt => return Ok(()),
                Inst::Write => {
                    let v = self.pop()?;
                    self.output.push(v);
                }
                Inst::BinLocals { op, a, b, dst } => {
                    let fb = self.frame_base();
                    let va = self.slots[fb + a as usize];
                    let vb = self.slots[fb + b as usize];
                    let r = Self::alu(op, va, vb)?;
                    self.slots[fb + dst as usize] = r;
                }
                Inst::IncLocal { slot, imm } => {
                    let v = self.local(slot);
                    *v = v.wrapping_add(imm);
                }
                Inst::SetLocalConst { slot, imm } => {
                    *self.local(slot) = imm;
                }
                Inst::CmpConstBr {
                    op,
                    slot,
                    imm,
                    target,
                } => {
                    let v = *self.local(slot);
                    let r = Self::alu(op, v, imm)?;
                    if r == 0 {
                        next = target;
                    }
                }
                Inst::CmpLocalsBr { op, a, b, target } => {
                    let fb = self.frame_base();
                    let va = self.slots[fb + a as usize];
                    let vb = self.slots[fb + b as usize];
                    let r = Self::alu(op, va, vb)?;
                    if r == 0 {
                        next = target;
                    }
                }
            }
            self.pc = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    fn run_src(src: &str) -> Result<Vec<i64>, Trap> {
        let hir = hlr::compile(src).unwrap();
        run(&compile(&hir))
    }

    #[test]
    fn matches_reference_on_all_samples() {
        for s in hlr::programs::ALL {
            let hir = s.compile().unwrap();
            let want = hlr::eval::run(&hir).unwrap();
            let got = run(&compile(&hir)).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(got, want, "{}", s.name);
        }
    }

    #[test]
    fn matches_reference_on_generated_programs() {
        for seed in 0..40 {
            let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
            let hir = hlr::sema::analyze(&ast).unwrap();
            let want = hlr::eval::run(&hir).unwrap();
            let got = run(&compile(&hir)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn traps_match_reference_traps() {
        let cases = [
            "proc main() begin write 1 / 0; end",
            "proc main() begin write 5 % 0; end",
            "proc main() begin int a[3]; write a[3]; end",
            "proc main() begin int a[3]; a[-2] := 0; skip; end",
        ];
        for src in cases {
            let hir = hlr::compile(src).unwrap();
            let want: Trap = hlr::eval::run(&hir).unwrap_err().into();
            let got = run(&compile(&hir)).unwrap_err();
            assert_eq!(got, want, "{src}");
        }
    }

    #[test]
    fn audit_flags_a_fired_guard_at_a_discharged_site() {
        let cases = [
            ("proc main() begin write 1 / 0; end", true),
            ("proc main() begin int a[3]; write a[3]; end", false),
        ];
        for (src, div) in cases {
            let p = compile(&hlr::compile(src).unwrap());
            let want = run_with(&p, Limits::default(), false);
            let (_, sound) = run_audit_with(
                &p,
                &SiteFacts::empty(p.code.len() as u32),
                Limits::default(),
                false,
            );
            assert!(sound.is_sound(), "{src}: no fact, no violation");
            // Claim every site discharged: the trapping one is refuted.
            let mut facts = SiteFacts::empty(p.code.len() as u32);
            for addr in 0..p.code.len() as u32 {
                facts.set_div_ok(addr);
                facts.set_idx_ok(addr);
            }
            let (got, audit) = run_audit_with(&p, &facts, Limits::default(), false);
            assert_eq!(got, want, "{src}");
            assert_eq!(audit.sites.len(), 1, "{src}");
            assert_eq!(audit.div_violations, u64::from(div), "{src}");
            assert_eq!(audit.idx_violations, u64::from(!div), "{src}");
        }
    }

    #[test]
    fn step_limit_enforced() {
        let hir = hlr::compile("proc main() begin while true do skip; end").unwrap();
        let p = compile(&hir);
        let r = run_with(
            &p,
            Limits {
                max_steps: 100,
                max_depth: 8,
            },
            false,
        );
        assert!(matches!(r, Err(Trap::StepLimit)));
    }

    #[test]
    fn depth_limit_enforced() {
        let hir =
            hlr::compile("proc f() begin call f(); end proc main() begin call f(); end").unwrap();
        let p = compile(&hir);
        let r = run_with(
            &p,
            Limits {
                max_steps: 1_000_000,
                max_depth: 32,
            },
            false,
        );
        assert!(matches!(r, Err(Trap::DepthLimit)));
    }

    #[test]
    fn trace_records_addresses() {
        let hir = hlr::compile("proc main() begin write 1; end").unwrap();
        let p = compile(&hir);
        let (_, stats) = run_with(&p, Limits::default(), true).unwrap();
        let trace = stats.trace.unwrap();
        assert_eq!(trace.len() as u64, stats.instructions);
        assert_eq!(trace[0], 0); // prelude Call
    }

    #[test]
    fn recursion_frames_are_isolated() {
        let out = run_src(
            "proc fac(int n) -> int begin
                if n <= 1 then return 1;
                return n * fac(n - 1);
            end
            proc main() begin write fac(6); end",
        )
        .unwrap();
        assert_eq!(out, vec![720]);
    }

    #[test]
    fn arguments_pop_in_correct_order() {
        let out = run_src(
            "proc sub(int a, int b) -> int begin return a - b; end
             proc main() begin write sub(10, 3); end",
        )
        .unwrap();
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn dynamic_opcode_counts_accumulate() {
        let hir = hlr::compile("proc main() begin int i; for i := 0 to 9 do skip; end").unwrap();
        let p = compile(&hir);
        let (_, stats) = run_with(&p, Limits::default(), false).unwrap();
        use crate::isa::Opcode;
        // The loop check executes 11 times (10 passes + 1 failure).
        assert_eq!(stats.opcode_counts[Opcode::JumpIfFalse as usize], 11);
        assert!(stats.instructions > 30);
    }
}
