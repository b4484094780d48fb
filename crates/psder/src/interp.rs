//! A complete (cost-free) PSDER-level interpreter.
//!
//! Runs a DIR program by translating each instruction on the fly into its
//! short-format sequence and executing it word by word against the
//! [`Engine`], with the semantic routines from the [`RoutineLib`]. This is
//! the semantic reference for the `uhm` machines, which execute compiled
//! [`Line`](crate::line::Line)s instead: they must produce byte-identical
//! output (the uhm test suite checks this differentially), differing only
//! in *when* translations happen and what they cost.

use dir::exec::Trap;
use dir::program::Program;

use crate::engine::{Engine, MicroEffect, ShortEffect};
use crate::line::Flow;
use crate::routines::RoutineLib;
use crate::short::ShortInstr;
use crate::translator::Template;

/// Resource limits for a run.
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

/// Runs a program to completion.
///
/// # Errors
///
/// Returns the same [`Trap`]s as [`dir::exec::run`].
pub fn run(program: &Program) -> Result<Vec<i64>, Trap> {
    run_with(program, Limits::default())
}

/// Runs a program under explicit limits.
///
/// # Errors
///
/// Returns the same [`Trap`]s as [`dir::exec::run`].
pub fn run_with(program: &Program, limits: Limits) -> Result<Vec<i64>, Trap> {
    let lib = RoutineLib::shared();
    let mut engine = Engine::new(program, limits.max_depth);
    let mut pc: u32 = 0;
    let mut steps: u64 = 0;
    loop {
        steps += 1;
        if steps > limits.max_steps {
            return Err(Trap::StepLimit);
        }
        let inst = *program
            .code
            .get(pc as usize)
            .ok_or(Trap::Malformed("pc out of range"))?;
        match run_sequence(&mut engine, lib, &Template::new(inst, pc + 1))? {
            Flow::Goto(next) => pc = next,
            Flow::Halt => return Ok(engine.into_output()),
            Flow::Continue => return Err(Trap::Malformed("sequence ended without INTERP")),
        }
    }
}

/// Runs one PSDER sequence word by word, each called routine word by
/// word, to its exit. The sequence ends at its first `INTERP` (the
/// target is [`Flow::Goto`]) or when a routine halts; words after that
/// are never executed. [`Flow::Continue`] means it ran out of words
/// without either.
///
/// # Errors
///
/// The trap of the first word that faults.
pub fn run_sequence(
    engine: &mut Engine,
    lib: &RoutineLib,
    sequence: &[ShortInstr],
) -> Result<Flow, Trap> {
    for &short in sequence {
        match engine.exec_short(short)? {
            ShortEffect::Continue => {}
            ShortEffect::CallRoutine(id) => {
                for word in lib.words(id) {
                    if engine.exec_word(word)? == MicroEffect::Halt {
                        return Ok(Flow::Halt);
                    }
                }
            }
            ShortEffect::Interp(addr) => return Ok(Flow::Goto(addr)),
        }
    }
    Ok(Flow::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::compiler::compile;

    #[test]
    fn matches_dir_executor_on_all_samples() {
        for s in hlr::programs::ALL {
            let p = compile(&s.compile().unwrap());
            let want = dir::exec::run(&p).unwrap();
            let got = run(&p).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(got, want, "{}", s.name);
        }
    }

    #[test]
    fn matches_dir_executor_on_fused_samples() {
        for s in hlr::programs::ALL {
            let (p, _) = dir::fuse::fuse(&compile(&s.compile().unwrap()));
            let want = dir::exec::run(&p).unwrap();
            let got = run(&p).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(got, want, "{}", s.name);
        }
    }

    #[test]
    fn matches_dir_executor_on_generated_programs() {
        for seed in 0..30 {
            let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
            let hir = hlr::sema::analyze(&ast).unwrap();
            let p = compile(&hir);
            assert_eq!(run(&p).unwrap(), dir::exec::run(&p).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn traps_match_dir_executor() {
        let cases = [
            "proc main() begin write 1 / 0; end",
            "proc main() begin int a[3]; write a[7]; end",
            "proc main() begin int a[2]; a[-1] := 9; skip; end",
        ];
        for src in cases {
            let p = compile(&hlr::compile(src).unwrap());
            assert_eq!(
                run(&p).unwrap_err(),
                dir::exec::run(&p).unwrap_err(),
                "{src}"
            );
        }
    }

    #[test]
    fn a_sequence_ends_at_its_first_interp() {
        use crate::short::{InterpMode, PushMode};
        let p = compile(&hlr::compile("proc main() begin skip; end").unwrap());
        let lib = RoutineLib::new();
        let mut engine = Engine::new(&p, 16);
        let sequence = [
            ShortInstr::Push(PushMode::Imm(5)),
            ShortInstr::Interp(InterpMode::Imm(7)),
            ShortInstr::Push(PushMode::Imm(6)),
            ShortInstr::Interp(InterpMode::Imm(9)),
        ];
        assert_eq!(
            run_sequence(&mut engine, &lib, &sequence).unwrap(),
            Flow::Goto(7)
        );
        // The words after the first INTERP never ran.
        assert_eq!(engine.stack_len(), 1);
        // A compiled line obeys the same rule.
        let mut line = crate::line::Line::EMPTY;
        let meta = *line.compile(&lib, &sequence).unwrap();
        // The INTERP folds into the line's exit: one op, two words.
        assert_eq!((meta.len(), meta.short_words), (1, 2));
        let mut threaded = Engine::new(&p, 16);
        assert_eq!(threaded.exec_line(&line).unwrap(), Flow::Goto(7));
        assert_eq!(threaded, engine);
    }

    #[test]
    fn step_limit_enforced() {
        let p = compile(&hlr::compile("proc main() begin while true do skip; end").unwrap());
        let r = run_with(
            &p,
            Limits {
                max_steps: 500,
                max_depth: 16,
            },
        );
        assert_eq!(r.unwrap_err(), Trap::StepLimit);
    }

    #[test]
    fn depth_limit_enforced() {
        let p = compile(
            &hlr::compile("proc f() begin call f(); end proc main() begin call f(); end").unwrap(),
        );
        let r = run_with(
            &p,
            Limits {
                max_steps: 10_000_000,
                max_depth: 20,
            },
        );
        assert_eq!(r.unwrap_err(), Trap::DepthLimit);
    }
}
