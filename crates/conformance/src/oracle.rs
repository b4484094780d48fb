//! The cross-engine differential oracle.
//!
//! One conformance *case* takes a RAUL AST and pushes it through every
//! execution level and machine configuration the workspace provides:
//!
//! * HLR reference evaluator (the semantic ground truth),
//! * DIR executor, on both the base and the fused program,
//! * PSDER interpreter,
//! * the [`Machine`] in interpreter, DTB and I-cache modes,
//! * tree vs table decoders, a profiling counter plane and a
//!   miss-classifying trace sink,
//! * the dataflow *soundness auditor* on the DIR executor: the guard at
//!   every site the dataflow pass discharged is evaluated, and one that
//!   fires refutes the static proof and is reported as a divergence.
//!
//! Outputs (and traps) must be bit-identical everywhere. On top of
//! that, the oracle asserts the *metric identities* the planes promise:
//! decoder choice never changes modeled metrics, and observation
//! (profiling, classification) never changes them either. Any violation is reported as a
//! [`Divergence`] rather than a panic, so the sweep can hand the case
//! to the shrinker.

use dir::encode::{DecodeMode, SchemeKind};
use dir::exec::Trap;
use hlr::ast;
use profile::CounterPlane;
use telemetry::{Event, TraceSink};
use uhm::{DtbConfig, Machine, Metrics, Mode, RunOptions};

use crate::coverage::Coverage;

/// Which encoding/geometry corner a case runs under. Semantics must not
/// depend on any of this — that is precisely what the oracle checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseConfig {
    /// Encoding scheme for the machine's level-2 image.
    pub scheme: SchemeKind,
    /// DTB capacity (translations) for the DTB-mode runs.
    pub dtb_capacity: usize,
}

impl Default for CaseConfig {
    fn default() -> CaseConfig {
        CaseConfig {
            scheme: SchemeKind::PairHuffman,
            dtb_capacity: 64,
        }
    }
}

/// A deliberate, seeded fault for negative-testing the oracle and the
/// shrinker. Production sweeps always use [`Injection::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Injection {
    /// Honest run: no fault injected.
    #[default]
    None,
    /// Corrupts the DIR executor's output whenever the compiled program
    /// contains a `Mod` instruction — a stand-in for a real miscompile
    /// that only fires on one opcode, which is exactly the shape the
    /// shrinker must reduce to a minimal `%` expression.
    FlipOnMod,
}

/// One observed disagreement between two engines (or between a plane's
/// metrics and the identity it promises).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The engine or plane that disagreed.
    pub engine: &'static str,
    /// What it was compared against.
    pub against: &'static str,
    /// Human-readable detail of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} vs {}: {}", self.engine, self.against, self.detail)
    }
}

/// The outcome of a full oracle case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Everything that disagreed; empty means the case conformed.
    pub divergences: Vec<Divergence>,
    /// What the case exercised.
    pub coverage: Coverage,
    /// The reference verdict: output on success, trap otherwise.
    pub reference: Result<Vec<i64>, Trap>,
}

impl CaseReport {
    /// Whether every engine and plane agreed.
    pub fn conforms(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// A trace sink that observes nothing but requests miss classification,
/// turning on the machine's shadow three-C classifier.
struct ClassifySink;

impl TraceSink for ClassifySink {
    const CLASSIFY_MISSES: bool = true;

    #[inline(always)]
    fn emit(&mut self, _event: Event) {}
}

/// Maps a trap to its coverage class label.
pub fn trap_class(trap: &Trap) -> &'static str {
    match trap {
        Trap::DivByZero => "div_by_zero",
        Trap::IndexOutOfBounds { .. } => "index_out_of_bounds",
        Trap::StepLimit => "step_limit",
        Trap::DepthLimit => "depth_limit",
        _ => "other",
    }
}

fn describe(r: &Result<Vec<i64>, Trap>) -> String {
    match r {
        Ok(out) if out.len() > 8 => {
            format!("output {:?}.. ({} values)", &out[..8], out.len())
        }
        Ok(out) => format!("output {out:?}"),
        Err(trap) => format!("trap {trap}"),
    }
}

/// Strips the observation-dependent miss-classification fields so a
/// classified run's metrics can be compared against an unclassified one.
fn unclassified(metrics: &Metrics) -> Metrics {
    let mut m = metrics.clone();
    if let Some(dtb) = &mut m.dtb {
        dtb.cold_misses = 0;
        dtb.capacity_misses = 0;
        dtb.conflict_misses = 0;
    }
    if let Some(dtb2) = &mut m.dtb2 {
        dtb2.cold_misses = 0;
        dtb2.capacity_misses = 0;
        dtb2.conflict_misses = 0;
    }
    m
}

/// Runs one full conformance case.
///
/// # Errors
///
/// Returns `Err` when the AST does not pass semantic analysis or the
/// compiled program fails validation — i.e. the input is not a valid
/// case at all. The shrinker relies on this: candidate reductions that
/// break the program are rejected here, never misread as divergences.
pub fn run_case(
    program: &ast::Program,
    cfg: &CaseConfig,
    inject: Injection,
) -> Result<CaseReport, String> {
    let hir = hlr::sema::analyze(program).map_err(|e| format!("sema: {e:?}"))?;
    let compiled = dir::compiler::compile(&hir);
    compiled
        .validate()
        .map_err(|e| format!("validate: {e:?}"))?;

    let mut coverage = Coverage::new();
    coverage.programs = 1;
    coverage.record_static(&compiled);
    coverage.schemes.insert(cfg.scheme.label());
    coverage.tiers.insert("interp");

    let mut divergences: Vec<Divergence> = Vec::new();
    let reference: Result<Vec<i64>, Trap> = hlr::eval::run(&hir).map_err(Trap::from);
    if let Err(trap) = &reference {
        coverage.trap_classes.insert(trap_class(trap));
    }
    fn check(
        divergences: &mut Vec<Divergence>,
        reference: &Result<Vec<i64>, Trap>,
        engine: &'static str,
        got: &Result<Vec<i64>, Trap>,
    ) {
        if got != reference {
            divergences.push(Divergence {
                engine,
                against: "hlr-eval",
                detail: format!("{} != {}", describe(got), describe(reference)),
            });
        }
    }

    // ---- Level engines: DIR, fused DIR, PSDER ------------------------
    let has_mod = compiled
        .code
        .iter()
        .any(|i| matches!(i, dir::Inst::Bin(dir::AluOp::Mod)));
    let dir_run = dir::exec::run_with(&compiled, dir::exec::Limits::default(), false);
    let dir_result: Result<Vec<i64>, Trap> = match &dir_run {
        Ok((out, stats)) => {
            coverage.record_dynamic(&stats.opcode_counts);
            coverage.dyn_instructions = stats.instructions;
            let mut out = out.clone();
            if inject == Injection::FlipOnMod && has_mod {
                out.push(i64::from_le_bytes(*b"INJECTD\0"));
            }
            Ok(out)
        }
        Err(trap) => Err(trap.clone()),
    };
    check(&mut divergences, &reference, "dir-exec", &dir_result);

    let (fused, _) = dir::fuse::fuse(&compiled);
    check(
        &mut divergences,
        &reference,
        "dir-exec-fused",
        &dir::exec::run(&fused),
    );
    check(
        &mut divergences,
        &reference,
        "psder-interp",
        &psder::interp::run(&compiled),
    );

    // ---- Machine modes: interpreter, DTB, I-cache --------------------
    let dtb_mode = Mode::Dtb(DtbConfig::with_capacity(cfg.dtb_capacity));
    let mut machine = Machine::new(&compiled, cfg.scheme);
    machine.set_decoder(DecodeMode::Table);
    let as_result = |r: &Result<uhm::Report, Trap>| -> Result<Vec<i64>, Trap> {
        match r {
            Ok(report) => Ok(report.output.clone()),
            Err(trap) => Err(trap.clone()),
        }
    };

    let interp_run = machine.run(&Mode::Interpreter);
    check(
        &mut divergences,
        &reference,
        "machine-interp",
        &as_result(&interp_run),
    );

    let dtb_run = machine.run(&dtb_mode);
    check(
        &mut divergences,
        &reference,
        "machine-dtb",
        &as_result(&dtb_run),
    );
    if let Ok(report) = &dtb_run {
        if let Some(stats) = &report.metrics.dtb {
            if stats.hits > 0 {
                coverage.tiers.insert("psder");
            }
        }
    }

    let icache_mode = Mode::ICache {
        geometry: memsim::Geometry::new(8, 4),
    };
    check(
        &mut divergences,
        &reference,
        "machine-icache",
        &as_result(&machine.run(&icache_mode)),
    );

    // ---- Decoder identity: tree and table runs must match in full ----
    let mut tree_machine = Machine::new(&compiled, cfg.scheme);
    tree_machine.set_decoder(DecodeMode::Tree);
    let tree_run = tree_machine.run(&dtb_mode);
    check(
        &mut divergences,
        &reference,
        "machine-dtb-tree",
        &as_result(&tree_run),
    );
    if let (Ok(a), Ok(b)) = (&dtb_run, &tree_run) {
        if a.metrics != b.metrics {
            divergences.push(Divergence {
                engine: "machine-dtb-tree",
                against: "machine-dtb",
                detail: "decoder choice changed modeled metrics".into(),
            });
        }
    }

    // ---- Dataflow soundness auditor --------------------------------
    // The guard at every site the dataflow pass discharged is evaluated
    // as usual; a guard that fires refutes the static proof.
    let image = cfg.scheme.encode(&compiled);
    let analysis = analyze::analyze(&compiled, &image);
    if analysis.is_clean() {
        let (audit_dir, audit) = dir::exec::run_audit_with(
            &compiled,
            &analysis.site_facts,
            dir::exec::Limits::default(),
            false,
        );
        if !audit.is_sound() {
            divergences.push(Divergence {
                engine: "dir-audit",
                against: "analyze-dataflow",
                detail: format!(
                    "discharged guards fired: {} div, {} idx at sites {:?}",
                    audit.div_violations, audit.idx_violations, audit.sites
                ),
            });
        }
        if audit_dir != dir_run {
            divergences.push(Divergence {
                engine: "dir-audit",
                against: "dir-exec",
                detail: "audit mode changed output or stats".into(),
            });
        }
    } else {
        divergences.push(Divergence {
            engine: "analyze-verify",
            against: "dir-validate",
            detail: format!("verifier rejected a valid program: {analysis:?}"),
        });
    }

    // ---- Observation identity: profiling must not perturb ------------
    let mut plane = CounterPlane::new(&compiled);
    let profiled_run = machine.run_with(&dtb_mode, &mut plane, RunOptions::default());
    check(
        &mut divergences,
        &reference,
        "machine-profiled",
        &as_result(&profiled_run),
    );
    if let (Ok(a), Ok(b)) = (&dtb_run, &profiled_run) {
        if a.metrics != b.metrics {
            divergences.push(Divergence {
                engine: "machine-profiled",
                against: "machine-dtb",
                detail: "profiling changed modeled metrics".into(),
            });
        }
        if plane.retired() != b.metrics.instructions || plane.cycles() != b.metrics.cycles.total() {
            divergences.push(Divergence {
                engine: "counter-plane",
                against: "machine-metrics",
                detail: format!(
                    "plane saw {} retires / {} cycles, metrics say {} / {}",
                    plane.retired(),
                    plane.cycles(),
                    b.metrics.instructions,
                    b.metrics.cycles.total()
                ),
            });
        }
    }

    // ---- Classification identity: the shadow classifier only fills
    // the taxonomy, never changes behaviour or the base metrics --------
    let classified_run = machine.run_with(&dtb_mode, &mut ClassifySink, RunOptions::default());
    check(
        &mut divergences,
        &reference,
        "machine-classified",
        &as_result(&classified_run),
    );
    if let (Ok(a), Ok(b)) = (&dtb_run, &classified_run) {
        if a.metrics != unclassified(&b.metrics) {
            divergences.push(Divergence {
                engine: "machine-classified",
                against: "machine-dtb",
                detail: "miss classification changed base metrics".into(),
            });
        }
        if let Some(stats) = &b.metrics.dtb {
            coverage.record_miss_classes(stats);
            let classified = stats.cold_misses + stats.capacity_misses + stats.conflict_misses;
            if classified != stats.misses {
                divergences.push(Divergence {
                    engine: "miss-classifier",
                    against: "dtb-stats",
                    detail: format!("classified {} of {} misses", classified, stats.misses),
                });
            }
        }
    }

    // ---- Limit conformance: step/depth budgets trap identically ------
    if let Ok((_, stats)) = &dir_run {
        if stats.instructions >= 2 {
            let budget = dir::exec::Limits {
                max_steps: stats.instructions / 2,
                ..dir::exec::Limits::default()
            };
            let dir_cut = dir::exec::run_with(&compiled, budget, false).map(|(out, _)| out);
            let psder_cut = psder::interp::run_with(
                &compiled,
                psder::interp::Limits {
                    max_steps: budget.max_steps,
                    max_depth: budget.max_depth,
                },
            );
            if dir_cut != psder_cut {
                divergences.push(Divergence {
                    engine: "psder-step-limit",
                    against: "dir-step-limit",
                    detail: format!("{} != {}", describe(&psder_cut), describe(&dir_cut)),
                });
            }
            if let Err(trap) = &dir_cut {
                coverage.trap_classes.insert(trap_class(trap));
            }
        }
    }

    coverage.cases = 1;
    Ok(CaseReport {
        divergences,
        coverage,
        reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generated(seed: u64) -> ast::Program {
        hlr::generate::program(seed, &hlr::generate::Config::default())
    }

    #[test]
    fn honest_cases_conform() {
        for seed in 0..12 {
            let ast = generated(seed);
            let report = run_case(&ast, &CaseConfig::default(), Injection::None)
                .expect("generated programs are valid cases");
            assert!(report.conforms(), "seed {seed}: {:?}", report.divergences);
            assert!(report.coverage.tiers.contains("interp"));
            assert!(!report.coverage.static_opcodes.is_empty());
        }
    }

    #[test]
    fn trapping_cases_conform_on_the_trap() {
        let cfg = hlr::generate::Config {
            trapping: true,
            ..hlr::generate::Config::default()
        };
        let mut saw_trap = false;
        for seed in 0..40 {
            let ast = hlr::generate::program(seed, &cfg);
            let report =
                run_case(&ast, &CaseConfig::default(), Injection::None).expect("valid case");
            assert!(report.conforms(), "seed {seed}: {:?}", report.divergences);
            saw_trap |= report.reference.is_err();
        }
        assert!(saw_trap, "trapping config never trapped in 40 seeds");
    }

    #[test]
    fn injection_is_detected_when_mod_present() {
        let source = "proc main() begin write 7 % 3; end";
        let ast = hlr::parser::parse(source).expect("parses");
        let report =
            run_case(&ast, &CaseConfig::default(), Injection::FlipOnMod).expect("valid case");
        assert!(!report.conforms(), "injection must surface as a divergence");
        assert!(report.divergences.iter().any(|d| d.engine == "dir-exec"));
    }

    #[test]
    fn injection_is_silent_without_mod() {
        let source = "proc main() begin write 7 + 3; end";
        let ast = hlr::parser::parse(source).expect("parses");
        let report =
            run_case(&ast, &CaseConfig::default(), Injection::FlipOnMod).expect("valid case");
        assert!(report.conforms(), "{:?}", report.divergences);
    }

    #[test]
    fn invalid_programs_are_rejected_not_diverged() {
        let source = "proc main() begin write undeclared; end";
        let ast = hlr::parser::parse(source).expect("parses");
        assert!(run_case(&ast, &CaseConfig::default(), Injection::None).is_err());
    }
}
