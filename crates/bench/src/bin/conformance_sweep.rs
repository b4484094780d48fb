//! **E20 — the generative conformance sweep:** push hundreds of seeded
//! random RAUL programs through the full cross-engine oracle — reference
//! evaluator × DIR executor (base and fused) × PSDER interpreter ×
//! machine interpreter/DTB/I-cache modes × tree/table decoders ×
//! profiled and miss-classified runs × the dataflow soundness auditor —
//! and assert bit-identical outputs, identical traps and the metric
//! identities the planes promise. A pool stage re-runs a batch of
//! generated programs as multi-tenant workloads and compares every
//! tenant against its reference.
//!
//! Programs are generated under a rotating set of *feature profiles*
//! (scalar-only, call-free, flat, division-free, I/O-heavy, trapping,
//! ...) and the sweep accounts what was actually exercised: opcodes
//! (static and dynamic), static opcode pairs, encoding schemes, DTB
//! tiers, miss classes and trap classes.
//!
//! On any divergence the delta-debugging shrinker reduces the program
//! to a minimal reproducing source file, written under
//! `tests/golden/regressions/` for triage and permanent regression
//! coverage.
//!
//! Run with `cargo run -p uhm-bench --release --bin conformance_sweep`.
//! With `--json`, emits a versioned run report whose output section
//! carries the full coverage sets (the CI artifact).
//! Every run exits non-zero if any divergence survives shrinking or any
//! coverage dimension regresses below the committed floor
//! (`baselines/conformance_sweep.json`).

use std::process::ExitCode;
use std::sync::Arc;

use conformance::{run_case, shrink, CaseConfig, Coverage, Injection};
use dir::encode::SchemeKind;
use hlr::generate::Config;
use telemetry::Json;
use uhm::{DtbConfig, Machine, MachinePool, Mode};
use uhm_bench::bench_report;
use uhm_bench::gate::{self, Gate};

/// Committed coverage floors; the gate fails when any dimension of the
/// measured coverage falls below its floor.
const BASELINE: &str = include_str!("../../baselines/conformance_sweep.json");

/// Base seed of the sweep (stable so CI coverage is reproducible).
const SEED: u64 = 0xC0_4F0C;

/// Number of generated programs (the coverage floor is 200).
const PROGRAMS: usize = 240;

/// DTB capacities the sweep cycles through: tight enough for capacity
/// and conflict misses, large enough for a hit-dominated tier-2 run.
const CAPACITIES: [usize; 3] = [8, 64, 256];

/// Tenants per pool batch in the multi-tenant stage.
const POOL_BATCH: usize = 24;

/// Shrinker budget per divergence, in oracle invocations.
const SHRINK_TESTS: usize = 2_000;

/// One named generator feature profile.
struct Profile {
    name: &'static str,
    config: Config,
}

/// The rotating feature profiles. Together they cover every toggle of
/// the generator: each axis is exercised both on and off.
fn profiles() -> Vec<Profile> {
    let base = Config::default();
    vec![
        Profile {
            name: "everything",
            config: base,
        },
        Profile {
            name: "scalar-only",
            config: Config {
                arrays: false,
                ..base
            },
        },
        Profile {
            name: "call-free",
            config: Config {
                calls: false,
                ..base
            },
        },
        Profile {
            name: "flat",
            config: Config {
                max_loop_nesting: 1,
                ..base
            },
        },
        Profile {
            name: "division-free",
            config: Config {
                div_mod: false,
                ..base
            },
        },
        Profile {
            name: "io-heavy",
            config: Config {
                extra_writes: 12,
                ..base
            },
        },
        Profile {
            name: "trapping",
            config: Config {
                trapping: true,
                ..base
            },
        },
        Profile {
            name: "trapping-deep",
            config: Config {
                trapping: true,
                max_expr_depth: 4,
                stmts_per_proc: 10,
                ..base
            },
        },
    ]
}

/// A divergence the sweep found, with its shrunk reproducer.
struct Failure {
    seed: u64,
    profile: &'static str,
    scheme: SchemeKind,
    divergences: Vec<String>,
    repro_path: Option<String>,
    repro_lines: usize,
}

/// Where shrunk reproducers are committed.
fn regressions_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/regressions")
}

/// Shrinks a diverging program and writes the minimal source under
/// `tests/golden/regressions/`. Returns `(path, line_count)`.
fn shrink_and_write(
    seed: u64,
    ast: &hlr::ast::Program,
    cfg: &CaseConfig,
) -> (Option<String>, usize) {
    let (small, stats) = shrink(ast, SHRINK_TESTS, |candidate| {
        run_case(candidate, cfg, Injection::None)
            .map(|r| !r.conforms())
            .unwrap_or(false)
    });
    let source = hlr::pretty::print(&small);
    let lines = source.lines().count();
    eprintln!(
        "conformance: seed {seed} diverged; shrunk to {lines} lines \
         in {} tests ({} reductions)",
        stats.tests, stats.accepted
    );
    let dir = regressions_dir();
    let path = dir.join(format!("sweep_seed_{seed:x}.raul"));
    let header = format!(
        "// Shrunk reproducer: conformance_sweep seed {seed:#x}, scheme {}.\n\
         // Every engine must agree on this program; see tests/conformance_plane.rs.\n",
        cfg.scheme.label()
    );
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{header}{source}")))
    {
        Ok(()) => (Some(path.display().to_string()), lines),
        Err(e) => {
            eprintln!("conformance: could not write reproducer: {e}");
            (None, lines)
        }
    }
}

/// The multi-tenant stage: run `batch` generated programs as pool
/// tenants (DTB mode, shared worker threads) and compare each tenant's
/// output against its single-machine reference. Returns divergence
/// descriptions.
fn pool_stage(batch: &[(u64, dir::Program, Vec<i64>)]) -> Vec<String> {
    if batch.is_empty() {
        return Vec::new();
    }
    let mut pool = MachinePool::new(4);
    for (seed, program, _) in batch {
        let machine = Machine::new(program, SchemeKind::PairHuffman);
        pool.push(
            format!("gen_{seed:x}"),
            Arc::new(machine),
            Mode::Dtb(DtbConfig::with_capacity(64)),
        );
    }
    let run = pool.run();
    let mut diverged = Vec::new();
    for (result, (seed, _, want)) in run.results.iter().zip(batch) {
        match result.outcome.report() {
            Some(report) if &report.output == want => {}
            Some(_) => diverged.push(format!("pool tenant gen_{seed:x}: output mismatch")),
            None => diverged.push(format!(
                "pool tenant gen_{seed:x}: unexpected outcome {:?}",
                result.outcome
            )),
        }
    }
    diverged
}

fn main() -> ExitCode {
    let args = gate::args("conformance_sweep", &[]);
    let profiles = profiles();
    let schemes = SchemeKind::all();

    let mut coverage = Coverage::new();
    let mut failures: Vec<Failure> = Vec::new();
    let mut pool_batch: Vec<(u64, dir::Program, Vec<i64>)> = Vec::new();

    for i in 0..PROGRAMS {
        let seed = SEED + i as u64;
        let profile = &profiles[i % profiles.len()];
        let cfg = CaseConfig {
            scheme: schemes[i % schemes.len()],
            dtb_capacity: CAPACITIES[i % CAPACITIES.len()],
        };
        let ast = hlr::generate::program(seed, &profile.config);
        let report = match run_case(&ast, &cfg, Injection::None) {
            Ok(r) => r,
            Err(e) => {
                // The generator promises valid programs; an invalid one
                // is itself a conformance failure.
                failures.push(Failure {
                    seed,
                    profile: profile.name,
                    scheme: cfg.scheme,
                    divergences: vec![format!("generator produced invalid program: {e}")],
                    repro_path: None,
                    repro_lines: 0,
                });
                continue;
            }
        };
        coverage.merge(&report.coverage);
        if !report.conforms() {
            let (repro_path, repro_lines) = shrink_and_write(seed, &ast, &cfg);
            failures.push(Failure {
                seed,
                profile: profile.name,
                scheme: cfg.scheme,
                divergences: report.divergences.iter().map(ToString::to_string).collect(),
                repro_path,
                repro_lines,
            });
        } else if let Ok(output) = &report.reference {
            // Feed trap-free programs to the multi-tenant stage.
            if pool_batch.len() < POOL_BATCH {
                if let Ok(hir) = hlr::sema::analyze(&ast) {
                    pool_batch.push((seed, dir::compiler::compile(&hir), output.clone()));
                }
            }
        }
    }

    let pool_diverged = pool_stage(&pool_batch);
    let mut gate = Gate::new("conformance_sweep", BASELINE);
    gate.floors(&["coverage"], &coverage.dimensions());
    let violations = gate.violations().to_vec();
    gate.require(
        failures.is_empty(),
        format!("{} divergent programs", failures.len()),
    );
    gate.require(
        pool_diverged.is_empty(),
        format!("{} pool divergences", pool_diverged.len()),
    );
    let pass = gate.passed();

    if args.json {
        let failure_rows: Vec<Json> = failures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("seed", format!("{:#x}", f.seed).into()),
                    ("profile", f.profile.into()),
                    ("scheme", f.scheme.label().into()),
                    (
                        "divergences",
                        Json::Arr(f.divergences.iter().map(|d| d.as_str().into()).collect()),
                    ),
                    (
                        "repro",
                        f.repro_path.as_deref().map_or(Json::Null, Json::from),
                    ),
                    ("repro_lines", (f.repro_lines as u64).into()),
                ])
            })
            .collect();
        let rows = vec![Json::obj(vec![
            ("coverage", coverage.to_json()),
            ("failures", Json::Arr(failure_rows)),
            (
                "pool_divergences",
                Json::Arr(pool_diverged.iter().map(|d| d.as_str().into()).collect()),
            ),
            (
                "baseline_violations",
                Json::Arr(violations.iter().map(|v| v.as_str().into()).collect()),
            ),
            ("pass", pass.into()),
        ])];
        let config = Json::obj(vec![
            ("programs", (PROGRAMS as u64).into()),
            ("profiles", (profiles.len() as u64).into()),
            ("schemes", (schemes.len() as u64).into()),
            ("capacities", (CAPACITIES.len() as u64).into()),
            ("pool_batch", (pool_batch.len() as u64).into()),
            ("seed", format!("{SEED:#x}").into()),
        ]);
        println!(
            "{}",
            bench_report("conformance_sweep", config, rows).render()
        );
    } else {
        println!(
            "conformance sweep: {PROGRAMS} generated programs x {} profiles x {} schemes",
            profiles.len(),
            schemes.len()
        );
        println!(
            "  coverage: {} static opcodes, {} dynamic, {} opcode pairs, \
             {} schemes, {} tiers, {} miss classes, {} trap classes",
            coverage.static_opcodes.len(),
            coverage.dynamic_opcodes.len(),
            coverage.opcode_pairs.len(),
            coverage.schemes.len(),
            coverage.tiers.len(),
            coverage.miss_classes.len(),
            coverage.trap_classes.len()
        );
        println!(
            "  dynamic instructions: {} across {} cases; pool stage: {} tenants",
            coverage.dyn_instructions,
            coverage.cases,
            pool_batch.len()
        );
        for f in &failures {
            println!(
                "  FAIL seed {:#x} ({} / {}): {}",
                f.seed,
                f.profile,
                f.scheme.label(),
                f.divergences.join("; ")
            );
            if let Some(p) = &f.repro_path {
                println!("       reproducer ({} lines): {p}", f.repro_lines);
            }
        }
        for d in &pool_diverged {
            println!("  FAIL {d}");
        }
        if pass {
            println!("  all engines agree on every program");
        }
    }
    gate.finish()
}
