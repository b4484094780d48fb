//! **E18 — the profiling gate:** bounds the host-side cost of the
//! always-on counter plane and proves that profiling never changes what
//! it measures.
//!
//! Two properties are checked over the full sample corpus, in both the
//! interpreter and DTB machine modes:
//!
//! 1. **Bit-identity.** A run under a [`CounterPlane`] produces exactly
//!    the same program output and exactly the same modeled [`uhm::Metrics`]
//!    (every counter, the full cycle breakdown, all DTB statistics) as
//!    an unobserved run. Profiling is a property of the sink, never of
//!    the machine.
//! 2. **Bounded overhead.** The host wall-clock of a profiled corpus
//!    pass stays within [`OVERHEAD_BOUND`] (≤ 5 %) of the unprofiled
//!    pass. Measured as the median, over interleaved plain/profiled
//!    sample pairs, of each pair's ratio: a pair's two passes run back
//!    to back, so a slow phase of the host slows both and leaves the
//!    ratio alone. The ratio of the two minima is reported beside it;
//!    the committed reference ratios live in
//!    `baselines/profile_gate.json` for context.
//!
//! The *modeled* cycle totals are identical by property 1 — the only
//! thing profiling can cost is host time, and this gate bounds it.
//!
//! Run with `cargo run -p uhm-bench --release --bin profile_gate`.
//! With `--json`, emits a versioned run report instead of the text table.
//! Every run exits non-zero on any identity divergence or an overhead
//! ratio above the bound.

use std::process::ExitCode;

use dir::encode::SchemeKind;
use dir::program::Program;
use profile::CounterPlane;
use telemetry::{percentile_sorted, Json};
use uhm::{DtbConfig, Machine, Mode, RunOptions};
use uhm_bench::gate::{self, Gate};
use uhm_bench::timing::pairs_ns_interleaved;
use uhm_bench::{bench_report, workloads};

/// Committed reference overhead ratios, for drift context in reports.
const BASELINE: &str = include_str!("../../baselines/profile_gate.json");

/// The gate fails when a profiled/unprofiled corpus wall-clock ratio
/// exceeds this bound — the counter plane's ≤ 5 % overhead budget.
const OVERHEAD_BOUND: f64 = 1.05;

const SCHEME: SchemeKind = SchemeKind::Huffman;

/// Interleaved samples per timed pair.
const SAMPLES: usize = 25;

fn modes() -> Vec<(&'static str, Mode)> {
    vec![
        ("interp", Mode::Interpreter),
        ("dtb64", Mode::Dtb(DtbConfig::with_capacity(64))),
    ]
}

/// One workload ready to run: the program (the counter plane needs it)
/// and a machine built over it.
struct Prepared {
    name: &'static str,
    program: Program,
    machine: Machine,
}

fn prepare() -> Vec<Prepared> {
    workloads()
        .into_iter()
        .map(|w| {
            let machine = Machine::new(&w.base, SCHEME);
            Prepared {
                name: w.name,
                program: w.base,
                machine,
            }
        })
        .collect()
}

/// A corpus pass without any sink: the hot path profiling must not slow.
fn pass_plain(corpus: &[Prepared], mode: &Mode) -> u64 {
    let mut acc = 0u64;
    for w in corpus {
        let r = w.machine.run(mode).expect("samples are trap-free");
        acc = acc.wrapping_add(r.metrics.cycles.total());
    }
    acc
}

/// The same pass under a fresh counter plane per run — construction
/// included, because that is what `raul profile` actually pays.
fn pass_profiled(corpus: &[Prepared], mode: &Mode) -> u64 {
    let mut acc = 0u64;
    for w in corpus {
        let mut plane = CounterPlane::new(&w.program);
        w.machine
            .run_with(mode, &mut plane, RunOptions::default())
            .expect("samples are trap-free");
        acc = acc.wrapping_add(plane.cycles());
    }
    acc
}

/// Verifies bit-identity of output and the *full* metrics struct for
/// every workload in every mode. Returns the number of runs checked.
fn check_identity(corpus: &[Prepared], gate: &mut Gate) -> u64 {
    let mut checked = 0u64;
    for (label, mode) in modes() {
        for w in corpus {
            let plain = w.machine.run(&mode).expect("samples are trap-free");
            let mut plane = CounterPlane::new(&w.program);
            let profiled = w
                .machine
                .run_with(&mode, &mut plane, RunOptions::default())
                .expect("samples are trap-free");
            let name = format!("{label}/{}", w.name);
            gate.require(
                plain.output == profiled.output,
                format!("{name}: output diverged under profiling"),
            );
            gate.require(
                plain.metrics == profiled.metrics,
                format!("{name}: modeled metrics diverged under profiling"),
            );
            gate.require(
                plane.retired() == profiled.metrics.instructions
                    && plane.cycles() == profiled.metrics.cycles.total(),
                format!("{name}: counter plane totals disagree with the run"),
            );
            checked += 1;
        }
    }
    checked
}

struct Row {
    mode: &'static str,
    /// Fastest plain pass.
    plain_ns: f64,
    /// Fastest profiled pass.
    profiled_ns: f64,
    /// Median of the per-pair profiled/plain ratios: what the gate bounds.
    overhead: f64,
    /// `profiled_ns / plain_ns`, the ratio of two independent minima.
    min_ratio: f64,
    baseline: f64,
}

/// One row per mode; `baseline` holds the committed ratio of each mode,
/// in [`modes`] order.
fn measure(corpus: &[Prepared], baseline: &[f64]) -> Vec<Row> {
    modes()
        .into_iter()
        .zip(baseline)
        .map(|((label, mode), &baseline)| {
            let pairs = pairs_ns_interleaved(
                || pass_plain(corpus, &mode),
                || pass_profiled(corpus, &mode),
                SAMPLES,
            );
            let plain_ns = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let profiled_ns = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let mut ratios: Vec<f64> = pairs
                .iter()
                .map(|&(plain, profiled)| profiled / plain)
                .collect();
            ratios.sort_by(f64::total_cmp);
            Row {
                mode: label,
                plain_ns,
                profiled_ns,
                overhead: percentile_sorted(&ratios, 50.0),
                min_ratio: profiled_ns / plain_ns,
                baseline,
            }
        })
        .collect()
}

/// Measurements per run while over budget; the gate keeps each row's
/// lowest overhead across attempts. Each attempt's overhead is a median
/// of per-pair ratios, so a host slowdown that lasts less than half the
/// pairs cannot move it either way, and one slowed plain pass cannot
/// read below 1. The best of several attempts still leans optimistic:
/// it damps flakes, and it is not a bound on the true cost.
const ATTEMPTS: usize = 3;

fn main() -> ExitCode {
    let args = gate::args("profile_gate", &[]);
    let corpus = prepare();
    let mut gate = Gate::new("profile_gate", BASELINE);
    let baseline: Vec<f64> = modes()
        .iter()
        .map(|(label, _)| gate.number(&["overhead", label]).unwrap_or(f64::NAN))
        .collect();
    let checked = check_identity(&corpus, &mut gate);
    let mut rows = measure(&corpus, &baseline);
    for attempt in 2..=ATTEMPTS {
        if rows.iter().all(|r| r.overhead <= OVERHEAD_BOUND) {
            break;
        }
        eprintln!(
            "profile_gate: overhead above budget, re-measuring (attempt {attempt}/{ATTEMPTS})"
        );
        for (best, r) in rows.iter_mut().zip(measure(&corpus, &baseline)) {
            if r.overhead < best.overhead {
                *best = r;
            }
        }
    }
    for r in &rows {
        gate.require(
            r.overhead <= OVERHEAD_BOUND,
            format!(
                "{} counter-plane overhead {:.3}x exceeds the {OVERHEAD_BOUND:.2}x budget \
                 (baseline {:.3}x)",
                r.mode, r.overhead, r.baseline
            ),
        );
    }

    if args.json {
        let json_rows: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("mode", r.mode.to_string().into()),
                    ("plain_ns", r.plain_ns.into()),
                    ("profiled_ns", r.profiled_ns.into()),
                    ("overhead", r.overhead.into()),
                    ("min_ratio", r.min_ratio.into()),
                    ("baseline", r.baseline.into()),
                ])
            })
            .collect();
        let config = Json::obj(vec![
            ("workloads", (corpus.len() as u64).into()),
            ("scheme", SCHEME.label().into()),
            ("identity_checks", checked.into()),
            ("overhead_bound", OVERHEAD_BOUND.into()),
        ]);
        println!(
            "{}",
            bench_report("profile_gate", config, json_rows).render()
        );
    } else {
        print_table(corpus.len(), checked, &rows);
    }
    gate.finish()
}

fn print_table(workloads: usize, checked: u64, rows: &[Row]) {
    println!(
        "counter-plane overhead over {} workloads ({checked} runs verified \
         bit-identical first)",
        workloads
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10} {:>10}",
        "mode", "plain ns", "profiled ns", "overhead", "of minima", "baseline"
    );
    for r in rows {
        println!(
            "{:>8} {:>14.0} {:>14.0} {:>9.3}x {:>9.3}x {:>9.3}x",
            r.mode, r.plain_ns, r.profiled_ns, r.overhead, r.min_ratio, r.baseline
        );
    }
    println!(
        "budget: {OVERHEAD_BOUND:.2}x on the overhead, the median of {SAMPLES} \
         interleaved pairs' ratios (the gate's bound)"
    );
}
