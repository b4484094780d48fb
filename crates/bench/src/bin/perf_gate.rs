//! **E15 — the perf gate (host decode throughput):** measures *host*
//! wall-clock throughput of the two decoder implementations — the
//! seed's bit-at-a-time tree walker (`--decoder tree`) and the
//! word-batched canonical-Huffman table decoder (`--decoder table`) —
//! in MB/s over the full sample corpus — plus DIR→PSDER translation
//! throughput (ungated): `psder::Template::new` alone, and a stencil
//! stamped into a line, as machines translate.
//!
//! The paper's *modeled* decode costs (E6/E12) are a property of the
//! representation, not of the host, and are identical in both modes by
//! construction; this binary never touches them. See DESIGN.md's note
//! on the modeled-cost / host-throughput separation.
//!
//! Run with `cargo run -p uhm-bench --release --bin perf_gate`.
//! With `--json`, emits a versioned run report instead of the text table.
//! Every run exits non-zero if (a) the two decoders diverge on any
//! instruction of any scheme — output, consumed bits, or modeled cost —
//! or (b) any scheme's table/tree speedup ratio regresses more than 20%
//! below the committed baseline (`baselines/perf_gate.json`). Ratios,
//! not absolute MB/s, so the gate is robust across CI machines.

use std::hint::black_box;
use std::process::ExitCode;

use dir::encode::{DecodeMode, Image, SchemeKind};
use dir::program::Program;
use telemetry::Json;
use uhm_bench::bench_report;
use uhm_bench::corpus::base_programs;
use uhm_bench::gate::{self, Gate};
use uhm_bench::timing::{min_ns, min_ns_interleaved};

/// Committed reference speedups; the gate fails when a measured
/// table/tree ratio falls below `TOLERANCE` times the baseline.
const BASELINE: &str = include_str!("../../baselines/perf_gate.json");
const TOLERANCE: f64 = 0.8;

/// One scheme's encoded corpus: every sample program under one scheme.
struct Corpus {
    scheme: SchemeKind,
    images: Vec<Image>,
    /// Total encoded program size across the corpus, in bits.
    bits: u64,
    instrs: u64,
}

fn corpora(programs: &[Program]) -> Vec<Corpus> {
    SchemeKind::all()
        .into_iter()
        .map(|scheme| {
            let images: Vec<Image> = programs.iter().map(|p| scheme.encode(p)).collect();
            let bits = images.iter().map(Image::program_bits).sum();
            let instrs = images.iter().map(|im| im.len() as u64).sum();
            Corpus {
                scheme,
                images,
                bits,
                instrs,
            }
        })
        .collect()
}

/// Decodes the whole corpus through `mode`, folding the results into an
/// accumulator so the work cannot be optimized away. The tree plane
/// decodes per index, exactly as the seed's `decode_all` did; the table
/// plane through `Image::decode_all_with`, which decodes every address
/// at its recorded offset with a contour-region cursor.
fn decode_pass(images: &[Image], mode: DecodeMode) -> u64 {
    let mut acc = 0u64;
    for im in images {
        match mode {
            DecodeMode::Tree => {
                for i in 0..im.len() as u32 {
                    let d = im
                        .decode_with(&im.bytes, i, mode)
                        .expect("clean images decode");
                    acc = acc.wrapping_add(d.bits).wrapping_add(u64::from(d.cost));
                }
            }
            DecodeMode::Table => {
                for d in im.decode_all_with(mode).expect("clean images decode") {
                    acc = acc.wrapping_add(d.bits).wrapping_add(u64::from(d.cost));
                }
            }
        }
    }
    acc
}

/// Interleaved samples per timed pair.
const SAMPLES: usize = 5;

/// One scheme's measured decode throughput in both modes.
struct DecodeRow {
    scheme: SchemeKind,
    megabytes: f64,
    instrs: u64,
    tree_mb_s: f64,
    table_mb_s: f64,
    speedup: f64,
}

fn measure_decode(c: &Corpus) -> DecodeRow {
    let bytes = c.bits as f64 / 8.0;
    let (tree_ns, table_ns) = min_ns_interleaved(
        || decode_pass(&c.images, DecodeMode::Tree),
        || decode_pass(&c.images, DecodeMode::Table),
        SAMPLES,
    );
    let mb_s = |ns: f64| bytes / (ns / 1e9) / 1e6;
    DecodeRow {
        scheme: c.scheme,
        megabytes: bytes / 1e6,
        instrs: c.instrs,
        tree_mb_s: mb_s(tree_ns),
        table_mb_s: mb_s(table_ns),
        speedup: tree_ns / table_ns,
    }
}

/// How a translation stage turns one instruction into what it yields.
#[derive(Clone, Copy)]
enum Stage {
    /// `Template::new`: the short words.
    Plain,
    /// The shape's stencil stamped into a line, as machines translate.
    Stencil,
}

impl Stage {
    const ALL: [Stage; 2] = [Stage::Plain, Stage::Stencil];

    fn label(self) -> &'static str {
        match self {
            Stage::Plain => "plain",
            Stage::Stencil => "stencil",
        }
    }
}

/// Translates the whole corpus instruction by instruction through
/// `stage`.
fn translate_pass(programs: &[Program], stage: Stage, line: &mut psder::Line) -> u64 {
    let stencils = psder::Stencils::shared();
    let mut acc = 0u64;
    for p in programs {
        for (i, &inst) in p.code.iter().enumerate() {
            let (inst, next) = (black_box(inst), i as u32 + 1);
            let n = match stage {
                Stage::Plain => psder::Template::new(inst, next).len(),
                Stage::Stencil => {
                    stencils.instance(inst, next).line_into(line);
                    line.meta().len()
                }
            };
            acc = acc.wrapping_add(black_box(n) as u64);
        }
    }
    acc
}

/// Each stage's throughput over the corpus, in Minstr/s.
fn measure_translation(programs: &[Program]) -> Vec<(Stage, f64)> {
    let total: u64 = programs.iter().map(|p| p.code.len() as u64).sum();
    let mut line = psder::Line::EMPTY;
    Stage::ALL
        .into_iter()
        .map(|stage| {
            let ns = min_ns(|| translate_pass(programs, stage, &mut line), SAMPLES);
            (stage, total as f64 / (ns / 1e9) / 1e6)
        })
        .collect()
}

/// Checks both decoders instruction by instruction over every corpus:
/// output, consumed bits and modeled cost must agree. The first
/// divergence of a scheme is its violation. Returns the number of
/// decodes compared.
fn check_divergence(corpora: &[Corpus], gate: &mut Gate) -> u64 {
    let mut checks = 0u64;
    'scheme: for c in corpora {
        for im in &c.images {
            for i in 0..im.len() as u32 {
                let tree = im.decode_with(&im.bytes, i, DecodeMode::Tree);
                let table = im.decode_with(&im.bytes, i, DecodeMode::Table);
                checks += 1;
                if tree != table {
                    gate.require(
                        false,
                        format!(
                            "{} decoder divergence at instruction {i}: \
                             tree={tree:?} table={table:?}",
                            c.scheme
                        ),
                    );
                    continue 'scheme;
                }
            }
        }
    }
    checks
}

fn main() -> ExitCode {
    let args = gate::args("perf_gate", &[]);
    let programs: Vec<Program> = base_programs();
    let corpora = corpora(&programs);
    let mut gate = Gate::new("perf_gate", BASELINE);
    let checks = check_divergence(&corpora, &mut gate);
    // Time only decoders that agree.
    let decode_rows: Vec<DecodeRow> = if gate.passed() {
        corpora.iter().map(measure_decode).collect()
    } else {
        Vec::new()
    };
    let translate = measure_translation(&programs);
    for r in &decode_rows {
        gate.at_least(&["speedup", r.scheme.label()], r.speedup, TOLERANCE);
    }

    if args.json {
        let mut rows: Vec<Json> = decode_rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("kind", "decode".to_string().into()),
                    ("scheme", r.scheme.label().to_string().into()),
                    ("megabytes", r.megabytes.into()),
                    ("instructions", r.instrs.into()),
                    ("tree_mb_s", r.tree_mb_s.into()),
                    ("table_mb_s", r.table_mb_s.into()),
                    ("speedup", r.speedup.into()),
                ])
            })
            .collect();
        rows.extend(translate.iter().map(|&(stage, minstr_s)| {
            Json::obj(vec![
                ("kind", "translate".to_string().into()),
                ("stage", stage.label().to_string().into()),
                ("minstr_s", minstr_s.into()),
            ])
        }));
        let config = Json::obj(vec![
            ("lut_bits", u64::from(dir::huffman::LUT_BITS).into()),
            ("workloads", (programs.len() as u64).into()),
            ("tolerance", TOLERANCE.into()),
        ]);
        println!("{}", bench_report("perf_gate", config, rows).render());
    } else {
        print_table(&programs, checks, &decode_rows, &translate);
    }
    gate.finish()
}

fn print_table(
    programs: &[Program],
    checks: u64,
    decode_rows: &[DecodeRow],
    translate: &[(Stage, f64)],
) {
    println!(
        "host decode throughput over {} workloads (wall clock; modeled \
         costs identical in both modes)",
        programs.len()
    );
    println!(
        "{:>12} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "scheme", "MB", "instrs", "tree MB/s", "table MB/s", "speedup"
    );
    for r in decode_rows {
        println!(
            "{:>12} {:>9.3} {:>8} {:>12.1} {:>12.1} {:>8.2}x",
            r.scheme.label(),
            r.megabytes,
            r.instrs,
            r.tree_mb_s,
            r.table_mb_s,
            r.speedup
        );
    }
    println!();
    for (stage, minstr_s) in translate {
        println!(
            "DIR -> PSDER translation throughput ({}): {minstr_s:.2} Minstr/s",
            stage.label()
        );
    }
    println!("\n{checks} decodes compared: tree and table agree on every instruction");
}
