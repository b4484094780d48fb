//! **E17 — the analyze gate (load-time verification):** runs the
//! whole-image static verifier over the full sample corpus under every
//! encoding scheme at both semantic tiers, checks that every image
//! verifies clean and that every known-bad fixture is rejected with the
//! right diagnostic family.
//!
//! Run with `cargo run -p uhm-bench --release --bin analyze_gate`.
//! With `--json`, emits a versioned analyze report: one verdict entry per
//! corpus image plus fixture verdicts.
//! With `--smoke`, exits non-zero if (a) any corpus image fails to
//! verify or (b) any fixture is accepted.

use std::process::ExitCode;

use analyze::{AnalysisReport, DiagCode, Severity};
use dir::encode::{fixtures, SchemeKind};
use dir::program::Program;
use telemetry::{Json, Kind, Report};
use uhm_bench::corpus::encoded_corpus;
use uhm_bench::workloads;

/// One analyzed corpus entry.
struct CorpusEntry {
    name: String,
    scheme: SchemeKind,
    report: AnalysisReport,
}

/// One known-bad fixture with the diagnostic code its rejection must
/// carry.
struct BadFixture {
    name: &'static str,
    expect: DiagCode,
    report: AnalysisReport,
}

fn corpus() -> Vec<CorpusEntry> {
    encoded_corpus()
        .into_iter()
        .map(|entry| {
            let name = entry.name();
            CorpusEntry {
                name,
                scheme: entry.scheme,
                report: analyze::analyze(&entry.program, &entry.image),
            }
        })
        .collect()
}

fn bad_fixtures() -> Vec<BadFixture> {
    let sample = dir::compiler::compile(
        &hlr::compile("proc main() begin int i; for i := 0 to 9 do write i; end")
            .expect("fixture source compiles"),
    );
    let mut out = Vec::new();
    for (name, expect, image) in [
        (
            "truncated_codebook",
            DiagCode::CodecDefect,
            fixtures::truncated_codebook(&sample),
        ),
        (
            "conflicting_codebook",
            DiagCode::CodecDefect,
            fixtures::conflicting_codebook(&sample),
        ),
        (
            "oversized_field_width",
            DiagCode::CodecDefect,
            fixtures::oversized_field_width(&sample),
        ),
    ] {
        out.push(BadFixture {
            name,
            expect,
            report: analyze::analyze(&sample, &image),
        });
    }
    // Hand-built DIR-level defects: the absint pass must catch what no
    // compiler-produced program contains.
    for (name, expect, program) in [
        (
            "stack_underflow",
            DiagCode::StackUnderflow,
            bad_program(dir::Inst::Pop),
        ),
        (
            "jump_out_of_range",
            DiagCode::JumpOutOfRange,
            bad_program(dir::Inst::Jump(999)),
        ),
        (
            "uninitialized_local",
            DiagCode::UninitializedLocal,
            bad_program(dir::Inst::PushLocal(0)),
        ),
    ] {
        let image = SchemeKind::ByteAligned.encode(&program);
        out.push(BadFixture {
            name,
            expect,
            report: analyze::analyze(&program, &image),
        });
    }
    out
}

/// A minimal program whose procedure body is `bad` followed by enough
/// padding to stay structurally well-formed.
fn bad_program(bad: dir::Inst) -> Program {
    Program {
        code: vec![
            dir::Inst::Call(0),
            dir::Inst::Halt,
            bad,
            dir::Inst::PushConst(0),
            dir::Inst::Pop,
            dir::Inst::Return,
        ],
        procs: vec![dir::program::ProcInfo {
            name: "main".into(),
            entry: 2,
            end: 6,
            n_args: 0,
            frame_size: 1,
            returns_value: false,
        }],
        entry_proc: 0,
        globals_size: 0,
    }
}

/// The per-image verdict entry shared by the JSON artifact and `raul
/// analyze` (same canonical shape).
fn verdict_json(name: &str, report: &AnalysisReport) -> Json {
    let diagnostics: Vec<Json> = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("code", d.code.id().into()),
                ("severity", d.severity().to_string().as_str().into()),
                ("message", d.message.as_str().into()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", name.into()),
        ("scheme", report.scheme.as_str().into()),
        ("clean", report.is_clean().into()),
        ("errors", (report.count(Severity::Error) as i64).into()),
        ("warnings", (report.count(Severity::Warning) as i64).into()),
        ("notes", (report.count(Severity::Info) as i64).into()),
        ("diagnostics", Json::Arr(diagnostics)),
    ])
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--smoke");

    let entries = corpus();
    let clean = entries.iter().filter(|e| e.report.is_clean()).count();
    let fixture_reports = bad_fixtures();
    let rejected = fixture_reports
        .iter()
        .filter(|f| !f.report.is_clean() && f.report.diagnostics.iter().any(|d| d.code == f.expect))
        .count();

    let pass = clean == entries.len() && rejected == fixture_reports.len();

    if json {
        let mut images: Vec<Json> = entries
            .iter()
            .map(|e| verdict_json(&format!("{}/{}", e.name, e.scheme.label()), &e.report))
            .collect();
        images.extend(
            fixture_reports
                .iter()
                .map(|f| verdict_json(&format!("fixture/{}", f.name), &f.report)),
        );
        let aggregate = Json::obj(vec![
            ("images", (entries.len() as i64).into()),
            ("clean", (clean as i64).into()),
            ("fixtures", (fixture_reports.len() as i64).into()),
            ("fixtures_rejected", (rejected as i64).into()),
            ("pass", pass.into()),
        ]);
        let report = Report::new(
            Kind::Analyze,
            "analyze_gate",
            Json::obj(vec![
                ("schemes", (SchemeKind::all().len() as i64).into()),
                ("tiers", 2i64.into()),
            ]),
            [("images", Json::Arr(images)), ("aggregate", aggregate)],
        );
        println!("{}", report.render());
    } else {
        println!(
            "analyze gate: {}/{} corpus images verify clean ({} workloads x 2 tiers x {} schemes)",
            clean,
            entries.len(),
            workloads().len(),
            SchemeKind::all().len()
        );
        for f in &fixture_reports {
            let hit = f.report.diagnostics.iter().any(|d| d.code == f.expect);
            println!(
                "  fixture {:>22}: {} (expected {}, {})",
                f.name,
                if f.report.is_clean() {
                    "ACCEPTED"
                } else {
                    "rejected"
                },
                f.expect.id(),
                if hit { "found" } else { "MISSING" }
            );
        }
        // Surface any unexpectedly dirty corpus entry with its report.
        for e in entries.iter().filter(|e| !e.report.is_clean()) {
            println!("--- {} under {} ---", e.name, e.scheme);
            print!("{}", e.report.render());
        }
    }

    if smoke && !pass {
        eprintln!(
            "analyze smoke FAIL: {}/{} clean, {}/{} fixtures rejected",
            clean,
            entries.len(),
            rejected,
            fixture_reports.len()
        );
        return ExitCode::FAILURE;
    }
    if smoke {
        println!(
            "analyze smoke PASS: {} images clean, {} fixtures rejected",
            clean, rejected
        );
    }
    ExitCode::SUCCESS
}
