//! **E17 + E22 — the analyze gate:** runs the analyzer once over every
//! image of the encoded corpus (every sample under every encoding scheme
//! at every semantic tier) and over the known-bad fixtures, then checks
//! that
//!
//! * every corpus image verifies clean and every fixture is rejected with
//!   its exact diagnostic code (E17);
//! * every site the dataflow pass discharged survives a dynamic audit:
//!   the checked run evaluates each guard, and one that fires refutes the
//!   static proof (E22);
//! * the corpus-wide fact coverage meets the committed floors.
//!
//! Run with `cargo run -p uhm-bench --release --bin analyze_gate`.
//! With `--json`, emits a versioned analyze report: one row per corpus
//! image (the `raul analyze` row plus `audit_sound`) and per fixture,
//! plus the aggregate verdicts and fact counts.
//! Every run exits non-zero if any of the checks above fails. The
//! floors are *exact* gates, not tolerance-scaled: static fact counts are
//! deterministic, so any drop is a real regression in the dataflow pass,
//! and a floor missing from the baseline is a violation too.

use std::process::ExitCode;

use analyze::{AnalysisReport, DiagCode, FactsReport};
use dir::encode::{fixtures, Image, SchemeKind};
use dir::exec::Limits;
use dir::facts::SiteFacts;
use dir::program::Program;
use telemetry::{Json, Kind, Report};
use uhm_bench::corpus::{encoded_corpus, TIERS};
use uhm_bench::gate::{self, Gate};
use uhm_bench::workloads;

/// Committed fact-coverage floors (the fact counts of the `aggregate`
/// object of a previous `--json` run, pruned to the gated keys).
const BASELINE: &str = include_str!("../../baselines/elide_gate.json");

/// One analyzed and audited corpus image.
struct CorpusEntry {
    name: String,
    report: AnalysisReport,
    audit_sound: bool,
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
            let report = analyze::analyze(&entry.program, &entry.image);
            let audit_sound = audit(&entry.program, &report.site_facts);
            CorpusEntry {
                name: format!("{}/{}", entry.name(), entry.scheme.label()),
                report,
                audit_sound,
            }
        })
        .collect()
}

/// Runs one program checked and audited: sound when no discharged guard
/// fired and the audited run (outputs and the full modeled
/// [`dir::exec::ExecStats`]) equals the checked run.
fn audit(program: &Program, facts: &SiteFacts) -> bool {
    let checked = dir::exec::run_with(program, Limits::default(), false);
    let (audited, verdict) = dir::exec::run_audit_with(program, facts, Limits::default(), false);
    verdict.is_sound() && audited == checked
}

/// The known-bad fixtures: name, the code the rejection must carry, the
/// program the image claims to encode, and the image.
fn fixture_images() -> Vec<(&'static str, DiagCode, Program, Image)> {
    let sample = dir::compiler::compile(
        &hlr::compile("proc main() begin int i; for i := 0 to 9 do write i; end")
            .expect("fixture source compiles"),
    );
    let mut out = Vec::new();
    for (name, image) in [
        ("truncated_codebook", fixtures::truncated_codebook(&sample)),
        (
            "conflicting_codebook",
            fixtures::conflicting_codebook(&sample),
        ),
        (
            "oversized_field_width",
            fixtures::oversized_field_width(&sample),
        ),
    ] {
        out.push((name, DiagCode::CodecDefect, sample.clone(), image));
    }
    // Hand-built DIR-level defects: the absint pass must catch what no
    // compiler-produced program contains.
    for (name, expect, bad) in [
        ("stack_underflow", DiagCode::StackUnderflow, dir::Inst::Pop),
        (
            "jump_out_of_range",
            DiagCode::JumpOutOfRange,
            dir::Inst::Jump(999),
        ),
        (
            "uninitialized_local",
            DiagCode::UninitializedLocal,
            dir::Inst::PushLocal(0),
        ),
    ] {
        let program = bad_program(bad);
        let image = SchemeKind::ByteAligned.encode(&program);
        out.push((name, expect, program, image));
    }
    out
}

fn bad_fixtures() -> Vec<BadFixture> {
    fixture_images()
        .into_iter()
        .map(|(name, expect, program, image)| BadFixture {
            name,
            expect,
            report: analyze::analyze(&program, &image),
        })
        .collect()
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

/// Corpus-wide fact counts.
fn total_facts(entries: &[CorpusEntry]) -> FactsReport {
    let mut total = FactsReport::default();
    for f in entries.iter().map(|e| &e.report.facts) {
        total.div_sites += f.div_sites;
        total.div_proved += f.div_proved;
        total.idx_sites += f.idx_sites;
        total.idx_proved += f.idx_proved;
        total.depth_exact += f.depth_exact;
        total.branches_never += f.branches_never;
        total.branches_always += f.branches_always;
        total.unreachable_insts += f.unreachable_insts;
    }
    total
}

/// A safe ratio: `proved / sites`, 1.0 when there are no sites.
fn ratio(proved: u32, sites: u32) -> f64 {
    if sites == 0 {
        1.0
    } else {
        proved as f64 / sites as f64
    }
}

fn main() -> ExitCode {
    let args = gate::args("analyze_gate", &[]);
    let entries = corpus();
    let clean = entries.iter().filter(|e| e.report.is_clean()).count();
    let fixture_reports = bad_fixtures();
    let rejected = fixture_reports
        .iter()
        .filter(|f| !f.report.is_clean() && f.report.diagnostics.iter().any(|d| d.code == f.expect))
        .count();
    let unsound = entries.iter().filter(|e| !e.audit_sound).count();

    let total = total_facts(&entries);
    let div_ratio = ratio(total.div_proved, total.div_sites);
    let idx_ratio = ratio(total.idx_proved, total.idx_sites);
    let mut gate = Gate::new("analyze_gate", BASELINE);
    gate.require(
        clean == entries.len(),
        format!("{clean}/{} corpus images verify clean", entries.len()),
    );
    gate.require(
        rejected == fixture_reports.len(),
        format!(
            "{rejected}/{} fixtures rejected with their expected code",
            fixture_reports.len()
        ),
    );
    gate.require(
        unsound == 0,
        format!("{unsound} corpus images fail the fact audit"),
    );
    gate.floors(
        &[],
        &[
            ("div_ratio", div_ratio),
            ("idx_ratio", idx_ratio),
            ("div_proved", total.div_proved.into()),
            ("idx_proved", total.idx_proved.into()),
            ("depth_exact", total.depth_exact.into()),
        ],
    );
    let pass = gate.passed();

    if args.json {
        let mut images: Vec<Json> = entries
            .iter()
            .map(|e| {
                let mut row = e.report.to_json(&e.name);
                if let Json::Obj(fields) = &mut row {
                    fields.push(("audit_sound".to_string(), e.audit_sound.into()));
                }
                row
            })
            .collect();
        images.extend(
            fixture_reports
                .iter()
                .map(|f| f.report.to_json(&format!("fixture/{}", f.name))),
        );
        let aggregate = Json::obj(vec![
            ("images", entries.len().into()),
            ("clean", clean.into()),
            ("fixtures", fixture_reports.len().into()),
            ("fixtures_rejected", rejected.into()),
            ("div_sites", total.div_sites.into()),
            ("div_proved", total.div_proved.into()),
            ("div_ratio", div_ratio.into()),
            ("idx_sites", total.idx_sites.into()),
            ("idx_proved", total.idx_proved.into()),
            ("idx_ratio", idx_ratio.into()),
            ("depth_exact", total.depth_exact.into()),
            ("branches_never", total.branches_never.into()),
            ("branches_always", total.branches_always.into()),
            ("unreachable_insts", total.unreachable_insts.into()),
            ("audit_unsound", unsound.into()),
            ("pass", pass.into()),
        ]);
        let report = Report::new(
            Kind::Analyze,
            "analyze_gate",
            Json::obj(vec![
                ("schemes", SchemeKind::all().len().into()),
                ("tiers", TIERS.len().into()),
            ]),
            [("images", Json::Arr(images)), ("aggregate", aggregate)],
        );
        println!("{}", report.render());
    } else {
        println!(
            "analyze gate: {}/{} corpus images verify clean ({} workloads x {} tiers x {} schemes)",
            clean,
            entries.len(),
            workloads().len(),
            TIERS.len(),
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
        println!(
            "facts: div {}/{} proved ({:.1}%), idx {}/{} proved ({:.1}%), {} depth-exact",
            total.div_proved,
            total.div_sites,
            div_ratio * 100.0,
            total.idx_proved,
            total.idx_sites,
            idx_ratio * 100.0,
            total.depth_exact
        );
        println!(
            "audit: {} unsound ({} never-taken, {} always-taken, {} unreachable facts)",
            unsound, total.branches_never, total.branches_always, total.unreachable_insts
        );
        for e in entries.iter().filter(|e| !e.audit_sound) {
            println!("  FAILED {}: audit unsound", e.name);
        }
        // Surface any unexpectedly dirty corpus entry with its report.
        for e in entries.iter().filter(|e| !e.report.is_clean()) {
            println!("--- {} ---", e.name);
            print!("{}", e.report.render());
        }
    }

    gate.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `verify` accepts exactly the images `analyze` calls clean, on the
    /// whole corpus and on every fixture.
    #[test]
    fn verify_accepts_exactly_the_clean_images() {
        let mut images: Vec<(String, Program, Image)> = encoded_corpus()
            .into_iter()
            .map(|e| (e.name(), e.program, e.image))
            .collect();
        images.extend(
            fixture_images()
                .into_iter()
                .map(|(name, _, program, image)| (name.to_string(), program, image)),
        );
        assert_eq!(images.len(), 204 + 6);
        for (name, program, image) in images {
            let clean = analyze::analyze(&program, &image).is_clean();
            assert_eq!(analyze::verify(&program, image).is_ok(), clean, "{name}");
        }
    }
}
