//! **E22 — the elide gate (per-site facts):** runs the interprocedural
//! dataflow pass over the full encoded corpus, gates the fact-coverage
//! ratios against a committed baseline, and audits every discharged site
//! dynamically (the checked run evaluates each guard; a discharged guard
//! that fires refutes the static proof).
//!
//! Run with `cargo run -p uhm-bench --release --bin elide_gate`.
//! With `--json`, emits a versioned analyze report: one fact
//! row per corpus image plus the aggregate discharge ratios.
//! With `--smoke`, exits non-zero if (a) any discharged guard fires or
//! the audited run diverges from the checked run, or (b) a fact-coverage
//! ratio falls below its committed floor. The floors are *exact* gates,
//! not tolerance-scaled: static fact counts are deterministic, so any
//! drop is a real regression in the dataflow pass.

use std::process::ExitCode;

use analyze::FactsReport;
use dir::exec::Limits;
use dir::program::Program;
use telemetry::{Json, Kind, Report};
use uhm_bench::corpus::encoded_corpus;

/// Committed fact-coverage floors (the `aggregate` object of a previous
/// `--json` run, pruned to the gated keys).
const BASELINE: &str = include_str!("../../baselines/elide_gate.json");

/// One analyzed corpus image with its fact coverage and audit verdict.
struct Row {
    name: String,
    facts: FactsReport,
    hot_regions: usize,
    audit_sound: bool,
}

/// Dataflow + audit sweep over every encoded corpus image.
fn sweep() -> Vec<Row> {
    encoded_corpus()
        .into_iter()
        .map(|entry| {
            let name = format!("{}/{}", entry.name(), entry.scheme.label());
            let report = analyze::analyze(&entry.program, &entry.image);
            let audit_sound = audit(&entry.program, &report.site_facts);
            Row {
                name,
                facts: report.facts,
                hot_regions: report.hot_regions.len(),
                audit_sound,
            }
        })
        .collect()
}

/// Runs one program checked and audited: sound when no discharged guard
/// fired and the audited run (outputs and the full modeled
/// [`dir::exec::ExecStats`]) equals the checked run.
fn audit(program: &Program, facts: &dir::facts::SiteFacts) -> bool {
    let checked = dir::exec::run_with(program, Limits::default(), false);
    let (audited, verdict) = dir::exec::run_audit_with(program, facts, Limits::default(), false);
    verdict.is_sound() && audited == checked
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
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--smoke");

    let rows = sweep();
    let mut total = FactsReport::default();
    for r in &rows {
        total.div_sites += r.facts.div_sites;
        total.div_proved += r.facts.div_proved;
        total.idx_sites += r.facts.idx_sites;
        total.idx_proved += r.facts.idx_proved;
        total.depth_exact += r.facts.depth_exact;
        total.branches_never += r.facts.branches_never;
        total.branches_always += r.facts.branches_always;
        total.unreachable_insts += r.facts.unreachable_insts;
    }
    let div_ratio = ratio(total.div_proved, total.div_sites);
    let idx_ratio = ratio(total.idx_proved, total.idx_sites);
    let unsound = rows.iter().filter(|r| !r.audit_sound).count();

    // Gate the deterministic fact counts against the committed floors.
    let baseline = Json::parse(BASELINE.trim()).expect("committed baseline parses");
    let mut violations: Vec<String> = Vec::new();
    let mut gate = |key: &str, measured: f64| {
        if let Some(want) = baseline.get(key).and_then(Json::as_f64) {
            if measured < want {
                violations.push(format!(
                    "fact-coverage regression: {key} = {measured:.4}, baseline floor {want:.4}"
                ));
            }
        }
    };
    gate("div_ratio", div_ratio);
    gate("idx_ratio", idx_ratio);
    gate("div_proved", total.div_proved as f64);
    gate("idx_proved", total.idx_proved as f64);
    gate("depth_exact", total.depth_exact as f64);

    let pass = unsound == 0 && violations.is_empty();

    if json {
        let images: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", r.name.as_str().into()),
                    ("div_sites", (r.facts.div_sites as i64).into()),
                    ("div_proved", (r.facts.div_proved as i64).into()),
                    ("idx_sites", (r.facts.idx_sites as i64).into()),
                    ("idx_proved", (r.facts.idx_proved as i64).into()),
                    ("depth_exact", (r.facts.depth_exact as i64).into()),
                    ("hot_regions", (r.hot_regions as i64).into()),
                    ("audit_sound", r.audit_sound.into()),
                ])
            })
            .collect();
        let aggregate = Json::obj(vec![
            ("div_sites", (total.div_sites as i64).into()),
            ("div_proved", (total.div_proved as i64).into()),
            ("div_ratio", div_ratio.into()),
            ("idx_sites", (total.idx_sites as i64).into()),
            ("idx_proved", (total.idx_proved as i64).into()),
            ("idx_ratio", idx_ratio.into()),
            ("depth_exact", (total.depth_exact as i64).into()),
            ("branches_never", (total.branches_never as i64).into()),
            ("branches_always", (total.branches_always as i64).into()),
            ("unreachable_insts", (total.unreachable_insts as i64).into()),
            ("audit_unsound", (unsound as i64).into()),
            ("pass", pass.into()),
        ]);
        let report = Report::new(
            Kind::Analyze,
            "elide_gate",
            Json::obj(vec![("images", (rows.len() as i64).into())]),
            [("images", Json::Arr(images)), ("aggregate", aggregate)],
        );
        println!("{}", report.render());
    } else {
        println!(
            "elide gate: {} corpus images | div {}/{} proved ({:.1}%), idx {}/{} proved ({:.1}%), \
             {} depth-exact",
            rows.len(),
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
        for r in rows.iter().filter(|r| !r.audit_sound) {
            println!("  FAILED {}: audit unsound", r.name);
        }
        for v in &violations {
            println!("  {v}");
        }
    }

    if smoke && !pass {
        eprintln!(
            "elide smoke FAIL: {unsound} unsound, {} floor violations",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }
    if smoke {
        println!(
            "elide smoke PASS: div {:.1}%, idx {:.1}%, audit clean",
            div_ratio * 100.0,
            idx_ratio * 100.0
        );
    }
    ExitCode::SUCCESS
}
