//! **The host cost ledger:** absolute host time, end to end and per
//! layer, over five workloads — the repository's benchmark.
//!
//! The reproduction counts the paper's currency, modeled cycles, exactly.
//! This benchmark counts the other one: host nanoseconds, attributed to
//! the layers a DIR instruction passes through — compile, encode, verify,
//! load, decode, DTB lookup and fill, translate, PSDER dispatch and
//! semantic routines, the pool and the service front-end.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/host_ledger/Cargo.toml -- \
//!     --workload <name|all> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
//!     [--trace-out <file>]
//! ```
//!
//! Each run prints one line per metric (workload, name, value, unit) and,
//! as its last line, a JSON object `{correct, attempted, failed,
//! metrics}`. Untraced, the metrics are the end-to-end set; traced
//! (`--trace 1`, or `--trace-out` to also write a Chrome trace), they are
//! the per-layer set. `BENCHMARK.json` at the repository root declares
//! both sets; this directory's README defines every metric and workload.
//! Whoever runs the benchmark from `BENCHMARK.json` passes its
//! `run_seconds` as `--seconds`, and `--seed` and `--trace` with it.

mod host;
mod layers;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use telemetry::Json;
use trace::Tracer;
use workloads::{Checks, Options, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1978;

/// Timed seconds per run when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: host_ledger --workload <dtb_hot|interp_huffman|dtb_thrash|\
cold_source|service_mix|all> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
[--trace-out <file>]";

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` declares it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    if trace_out.is_some() && workloads.len() > 1 {
        return Err("--trace-out takes a single workload".to_string());
    }
    Ok(Cli {
        workloads,
        seed,
        seconds,
        trace: trace || trace_out.is_some(),
        trace_out,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".to_string())
}

/// One workload's results.
struct Outcome {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    checks: Checks,
    /// Timed requests: the latency samples.
    requests: usize,
    /// Median slowdown against the reference host: how busy the
    /// neighbours were.
    slowdown: f64,
    tracer: Tracer,
}

fn run_workload(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(opts.trace);
    let ledger = workloads::run(workload, opts, &mut tracer)?;
    let end_to_end = workloads::end_to_end(&ledger, peak_rss_mb()?);
    let mut checks = ledger.checks;
    let per_layer = if opts.trace {
        layers::per_layer(
            workload,
            &ledger,
            &tracer,
            opts.scale.probe_reps,
            &mut checks,
        )
    } else {
        Vec::new()
    };
    Ok(Outcome {
        end_to_end,
        per_layer,
        checks,
        requests: ledger.latencies.len(),
        slowdown: stats::median(&ledger.slowdowns),
        tracer,
    })
}

/// Prints every metric of the run with its unit, then the result line.
fn report(workload: Workload, outcome: &Outcome, traced: bool) {
    let metrics = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let name = workload.name();
    for m in metrics {
        println!("{name:<15} {:<36} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let c = outcome.checks;
    let n = outcome.requests;
    println!("{name:<15} {:<36} {n:>18} count", "latency_samples");
    let beyond = stats::samples_beyond(n, stats::TAIL_PER_MILLE);
    println!(
        "{name:<15} {:<36} {beyond:>18} count",
        "latency_samples_beyond_p95"
    );
    if !stats::supports(n, stats::TAIL_PER_MILLE) {
        eprintln!(
            "host_ledger: {name}: latency_p95_us has {beyond} samples beyond it, \
             fewer than {}",
            stats::MIN_BEYOND
        );
    }
    println!(
        "{name:<15} {:<36} {:>18.4} ratio",
        "host_slowdown", outcome.slowdown
    );
    println!(
        "{name:<15} {:<36} {:>18.4} share",
        "fail_share",
        c.failed as f64 / c.attempted.max(1) as f64
    );
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]);
                (m.name.to_string(), value)
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(c.failed == 0)),
        ("attempted", c.attempted.into()),
        ("failed", c.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("host_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        seed: cli.seed,
        seconds: Duration::from_secs_f64(cli.seconds),
        trace: cli.trace,
        scale: workloads::FULL,
    };
    let mut all_correct = true;
    for workload in cli.workloads {
        let outcome = match run_workload(workload, &opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("host_ledger: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        if let Some(path) = &cli.trace_out {
            if let Err(e) = std::fs::write(path, outcome.tracer.chrome_json().render()) {
                eprintln!("host_ledger: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        report(workload, &outcome, cli.trace);
        all_correct &= outcome.checks.failed == 0;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declaration, at the repository root.
    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    /// The manifest `BENCHMARK.json`'s command builds the benchmark with.
    const MANIFEST: &str = include_str!("Cargo.toml");

    /// The workspace's manifest, whose profiles `cargo build` ships with.
    const WORKSPACE_MANIFEST: &str = include_str!("../../../../../Cargo.toml");

    /// The settings of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark's own package is not a workspace member, so it does
    /// not inherit the workspace's profile: it copies it, and must keep
    /// the copy equal, or it measures a build the repository does not
    /// ship.
    #[test]
    fn release_profile_matches_the_workspace() {
        assert_eq!(
            release_profile(MANIFEST),
            release_profile(WORKSPACE_MANIFEST)
        );
        assert_eq!(
            release_profile("[profile.release]\nlto = 1\n[x]\ny = 2"),
            ["lto = 1"]
        );
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let json = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_grammar_accepts_and_rejects() {
        assert!(is_name("uhm.dtb.lookup_ns") && is_name("0-a_b.c"));
        assert!(!is_name("_lead") && !is_name("a b") && !is_name(&"x".repeat(65)));
        assert!(is_unit("1/kinstr") && is_unit("%") && is_unit("cycles/instr"));
        assert!(!is_unit("") && !is_unit("µs") && !is_unit("a b"));
    }

    #[test]
    fn declared_names_follow_the_grammar_and_are_unique() {
        let json = Json::parse(BENCHMARK).unwrap();
        let mut names: Vec<String> = Vec::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for entry in json.get(section).and_then(Json::as_arr).unwrap() {
                let name = entry.get("name").and_then(Json::as_str).unwrap();
                assert!(is_name(name), "{name}");
                assert!(!names.iter().any(|n| n == name), "{name} declared twice");
                names.push(name.to_string());
                if let Some(unit) = entry.get("unit").and_then(Json::as_str) {
                    assert!(is_unit(unit), "{name}: {unit}");
                }
            }
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        // setup_s carries the largest bound; no bound exceeds 0.25.
        let bounds: Vec<(String, f64)> = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                (name, m.get("bound").and_then(Json::as_f64).unwrap())
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        assert!(bounds
            .iter()
            .all(|&(_, b)| b > 0.0 && b <= setup && b <= 0.25));
    }

    #[test]
    fn cli_parses_the_benchmark_command_line() {
        let args: Vec<String> = "--workload dtb_hot --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse(&args).unwrap();
        assert_eq!(cli.workloads, vec![Workload::DtbHot]);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        let bad = |s: &str| parse(&s.split(' ').map(String::from).collect::<Vec<_>>()).is_err();
        assert!(bad("--workload nope"));
        assert!(bad("--workload dtb_hot --trace 2"));
        assert!(bad("--seed 1"));
        assert!(bad("--workload all --trace-out t.json"));
        assert!(bad("--workload dtb_hot --seconds -1"));
        assert_eq!(
            parse(&["--workload".into(), "all".into()]).unwrap().seconds,
            DEFAULT_SECONDS
        );
    }

    /// Every workload at smoke scale, traced: each declared metric is
    /// emitted with its declared unit and a finite value, end-to-end
    /// values are never 0, and no operation fails.
    #[test]
    fn smoke_pass_emits_every_declared_metric() {
        let opts = Options {
            seed: DEFAULT_SEED,
            seconds: Duration::ZERO,
            trace: true,
            scale: workloads::SMOKE,
        };
        for workload in Workload::ALL {
            let outcome = run_workload(workload, &opts).unwrap();
            let w = workload.name();
            assert!(outcome.checks.attempted > 0, "{w}");
            assert_eq!(outcome.checks.failed, 0, "{w}: fail_share must be 0");
            for (section, emitted) in [
                ("end_to_end", &outcome.end_to_end),
                ("per_layer", &outcome.per_layer),
            ] {
                let got: Vec<(String, String)> = emitted
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, declared(section), "{w}: {section}");
                assert!(emitted.iter().all(|m| m.value.is_finite()), "{w}");
            }
            for m in &outcome.end_to_end {
                assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
            }
            assert!(!outcome.tracer.spans().is_empty(), "{w}");
        }
    }
}
