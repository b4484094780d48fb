//! `raul` — the command-line driver for the UHM reproduction.
//!
//! ```text
//! raul check   <file>                    parse + type-check, rendered errors
//! raul run     <file> [options]          execute on a machine configuration
//! raul disasm  <file> [--fold] [--fuse]  DIR assembler listing
//! raul encode  <file> [--fuse]           static-size report per scheme
//! raul analyze <file> [--json]           load-time whole-image verification
//! raul profile <file>                    execution hot spots and coverage
//! raul faults  <file> [options]          run under seeded fault injection
//! raul pool    <file> [options]          run M tenant copies on N workers
//! raul chaos   <file> [options]          pool run under seeded chaos
//!                                        (worker crashes, hangs, corrupted
//!                                        shared artifacts) with supervision
//! raul serve   <file> [options]          one service step: open-loop arrivals
//!                                        through admission, fair queues and
//!                                        backpressure onto a machine pool
//! raul load    <file> [options]          stepped arrival-rate sweep; prints
//!                                        the latency-under-load trajectory
//!
//! run options:
//!   --mode interp|dtb|icache|two-level   (default: dtb)
//!   --scheme byte|packed|contextual|huffman|pair|valuehuff (default: huffman)
//!   --decoder tree|table                 host decoder plane (default: table)
//!   --dtb-entries N                      (default: 64)
//!   --dtb-unit-words N                   buffer words per allocation unit
//!   --fold                               constant-fold before compiling
//!   --fuse                               raise the semantic level
//!   --stats                              print cycle metrics and IU partition
//!   --json                               emit a versioned report on stdout
//!   --window N                           sample metrics every N instructions
//!                                        (run, profile and faults)
//!   --events FILE                        stream trace events as JSONL to FILE
//!   --trace-out FILE                     write a Chrome trace_event JSON file
//!                                        (load in Perfetto / chrome://tracing)
//!   --flame-out FILE                     write collapsed stacks for
//!                                        flamegraph.pl / speedscope
//!
//! faults options (plus the run options above):
//!   --seed N                             injector seed (default: 0xFA01)
//!   --rate P                             DTB word+tag rate (default: 1e-3)
//!   --dir-rate P | --dtb-rate P | --tag-rate P | --drop-rate P
//!   --degrade-after N                    failures before pure interpretation
//!
//! pool options (plus the run options; fault flags attach a pool-level
//! campaign whose seed is re-derived per tenant):
//!   --workers N                          worker threads (default: 4)
//!   --tenants M                          tenant copies of <file> (default: 2N)
//!
//! supervision options (pool and chaos; any of them engages the
//! supervised path):
//!   --fuel N                             modeled-cycle budget per attempt
//!   --deadline MS                        wall-clock deadline per attempt
//!   --retry N                            attempts per tenant (default: 3)
//!   --max-queue N                        shed tenants past this queue depth
//!
//! chaos options (plus pool + supervision options; `chaos` always runs
//! supervised and defaults the fuel budget to 5M cycles so injected
//! hangs are preempted):
//!   --crash-rate P                       worker-crash probability (default 0.2)
//!   --hang-rate P                        hung-tenant probability (default 0.2)
//!   --corrupt-rate P                     shared-artifact corruption (default 0.2)
//!
//! service options (`serve` and `load`; plus the run options and
//! --workers / --tenants / --seed; arrivals, queueing and latency all
//! live on the modeled clock, so every service run is bit-reproducible
//! for a given seed):
//!   --requests N                         requests per step (default: 4 x workers)
//!   --arrival-rate R                     `serve` arrival rate, requests per
//!                                        million modeled cycles (default: 8)
//!   --rates A,B,C                        `load` sweep rates (default:
//!                                        1,2,4,8,16,32,64)
//!   --watermark N                        shed arrivals past this total backlog
//!   --quota N                            shed arrivals past this per-tenant
//!                                        backlog
//!   --max-pressure W                     reject programs whose static DTB
//!                                        pressure bound exceeds W words
//!   --right-size                         shrink oversized DTB geometry to the
//!                                        analyzer's recommendation instead of
//!                                        thrashing
//!
//! `analyze` verifies the encoded image (codec tables, stack discipline,
//! branch containment) and analyzes it (call graph, DTB pressure, dataflow
//! fact discharge, loop regions) without executing it; it honours
//! --scheme, --fold and --fuse, prints the typed diagnostic report, and
//! exits 1 when verification rejects the image. --facts adds the per-region
//! fact table, --regions the full ranked hot-region
//! (natural-loop) table, and --deny-warnings makes a clean-but-warned
//! image exit 1 (a clean image with no warnings still exits 0).
//! With --json it emits a versioned analyze report on stdout.
//!
//! `profile` runs the program under the always-on counter plane and
//! reports per-procedure / per-opcode / per-tier cycle attribution,
//! opcode-pair frequencies and the coverage curve. It honours the run
//! options (mode, scheme, DTB geometry), accepts --window, --trace-out and
//! --flame-out, and with --json emits a versioned profile report. Adding
//! --tenants M [--workers N] also profiles a pool of M tenant copies and
//! attaches the pool aggregation (mergeable per-worker latency
//! histograms, utilization, queue depth) to the report.
//!
//! Invalid machine configurations exit with status 2; runtime traps and
//! compile errors with status 1. A pool (or chaos) run exits 1 only when
//! a tenant *fails* — traps or panics; tenants that time out, are shed,
//! or are quarantined are reported, supervised outcomes and exit 0. The
//! same policy governs `serve` and `load`: rejected and shed requests
//! are the admission and backpressure policies doing their job (exit 0);
//! only trapped or panicked requests fail the command.
//! ```

use std::process::ExitCode;

use std::sync::Arc;

use dir::encode::{DecodeMode, SchemeKind};
use profile::{CounterPlane, FlameBuilder, SpanTracer};
use telemetry::{EventCounts, Json, JsonlSink, Kind, Report, RingSink, TeeSink, Tier, TraceSink};
use uhm::report::{trace_health_json, window_json};
use uhm::resilience::{AdmissionPolicy, ChaosConfig, Supervisor};
use uhm::service::{RequestOutcome, Service, ServiceConfig, ServiceRun};
use uhm::{
    Budget, CostModel, DtbConfig, FaultConfig, Limits, Machine, MachinePool, Mode, PoolRun,
    RetryPolicy, RunOptions, WindowSampler,
};

/// A CLI failure, split by exit status: configuration errors (bad
/// machine geometry) exit 2, runtime failures (compile errors, traps,
/// I/O) exit 1.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// Invalid machine configuration (exit status 2).
    Config(String),
    /// Compile error, runtime trap or I/O failure (exit status 1).
    Run(String),
}

impl CliError {
    #[cfg(test)]
    fn message(&self) -> &str {
        match self {
            CliError::Config(m) | CliError::Run(m) => m,
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Run(m)
    }
}

/// Parsed command-line request.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    command: Command,
    path: String,
    mode: ModeArg,
    scheme: SchemeKind,
    decoder: DecodeMode,
    dtb_entries: usize,
    fold: bool,
    fuse: bool,
    stats: bool,
    json: bool,
    window: Option<u64>,
    events: Option<String>,
    trace_out: Option<String>,
    flame_out: Option<String>,
    dtb_unit_words: Option<usize>,
    workers: usize,
    tenants: Option<usize>,
    seed: u64,
    rate: Option<f64>,
    dir_rate: Option<f64>,
    dtb_rate: Option<f64>,
    tag_rate: Option<f64>,
    drop_rate: Option<f64>,
    degrade_after: Option<u32>,
    fuel: Option<u64>,
    deadline_ms: Option<u64>,
    retry: Option<u32>,
    max_queue: Option<usize>,
    crash_rate: Option<f64>,
    hang_rate: Option<f64>,
    corrupt_rate: Option<f64>,
    requests: Option<usize>,
    arrival_rate: u64,
    rates: Option<Vec<u64>>,
    watermark: Option<usize>,
    quota: Option<usize>,
    max_pressure: Option<u64>,
    right_size: bool,
    facts: bool,
    regions: bool,
    deny_warnings: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Check,
    Run,
    Disasm,
    Encode,
    Analyze,
    Profile,
    Faults,
    Pool,
    Chaos,
    Serve,
    Load,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeArg {
    Interp,
    Dtb,
    ICache,
    TwoLevel,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let name = it.next().map(String::as_str);
    let command = match name {
        Some("check") => Command::Check,
        Some("run") => Command::Run,
        Some("disasm") => Command::Disasm,
        Some("encode") => Command::Encode,
        Some("analyze") => Command::Analyze,
        Some("profile") => Command::Profile,
        Some("faults") => Command::Faults,
        Some("pool") => Command::Pool,
        Some("chaos") => Command::Chaos,
        Some("serve") => Command::Serve,
        Some("load") => Command::Load,
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => {
            return Err("missing command \
                 (check|run|disasm|encode|analyze|profile|faults|pool|chaos|serve|load)"
                .into())
        }
    };
    let path = it
        .next()
        .ok_or_else(|| "missing <file> argument".to_string())?
        .clone();
    let mut cli = Cli {
        command,
        path,
        mode: ModeArg::Dtb,
        scheme: SchemeKind::Huffman,
        decoder: DecodeMode::default(),
        dtb_entries: 64,
        fold: false,
        fuse: false,
        stats: false,
        json: false,
        window: None,
        events: None,
        trace_out: None,
        flame_out: None,
        dtb_unit_words: None,
        workers: 4,
        tenants: None,
        seed: 0xFA01,
        rate: None,
        dir_rate: None,
        dtb_rate: None,
        tag_rate: None,
        drop_rate: None,
        degrade_after: None,
        fuel: None,
        deadline_ms: None,
        retry: None,
        max_queue: None,
        crash_rate: None,
        hang_rate: None,
        corrupt_rate: None,
        requests: None,
        arrival_rate: 8,
        rates: None,
        watermark: None,
        quota: None,
        max_pressure: None,
        right_size: false,
        facts: false,
        regions: false,
        deny_warnings: false,
    };
    fn rate_value(it: &mut std::slice::Iter<String>, flag: &str) -> Result<f64, String> {
        let p: f64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad {flag} value"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{flag} must be a probability in [0, 1]"));
        }
        Ok(p)
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mode" => {
                cli.mode = match it.next().map(String::as_str) {
                    Some("interp") => ModeArg::Interp,
                    Some("dtb") => ModeArg::Dtb,
                    Some("icache") => ModeArg::ICache,
                    Some("two-level") => ModeArg::TwoLevel,
                    other => return Err(format!("bad --mode {other:?}")),
                };
            }
            "--scheme" => {
                let name = it.next().ok_or("missing --scheme value")?;
                cli.scheme = SchemeKind::all()
                    .into_iter()
                    .find(|s| s.label() == name)
                    .ok_or_else(|| format!("unknown scheme `{name}`"))?;
            }
            "--decoder" => {
                let name = it.next().ok_or("missing --decoder value")?;
                cli.decoder = DecodeMode::parse(name)
                    .ok_or_else(|| format!("unknown decoder `{name}` (tree|table)"))?;
            }
            "--dtb-entries" => {
                cli.dtb_entries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --dtb-entries value")?;
            }
            "--fold" => cli.fold = true,
            "--fuse" => cli.fuse = true,
            "--facts" => cli.facts = true,
            "--regions" => cli.regions = true,
            "--deny-warnings" => cli.deny_warnings = true,
            "--stats" => cli.stats = true,
            "--json" => cli.json = true,
            "--window" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --window value")?;
                if n == 0 {
                    return Err("--window must be positive".into());
                }
                cli.window = Some(n);
            }
            "--events" => {
                cli.events = Some(it.next().ok_or("missing --events value")?.clone());
            }
            "--trace-out" => {
                cli.trace_out = Some(it.next().ok_or("missing --trace-out value")?.clone());
            }
            "--flame-out" => {
                cli.flame_out = Some(it.next().ok_or("missing --flame-out value")?.clone());
            }
            "--dtb-unit-words" => {
                cli.dtb_unit_words = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad --dtb-unit-words value")?,
                );
            }
            "--workers" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --workers value")?;
                if n == 0 {
                    return Err("--workers must be positive".into());
                }
                cli.workers = n;
            }
            "--tenants" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --tenants value")?;
                if n == 0 {
                    return Err("--tenants must be positive".into());
                }
                cli.tenants = Some(n);
            }
            "--seed" => {
                let v = it.next().ok_or("missing --seed value")?;
                cli.seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
                    .ok_or("bad --seed value")?;
            }
            "--rate" => cli.rate = Some(rate_value(&mut it, "--rate")?),
            "--dir-rate" => cli.dir_rate = Some(rate_value(&mut it, "--dir-rate")?),
            "--dtb-rate" => cli.dtb_rate = Some(rate_value(&mut it, "--dtb-rate")?),
            "--tag-rate" => cli.tag_rate = Some(rate_value(&mut it, "--tag-rate")?),
            "--drop-rate" => cli.drop_rate = Some(rate_value(&mut it, "--drop-rate")?),
            "--degrade-after" => {
                cli.degrade_after = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad --degrade-after value")?,
                );
            }
            "--fuel" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --fuel value")?;
                if n == 0 {
                    return Err("--fuel must be positive".into());
                }
                cli.fuel = Some(n);
            }
            "--deadline" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --deadline value (milliseconds)")?;
                if ms == 0 {
                    return Err("--deadline must be positive".into());
                }
                cli.deadline_ms = Some(ms);
            }
            "--retry" => {
                let n: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --retry value")?;
                if n == 0 {
                    return Err("--retry must be positive (attempts, not extra tries)".into());
                }
                cli.retry = Some(n);
            }
            "--max-queue" => {
                cli.max_queue = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad --max-queue value")?,
                );
            }
            "--crash-rate" => cli.crash_rate = Some(rate_value(&mut it, "--crash-rate")?),
            "--hang-rate" => cli.hang_rate = Some(rate_value(&mut it, "--hang-rate")?),
            "--corrupt-rate" => cli.corrupt_rate = Some(rate_value(&mut it, "--corrupt-rate")?),
            "--requests" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --requests value")?;
                if n == 0 {
                    return Err("--requests must be positive".into());
                }
                cli.requests = Some(n);
            }
            "--arrival-rate" => {
                let r: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --arrival-rate value")?;
                if r == 0 {
                    return Err("--arrival-rate must be positive (requests per Mcycle)".into());
                }
                cli.arrival_rate = r;
            }
            "--rates" => {
                let list = it.next().ok_or("missing --rates value")?;
                let rates: Vec<u64> = list
                    .split(',')
                    .map(|v| v.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad --rates value `{list}` (comma-separated)"))?;
                if rates.is_empty() || rates.contains(&0) {
                    return Err("--rates entries must be positive".into());
                }
                cli.rates = Some(rates);
            }
            "--watermark" => {
                cli.watermark = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad --watermark value")?,
                );
            }
            "--quota" => {
                cli.quota = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad --quota value")?,
                );
            }
            "--max-pressure" => {
                cli.max_pressure = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad --max-pressure value")?,
                );
            }
            "--right-size" => cli.right_size = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // A tenant run has no single instruction axis to window.
    let tenant_run = matches!(
        command,
        Command::Pool | Command::Chaos | Command::Serve | Command::Load
    );
    if tenant_run && cli.window.is_some() {
        let name = name.unwrap_or_default();
        return Err(format!("--window does not apply to `{name}`"));
    }
    Ok(cli)
}

/// Compiles a source file through the requested pipeline stages.
fn build_program(cli: &Cli, source: &str) -> Result<dir::Program, String> {
    let mut hir = hlr::compile(source).map_err(|e| e.render(source))?;
    if cli.fold {
        let (folded, stats) = hlr::fold::fold(&hir);
        eprintln!(
            "fold: {} exprs, {} branches, {} loops",
            stats.folded_exprs, stats.pruned_branches, stats.removed_loops
        );
        hir = folded;
    }
    let mut program = dir::compiler::compile(&hir);
    if cli.fuse {
        let (fused, stats) = dir::fuse::fuse(&program);
        eprintln!(
            "fuse: {} -> {} instructions ({:.0}% smaller)",
            stats.before,
            stats.after,
            stats.reduction() * 100.0
        );
        program = fused;
    }
    program.validate().map_err(|e| e.to_string())?;
    Ok(program)
}

/// A DTB configuration for `entries` units, applying any
/// `--dtb-unit-words` override.
fn dtb_config(cli: &Cli, entries: usize) -> DtbConfig {
    let mut cfg = DtbConfig::with_capacity(entries);
    if let Some(words) = cli.dtb_unit_words {
        cfg.unit_words = words;
    }
    cfg
}

/// The validated machine mode of the flags. Invalid or oversized
/// geometry is a typed [`uhm::ConfigError`], reported as a
/// configuration error (exit 2) before anything is allocated.
fn machine_mode(cli: &Cli) -> Result<Mode, CliError> {
    let mode = match cli.mode {
        ModeArg::Interp => Mode::Interpreter,
        ModeArg::Dtb => Mode::Dtb(dtb_config(cli, cli.dtb_entries)),
        ModeArg::ICache => Mode::ICache {
            geometry: memsim::Geometry::new((cli.dtb_entries / 4).max(1), 4),
        },
        ModeArg::TwoLevel => Mode::TwoLevelDtb {
            l1: dtb_config(cli, cli.dtb_entries),
            l2: dtb_config(cli, cli.dtb_entries.saturating_mul(8)),
        },
    };
    mode.validate()
        .map_err(|e| CliError::Config(e.to_string()))?;
    Ok(mode)
}

/// `true` when any fault-rate flag was given (used by `pool`, where fault
/// injection is opt-in rather than the command's purpose).
fn faults_requested(cli: &Cli) -> bool {
    cli.rate.is_some()
        || cli.dir_rate.is_some()
        || cli.dtb_rate.is_some()
        || cli.tag_rate.is_some()
        || cli.drop_rate.is_some()
}

/// `true` when any supervision flag was given (the `chaos` command is
/// always supervised, flags or not).
fn supervision_requested(cli: &Cli) -> bool {
    cli.command == Command::Chaos
        || cli.fuel.is_some()
        || cli.deadline_ms.is_some()
        || cli.retry.is_some()
        || cli.max_queue.is_some()
}

/// Builds the pool supervisor from the CLI flags. `chaos` defaults the
/// fuel budget to 5M modeled cycles when no budget was given, so an
/// injected hang is preempted instead of spinning to the step limit.
fn supervisor_config(cli: &Cli) -> Supervisor {
    let mut sup = Supervisor {
        budget: Budget {
            fuel: cli.fuel,
            deadline_ns: cli.deadline_ms.map(|ms| ms.saturating_mul(1_000_000)),
        },
        max_queue: cli.max_queue,
        ..Supervisor::default()
    };
    if cli.command == Command::Chaos && sup.budget.is_unlimited() {
        sup.budget = Budget::fuel(5_000_000);
    }
    if let Some(attempts) = cli.retry {
        sup.backoff.max_attempts = attempts;
    }
    sup.backoff.seed = cli.seed;
    sup
}

/// Builds the chaos-injection plan for `raul chaos` from the rate flags.
fn chaos_config(cli: &Cli) -> ChaosConfig {
    ChaosConfig {
        seed: cli.seed,
        worker_crash_rate: cli.crash_rate.unwrap_or(0.2),
        hang_rate: cli.hang_rate.unwrap_or(0.2),
        artifact_corruption_rate: cli.corrupt_rate.unwrap_or(0.2),
    }
}

/// Builds the fault-injection configuration from the CLI flags: `--rate`
/// sets both DTB classes; the per-class flags override it.
fn fault_config(cli: &Cli) -> FaultConfig {
    let dtb_default = cli.rate.unwrap_or(1e-3);
    FaultConfig {
        dir_bit_rate: cli.dir_rate.unwrap_or(0.0),
        dtb_word_rate: cli.dtb_rate.unwrap_or(dtb_default),
        dtb_tag_rate: cli.tag_rate.unwrap_or(dtb_default),
        drop_fetch_rate: cli.drop_rate.unwrap_or(0.0),
        ..FaultConfig::inert(cli.seed)
    }
}

/// The `config` section of a `raul` run report: how the run was set up.
fn run_config(cli: &Cli) -> Json {
    let mode = match cli.mode {
        ModeArg::Interp => "interp",
        ModeArg::Dtb => "dtb",
        ModeArg::ICache => "icache",
        ModeArg::TwoLevel => "two-level",
    };
    Json::obj(vec![
        ("file", cli.path.as_str().into()),
        ("mode", mode.into()),
        ("scheme", cli.scheme.label().into()),
        ("decoder", cli.decoder.label().into()),
        ("dtb_entries", (cli.dtb_entries as u64).into()),
        ("fold", cli.fold.into()),
        ("fuse", cli.fuse.into()),
        (
            "window",
            cli.window.map_or(Json::Null, |n| Json::Int(n as i64)),
        ),
    ])
}

/// The machine an executing subcommand runs: the flags' scheme and
/// decoder on the default cost model. `faults` bounds the step count,
/// because corrupted control flow can loop; every command but `run` and
/// `faults` may share the machine across tenants, so it freezes the
/// translations once for all of them.
fn machine_for(cli: &Cli, program: &dir::Program) -> Machine {
    let limits = match cli.command {
        Command::Faults => Limits {
            max_steps: 5_000_000,
            ..Limits::default()
        },
        _ => Limits::default(),
    };
    let mut machine = Machine::with(program, cli.scheme, CostModel::default(), limits);
    machine.set_decoder(cli.decoder);
    if !matches!(cli.command, Command::Run | Command::Faults) {
        machine.freeze_translations();
    }
    machine
}

/// A pool of `tenants` copies of `machine`, all under `mode`.
fn tenant_pool(cli: &Cli, machine: &Arc<Machine>, mode: &Mode, tenants: usize) -> MachinePool {
    let mut pool = MachinePool::new(cli.workers);
    for t in 0..tenants {
        pool.push(format!("tenant-{t}"), Arc::clone(machine), mode.clone());
    }
    pool
}

/// The sinks a run attaches that keep `CLASSIFY_MISSES` off, so
/// attaching them never changes the run's modeled metrics: `--window`
/// builds a [`WindowSampler`], `--trace-out` a [`SpanTracer`] and
/// `--flame-out` a [`FlameBuilder`].
struct Observers {
    window: Option<WindowSampler>,
    tracer: Option<SpanTracer>,
    flame: Option<FlameBuilder>,
}

impl Observers {
    fn new(cli: &Cli, program: &dir::Program) -> Observers {
        Observers {
            window: cli.window.map(WindowSampler::new),
            tracer: cli.trace_out.as_ref().map(|_| SpanTracer::new(program)),
            flame: cli.flame_out.as_ref().map(|_| FlameBuilder::new(program)),
        }
    }

    /// Every observer present, as one sink.
    fn sink(&mut self) -> impl TraceSink + '_ {
        TeeSink(&mut self.window, TeeSink(&mut self.tracer, &mut self.flame))
    }

    /// Writes the requested artifact files and prints where they went.
    fn write_artifacts(self, cli: &Cli) -> Result<(), CliError> {
        if let (Some(path), Some(tracer)) = (&cli.trace_out, self.tracer) {
            let dropped = tracer.dropped();
            std::fs::write(path, tracer.finish())
                .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
            eprintln!(
                "trace: wrote {path} (Chrome trace_event JSON; load in Perfetto){}",
                if dropped > 0 {
                    format!(" — {dropped} events dropped at the cap")
                } else {
                    String::new()
                }
            );
        }
        if let (Some(path), Some(flame)) = (&cli.flame_out, self.flame) {
            std::fs::write(path, flame.collapsed())
                .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
            eprintln!(
                "flamegraph: wrote {path} ({} stacks; feed to flamegraph.pl or speedscope)",
                flame.stacks()
            );
        }
        Ok(())
    }
}

/// Adds the sampled windows, if any, as `report`'s `windows` section.
fn push_windows(report: &mut Report, window: Option<WindowSampler>) {
    if let Some(sampler) = window {
        let rows = sampler.finish().iter().map(window_json).collect();
        report.push("windows", Json::Arr(rows));
    }
}

/// Writes per-tenant span traces to `path` as one multi-track Chrome
/// trace_event document (each tenant is its own pid, so Perfetto shows
/// one process track per tenant).
fn write_pool_trace(path: &str, tracers: &mut [SpanTracer]) -> Result<(), CliError> {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for t in tracers.iter_mut() {
        let doc = t.to_json();
        if let Some(arr) = doc.get("traceEvents").and_then(Json::as_arr) {
            events.extend(arr.iter().cloned());
        }
        dropped += t.dropped();
    }
    let doc = Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ns".into()),
        (
            "otherData",
            Json::obj(vec![
                ("clock", "modeled-cycles".into()),
                ("cycle_ts", "1us".into()),
                ("tenant_tracks", (tracers.len() as u64).into()),
                ("dropped_events", dropped.into()),
            ]),
        ),
    ]);
    std::fs::write(path, doc.render())
        .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    eprintln!(
        "trace: wrote {path} ({} tenant tracks; load in Perfetto)",
        tracers.len()
    );
    Ok(())
}

/// Prints the human-readable `--stats` block: the event counts, totals,
/// the IU1/IU2/memory cycle partition, and any DTB/i-cache ratios.
fn print_stats(m: &uhm::Metrics, events: EventCounts) {
    eprintln!(
        "events: {} total ({} hits, {} misses, {} evictions, {} translates)",
        events.total(),
        events.dtb_hits,
        events.dtb_misses,
        events.evictions,
        events.translations
    );
    eprintln!(
        "instructions: {}  cycles: {}  T: {:.2}",
        m.instructions,
        m.cycles.total(),
        m.time_per_instruction()
    );
    let total = m.cycles.total().max(1) as f64;
    let (iu1, iu2, mem) = (m.iu1_cycles(), m.iu2_cycles(), m.memory_cycles());
    eprintln!(
        "cycle partition: IU1 {} ({:.1}%)  IU2 {} ({:.1}%)  memory {} ({:.1}%)",
        iu1,
        iu1 as f64 / total * 100.0,
        iu2,
        iu2 as f64 / total * 100.0,
        mem,
        mem as f64 / total * 100.0
    );
    if let Some(dtb) = m.dtb {
        eprintln!(
            "dtb: h_D = {:.4} ({} hits / {} misses, {} evictions)",
            dtb.hit_ratio(),
            dtb.hits,
            dtb.misses,
            dtb.evictions
        );
        let classified = dtb.cold_misses + dtb.capacity_misses + dtb.conflict_misses;
        if classified > 0 {
            eprintln!(
                "dtb misses: {} cold, {} capacity, {} conflict",
                dtb.cold_misses, dtb.capacity_misses, dtb.conflict_misses
            );
        }
    }
    if let Some(l2) = m.dtb2 {
        eprintln!("dtb level 2: h = {:.4}", l2.hit_ratio());
    }
    if let Some(c) = m.icache {
        eprintln!("icache: h_c = {:.4}", c.hit_ratio());
    }
}

/// Builds the service-plane configuration for `raul serve` / `raul load`
/// from the CLI flags.
fn service_config(cli: &Cli) -> ServiceConfig {
    ServiceConfig {
        workers: cli.workers,
        admission: AdmissionPolicy {
            max_pressure_words: cli.max_pressure,
            right_size: cli.right_size,
        },
        queue_watermark: cli.watermark,
        tenant_quota: cli.quota,
        seed: cli.seed,
    }
}

/// The arrival-rate schedule: a single `--arrival-rate` step for
/// `serve`, the `--rates` sweep (or its default) for `load`.
fn service_rates(cli: &Cli) -> Vec<u64> {
    if cli.command == Command::Serve {
        vec![cli.arrival_rate]
    } else {
        cli.rates
            .clone()
            .unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32, 64])
    }
}

/// One line of human-readable detail for a request's or tenant's
/// outcome.
fn outcome_detail(outcome: &RequestOutcome) -> String {
    match outcome {
        RequestOutcome::Completed(rep) => format!(
            "{} instructions, {} cycles",
            rep.metrics.instructions,
            rep.metrics.cycles.total()
        ),
        RequestOutcome::Trapped(trap) => format!("trap: {trap}"),
        RequestOutcome::Panicked(msg) => format!("panic: {msg}"),
        RequestOutcome::TimedOut(trap) => format!("timed out: {trap}"),
        RequestOutcome::Rejected(msg)
        | RequestOutcome::Shed(msg)
        | RequestOutcome::Quarantined(msg) => msg.clone(),
    }
}

/// Per-request detail for the single step of a `raul serve` run.
fn print_serve_step(run: &ServiceRun) {
    let step = &run.steps[0];
    for r in &step.results {
        let detail = outcome_detail(&r.outcome);
        println!(
            "{:>10} {:>10}  arrival {:>9}  latency {:>9}  {:>9}  {detail}",
            r.tenant,
            r.name,
            r.arrival_cycle,
            r.latency_cycles,
            r.outcome.status()
        );
    }
    let p = step.latency_percentiles();
    println!(
        "service: {}/{} completed at rate {}/Mcycle on {} workers \
         (queue peak {}, {} rejected, {} shed, {} lost)",
        step.outcome_count("completed"),
        step.results.len(),
        step.rate_per_mcycle,
        run.workers,
        step.queue_peak,
        step.outcome_count("rejected"),
        step.outcome_count("shed"),
        step.lost()
    );
    println!(
        "latency p50/p95/p99/p99.9: {:.0}/{:.0}/{:.0}/{:.0} cycles  \
         makespan: {} cycles",
        p.p50,
        p.p95,
        p.p99,
        p.p999,
        step.makespan_cycles()
    );
}

/// The per-step trajectory table of a `raul load` sweep.
fn print_load_trajectory(run: &ServiceRun) {
    println!(
        "{:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>11} {:>11} {:>11}",
        "rate", "ok", "rej", "shed", "lost", "qpeak", "p50", "p95", "p99"
    );
    for s in &run.steps {
        let p = s.latency_percentiles();
        println!(
            "{:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>11.0} {:>11.0} {:>11.0}",
            s.rate_per_mcycle,
            s.outcome_count("completed"),
            s.outcome_count("rejected"),
            s.outcome_count("shed"),
            s.lost(),
            s.queue_peak,
            p.p50,
            p.p95,
            p.p99
        );
    }
}

fn execute(cli: &Cli, source: &str) -> Result<(), CliError> {
    match cli.command {
        Command::Check => {
            let hir = hlr::compile(source).map_err(|e| e.render(source))?;
            println!(
                "ok: {} procedures, {} global slots",
                hir.procs.len(),
                hir.globals_size
            );
            Ok(())
        }
        Command::Run => run_command(cli, source),
        Command::Disasm => {
            let program = build_program(cli, source)?;
            print!("{}", dir::asm::disassemble(&program));
            Ok(())
        }
        Command::Encode => encode_command(cli, source),
        Command::Analyze => analyze_command(cli, source),
        Command::Profile => profile_command(cli, source),
        Command::Faults => faults_command(cli, source),
        Command::Pool | Command::Chaos => pool_command(cli, source),
        Command::Serve | Command::Load => service_command(cli, source),
    }
}

/// `raul run`: one run under the observers, plus the flight recorder
/// and the JSONL stream when a diagnostic flag asks for them.
fn run_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    let machine = machine_for(cli, &program);
    let mode = machine_mode(cli)?;
    let mut obs = Observers::new(cli, &program);
    let mut ring = RingSink::new(4096);
    let mut jsonl = match &cli.events {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some(JsonlSink::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    // The diagnostic sinks switch on the miss taxonomy, so they run only
    // when a flag that reports it asks for them.
    let traced = cli.json || cli.stats || jsonl.is_some();
    let report = if traced {
        let mut sink = TeeSink(TeeSink(&mut ring, &mut jsonl), obs.sink());
        machine.run_with(&mode, &mut sink, RunOptions::default())
    } else {
        machine.run_with(&mode, &mut obs.sink(), RunOptions::default())
    }
    .map_err(|t| format!("trap: {t}"))?;
    let file_health = jsonl.map(|sink| finish_events(cli, sink));
    if cli.stats {
        print_stats(&report.metrics, ring.counts());
    }
    if cli.json {
        let mut rr = uhm::report::run_report("raul", run_config(cli), &report.metrics);
        push_windows(&mut rr, obs.window.take());
        rr.push(
            "output",
            Json::Arr(report.output.iter().map(|&v| Json::Int(v)).collect()),
        );
        let ring_health = (ring.len() as u64, ring.dropped());
        rr.push(
            "trace_health",
            trace_health_json(Some(ring_health), file_health),
        );
        println!("{}", rr.render());
    } else {
        for v in &report.output {
            println!("{v}");
        }
    }
    obs.write_artifacts(cli)
}

/// Flushes the `--events` stream into its `(written, error)` health. A
/// write error is surfaced in the report's trace_health (and as a
/// warning) rather than failing the run: the execution itself succeeded.
fn finish_events(
    cli: &Cli,
    sink: JsonlSink<std::io::BufWriter<std::fs::File>>,
) -> (u64, Option<String>) {
    let written = sink.written();
    let error = sink.finish().err().map(|e| {
        let path = cli.events.as_deref().unwrap_or_default();
        eprintln!("raul: warning: writing {path}: {e}");
        e.to_string()
    });
    (written, error)
}

/// `raul encode`: the static size of the program under every scheme.
fn encode_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    println!(
        "{:>12} {:>10} {:>12} {:>10} {:>12}",
        "scheme", "prog bits", "bits/instr", "decode d", "side bits"
    );
    for kind in SchemeKind::all() {
        let image = kind.encode(&program);
        println!(
            "{:>12} {:>10} {:>12.1} {:>10.1} {:>12}",
            kind.label(),
            image.program_bits(),
            image.mean_inst_bits(),
            image.mean_decode_cost(),
            image.side_table_bits
        );
    }
    Ok(())
}

/// `raul analyze`: verify and analyze the image without running it.
fn analyze_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    let image = cli.scheme.encode(&program);
    let report = analyze::analyze(&program, &image);
    if cli.json {
        let aggregate = Json::obj(vec![
            ("images", 1i64.into()),
            ("clean", i64::from(report.is_clean()).into()),
            (
                "errors",
                (report.count(analyze::Severity::Error) as i64).into(),
            ),
            (
                "warnings",
                (report.count(analyze::Severity::Warning) as i64).into(),
            ),
        ]);
        let ar = Report::new(
            Kind::Analyze,
            "raul-analyze",
            Json::obj(vec![
                ("file", cli.path.as_str().into()),
                ("scheme", cli.scheme.label().into()),
                ("fold", cli.fold.into()),
                ("fuse", cli.fuse.into()),
            ]),
            [
                ("images", Json::Arr(vec![report.to_json(&cli.path)])),
                ("aggregate", aggregate),
            ],
        );
        println!("{}", ar.render());
    } else {
        print_analysis(cli, &report);
    }
    if !report.is_clean() {
        return Err(CliError::Run(format!(
            "verification rejected {} ({} errors)",
            cli.path,
            report.count(analyze::Severity::Error)
        )));
    }
    let warnings = report.count(analyze::Severity::Warning);
    if cli.deny_warnings && warnings > 0 {
        return Err(CliError::Run(format!(
            "--deny-warnings: {} verified clean but carries {} warnings",
            cli.path, warnings
        )));
    }
    Ok(())
}

/// The diagnostic report, plus the `--facts` and `--regions` tables.
fn print_analysis(cli: &Cli, report: &analyze::AnalysisReport) {
    print!("{}", report.render());
    if cli.facts {
        println!("per-region facts:");
        for r in &report.facts.per_region {
            println!(
                "  {:<12} {} div {}/{}, idx {}/{}",
                r.name,
                if r.analyzed { "analyzed" } else { "skipped " },
                r.div_proved,
                r.div_sites,
                r.idx_proved,
                r.idx_sites
            );
        }
    }
    if cli.regions {
        println!("hot regions ({} candidates):", report.hot_regions.len());
        for (i, c) in report.hot_regions.iter().enumerate() {
            println!(
                "  #{:<3} {:<12} [{:>4}..{:>4}] depth {}, {} insts, \
                 {}/{} sites proved ({:.0}% discharged)",
                i + 1,
                c.region,
                c.start,
                c.end,
                c.depth,
                c.insts,
                c.proved(),
                c.sites(),
                c.discharge() * 100.0
            );
        }
    }
}

/// `raul profile`: one run under the counter plane and the observers;
/// `--tenants M` also profiles M pooled copies of the same image and
/// attaches the pool aggregation (mergeable per-worker latency
/// histograms, utilization, queue depth).
fn profile_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    let machine = Arc::new(machine_for(cli, &program));
    let mode = machine_mode(cli)?;
    let mut plane = CounterPlane::new(&program);
    let mut obs = Observers::new(cli, &program);
    let report = machine
        .run_with(
            &mode,
            &mut TeeSink(&mut plane, obs.sink()),
            RunOptions::default(),
        )
        .map_err(|t| format!("trap: {t}"))?;
    let pool = cli.tenants.map(|tenants| {
        profile::pool_profile_json(&tenant_pool(cli, &machine, &mode, tenants).run())
    });
    if cli.json {
        let mut pr =
            profile::profile_report("raul-profile", run_config(cli), &plane, &report.metrics);
        if let Some(pool) = pool {
            pr.push("pool", pool);
        }
        if let Some(t) = &obs.tracer {
            let health = (t.len() as u64, t.dropped());
            pr.push("trace_health", trace_health_json(Some(health), None));
        }
        push_windows(&mut pr, obs.window.take());
        println!("{}", pr.render());
    } else {
        print_profile(&program, &plane);
        if let Some(pool) = &pool {
            print_pool_profile(pool);
        }
    }
    obs.write_artifacts(cli)
}

/// The human-readable profile of one run.
fn print_profile(program: &dir::Program, plane: &CounterPlane) {
    println!(
        "{} static, {} dynamic, {} touched",
        program.len(),
        plane.retired(),
        plane.touched()
    );
    let total_cycles = plane.cycles().max(1) as f64;
    let row = |name: &str, a: profile::Attribution| {
        println!(
            "  {name:>10}: {:>9} retires  {:>9} cycles ({:.1}%)",
            a.retires,
            a.cycles,
            a.cycles as f64 / total_cycles * 100.0
        );
    };
    println!("by tier:");
    for t in Tier::ALL {
        let a = plane.by_tier()[t.index()];
        if a.retires > 0 {
            row(t.label(), a);
        }
    }
    println!("by procedure:");
    for (name, a) in plane.by_region() {
        if a.retires > 0 {
            row(name, a);
        }
    }
    println!("hottest:");
    for (addr, count) in plane.hottest(10) {
        println!(
            "  {addr:>5} {count:>9}x {:>9} cycles  {}",
            plane.at(addr).cycles,
            dir::asm::format_inst(&program.code[addr as usize])
        );
    }
    println!("hottest opcode pairs:");
    for (from, to, count) in plane.hottest_pairs(8) {
        println!(
            "  {:>10} -> {:<10} {count:>9}x",
            format!("{:?}", dir::isa::OPCODES[from]),
            format!("{:?}", dir::isa::OPCODES[to])
        );
    }
    println!("coverage:");
    let ks = [4usize, 8, 16, 32, 64, 128];
    for (k, c) in ks.iter().zip(plane.coverage(&ks)) {
        println!(
            "  hottest {k:>3} instructions cover {:>5.1}% of execution",
            100.0 * c
        );
    }
}

/// One summary line of a profile's pool section.
fn print_pool_profile(pool: &Json) {
    let pct = pool.get("latency_percentiles_ns");
    let get = |k: &str| {
        pct.and_then(|p| p.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "pool: {}/{} tenants completed; latency p50/p95/p99/p99.9: \
         {:.0}/{:.0}/{:.0}/{:.0} ns",
        pool.get("completed").and_then(Json::as_i64).unwrap_or(0),
        pool.get("tenants").and_then(Json::as_i64).unwrap_or(0),
        get("p50"),
        get("p95"),
        get("p99"),
        get("p999")
    );
}

/// `raul faults`: a clean run, then one run under seeded fault
/// injection, compared. A typed trap under injection is a reported
/// outcome, not a CLI failure: the machine detected the damage.
fn faults_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    let machine = machine_for(cli, &program);
    let mode = machine_mode(cli)?;
    let clean = machine
        .run(&mode)
        .map_err(|t| format!("clean run trapped: {t}"))?;
    let config = fault_config(cli);
    let mut retry = RetryPolicy::default();
    if let Some(n) = cli.degrade_after {
        retry.degrade_after = n;
    }
    let opts = RunOptions {
        faults: Some(config),
        retry,
        ..RunOptions::default()
    };
    let mut ring = RingSink::new(4096);
    let mut window = cli.window.map(WindowSampler::new);
    let result = machine.run_with(&mode, &mut TeeSink(&mut ring, &mut window), opts);
    let counts = ring.counts();
    let mut cfg = run_config(cli);
    if let Json::Obj(fields) = &mut cfg {
        let fault_fields = Json::obj(vec![
            ("seed", cli.seed.into()),
            ("dir_bit_rate", config.dir_bit_rate.into()),
            ("dtb_word_rate", config.dtb_word_rate.into()),
            ("dtb_tag_rate", config.dtb_tag_rate.into()),
            ("drop_fetch_rate", config.drop_fetch_rate.into()),
        ]);
        fields.push(("faults".into(), fault_fields));
    }
    match result {
        Ok(report) => report_recovery(cli, cfg, &clean, &report, counts, window),
        // A trapped run has no metrics, so those sections stay empty.
        Err(trap) if cli.json => {
            let output = Json::obj(vec![
                ("outcome", "trap".into()),
                ("trap", trap.to_string().as_str().into()),
                ("events_faults_injected", counts.faults_injected.into()),
            ]);
            let sections = [
                ("metrics", Json::obj([])),
                ("derived", Json::obj([])),
                ("output", output),
            ];
            let rr = Report::new(Kind::Run, "raul-faults", cfg, sections);
            println!("{}", rr.render());
        }
        Err(trap) => println!("outcome: trap ({trap})"),
    }
    Ok(())
}

/// Reports a faulty run that completed against the clean run.
fn report_recovery(
    cli: &Cli,
    cfg: Json,
    clean: &uhm::Report,
    report: &uhm::Report,
    counts: EventCounts,
    window: Option<WindowSampler>,
) {
    let m = &report.metrics;
    let matches = report.output == clean.output;
    let clean_cycles = clean.metrics.cycles.total();
    let overhead = if clean_cycles > 0 {
        m.cycles.total() as f64 / clean_cycles as f64 - 1.0
    } else {
        0.0
    };
    let degraded_fraction = if m.instructions > 0 {
        m.degraded_instructions as f64 / m.instructions as f64
    } else {
        0.0
    };
    if cli.json {
        let mut rr = uhm::report::run_report("raul-faults", cfg, m);
        push_windows(&mut rr, window);
        rr.push(
            "output",
            Json::obj(vec![
                ("outcome", "ok".into()),
                ("output_matches_clean", matches.into()),
                ("recoveries", m.recoveries.into()),
                ("degraded_instructions", m.degraded_instructions.into()),
                ("degraded_fraction", degraded_fraction.into()),
                ("cycle_overhead", overhead.into()),
                ("events_faults_injected", counts.faults_injected.into()),
                ("events_recovery_misses", counts.recovery_misses.into()),
            ]),
        );
        println!("{}", rr.render());
    } else {
        print_recovery(m, matches, degraded_fraction, overhead);
    }
}

/// The human-readable outcome of a faulty run that completed.
fn print_recovery(m: &uhm::Metrics, matches: bool, degraded_fraction: f64, overhead: f64) {
    println!(
        "outcome: ok ({})",
        if matches {
            "output matches the clean run"
        } else {
            "OUTPUT DIVERGED from the clean run"
        }
    );
    let faults = m.faults.unwrap_or_default();
    println!(
        "faults injected: {} ({} dir bits, {} dtb words, {} tags, {} drops)",
        faults.total(),
        faults.dir_bits_flipped,
        faults.dtb_words_corrupted,
        faults.dtb_tags_poisoned,
        faults.fetches_dropped
    );
    println!(
        "recoveries: {}  degraded: {} instructions ({:.2}%)  fetch retries: {}",
        m.recoveries,
        m.degraded_instructions,
        degraded_fraction * 100.0,
        m.fetch_retries
    );
    println!("cycle overhead vs clean: {:+.2}%", overhead * 100.0);
}

/// `raul pool` / `raul chaos`: M tenant copies on N workers, optionally
/// under faults, supervision and (for `chaos`) injected chaos. Only
/// *failures* fail the command: a timed-out, rejected, shed or
/// quarantined tenant is the supervisor doing its job, and is reported
/// rather than escalated.
fn pool_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    let mode = machine_mode(cli)?;
    let tenants = cli.tenants.unwrap_or(cli.workers * 2);
    // One machine serves every tenant: the encoded image and the frozen
    // translation snapshot are built once and shared.
    let machine = Arc::new(machine_for(cli, &program));
    let mut pool = tenant_pool(cli, &machine, &mode, tenants);
    if faults_requested(cli) {
        pool.set_faults(Some(fault_config(cli)));
    }
    if supervision_requested(cli) {
        pool.set_supervisor(Some(supervisor_config(cli)));
    }
    let (run, mut tracers) = run_pool(cli, &program, pool);
    if cli.json {
        let mut config = run_config(cli);
        if let Json::Obj(fields) = &mut config {
            fields.push(("workers".into(), (cli.workers as i64).into()));
            fields.push(("tenants".into(), (tenants as i64).into()));
        }
        let tool = if cli.command == Command::Chaos {
            "raul-chaos"
        } else {
            "raul-pool"
        };
        let mut pr = uhm::report::pool_report(tool, config, &run);
        if !tracers.is_empty() {
            let retained: u64 = tracers.iter().map(|t| t.len() as u64).sum();
            let dropped: u64 = tracers.iter().map(SpanTracer::dropped).sum();
            pr.push(
                "trace_health",
                trace_health_json(Some((retained, dropped)), None),
            );
        }
        println!("{}", pr.render());
    } else {
        print_pool(cli, &run);
    }
    if let Some(path) = &cli.trace_out {
        write_pool_trace(path, &mut tracers)?;
    }
    let failed = run.outcome_count("trapped") + run.outcome_count("panicked");
    if failed > 0 {
        return Err(CliError::Run(format!(
            "{failed} of {} tenants failed",
            run.results.len()
        )));
    }
    Ok(())
}

/// Runs `pool`, under chaos for `raul chaos`. `--trace-out` gives each
/// tenant its own span tracer; the tenant index becomes the trace pid so
/// Perfetto shows one process track per tenant.
fn run_pool(
    cli: &Cli,
    program: &dir::Program,
    mut pool: MachinePool,
) -> (PoolRun, Vec<SpanTracer>) {
    // Injected worker crashes panic by design; silence the default hook
    // so the report, not the backtraces, is the command's output.
    let quiet = (cli.command == Command::Chaos).then(|| {
        pool.set_chaos(Some(chaos_config(cli)));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        hook
    });
    let run = if cli.trace_out.is_some() {
        pool.run_with_sinks(|tenant| {
            let mut t = SpanTracer::new(program);
            t.set_track(tenant as u32 + 1, 1);
            t
        })
    } else {
        (pool.run(), Vec::new())
    };
    if let Some(hook) = quiet {
        std::panic::set_hook(hook);
    }
    run
}

/// The human-readable pool run: one line per tenant, then the totals.
fn print_pool(cli: &Cli, run: &PoolRun) {
    for r in &run.results {
        let detail = outcome_detail(&r.outcome);
        println!(
            "{:>12}  worker {}  {:>9} ns  {:>9}  {detail}",
            r.name,
            r.worker,
            r.latency_ns,
            r.outcome.status()
        );
    }
    let p = run.latency_percentiles();
    println!(
        "pool: {}/{} completed on {} workers in {} ns ({} steals)",
        run.completed(),
        run.results.len(),
        run.workers,
        run.wall_ns,
        run.steals
    );
    if supervision_requested(cli) {
        println!(
            "supervision: {} timed out, {} rejected, {} shed, {} quarantined, \
             {} retries, {} worker crashes",
            run.outcome_count("timed_out"),
            run.outcome_count("rejected"),
            run.outcome_count("shed"),
            run.outcome_count("quarantined"),
            run.retries,
            run.worker_crashes
        );
    }
    println!(
        "latency p50/p95/p99/p99.9: {:.0}/{:.0}/{:.0}/{:.0} ns  aggregate: {:.2} Minstr/s",
        p.p50,
        p.p95,
        p.p99,
        p.p999,
        run.minstr_per_sec()
    );
}

/// `raul serve` / `raul load`: requests through the service front-end
/// at one arrival rate or a sweep. Mirrors the pool policy: rejected and
/// shed requests are the admission and backpressure planes working as
/// configured; only execution failures fail the command.
fn service_command(cli: &Cli, source: &str) -> Result<(), CliError> {
    let program = build_program(cli, source)?;
    let mode = machine_mode(cli)?;
    let machine = Arc::new(machine_for(cli, &program));
    let lanes = cli.tenants.unwrap_or(2);
    let requests = cli.requests.unwrap_or(cli.workers * 4);
    let mut service = Service::new(service_config(cli));
    for i in 0..requests {
        service.submit(
            format!("tenant-{}", i % lanes),
            format!("req-{i}"),
            Arc::clone(&machine),
            mode.clone(),
        );
    }
    let rates = service_rates(cli);
    let run = service.run_load(&rates);
    if cli.json {
        let tool = if cli.command == Command::Serve {
            "raul-serve"
        } else {
            "raul-load"
        };
        let mut config = run_config(cli);
        if let Json::Obj(fields) = &mut config {
            fields.push(("workers".into(), (cli.workers as i64).into()));
            fields.push(("tenants".into(), (lanes as i64).into()));
            fields.push(("requests".into(), (requests as i64).into()));
            fields.push(("seed".into(), cli.seed.into()));
            fields.push((
                "rates_per_mcycle".into(),
                Json::Arr(rates.iter().map(|&r| (r as i64).into()).collect()),
            ));
        }
        println!(
            "{}",
            uhm::report::service_report(tool, config, &run).render()
        );
    } else if cli.command == Command::Serve {
        print_serve_step(&run);
    } else {
        print_load_trajectory(&run);
    }
    let failed = run.outcome_count("trapped") + run.outcome_count("panicked");
    if failed > 0 {
        return Err(CliError::Run(format!(
            "{failed} of {} requests failed",
            run.total_requests()
        )));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("raul: {e}");
            eprintln!(
                "usage: raul <check|run|disasm|encode|analyze|profile|faults|pool|chaos|serve|load> <file> [options]"
            );
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&cli.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("raul: cannot read {}: {e}", cli.path);
            return ExitCode::from(2);
        }
    };
    match execute(&cli, &source) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Config(e)) => {
            eprintln!("raul: invalid configuration: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Run(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let cli = parse_args(&args(
            "run prog.raul --mode two-level --scheme pair --dtb-entries 32 --fuse --stats",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.mode, ModeArg::TwoLevel);
        assert_eq!(cli.scheme, SchemeKind::PairHuffman);
        assert_eq!(cli.dtb_entries, 32);
        assert!(cli.fuse && cli.stats && !cli.fold);
    }

    #[test]
    fn defaults_are_sensible() {
        let cli = parse_args(&args("run p.raul")).unwrap();
        assert_eq!(cli.mode, ModeArg::Dtb);
        assert_eq!(cli.scheme, SchemeKind::Huffman);
        assert_eq!(cli.decoder, DecodeMode::Table);
        assert_eq!(cli.dtb_entries, 64);
    }

    #[test]
    fn decoder_flag_selects_the_host_plane() {
        let cli = parse_args(&args("run p.raul --decoder tree")).unwrap();
        assert_eq!(cli.decoder, DecodeMode::Tree);
        assert!(parse_args(&args("run p.raul --decoder lut")).is_err());
        // Both planes execute a program to the same output.
        let src = "proc main() begin int i; for i := 0 to 5 do write i * i; end";
        for d in ["tree", "table"] {
            let cli = parse_args(&args(&format!("run p.raul --decoder {d}"))).unwrap();
            execute(&cli, src).unwrap();
        }
    }

    #[test]
    fn parses_profiling_flags() {
        let cli = parse_args(&args("run p.raul --trace-out t.json --flame-out f.txt")).unwrap();
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.flame_out.as_deref(), Some("f.txt"));
        assert!(parse_args(&args("run p.raul --trace-out")).is_err());
        assert!(parse_args(&args("profile p.raul --flame-out")).is_err());
    }

    #[test]
    fn profile_command_writes_trace_and_flame_artifacts() {
        let dir = std::env::temp_dir().join(format!("raul-prof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let flame = dir.join("flame.txt");
        let cmd = format!(
            "profile p.raul --trace-out {} --flame-out {}",
            trace.display(),
            flame.display()
        );
        let cli = parse_args(&args(&cmd)).unwrap();
        let src = "proc main() begin int i; for i := 0 to 30 do write i * 2; end";
        execute(&cli, src).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty(), "trace document has events");
        let collapsed = std::fs::read_to_string(&flame).unwrap();
        assert!(
            collapsed.lines().any(|l| l.contains("main")),
            "collapsed stacks mention main:\n{collapsed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_command_attaches_pool_aggregation() {
        let cli = parse_args(&args("profile p.raul --tenants 3 --workers 2")).unwrap();
        let src = "proc main() begin int i := 0; while i < 40 do i := i + 1; write i; end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("bogus p.raul")).is_err());
        assert!(parse_args(&args("run")).is_err());
        assert!(parse_args(&args("run p.raul --scheme nope")).is_err());
        assert!(parse_args(&args("run p.raul --dtb-entries x")).is_err());
        assert!(parse_args(&args("run p.raul --whatever")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn execute_runs_a_program() {
        let cli = parse_args(&args("run inline.raul --mode dtb")).unwrap();
        // `execute` reads no files; feed source directly.
        execute(&cli, "proc main() begin write 41 + 1; end").unwrap();
    }

    #[test]
    fn execute_renders_compile_errors() {
        let cli = parse_args(&args("check bad.raul")).unwrap();
        let err = execute(&cli, "proc main() begin write nope; end").unwrap_err();
        assert!(err.message().contains("unknown variable"));
        assert!(err.message().contains('^'));
    }

    #[test]
    fn disasm_and_encode_work() {
        let src = "proc main() begin int i; for i := 0 to 3 do write i; end";
        for cmd in ["disasm d.raul --fuse --fold", "encode e.raul"] {
            let cli = parse_args(&args(cmd)).unwrap();
            execute(&cli, src).unwrap();
        }
    }

    #[test]
    fn analyze_command_verifies_clean_source() {
        let src = "proc main() begin int i; for i := 0 to 9 do write i * i; end";
        for cmd in [
            "analyze a.raul",
            "analyze a.raul --scheme valuehuff --fuse",
            "analyze a.raul --json",
        ] {
            let cli = parse_args(&args(cmd)).unwrap();
            execute(&cli, src).unwrap();
        }
    }

    #[test]
    fn analyze_json_entry_has_the_canonical_shape() {
        let src = "proc main() begin write 1; end";
        let program = dir::compiler::compile(&hlr::compile(src).unwrap());
        let image = SchemeKind::Packed.encode(&program);
        let report = analyze::analyze(&program, &image);
        let entry = report.to_json("t.raul");
        assert_eq!(entry.get("scheme").and_then(Json::as_str), Some("packed"));
        assert_eq!(entry.get("clean"), Some(&Json::Bool(true)));
        assert_eq!(entry.get("errors").and_then(Json::as_i64), Some(0));
        assert!(matches!(entry.get("diagnostics"), Some(Json::Arr(_))));
        // Schema-v7 additions: fact coverage and the hot-region table.
        let facts = entry.get("facts").expect("facts section present");
        assert!(facts.get("depth_exact").and_then(Json::as_i64).unwrap() > 0);
        assert!(matches!(entry.get("hot_regions"), Some(Json::Arr(_))));
    }

    #[test]
    fn analyze_facts_and_regions_flags_parse_and_execute() {
        let cli = parse_args(&args("analyze a.raul --facts --regions")).unwrap();
        assert!(cli.facts && cli.regions && !cli.deny_warnings);
        let src = "proc main() begin int i; int a[4]; \
                   for i := 0 to 3 do a[i] := i; write a[2]; end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn deny_warnings_fails_a_clean_but_warned_image() {
        // An unreachable procedure verifies clean (AN301 is a warning),
        // so plain analyze exits 0 but --deny-warnings exits 1.
        let src = "proc unused() begin write 1; end \
                   proc main() begin write 42; end";
        let plain = parse_args(&args("analyze w.raul")).unwrap();
        execute(&plain, src).unwrap();
        let deny = parse_args(&args("analyze w.raul --deny-warnings")).unwrap();
        let err = execute(&deny, src).unwrap_err();
        assert!(err.message().contains("--deny-warnings"), "{err:?}");
        // A warning-free image still passes under --deny-warnings.
        execute(&deny, "proc main() begin write 7; end").unwrap();
    }

    #[test]
    fn run_traps_are_reported() {
        let cli = parse_args(&args("run t.raul")).unwrap();
        let err = execute(&cli, "proc main() begin write 1 / 0; end").unwrap_err();
        assert_eq!(
            err,
            CliError::Run("trap: division by zero".into()),
            "traps are runtime errors, not configuration errors"
        );
    }

    #[test]
    fn invalid_geometry_is_a_config_error() {
        let cli = parse_args(&args("run g.raul --dtb-unit-words 2")).unwrap();
        let err = execute(&cli, "proc main() begin write 1; end").unwrap_err();
        match err {
            CliError::Config(m) => assert!(m.contains("unit"), "{m}"),
            CliError::Run(m) => panic!("expected a config error, got Run({m})"),
        }
        oversized_geometry_is_a_config_error("run");
    }

    /// `command` refuses geometry flags whose buffers exceed the ceiling
    /// or overflow, before anything is allocated.
    fn oversized_geometry_is_a_config_error(command: &str) {
        for flags in [
            "--mode dtb --dtb-entries 100000000000",
            "--mode icache --dtb-entries 100000000000",
            "--mode two-level --dtb-entries 18446744073709551615",
        ] {
            let cli = parse_args(&args(&format!("{command} g.raul {flags}"))).unwrap();
            let src = "proc main() begin int i := 0; while i < 10 do i := i + 1; write i; end";
            match execute(&cli, src).unwrap_err() {
                CliError::Config(m) => assert!(m.contains("ceiling"), "{flags}: {m}"),
                CliError::Run(m) => panic!("{command} {flags}: expected a config error: {m}"),
            }
        }
    }

    #[test]
    fn parses_fault_flags() {
        let cli = parse_args(&args(
            "faults f.raul --seed 0xBEEF --rate 0.01 --drop-rate 0.5 --degrade-after 2",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Faults);
        assert_eq!(cli.seed, 0xBEEF);
        let fc = fault_config(&cli);
        assert_eq!(fc.dtb_word_rate, 0.01);
        assert_eq!(fc.dtb_tag_rate, 0.01);
        assert_eq!(fc.drop_fetch_rate, 0.5);
        assert_eq!(fc.dir_bit_rate, 0.0);
        assert_eq!(cli.degrade_after, Some(2));
        assert!(parse_args(&args("faults f.raul --rate 1.5")).is_err());
    }

    #[test]
    fn faults_command_runs_end_to_end() {
        let cli = parse_args(&args("faults f.raul --rate 0.01")).unwrap();
        let src = "proc main() begin int i := 0; while i < 200 do i := i + 1; write i; end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn parses_pool_flags() {
        let cli = parse_args(&args("pool p.raul --workers 3 --tenants 9 --mode interp")).unwrap();
        assert_eq!(cli.command, Command::Pool);
        assert_eq!(cli.workers, 3);
        assert_eq!(cli.tenants, Some(9));
        assert!(!faults_requested(&cli));
        // Defaults: 4 workers, tenants derived (2x workers) at execute time.
        let d = parse_args(&args("pool p.raul")).unwrap();
        assert_eq!(d.workers, 4);
        assert_eq!(d.tenants, None);
        assert!(parse_args(&args("pool p.raul --workers 0")).is_err());
        assert!(parse_args(&args("pool p.raul --tenants 0")).is_err());
    }

    #[test]
    fn pool_command_runs_end_to_end() {
        let src = "proc main() begin int i := 0; while i < 50 do i := i + 1; write i; end";
        for cmd in [
            "pool p.raul --workers 2 --tenants 5",
            "pool p.raul --workers 2 --tenants 4 --rate 0.01",
        ] {
            let cli = parse_args(&args(cmd)).unwrap();
            execute(&cli, src).unwrap();
        }
    }

    #[test]
    fn parses_supervision_flags() {
        let cli = parse_args(&args(
            "pool p.raul --fuel 1000000 --deadline 50 --retry 4 --max-queue 8",
        ))
        .unwrap();
        assert_eq!(cli.fuel, Some(1_000_000));
        assert_eq!(cli.deadline_ms, Some(50));
        assert_eq!(cli.retry, Some(4));
        assert_eq!(cli.max_queue, Some(8));
        assert!(supervision_requested(&cli));
        let sup = supervisor_config(&cli);
        assert_eq!(sup.budget.fuel, Some(1_000_000));
        assert_eq!(sup.budget.deadline_ns, Some(50_000_000));
        assert_eq!(sup.backoff.max_attempts, 4);
        assert_eq!(sup.max_queue, Some(8));
        // A plain pool run stays on the unsupervised fast path.
        assert!(!supervision_requested(
            &parse_args(&args("pool p.raul")).unwrap()
        ));
        assert!(parse_args(&args("pool p.raul --fuel 0")).is_err());
        assert!(parse_args(&args("pool p.raul --deadline 0")).is_err());
        assert!(parse_args(&args("pool p.raul --retry 0")).is_err());
    }

    #[test]
    fn parses_chaos_command_with_defaults() {
        let cli = parse_args(&args("chaos c.raul --seed 7 --crash-rate 0.5")).unwrap();
        assert_eq!(cli.command, Command::Chaos);
        // Chaos is always supervised, and defaults a fuel budget so
        // injected hangs are preempted.
        assert!(supervision_requested(&cli));
        let sup = supervisor_config(&cli);
        assert_eq!(sup.budget.fuel, Some(5_000_000));
        let chaos = chaos_config(&cli);
        assert_eq!(chaos.seed, 7);
        assert_eq!(chaos.worker_crash_rate, 0.5);
        assert_eq!(chaos.hang_rate, 0.2);
        assert_eq!(chaos.artifact_corruption_rate, 0.2);
        assert!(parse_args(&args("chaos c.raul --hang-rate 1.5")).is_err());
    }

    #[test]
    fn supervised_pool_times_out_runaway_tenants_without_failing() {
        // An infinite loop under a fuel budget is a supervised outcome
        // (timed_out), not a CLI failure: the command exits 0.
        let cli = parse_args(&args("pool p.raul --workers 2 --tenants 3 --fuel 200000")).unwrap();
        let src = "proc main() begin int i := 0; while i < 1 do begin i := i * 1; end end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn chaos_command_runs_end_to_end() {
        let cli = parse_args(&args(
            "chaos c.raul --workers 2 --tenants 6 --seed 0xC0A5 \
             --crash-rate 0.4 --hang-rate 0.4 --corrupt-rate 0.4",
        ))
        .unwrap();
        let src = "proc main() begin int i := 0; while i < 60 do i := i + 1; write i; end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn pool_rejects_invalid_geometry_as_config_error() {
        let cli = parse_args(&args("pool g.raul --dtb-unit-words 2")).unwrap();
        let err = execute(&cli, "proc main() begin write 1; end").unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err:?}");
        oversized_geometry_is_a_config_error("pool");
    }

    #[test]
    fn parses_service_flags() {
        let cli = parse_args(&args(
            "serve s.raul --workers 2 --tenants 3 --requests 12 --arrival-rate 40 \
             --watermark 6 --quota 2 --max-pressure 4096 --right-size --seed 11",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.requests, Some(12));
        assert_eq!(cli.arrival_rate, 40);
        let sc = service_config(&cli);
        assert_eq!(sc.workers, 2);
        assert_eq!(sc.queue_watermark, Some(6));
        assert_eq!(sc.tenant_quota, Some(2));
        assert_eq!(sc.admission.max_pressure_words, Some(4096));
        assert!(sc.admission.right_size);
        assert_eq!(sc.seed, 11);
        assert_eq!(service_rates(&cli), vec![40]);
        assert!(parse_args(&args("serve s.raul --requests 0")).is_err());
        assert!(parse_args(&args("serve s.raul --arrival-rate 0")).is_err());
    }

    #[test]
    fn parses_load_rates() {
        let cli = parse_args(&args("load l.raul --rates 2,8,32")).unwrap();
        assert_eq!(cli.command, Command::Load);
        assert_eq!(service_rates(&cli), vec![2, 8, 32]);
        // The default sweep spans idle to overload.
        let d = parse_args(&args("load l.raul")).unwrap();
        assert_eq!(service_rates(&d), vec![1, 2, 4, 8, 16, 32, 64]);
        assert!(parse_args(&args("load l.raul --rates 2,x")).is_err());
        assert!(parse_args(&args("load l.raul --rates 2,0")).is_err());
    }

    #[test]
    fn serve_command_runs_end_to_end() {
        let src = "proc main() begin int i := 0; while i < 50 do i := i + 1; write i; end";
        for cmd in [
            "serve s.raul --workers 2 --tenants 3 --requests 9",
            "serve s.raul --workers 2 --requests 8 --arrival-rate 1000 --watermark 3",
        ] {
            let cli = parse_args(&args(cmd)).unwrap();
            execute(&cli, src).unwrap();
        }
    }

    #[test]
    fn load_command_runs_end_to_end() {
        let cli = parse_args(&args(
            "load l.raul --workers 2 --tenants 2 --requests 10 --rates 1,100,10000 --watermark 4",
        ))
        .unwrap();
        let src = "proc main() begin int i := 0; while i < 50 do i := i + 1; write i; end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn serve_rejected_requests_are_policy_outcomes_not_failures() {
        // A request rejected by static admission is reported and exits
        // 0, exactly like a shed pool tenant.
        let cli = parse_args(&args("serve s.raul --requests 4 --max-pressure 1")).unwrap();
        let src = "proc main() begin int i := 0; while i < 50 do i := i + 1; write i; end";
        execute(&cli, src).unwrap();
    }

    #[test]
    fn serve_traps_fail_the_command() {
        let cli = parse_args(&args("serve s.raul --requests 2")).unwrap();
        let err = execute(&cli, "proc main() begin write 1 / 0; end").unwrap_err();
        match err {
            CliError::Run(m) => assert!(m.contains("failed"), "{m}"),
            CliError::Config(m) => panic!("expected a runtime failure, got Config({m})"),
        }
    }

    #[test]
    fn serve_rejects_invalid_geometry_as_config_error() {
        let cli = parse_args(&args("serve g.raul --dtb-unit-words 2")).unwrap();
        let err = execute(&cli, "proc main() begin write 1; end").unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "{err:?}");
        oversized_geometry_is_a_config_error("serve");
    }
}
