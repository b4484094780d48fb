//! The five workloads: their seeded inputs, set-up, timed phase with
//! per-operation correctness checks, and end-to-end metrics.
//!
//! Each workload runs whole rounds until `--seconds` have passed and it
//! has timed [`stats::TAIL_MIN_SAMPLES`] requests, or twice `--seconds` at
//! most. Before each round the host-speed reference kernel is timed
//! ([`host`]), and the round's times are scaled to the reference host:
//! neighbours on a shared host slow this code by up to 1.6x for minutes
//! at a time, which would move a plain median by a third from run to
//! run. Set-up repetitions are spread over the timed phase, off its
//! clock, and scaled the same way. [`end_to_end`] defines how the scaled
//! times become metrics.
//!
//! Every output is compared with the HLR evaluator on the same HIR, and
//! every run's modeled metrics with a reference run of that program and
//! mode made through the unverified `Machine::new` path. References run
//! outside the timed spans. A trap, a panic or a verifier rejection
//! counts as a failed operation; it never aborts the run.
//!
//! `--seed` drives the order of the work: the loop mix's order in each
//! round, the order `cold_source` draws its programs, and the order
//! `service_mix` runs its load steps. The work itself, and so every
//! modeled metric, is the same for every seed.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{self, Reference};
use crate::stats::{self, ratio};
use crate::sut::{self, DtbConfig, Hir, Machine, Metrics, Mode, SchemeKind, ServicePolicy};
use crate::trace::Tracer;
use crate::Metric;

/// The loop samples of the resident and service workloads: about 421k
/// retired DIR instructions per pass.
const LOOP_MIX: [&str; 7] = [
    "collatz", "queens", "perm", "primes", "hanoi", "matmul", "fib_rec",
];

/// The two smallest loop samples, for the smoke scale.
#[cfg(test)]
const SMOKE_MIX: [&str; 2] = ["hanoi", "fib_rec"];

/// Service front-end policy of `service_mix`.
const POLICY: ServicePolicy = ServicePolicy {
    workers: 2,
    watermark: 24,
    quota: 10,
};

/// Open-loop arrival rates of `service_mix`'s load steps, in requests per
/// million modeled cycles: below, at and past the knee.
const RATES: [u64; 3] = [2, 8, 32];

/// Seed of the inputs behind the modeled metrics: the `cold_source`
/// pool and `service_mix`'s arrival streams. It is fixed, not taken from
/// `--seed`, so the modeled metrics are exact across runs and seeds.
const INPUT_SEED: u64 = 1978;

/// A timed phase that has not met its sample floor stops at this
/// multiple of `--seconds`.
const MAX_STRETCH: u32 = 2;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The loop mix from an all-hit DTB: DTB reads only.
    DtbHot,
    /// The loop mix interpreted from its Huffman image: fetch and decode
    /// on every instruction.
    InterpHuffman,
    /// The loop mix through a 16-entry DTB: misses, translation, fills.
    DtbThrash,
    /// Generated programs taken from source to result once each.
    ColdSource,
    /// The loop samples as tenants of the service front-end.
    ServiceMix,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::DtbHot,
        Workload::InterpHuffman,
        Workload::DtbThrash,
        Workload::ColdSource,
        Workload::ServiceMix,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DtbHot => "dtb_hot",
            Workload::InterpHuffman => "interp_huffman",
            Workload::DtbThrash => "dtb_thrash",
            Workload::ColdSource => "cold_source",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Encoding scheme of the workload's images.
    pub fn scheme(self) -> SchemeKind {
        match self {
            Workload::InterpHuffman | Workload::ColdSource => SchemeKind::Huffman,
            _ => SchemeKind::Packed,
        }
    }

    /// DTB entries on the workload's fetch path; for the interpreter, the
    /// DTB the layer probes replay its addresses through.
    pub fn dtb_entries(self) -> usize {
        match self {
            Workload::DtbHot | Workload::InterpHuffman => 256,
            Workload::DtbThrash => 16,
            Workload::ColdSource | Workload::ServiceMix => 64,
        }
    }

    /// The machine mode each request asks for.
    pub fn mode(self) -> Mode {
        match self {
            Workload::InterpHuffman => Mode::Interpreter,
            w => Mode::Dtb(DtbConfig::with_capacity(w.dtb_entries())),
        }
    }

    /// The reference programs every time of the workload is scaled by.
    /// In 20 calibration runs per workload, scaling the DTB workloads by
    /// the mixed reference left a run-to-run spread of up to 8% in their
    /// timings, and by the loop alone up to 5%; the other workloads
    /// spread least under the mixed reference.
    pub fn reference(self) -> Reference {
        match self {
            Workload::DtbHot | Workload::DtbThrash => Reference::Loop,
            _ => Reference::Mixed,
        }
    }
}

/// How much work one run does. [`FULL`] is the benchmark; the tests'
/// `SMOKE` scale exercises every path in a fraction of a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Loop samples of the resident and service workloads.
    pub mix: &'static [&'static str],
    /// Set-up repetitions behind the `setup_s` median.
    pub setup_reps: usize,
    /// Uncontended requests a timed phase must reach besides its seconds.
    pub min_samples: usize,
    /// Generated programs in the `cold_source` pool.
    pub cold_pool: usize,
    /// Pool generations behind `cold_source`'s `setup_s` median.
    pub cold_setup_reps: usize,
    /// `cold_source` programs per timed round.
    pub cold_round: usize,
    /// Requests per `service_mix` load step.
    pub requests_per_step: usize,
    /// `service_mix`'s seeded arrival streams. Each runs at every rate;
    /// the timed phase runs all those steps at least once, and its first
    /// pass over them defines the modeled metrics.
    pub service_streams: usize,
    /// Repetitions behind every layer probe's median.
    pub probe_reps: usize,
    /// Programs the compile-layer probes take from the `cold_source` pool.
    pub probe_programs: usize,
}

/// The benchmark's scale.
pub const FULL: Scale = Scale {
    mix: &LOOP_MIX,
    setup_reps: 21,
    min_samples: stats::TAIL_MIN_SAMPLES,
    cold_pool: 4000,
    cold_setup_reps: 5,
    cold_round: 200,
    requests_per_step: 120,
    service_streams: 8,
    probe_reps: 11,
    probe_programs: 200,
};

/// The smoke scale: every path, little work.
#[cfg(test)]
pub const SMOKE: Scale = Scale {
    mix: &SMOKE_MIX,
    setup_reps: 3,
    min_samples: 0,
    cold_pool: 24,
    cold_setup_reps: 2,
    cold_round: 8,
    requests_per_step: 12,
    service_streams: 1,
    probe_reps: 1,
    probe_programs: 8,
};

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the order the work runs in.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Record spans and probe every layer.
    pub trace: bool,
    /// Amount of work.
    pub scale: Scale,
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that trapped, panicked, were rejected by the verifier,
    /// or produced output or modeled metrics other than the reference.
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A resident program: a verified, loaded, frozen machine and its
/// references.
pub struct Tenant {
    /// The sample's name.
    pub name: &'static str,
    /// The machine every request of this tenant runs on.
    pub machine: Arc<Machine>,
    /// The HLR evaluator's output.
    pub expected: Vec<i64>,
    /// Modeled metrics of the reference run in the workload's mode.
    pub reference: Metrics,
}

/// One timed unit of work: a request, or a `service_mix` load step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// The kind of work: the program's index in the loop mix or the
    /// `cold_source` pool, or the load step's index in [`RATES`].
    pub class: usize,
    /// Host ns.
    pub ns: u64,
    /// DIR instructions retired (0 if the request failed).
    pub instrs: u64,
    /// Requests served: 1 for a request, more for a load step.
    pub requests: u64,
    /// The round it ran in: its index in [`Ledger::slowdowns`].
    pub round: usize,
}

/// One request's host latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    /// Host ns.
    pub ns: u64,
    /// The round it ran in: its index in [`Ledger::slowdowns`].
    pub round: usize,
}

/// Modeled counters summed over the runs that define a workload's
/// modeled metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Modeled {
    /// Retired DIR instructions.
    pub instrs: u64,
    /// Modeled cycles.
    pub cycles: u64,
    /// Semantic-routine micro-words executed.
    pub routine_words: u64,
    /// PSDER short words executed.
    pub short_words: u64,
    /// Instructions fetched and decoded.
    pub decoded: u64,
    /// DTB lookups that hit.
    pub dtb_hits: u64,
    /// DTB lookups that missed.
    pub dtb_misses: u64,
    /// DTB fills that evicted a line.
    pub dtb_evictions: u64,
}

impl Modeled {
    fn add(&mut self, m: &Metrics) {
        self.instrs += m.instructions;
        self.cycles += m.cycles.total();
        self.routine_words += m.routine_words;
        self.short_words += m.short_words;
        self.decoded += m.decoded;
        if let Some(d) = m.dtb {
            self.dtb_hits += d.hits;
            self.dtb_misses += d.misses;
            self.dtb_evictions += d.evictions;
        }
    }
}

/// What the service front-end did during `service_mix`'s timed phase.
#[derive(Debug, Default, Clone)]
pub struct ServiceCounters {
    /// Load steps run.
    pub steps: u64,
    /// Host ns inside `run_at`.
    pub run_at_ns: u64,
    /// Host ns of the pool runs inside those calls.
    pub pool_wall_ns: u64,
    /// Each served request's run on a pool worker.
    pub worker: Vec<Latency>,
    /// Host ns the pool workers were busy.
    pub busy_ns: u64,
    /// Worker count times pool wall time, in ns.
    pub capacity_ns: u64,
    /// Per step: busiest worker's busy time over the mean.
    pub imbalance: Vec<f64>,
    /// Distinct tenants served per step, summed: one reference run each.
    pub probe_runs: u64,
    /// Modeled steps: queueing delay of each served request, in cycles.
    pub wait_cycles: Vec<f64>,
    /// Modeled steps: peak backlog of each step.
    pub queue_peak: Vec<f64>,
    /// Modeled steps: requests shed.
    pub shed: u64,
    /// Modeled steps: requests rejected by admission.
    pub rejected: u64,
    /// Load steps that define the modeled metrics: every arrival stream
    /// at every rate, once.
    pub modeled_steps: u64,
}

/// Everything a workload's run produced, before it is reduced to metrics.
#[derive(Default)]
pub struct Ledger {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The timed units of work.
    pub timed: Vec<Timed>,
    /// Host latency of every timed request: the latency samples.
    pub latencies: Vec<Latency>,
    /// The host's slowdown against the reference host, timed before
    /// each round.
    pub slowdowns: Vec<f64>,
    /// Modeled latency of each request in the modeled set, in cycles.
    pub modeled_latency_cycles: Vec<f64>,
    /// Modeled counters of the modeled set.
    pub modeled: Modeled,
    /// Static size of the workload's images, in bits.
    pub image_bits: u64,
    /// Static DIR instructions of those images.
    pub static_instrs: u64,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// Index range of the timed phase's spans.
    pub timed_spans: Range<usize>,
    /// Host ns of the timed phase.
    pub timed_ns: u64,
    /// The service front-end's counters (`service_mix` only).
    pub service: ServiceCounters,
    /// Sources of the workload's programs, for the compile-layer probes.
    pub sources: Vec<String>,
    /// The loop mix under the workload's scheme, for the execution-layer
    /// probes (`cold_source` builds it only when traced).
    pub mix: Vec<Tenant>,
}

impl Ledger {
    /// Records one timed request of program `class`.
    fn record_request(&mut self, class: usize, ns: u64, instrs: u64, round: usize) {
        self.timed.push(Timed {
            class,
            ns,
            instrs,
            requests: 1,
            round,
        });
        self.latencies.push(Latency { ns, round });
    }

    /// Counts the static size and sources of the loop mix's programs.
    fn add_mix(&mut self, mix: &[Tenant]) {
        for t in mix {
            self.image_bits += sut::image_bits(sut::image_of(&t.machine));
            self.static_instrs += sut::program_of(&t.machine).code.len() as u64;
            self.sources
                .extend(sut::sample_source(t.name).map(str::to_string));
        }
    }

    /// `ns`, measured in `round`, scaled to the reference host. A round is
    /// scaled by the median slowdown of the five rounds around it, which
    /// smooths the kernel's own jitter: neighbours change pace over
    /// seconds, rounds last milliseconds.
    pub fn scaled(&self, ns: u64, round: usize) -> f64 {
        let s = &self.slowdowns;
        let around = &s[round.saturating_sub(2)..(round + 3).min(s.len())];
        host::normalize(ns as f64, stats::median(around))
    }

    /// Host ns per retired instruction on the reference host. Each unit of
    /// work is priced at its class's median scaled ns per instruction, so
    /// the figure does not depend on which programs or steps happened to
    /// run while the host was busy.
    pub fn ns_per_instr(&self) -> f64 {
        let classes = self.timed.iter().map(|t| t.class + 1).max().unwrap_or(0);
        let mut per_instr = vec![Vec::new(); classes];
        for t in self.timed.iter().filter(|t| t.instrs > 0) {
            per_instr[t.class].push(self.scaled(t.ns, t.round) / t.instrs as f64);
        }
        let price: Vec<f64> = per_instr.iter().map(|v| stats::median(v)).collect();
        let (mut ns, mut instrs) = (0.0, 0u64);
        for t in &self.timed {
            ns += price[t.class] * t.instrs as f64;
            instrs += t.instrs;
        }
        ratio(ns, instrs as f64)
    }
}

/// The timed phase's clock: when it may stop, and when the next set-up
/// repetition is due.
struct Phase {
    start: Instant,
    /// Time spent in set-up repetitions and kernel timings, which the
    /// phase's clock skips.
    paused: Duration,
    seconds: Duration,
    min_samples: usize,
    setup_every: Duration,
    setup_next: Duration,
    setup_left: usize,
    /// What the rounds and set-up repetitions are scaled by.
    reference: Reference,
}

impl Phase {
    /// Starts the clock for `workload`; `setup_left` repetitions are
    /// spread evenly over `--seconds`.
    fn start(opts: &Options, workload: Workload, setup_left: usize) -> Phase {
        let setup_every = opts.seconds / (setup_left as u32 + 1);
        Phase {
            start: Instant::now(),
            paused: Duration::ZERO,
            seconds: opts.seconds,
            min_samples: opts.scale.min_samples,
            setup_every,
            setup_next: setup_every,
            setup_left,
            reference: workload.reference(),
        }
    }

    /// Time spent in rounds so far.
    fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }

    /// Starts a round: times the reference kernel off the phase's clock,
    /// and returns the round's index.
    fn begin_round(&mut self, ledger: &mut Ledger) -> usize {
        let started = Instant::now();
        ledger.slowdowns.push(host::slowdown(self.reference));
        self.paused += started.elapsed();
        ledger.slowdowns.len() - 1
    }

    /// Runs a set-up repetition if one is due, off the phase's clock.
    fn setup_if_due(
        &mut self,
        ledger: &mut Ledger,
        rebuild: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        if self.setup_left == 0 || self.elapsed() < self.setup_next {
            return Ok(());
        }
        self.setup_left -= 1;
        self.setup_next += self.setup_every;
        let started = Instant::now();
        ledger.setup_s.push(setup_seconds(self.reference, rebuild)?);
        self.paused += started.elapsed();
        Ok(())
    }

    /// Whether the phase may stop: it timed something for `--seconds`,
    /// and has its samples or has run out of time to get them.
    fn done(&self, ledger: &Ledger) -> bool {
        let elapsed = self.elapsed();
        let samples = ledger.latencies.len();
        samples > 0
            && elapsed >= self.seconds
            && (elapsed >= self.seconds * MAX_STRETCH || samples >= self.min_samples)
    }

    /// Ends the phase: records its length and span range, then runs the
    /// set-up repetitions still owed.
    fn finish(
        self,
        ledger: &mut Ledger,
        first_span: usize,
        tracer: &Tracer,
        mut rebuild: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        ledger.timed_ns = self.elapsed().as_nanos() as u64;
        ledger.timed_spans = first_span..tracer.spans().len();
        for _ in 0..self.setup_left {
            ledger
                .setup_s
                .push(setup_seconds(self.reference, &mut rebuild)?);
        }
        Ok(())
    }
}

/// splitmix64: the ledger's own seeded stream, so its inputs and orders
/// depend only on its seeds.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle; `state` advances.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state = mix64(*state);
        items.swap(i, (*state % (i as u64 + 1)) as usize);
    }
}

/// Draws `0..n` in passes, each pass a fresh seeded shuffle, so every
/// index comes once per pass.
struct Draws {
    order: Vec<usize>,
    next: usize,
    state: u64,
}

impl Draws {
    fn new(n: usize, seed: u64) -> Draws {
        Draws {
            order: (0..n).collect(),
            next: n,
            state: seed,
        }
    }

    fn draw(&mut self) -> usize {
        if self.next == self.order.len() {
            shuffle(&mut self.order, &mut self.state);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Host seconds `build` takes, scaled to the reference host by a kernel
/// timing just before it.
fn setup_seconds<T>(
    reference: Reference,
    build: impl FnOnce() -> Result<T, String>,
) -> Result<f64, String> {
    Ok(setup_timed(reference, build)?.1)
}

/// Runs `build`, returning its result and its seconds scaled to the
/// reference host.
fn setup_timed<T>(
    reference: Reference,
    build: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let slowdown = host::slowdown(reference);
    let t = Instant::now();
    let built = build()?;
    Ok((built, host::normalize(t.elapsed().as_secs_f64(), slowdown)))
}

/// Runs `f`, turning a panic into an error so it counts as a failure.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Whether a completed run matches its references.
fn matches(report: &sut::Report, expected: &[i64], reference: &Metrics) -> bool {
    report.output == expected && &report.metrics == reference
}

/// RAUL source to a verified, loaded machine: compile, lower, encode,
/// verify, load. Each call is one span.
fn load_source(
    tracer: &mut Tracer,
    request: u64,
    source: &str,
    scheme: SchemeKind,
) -> Result<Machine, String> {
    let hir = tracer.span("hlr.compile", request, || sut::compile_hlr(source))?;
    let program = tracer.span("dir.compile", request, || sut::compile_dir(&hir));
    let image = tracer.span("dir.encode", request, || sut::encode(scheme, &program));
    let verified = tracer.span("analyze.verify", request, || sut::verify(&program, image))?;
    Ok(tracer.span("uhm.load", request, || sut::load(&verified)))
}

/// The independent reference for one program: the evaluator's output
/// and the modeled metrics of an unverified machine's run, plus that
/// machine.
fn reference(
    hir: &Hir,
    scheme: SchemeKind,
    mode: &Mode,
) -> Result<(Vec<i64>, Metrics, Machine), String> {
    let expected = sut::eval(hir)?;
    let machine = sut::load_unverified(&sut::compile_dir(hir), scheme);
    let report = sut::run(&machine, mode).map_err(|t| t.to_string())?;
    if report.output != expected {
        return Err("the reference run disagrees with the evaluator".to_string());
    }
    Ok((expected, report.metrics, machine))
}

/// The resident artifacts of a loop mix: one frozen machine per sample.
fn build_mix(
    tracer: &mut Tracer,
    names: &[&'static str],
    scheme: SchemeKind,
) -> Result<Vec<(&'static str, Machine)>, String> {
    names
        .iter()
        .zip(0u64..)
        .map(|(&name, request)| {
            let source = sut::sample_source(name).ok_or(format!("no sample {name}"))?;
            let mut machine = load_source(tracer, request, source, scheme)?;
            tracer.span("psder.freeze", request, || sut::freeze(&mut machine));
            Ok((name, machine))
        })
        .collect()
}

/// The loop mix as tenants under `workload`'s scheme and mode, and the
/// seconds its build took; references are made outside that timing.
fn tenants(
    tracer: &mut Tracer,
    scale: &Scale,
    workload: Workload,
) -> Result<(Vec<Tenant>, f64), String> {
    let (scheme, mode) = (workload.scheme(), &workload.mode());
    let (built, setup_s) = setup_timed(workload.reference(), || {
        build_mix(tracer, scale.mix, scheme)
    })?;
    let tenants = built
        .into_iter()
        .map(|(name, machine)| {
            let source = sut::sample_source(name).ok_or(format!("no sample {name}"))?;
            let (expected, reference, _) = reference(&sut::compile_hlr(source)?, scheme, mode)?;
            Ok(Tenant {
                name,
                machine: Arc::new(machine),
                expected,
                reference,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((tenants, setup_s))
}

/// Runs `workload`, recording spans into `tracer` when it is enabled.
///
/// # Errors
///
/// Set-up failed: a sample did not compile or its reference run trapped.
pub fn run(workload: Workload, opts: &Options, tracer: &mut Tracer) -> Result<Ledger, String> {
    // A traced run reports per-layer metrics, not `setup_s`: one build.
    let reps = |reps: usize| if opts.trace { 1 } else { reps };
    let setup_reps = reps(opts.scale.setup_reps);
    match workload {
        Workload::ColdSource => cold_source(opts, tracer, reps(opts.scale.cold_setup_reps)),
        Workload::ServiceMix => service_mix(opts, tracer, setup_reps),
        loop_mix => resident(loop_mix, opts, tracer, setup_reps),
    }
}

/// `dtb_hot`, `interp_huffman`, `dtb_thrash`: the loop mix run on
/// resident machines, round after round in a seeded order.
fn resident(
    workload: Workload,
    opts: &Options,
    tracer: &mut Tracer,
    setup_reps: usize,
) -> Result<Ledger, String> {
    let (mode, scheme) = (workload.mode(), workload.scheme());
    let (mix, setup_s) = tenants(tracer, &opts.scale, workload)?;
    let mut ledger = Ledger {
        setup_s: vec![setup_s],
        ..Ledger::default()
    };
    ledger.add_mix(&mix);
    // Every round runs each program once, with the modeled metrics of
    // its reference.
    for t in &mix {
        ledger.modeled.add(&t.reference);
    }
    let rebuild = |tracer: &mut Tracer| build_mix(tracer, opts.scale.mix, scheme).map(drop);

    let mut draws = Draws::new(mix.len(), opts.seed);
    let first_span = tracer.spans().len();
    let root = tracer.begin(workload.name(), 0);
    let mut phase = Phase::start(opts, workload, setup_reps - 1);
    while !phase.done(&ledger) {
        phase.setup_if_due(&mut ledger, || rebuild(tracer))?;
        let round = phase.begin_round(&mut ledger);
        let span = tracer.begin("round", round as u64);
        for _ in 0..mix.len() {
            let i = draws.draw();
            let t = &mix[i];
            let id = tracer.begin("uhm.run", ledger.checks.attempted);
            let started = Instant::now();
            let result = guarded(|| sut::run(&t.machine, &mode).map_err(|e| e.to_string()));
            let ns = ns_since(started);
            tracer.end(id);
            let mut instrs = 0;
            let ok = result.is_ok_and(|r| {
                instrs = r.metrics.instructions;
                ledger
                    .modeled_latency_cycles
                    .push(r.metrics.cycles.total() as f64);
                matches(&r, &t.expected, &t.reference)
            });
            ledger.checks.record(ok);
            ledger.record_request(i, ns, instrs, round);
        }
        tracer.end(span);
    }
    tracer.end(root);
    phase.finish(&mut ledger, first_span, tracer, || {
        rebuild(&mut Tracer::new(false))
    })?;
    ledger.mix = mix;
    Ok(ledger)
}

/// The `cold_source` pool: seeded generation and pretty-printing — the
/// benchmark's own set-up, since requests bring their source with them.
fn cold_pool(size: usize) -> Vec<String> {
    (0..size as u64)
        .map(|i| sut::generate_cold(mix64(INPUT_SEED ^ mix64(i))))
        .collect()
}

/// `cold_source`: each request takes one generated program from source
/// to result — compile, lower, Huffman-encode, verify, load, one DTB run.
fn cold_source(opts: &Options, tracer: &mut Tracer, setup_reps: usize) -> Result<Ledger, String> {
    let scale = &opts.scale;
    let workload = Workload::ColdSource;
    let (scheme, mode) = (workload.scheme(), workload.mode());
    let (pool, setup_s) = setup_timed(workload.reference(), || Ok(cold_pool(scale.cold_pool)))?;
    let mut ledger = Ledger {
        setup_s: vec![setup_s],
        ..Ledger::default()
    };
    // References, once per program: the modeled metrics define the
    // workload's modeled numbers, so they do not depend on run length.
    let mut references = Vec::with_capacity(pool.len());
    for source in &pool {
        let (expected, metrics, machine) = reference(&sut::compile_hlr(source)?, scheme, &mode)?;
        ledger.image_bits += sut::image_bits(sut::image_of(&machine));
        ledger.static_instrs += sut::program_of(&machine).code.len() as u64;
        ledger.modeled.add(&metrics);
        ledger
            .modeled_latency_cycles
            .push(metrics.cycles.total() as f64);
        references.push((expected, metrics));
    }
    ledger.sources = pool.iter().take(scale.probe_programs).cloned().collect();
    let rebuild = || {
        std::hint::black_box(cold_pool(scale.cold_pool));
        Ok(())
    };

    let mut draws = Draws::new(pool.len(), opts.seed);
    let first_span = tracer.spans().len();
    let root = tracer.begin(workload.name(), 0);
    let mut phase = Phase::start(opts, workload, setup_reps - 1);
    while !phase.done(&ledger) {
        phase.setup_if_due(&mut ledger, rebuild)?;
        let round = phase.begin_round(&mut ledger);
        let span = tracer.begin("round", round as u64);
        for _ in 0..scale.cold_round {
            let i = draws.draw();
            let request = ledger.checks.attempted;
            let id = tracer.begin("request", request);
            let started = Instant::now();
            let result = guarded(|| {
                let machine = load_source(tracer, request, &pool[i], scheme)?;
                tracer.span("uhm.run", request, || {
                    sut::run(&machine, &mode).map_err(|e| e.to_string())
                })
            });
            let ns = ns_since(started);
            tracer.end(id);
            let mut instrs = 0;
            let ok = result.is_ok_and(|r| {
                instrs = r.metrics.instructions;
                let (expected, metrics) = &references[i];
                matches(&r, expected, metrics)
            });
            ledger.checks.record(ok);
            ledger.record_request(i, ns, instrs, round);
        }
        tracer.end(span);
    }
    tracer.end(root);
    phase.finish(&mut ledger, first_span, tracer, rebuild)?;
    if opts.trace {
        ledger.mix = tenants(tracer, scale, workload)?.0;
    }
    Ok(ledger)
}

/// `service_mix`: open-loop load steps through the service front-end,
/// each of [`Scale::service_streams`] fixed arrival streams at each rate,
/// in a seeded order.
fn service_mix(opts: &Options, tracer: &mut Tracer, setup_reps: usize) -> Result<Ledger, String> {
    let scale = &opts.scale;
    let workload = Workload::ServiceMix;
    let mode = workload.mode();
    // Set-up: the resident machines plus one service per arrival stream.
    let build_services = |machines: &[(String, Arc<Machine>)]| -> Vec<sut::Service> {
        (0..scale.service_streams as u64)
            .map(|stream| {
                let seed = mix64(INPUT_SEED.wrapping_add(stream));
                sut::service(POLICY, seed, machines, scale.requests_per_step, &mode)
            })
            .collect()
    };
    let (mix, build_s) = tenants(tracer, scale, workload)?;
    let machines: Vec<(String, Arc<Machine>)> = mix
        .iter()
        .map(|t| (t.name.to_string(), Arc::clone(&t.machine)))
        .collect();
    let (services, services_s) =
        setup_timed(workload.reference(), || Ok(build_services(&machines)))?;
    let mut ledger = Ledger {
        setup_s: vec![build_s + services_s],
        ..Ledger::default()
    };
    let rebuild = |tracer: &mut Tracer| {
        let machines: Vec<(String, Arc<Machine>)> =
            build_mix(tracer, scale.mix, workload.scheme())?
                .into_iter()
                .map(|(name, m)| (name.to_string(), Arc::new(m)))
                .collect();
        std::hint::black_box(build_services(&machines));
        Ok(())
    };
    ledger.add_mix(&mix);

    // A step is one stream at one rate; the first pass over all of them
    // is the modeled set.
    let steps = services.len() * RATES.len();
    let mut draws = Draws::new(steps, opts.seed);
    let first_span = tracer.spans().len();
    let root = tracer.begin(workload.name(), 0);
    let mut phase = Phase::start(opts, workload, setup_reps - 1);
    let mut ran = 0;
    while !phase.done(&ledger) || ran < steps {
        phase.setup_if_due(&mut ledger, || rebuild(tracer))?;
        let drawn = draws.draw();
        let (service, class) = (&services[drawn / RATES.len()], drawn % RATES.len());
        let modeled = ran < steps;
        ran += 1;
        let round = phase.begin_round(&mut ledger);
        let id = tracer.begin("uhm.service.run_at", round as u64);
        let started = Instant::now();
        let step = guarded(|| Ok(sut::run_at(service, RATES[class])));
        let ns = ns_since(started);
        tracer.end(id);
        let Ok(step) = step else {
            ledger.checks.record(false);
            continue;
        };
        let step = sut::digest(step);
        // Each served request's latency is its run on a worker plus an
        // equal share of the front-end's time in the step: admission,
        // the service-time probe runs and queueing.
        let frontend_ns = ns.saturating_sub(step.pool_wall_ns);
        let frontend_share = frontend_ns / step.served.len().max(1) as u64;
        let mut instrs = 0;
        let mut tenants_served: Vec<&str> = Vec::new();
        for served in &step.served {
            let tenant = mix.iter().position(|t| t.name == served.tenant);
            let ok = match (&served.result, tenant.map(|i| &mix[i])) {
                (Ok(report), Some(t)) => {
                    instrs += report.metrics.instructions;
                    if modeled {
                        ledger.modeled.add(&report.metrics);
                    }
                    matches(report, &t.expected, &t.reference)
                }
                _ => false,
            };
            ledger.checks.record(ok);
            ledger.latencies.push(Latency {
                ns: served.host_ns + frontend_share,
                round,
            });
            ledger.service.worker.push(Latency {
                ns: served.host_ns,
                round,
            });
            if !tenants_served.contains(&served.tenant.as_str()) {
                tenants_served.push(&served.tenant);
            }
        }
        ledger.timed.push(Timed {
            class,
            ns,
            instrs,
            requests: step.served.len() as u64,
            round,
        });
        // Shed and rejected requests are policy outcomes, not failures.
        ledger.checks.attempted += (step.shed + step.rejected) as u64;
        let s = &mut ledger.service;
        s.steps += 1;
        s.run_at_ns += ns;
        s.pool_wall_ns += step.pool_wall_ns;
        s.busy_ns += step.worker_busy_ns.iter().sum::<u64>();
        s.capacity_ns += step.pool_wall_ns * step.worker_busy_ns.len() as u64;
        let busy: Vec<f64> = step.worker_busy_ns.iter().map(|&b| b as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean > 0.0 {
            s.imbalance
                .push(busy.iter().copied().fold(0.0, f64::max) / mean);
        }
        s.probe_runs += tenants_served.len() as u64;
        if modeled {
            s.modeled_steps += 1;
            s.shed += step.shed as u64;
            s.rejected += step.rejected as u64;
            s.queue_peak.push(step.queue_peak as f64);
            for served in &step.served {
                s.wait_cycles.push(served.wait_cycles as f64);
                ledger
                    .modeled_latency_cycles
                    .push(served.latency_cycles as f64);
            }
        }
    }
    tracer.end(root);
    phase.finish(&mut ledger, first_span, tracer, || {
        rebuild(&mut Tracer::new(false))
    })?;
    ledger.mix = mix;
    Ok(ledger)
}

/// The end-to-end metrics of a finished run. Every time is scaled to the
/// reference host ([`Ledger::scaled`]). `ns_per_instr` prices each unit
/// of work at its class's median ([`Ledger::ns_per_instr`]);
/// `requests_per_s` divides the requests served by the units' summed
/// time; the latency percentiles are over the requests' own times.
pub fn end_to_end(ledger: &Ledger, peak_rss_mb: f64) -> Vec<Metric> {
    let busy_ns: f64 = ledger
        .timed
        .iter()
        .map(|t| ledger.scaled(t.ns, t.round))
        .sum();
    let requests: u64 = ledger.timed.iter().map(|t| t.requests).sum();
    let latency: Vec<f64> = ledger
        .latencies
        .iter()
        .map(|l| ledger.scaled(l.ns, l.round))
        .collect();
    vec![
        Metric::new("ns_per_instr", ledger.ns_per_instr(), "ns"),
        Metric::new(
            "requests_per_s",
            ratio(requests as f64 * 1e9, busy_ns),
            "1/s",
        ),
        Metric::new("latency_p50_us", stats::median(&latency) / 1e3, "us"),
        Metric::new(
            "latency_p95_us",
            stats::percentile(&latency, stats::TAIL_PER_MILLE as f64 / 10.0) / 1e3,
            "us",
        ),
        Metric::new("setup_s", stats::median(&ledger.setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new(
            "image_bits_per_instr",
            ratio(ledger.image_bits as f64, ledger.static_instrs as f64),
            "bits/instr",
        ),
        Metric::new(
            "modeled_cycles_per_instr",
            ratio(ledger.modeled.cycles as f64, ledger.modeled.instrs as f64),
            "cycles/instr",
        ),
        Metric::new(
            "modeled_latency_p99_cycles",
            stats::percentile(&ledger.modeled_latency_cycles, 99.0),
            "cycles",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn throughput_prices_classes_and_latency_keeps_each_request() {
        // The host is quiet for a while, then a neighbour slows the
        // reference kernel by 1.6x, and the requests with it.
        let mut ledger = Ledger {
            slowdowns: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 1.6, 1.6],
            ..Ledger::default()
        };
        for (class, ns, round) in [
            (0, 100, 0),
            (1, 1000, 1),
            (0, 104, 2),
            (1, 1600, 7),
            (0, 160, 8),
            (1, 1600, 9),
        ] {
            ledger.record_request(class, ns, [10, 50][class], round);
        }
        assert_eq!(ledger.scaled(160, 8), 100.0);
        assert_eq!(ledger.scaled(104, 2), 104.0);
        // Class 0 costs 10, 10.4 and 10 ns per instruction: priced at 10.
        let ns_per_instr = (3.0 * 10.0 * 10.0 + 3.0 * 20.0 * 50.0) / 180.0;
        assert_eq!(ledger.ns_per_instr(), ns_per_instr);
        let metrics = end_to_end(&ledger, 1.0);
        assert_eq!(metric(&metrics, "ns_per_instr"), ns_per_instr);
        // The 104 ns request is not priced away: it is the median.
        let scaled = [100.0, 1000.0, 104.0, 1000.0, 100.0, 1000.0];
        assert_eq!(metric(&metrics, "latency_p50_us"), (104.0 + 1000.0) / 2e3);
        assert_eq!(
            metric(&metrics, "requests_per_s"),
            6e9 / scaled.iter().sum::<f64>()
        );
    }

    #[test]
    fn a_load_step_counts_the_requests_it_served() {
        let mut ledger = Ledger {
            slowdowns: vec![2.0],
            ..Ledger::default()
        };
        // One step: 4 requests served in 8000 host ns, at half speed.
        ledger.timed.push(Timed {
            class: 0,
            ns: 8000,
            instrs: 400,
            requests: 4,
            round: 0,
        });
        let metrics = end_to_end(&ledger, 1.0);
        assert_eq!(metric(&metrics, "ns_per_instr"), 10.0);
        assert_eq!(metric(&metrics, "requests_per_s"), 4e9 / 4000.0);
    }

    #[test]
    fn draws_are_seeded_permutations_pass_by_pass() {
        let pass = |draws: &mut Draws| (0..50).map(|_| draws.draw()).collect::<Vec<_>>();
        let (mut a, mut b) = (Draws::new(50, 7), Draws::new(50, 7));
        let first = pass(&mut a);
        assert_eq!(first, pass(&mut b), "same seed, same order");
        assert_ne!(first, pass(&mut Draws::new(50, 8)));
        let second = pass(&mut a);
        assert_ne!(first, second, "each pass is shuffled afresh");
        for mut p in [first, second] {
            p.sort_unstable();
            assert_eq!(p, (0..50).collect::<Vec<_>>());
        }
    }
}
