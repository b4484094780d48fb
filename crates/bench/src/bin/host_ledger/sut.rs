//! The system under test: every call the ledger makes into the
//! reproduction's crates goes through this module.
//!
//! The ledger measures each layer from outside, by timing calls into its
//! public functions. Keeping all of those calls here means that when the
//! machine, pool or service APIs change shape, only this file follows;
//! the workloads, probes and metric definitions stay as they are.

use std::collections::HashMap;
use std::sync::Arc;

pub use analyze::Verified;
pub use dir::encode::{DecodeMode, Image, SchemeKind};
pub use dir::exec::Trap;
pub use dir::program::Program;
pub use hlr::hir::Program as Hir;
pub use psder::ShortInstr;
pub use uhm::service::{Service, StepRun};
pub use uhm::{Dtb, DtbConfig, Machine, Metrics, Mode, Report};

/// RAUL source of a built-in sample program.
pub fn sample_source(name: &str) -> Option<&'static str> {
    hlr::programs::by_name(name).map(|s| s.source)
}

/// The pretty-printed source of one generated program for code that
/// executes once: loop-free and call-free, so each instruction retires
/// about once.
pub fn generate_cold(seed: u64) -> String {
    let config = hlr::generate::Config {
        max_loop_nesting: 0,
        calls: false,
        ..hlr::generate::Config::default()
    };
    hlr::pretty::print(&hlr::generate::program(seed, &config))
}

/// The reference output: the HLR evaluator on `hir`.
///
/// # Errors
///
/// The program trapped in the evaluator.
pub fn eval(hir: &Hir) -> Result<Vec<i64>, String> {
    hlr::eval::run(hir).map_err(|e| e.to_string())
}

/// Lex, parse and analyse RAUL source (`hlr::compile`).
///
/// # Errors
///
/// The source does not compile.
pub fn compile_hlr(source: &str) -> Result<Hir, String> {
    hlr::compile(source).map_err(|e| e.to_string())
}

/// Lower HIR to a DIR program (`dir::compiler::compile`).
pub fn compile_dir(hir: &Hir) -> Program {
    dir::compiler::compile(hir)
}

/// Encode a DIR program under `scheme` (`SchemeKind::encode`).
pub fn encode(scheme: SchemeKind, program: &Program) -> Image {
    scheme.encode(program)
}

/// Load-time verification (`analyze::verify`).
///
/// # Errors
///
/// The verifier rejected the image; the message is its rendered report.
pub fn verify(program: &Program, image: Image) -> Result<Verified<Image>, String> {
    analyze::verify(program, image).map_err(|report| report.render())
}

/// The static DTB pressure bound (`analyze::bound`), reduced to the
/// whole-program translation words so callers need not name its type.
pub fn bound_words(program: &Program) -> u32 {
    analyze::bound(program).total_words
}

/// A machine over a verified image (`Machine::load`).
pub fn load(verified: &Verified<Image>) -> Machine {
    Machine::load(verified)
}

/// A machine built without the verifier (`Machine::new`): the
/// independent path the reference runs take.
pub fn load_unverified(program: &Program, scheme: SchemeKind) -> Machine {
    Machine::new(program, scheme)
}

/// Pre-translate the whole program into a shared snapshot
/// (`Machine::freeze_translations`).
pub fn freeze(machine: &mut Machine) {
    machine.freeze_translations();
}

/// The program a machine executes.
pub fn program_of(machine: &Machine) -> &Program {
    machine.program()
}

/// The encoded image a machine executes from.
pub fn image_of(machine: &Machine) -> &Image {
    machine.image()
}

/// One run of a machine (`Machine::run`).
///
/// # Errors
///
/// The guest program trapped.
pub fn run(machine: &Machine, mode: &Mode) -> Result<Report, Trap> {
    machine.run(mode)
}

/// Static size of an image in bits (`Image::program_bits`).
pub fn image_bits(image: &Image) -> u64 {
    image.program_bits()
}

/// Decode a whole image in one stream (`Image::decode_all_with`);
/// returns the number of instructions decoded.
///
/// # Errors
///
/// The image failed to decode.
pub fn decode_all(image: &Image, mode: DecodeMode) -> Result<usize, String> {
    image
        .decode_all_with(mode)
        .map(|d| d.len())
        .map_err(|e| e.to_string())
}

/// The PSDER translation of the instruction at `pc` (`psder::translate`).
pub fn translate(program: &Program, pc: u32) -> Vec<ShortInstr> {
    psder::translate(program.code[pc as usize], pc + 1)
}

/// The cost-free PSDER interpreter (`psder::interp::run`).
///
/// # Errors
///
/// The guest program trapped.
pub fn psder_interp(program: &Program) -> Result<Vec<i64>, Trap> {
    psder::interp::run(program)
}

/// The DIR semantic reference executor (`dir::exec::run`).
///
/// # Errors
///
/// The guest program trapped.
pub fn dir_exec(program: &Program) -> Result<Vec<i64>, Trap> {
    dir::exec::run(program)
}

/// The dynamic DIR address trace of one run (`dir::exec::run_with`).
///
/// # Errors
///
/// The guest program trapped.
pub fn address_trace(program: &Program) -> Result<Vec<u32>, Trap> {
    let (_, stats) = dir::exec::run_with(program, dir::exec::Limits::default(), true)?;
    Ok(stats.trace.unwrap_or_default())
}

/// An empty DTB (`Dtb::new`).
pub fn dtb_new(config: DtbConfig) -> Dtb {
    Dtb::new(config)
}

/// Present `addr` to the DTB (`Dtb::lookup`); true on a hit.
pub fn dtb_lookup(dtb: &mut Dtb, addr: u32) -> bool {
    dtb.lookup(addr).is_some()
}

/// Store a translation in the DTB (`Dtb::fill`).
pub fn dtb_fill(dtb: &mut Dtb, addr: u32, words: &[ShortInstr]) {
    dtb.fill(addr, words);
}

/// The service front-end's policy for the service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServicePolicy {
    /// Simulated servers and host pool workers.
    pub workers: usize,
    /// Total backlog at which arrivals are shed.
    pub watermark: usize,
    /// One tenant's backlog cap.
    pub quota: usize,
}

/// A service (`Service::new` plus one `Service::submit` per request)
/// whose requests cycle through `tenants` in order. Admission right-sizes
/// DTBs that cannot hold a tenant's hot loop.
pub fn service(
    policy: ServicePolicy,
    seed: u64,
    tenants: &[(String, Arc<Machine>)],
    requests: usize,
    mode: &Mode,
) -> Service {
    let mut service = Service::new(uhm::ServiceConfig {
        workers: policy.workers,
        admission: uhm::AdmissionPolicy {
            max_pressure_words: None,
            right_size: true,
        },
        queue_watermark: Some(policy.watermark),
        tenant_quota: Some(policy.quota),
        seed,
    });
    for i in 0..requests {
        let (name, machine) = &tenants[i % tenants.len()];
        service.submit(
            name.clone(),
            format!("{name}-{i}"),
            Arc::clone(machine),
            mode.clone(),
        );
    }
    service
}

/// One open-loop load step (`Service::run_at`), rate in requests per
/// million modeled cycles.
pub fn run_at(service: &Service, rate_per_mcycle: u64) -> StepRun {
    service.run_at(rate_per_mcycle)
}

/// One served request, as the ledger checks and counts it.
pub struct Served {
    /// The tenant (the sample's name).
    pub tenant: String,
    /// Modeled queueing delay: dispatch minus arrival, in cycles.
    pub wait_cycles: u64,
    /// Modeled latency: completion minus arrival, in cycles.
    pub latency_cycles: u64,
    /// Host service time: the pool's wall time for this request, in ns.
    pub host_ns: u64,
    /// The run's report, or why it did not complete.
    pub result: Result<Report, String>,
}

/// A load step reduced to what the ledger needs.
pub struct Step {
    /// Requests dispatched to a worker, in submission order.
    pub served: Vec<Served>,
    /// Requests refused at arrival by quota or watermark.
    pub shed: usize,
    /// Requests refused statically by admission.
    pub rejected: usize,
    /// Peak total backlog during the step.
    pub queue_peak: usize,
    /// Host time of the step's pool run, in ns.
    pub pool_wall_ns: u64,
    /// Host busy time of each pool worker, in ns.
    pub worker_busy_ns: Vec<u64>,
}

/// Reduces a [`StepRun`] to a [`Step`].
pub fn digest(step: StepRun) -> Step {
    let shed = step.outcome_count("shed");
    let rejected = step.outcome_count("rejected");
    let worker_busy_ns = step.pool.worker_busy_ns();
    // The pool runs served requests in dispatch order under their
    // request names; join its host times back by name.
    let host_ns: HashMap<&str, u64> = step
        .pool
        .results
        .iter()
        .map(|r| (r.name.as_str(), r.latency_ns))
        .collect();
    let served = step
        .results
        .into_iter()
        .filter(|r| r.outcome.served())
        .map(|r| Served {
            wait_cycles: r.start_cycle - r.arrival_cycle,
            latency_cycles: r.latency_cycles,
            host_ns: host_ns.get(r.name.as_str()).copied().unwrap_or(0),
            result: match r.outcome {
                uhm::RequestOutcome::Completed(report) => Ok(*report),
                other => Err(format!("{other:?}")),
            },
            tenant: r.tenant,
        })
        .collect();
    Step {
        served,
        shed,
        rejected,
        queue_peak: step.queue_peak,
        pool_wall_ns: step.pool.wall_ns,
        worker_busy_ns,
    }
}
