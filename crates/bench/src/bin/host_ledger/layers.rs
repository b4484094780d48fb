//! Per-layer metrics of a traced run.
//!
//! Three sources, all measured from outside the system:
//!
//! * **Spans** of the timed phase give each layer's share of host time.
//! * **Probes** time each layer's public functions directly. Compile-layer
//!   probes run on the workload's own programs; execution-layer probes
//!   run on the loop mix under the workload's scheme, because only loops
//!   separate hits from misses. Differential legs (interpreter, all-hit
//!   DTB, thrashing DTB) split the machine's time into layers.
//! * **Modeled counters** of the workload's own runs.
//!
//! From the probes the paper's §7 parameters are refitted in host ns, and
//! the fitted model's predictions are compared with the measured legs.

use std::hint::black_box;
use std::time::Instant;

use crate::host::{self, Reference};
use crate::stats::{self, ratio};
use crate::sut::{self, DecodeMode, DtbConfig, Mode, SchemeKind};
use crate::trace::Tracer;
use crate::workloads::{Checks, Ledger, Tenant, Workload};
use crate::Metric;

/// Passes over the mix's static instructions per decode or translate
/// probe repetition: enough for a repetition to last milliseconds.
const STATIC_PASSES: usize = 100;

/// Calls per compile-layer probe repetition set, spread over the
/// workload's programs.
const COMPILE_CALLS: usize = 210;

/// DTB entries of the all-hit and thrashing legs.
const HOT_ENTRIES: usize = 256;
const THRASH_ENTRIES: usize = 16;

/// How every probe repeats and scales its timings.
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// Repetitions behind each median (at least one).
    reps: usize,
    /// What each repetition is scaled by: the workload's reference, so
    /// that per-layer and end-to-end times share a unit.
    reference: Reference,
}

/// Host ns of `f` on the reference host: the median over `probe.reps`
/// repetitions, each scaled by a kernel timing just before it.
fn probe_ns(probe: Probe, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..probe.reps.max(1))
        .map(|_| {
            let slowdown = host::slowdown(probe.reference);
            let t = Instant::now();
            f();
            host::normalize(t.elapsed().as_nanos() as f64, slowdown)
        })
        .collect();
    stats::median(&samples)
}

/// Runs `f`, adding its host ns to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

/// Host µs per call of each compile layer, plus static counts.
struct CompileCosts {
    /// µs per call: hlr, dir, encode, verify, bound, load, freeze.
    us: [f64; 7],
    code_len: f64,
    bits_per_instr: f64,
    rejected: u64,
}

/// Times every compile layer on `sources`: per layer, the median over
/// repetitions, scaled to the reference host.
fn compile_probe(
    sources: &[String],
    scheme: SchemeKind,
    reference: Reference,
    checks: &mut Checks,
) -> CompileCosts {
    let n = sources.len().max(1);
    let reps = (COMPILE_CALLS / n).max(3);
    let mut per_layer: [Vec<f64>; 7] = Default::default();
    let (mut code, mut bits, mut rejected) = (0u64, 0u64, 0u64);
    for rep in 0..reps {
        let slowdown = host::slowdown(reference);
        let mut ns = [0u64; 7];
        for source in sources {
            let Ok(hir) = timed(&mut ns[0], || sut::compile_hlr(source)) else {
                checks.record(false);
                continue;
            };
            let program = timed(&mut ns[1], || sut::compile_dir(&hir));
            let image = timed(&mut ns[2], || sut::encode(scheme, &program));
            if rep == 0 {
                code += program.code.len() as u64;
                bits += sut::image_bits(&image);
            }
            black_box(timed(&mut ns[4], || sut::bound_words(&program)));
            let verified = timed(&mut ns[3], || sut::verify(&program, image));
            checks.record(verified.is_ok());
            let Ok(verified) = verified else {
                rejected += 1;
                continue;
            };
            let mut machine = timed(&mut ns[5], || sut::load(&verified));
            timed(&mut ns[6], || sut::freeze(&mut machine));
        }
        for (samples, total) in per_layer.iter_mut().zip(ns) {
            samples.push(host::normalize(total as f64, slowdown) / n as f64 / 1e3);
        }
    }
    CompileCosts {
        us: per_layer.map(|s| stats::median(&s)),
        code_len: code as f64 / n as f64,
        bits_per_instr: ratio(bits as f64, code as f64),
        rejected,
    }
}

/// One differential leg: the mix on its machines in one mode.
struct Leg {
    ns_per_instr: f64,
    instrs: u64,
    misses: u64,
}

fn leg(mix: &[Tenant], mode: &Mode, probe: Probe, checks: &mut Checks) -> Leg {
    let mut samples = Vec::new();
    let (mut instrs, mut misses) = (0, 0);
    for _ in 0..probe.reps.max(1) {
        let slowdown = host::slowdown(probe.reference);
        let (mut ns, mut rep_instrs) = (0u64, 0u64);
        misses = 0;
        for t in mix {
            let result = timed(&mut ns, || sut::run(&t.machine, mode));
            checks.record(result.as_ref().is_ok_and(|r| r.output == t.expected));
            if let Ok(r) = result {
                rep_instrs += r.metrics.instructions;
                misses += r.metrics.dtb.map_or(0, |d| d.misses);
            }
        }
        instrs = rep_instrs;
        samples.push(ratio(
            host::normalize(ns as f64, slowdown),
            rep_instrs as f64,
        ));
    }
    Leg {
        ns_per_instr: stats::median(&samples),
        instrs,
        misses,
    }
}

/// Host ns per retired instruction of a whole-program executor.
fn executor_ns(
    mix: &[Tenant],
    probe: Probe,
    checks: &mut Checks,
    exec: fn(&sut::Program) -> Result<Vec<i64>, sut::Trap>,
) -> f64 {
    let instrs: u64 = mix.iter().map(|t| t.reference.instructions).sum();
    let ns = probe_ns(probe, || {
        for t in mix {
            let out = exec(sut::program_of(&t.machine));
            checks.record(out.is_ok_and(|o| o == t.expected));
        }
    });
    ratio(ns, instrs as f64)
}

/// Host ns per static instruction of streaming decode in `mode`. Each
/// image must first decode to as many instructions as its program has.
fn decode_ns(mix: &[Tenant], mode: DecodeMode, probe: Probe, checks: &mut Checks) -> f64 {
    let mut statics = 0;
    for t in mix {
        let len = sut::program_of(&t.machine).code.len();
        checks.record(sut::decode_all(sut::image_of(&t.machine), mode) == Ok(len));
        statics += len;
    }
    let ns = probe_ns(probe, || {
        for _ in 0..STATIC_PASSES {
            for t in mix {
                black_box(sut::decode_all(sut::image_of(&t.machine), mode).is_ok());
            }
        }
    });
    ratio(ns, (statics * STATIC_PASSES) as f64)
}

/// Host ns per static instruction of `psder::translate`.
fn translate_ns(mix: &[Tenant], probe: Probe) -> f64 {
    let statics: usize = mix
        .iter()
        .map(|t| sut::program_of(&t.machine).code.len())
        .sum();
    let ns = probe_ns(probe, || {
        for _ in 0..STATIC_PASSES {
            for t in mix {
                let program = sut::program_of(&t.machine);
                for pc in 0..program.code.len() as u32 {
                    black_box(sut::translate(program, pc));
                }
            }
        }
    });
    ratio(ns, (statics * STATIC_PASSES) as f64)
}

/// Host ns per `Dtb::lookup` and per `Dtb::fill`, replaying the mix's
/// recorded address traces through a DTB of `entries`. Fills are timed
/// alone, replaying the misses in order on an empty DTB; lookups are
/// timed alone, replaying every address against the DTB the full replay
/// left behind.
fn replay(mix: &[Tenant], entries: usize, probe: Probe, checks: &mut Checks) -> (f64, f64) {
    let config = DtbConfig::with_capacity(entries);
    let traces: Vec<(Vec<u32>, Vec<Vec<sut::ShortInstr>>)> = mix
        .iter()
        .filter_map(|t| {
            let program = sut::program_of(&t.machine);
            let trace = sut::address_trace(program);
            checks.record(trace.is_ok());
            let words = (0..program.code.len() as u32)
                .map(|pc| sut::translate(program, pc))
                .collect();
            trace.ok().map(|trace| (trace, words))
        })
        .collect();
    let mut lookup_ns = Vec::new();
    let mut fill_ns = Vec::new();
    for _ in 0..probe.reps.max(1) {
        let slowdown = host::slowdown(probe.reference);
        let (mut l_ns, mut f_ns) = (0u64, 0u64);
        let (mut lookups, mut fills) = (0usize, 0usize);
        for (trace, words) in &traces {
            let mut dtb = sut::dtb_new(config);
            let mut missed = Vec::new();
            for &addr in trace {
                if !sut::dtb_lookup(&mut dtb, addr) {
                    sut::dtb_fill(&mut dtb, addr, &words[addr as usize]);
                    missed.push(addr);
                }
            }
            let mut empty = sut::dtb_new(config);
            timed(&mut f_ns, || {
                for &addr in &missed {
                    sut::dtb_fill(&mut empty, addr, &words[addr as usize]);
                }
            });
            timed(&mut l_ns, || {
                for &addr in trace {
                    black_box(sut::dtb_lookup(&mut dtb, addr));
                }
            });
            lookups += trace.len();
            fills += missed.len();
        }
        let scaled = |ns: u64| host::normalize(ns as f64, slowdown);
        lookup_ns.push(ratio(scaled(l_ns), lookups as f64));
        fill_ns.push(ratio(scaled(f_ns), fills as f64));
    }
    (stats::median(&lookup_ns), stats::median(&fill_ns))
}

/// Host ns of a fixed multiply loop, median of five: the host's clock
/// speed, which the reference kernel's contention-sensitive timing does
/// not separate out.
fn spin_ns() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 1u64;
            for _ in 0..(1 << 22) {
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// The fitted host-ns model of §7 and its prediction errors.
struct Model {
    d: f64,
    g: f64,
    x: f64,
    tau_d: f64,
    t1_error: f64,
    t2_error: f64,
    ordering_holds: bool,
}

/// Fits `d`, `g`, `x` and `τ_D` in host ns from the probes, predicts the
/// host's T1 (interpreter) and T2 (DTB at the hot and thrashing hit
/// ratios), and compares with the measured legs.
fn fit_model(
    decode: f64,
    translate: f64,
    psder: f64,
    lookup: f64,
    fill: f64,
    legs: [&Leg; 3],
) -> Model {
    let [interp, hot, thrash] = legs;
    let d = decode;
    let g = translate + fill;
    // psder::interp translates every instruction it executes; the rest is
    // semantic time.
    let x = (psder - translate).max(0.0);
    let tau_d = lookup;
    let t1 = d + x;
    let t2 = |leg: &Leg| {
        let miss = ratio(leg.misses as f64, leg.instrs as f64);
        tau_d + miss * (d + g) + x
    };
    let error = |predicted: f64, measured: f64| ratio((predicted - measured).abs(), measured);
    let predicted = [t1, t2(hot), t2(thrash)];
    let measured = [interp.ns_per_instr, hot.ns_per_instr, thrash.ns_per_instr];
    let order = |v: [f64; 3]| {
        let mut idx = [0usize, 1, 2];
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        idx
    };
    Model {
        d,
        g,
        x,
        tau_d,
        t1_error: error(t1, interp.ns_per_instr),
        t2_error: error(t2(hot), hot.ns_per_instr).max(error(t2(thrash), thrash.ns_per_instr)),
        ordering_holds: order(predicted) == order(measured),
    }
}

/// The per-layer metrics of a traced run of `workload`.
pub fn per_layer(
    workload: Workload,
    ledger: &Ledger,
    tracer: &Tracer,
    reps: usize,
    checks: &mut Checks,
) -> Vec<Metric> {
    let scheme = workload.scheme();
    let mix = &ledger.mix;
    let reference = workload.reference();
    let compile = compile_probe(&ledger.sources, scheme, reference, checks);
    let probe = Probe { reps, reference };

    let interp = leg(mix, &Mode::Interpreter, probe, checks);
    let hot = leg(
        mix,
        &Mode::Dtb(DtbConfig::with_capacity(HOT_ENTRIES)),
        probe,
        checks,
    );
    let thrash = leg(
        mix,
        &Mode::Dtb(DtbConfig::with_capacity(THRASH_ENTRIES)),
        probe,
        checks,
    );
    let psder = executor_ns(mix, probe, checks, sut::psder_interp);
    let exec = executor_ns(mix, probe, checks, sut::dir_exec);
    let decode = decode_ns(mix, DecodeMode::Table, probe, checks);
    let decode_tree = decode_ns(mix, DecodeMode::Tree, probe, checks);
    let translate = translate_ns(mix, probe);
    let (lookup, fill) = replay(mix, workload.dtb_entries(), probe, checks);
    let model = fit_model(
        decode,
        translate,
        psder,
        lookup,
        fill,
        [&interp, &hot, &thrash],
    );
    let miss_ns = ratio(
        (thrash.ns_per_instr - hot.ns_per_instr) * thrash.instrs as f64,
        thrash.misses.saturating_sub(hot.misses) as f64,
    );

    let timed = ledger.timed_ns as f64;
    let self_ns = tracer.self_ns(ledger.timed_spans.clone());
    let share = |name: &str| ratio(self_ns.get(name).copied().unwrap_or(0) as f64, timed);
    let coverage = self_ns
        .iter()
        .filter(|(name, _)| name.contains('.'))
        .map(|(_, &ns)| ns as f64)
        .sum::<f64>();
    let spans = ledger.timed_spans.len() as f64;

    let m = &ledger.modeled;
    let per_instr = |v: u64| ratio(v as f64, m.instrs as f64);
    let s = &ledger.service;
    let steps = s.steps as f64;
    let worker_ns: Vec<f64> = s
        .worker
        .iter()
        .map(|l| ledger.scaled(l.ns, l.round))
        .collect();
    let worker_us = stats::median(&worker_ns) / 1e3;

    let [hlr_us, dir_us, encode_us, verify_us, bound_us, load_us, freeze_us] = compile.us;
    vec![
        Metric::new("hlr.compile.us_per_call", hlr_us, "us"),
        Metric::new("hlr.compile.share", share("hlr.compile"), "share"),
        Metric::new("dir.compile.us_per_call", dir_us, "us"),
        Metric::new("dir.compile.share", share("dir.compile"), "share"),
        Metric::new("dir.compile.code_len", compile.code_len, "instrs"),
        Metric::new("dir.encode.us_per_call", encode_us, "us"),
        Metric::new("dir.encode.share", share("dir.encode"), "share"),
        Metric::new(
            "dir.encode.bits_per_instr",
            compile.bits_per_instr,
            "bits/instr",
        ),
        Metric::new("analyze.verify.us_per_call", verify_us, "us"),
        Metric::new("analyze.verify.share", share("analyze.verify"), "share"),
        Metric::new("analyze.verify.rejected", compile.rejected as f64, "count"),
        Metric::new("analyze.bound.us_per_call", bound_us, "us"),
        Metric::new("uhm.load.us_per_call", load_us, "us"),
        Metric::new("uhm.load.share", share("uhm.load"), "share"),
        Metric::new("psder.freeze.us_per_call", freeze_us, "us"),
        Metric::new("uhm.run.share", share("uhm.run"), "share"),
        Metric::new("uhm.run.interp_ns_per_instr", interp.ns_per_instr, "ns"),
        Metric::new("uhm.run.hot_ns_per_instr", hot.ns_per_instr, "ns"),
        Metric::new("uhm.run.thrash_ns_per_instr", thrash.ns_per_instr, "ns"),
        Metric::new("psder.interp.ns_per_instr", psder, "ns"),
        Metric::new("dir.exec.ns_per_instr", exec, "ns"),
        Metric::new(
            "uhm.dispatch.ns_per_instr",
            hot.ns_per_instr - model.x,
            "ns",
        ),
        Metric::new(
            "uhm.fetch_decode.ns_per_instr",
            interp.ns_per_instr - hot.ns_per_instr,
            "ns",
        ),
        Metric::new("uhm.miss.ns_per_miss", miss_ns, "ns"),
        Metric::new("dir.decode.ns_per_instr", decode, "ns"),
        Metric::new("dir.decode_tree.ns_per_instr", decode_tree, "ns"),
        Metric::new("psder.translate.ns_per_instr", translate, "ns"),
        Metric::new("uhm.dtb.lookup_ns", lookup, "ns"),
        Metric::new("uhm.dtb.fill_ns", fill, "ns"),
        Metric::new(
            "uhm.dtb.hit_ratio",
            ratio(m.dtb_hits as f64, (m.dtb_hits + m.dtb_misses) as f64),
            "ratio",
        ),
        Metric::new(
            "uhm.dtb.misses_per_kinstr",
            per_instr(m.dtb_misses) * 1e3,
            "1/kinstr",
        ),
        Metric::new(
            "uhm.dtb.evictions_per_kinstr",
            per_instr(m.dtb_evictions) * 1e3,
            "1/kinstr",
        ),
        Metric::new("uhm.decoded_per_instr", per_instr(m.decoded), "1/instr"),
        Metric::new(
            "psder.routine_words_per_instr",
            per_instr(m.routine_words),
            "words/instr",
        ),
        Metric::new(
            "psder.short_words_per_instr",
            per_instr(m.short_words),
            "words/instr",
        ),
        Metric::new("uhm.service.share", share("uhm.service.run_at"), "share"),
        Metric::new(
            "uhm.service.frontend_share",
            ratio(
                s.run_at_ns.saturating_sub(s.pool_wall_ns) as f64,
                s.run_at_ns as f64,
            ),
            "share",
        ),
        Metric::new(
            "uhm.service.probe_runs_per_step",
            ratio(s.probe_runs as f64, steps),
            "count",
        ),
        Metric::new(
            "uhm.pool.busy_share",
            ratio(s.busy_ns as f64, s.capacity_ns as f64),
            "share",
        ),
        Metric::new("uhm.pool.imbalance", stats::median(&s.imbalance), "ratio"),
        Metric::new("uhm.pool.us_per_request", worker_us, "us"),
        Metric::new(
            "uhm.service.queue_wait_p50_cycles",
            stats::median(&s.wait_cycles),
            "cycles",
        ),
        Metric::new(
            "uhm.service.queue_peak",
            s.queue_peak.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        Metric::new(
            "uhm.service.shed_per_step",
            ratio(s.shed as f64, s.modeled_steps as f64),
            "count",
        ),
        Metric::new("uhm.service.rejected", s.rejected as f64, "count"),
        Metric::new("model.d_ns", model.d, "ns"),
        Metric::new("model.g_ns", model.g, "ns"),
        Metric::new("model.x_ns", model.x, "ns"),
        Metric::new("model.tau_d_ns", model.tau_d, "ns"),
        Metric::new("model.t1_pred_error", model.t1_error, "ratio"),
        Metric::new("model.t2_pred_error", model.t2_error, "ratio"),
        Metric::new(
            "model.ordering_holds",
            f64::from(u8::from(model.ordering_holds)),
            "bool",
        ),
        Metric::new("trace.coverage", ratio(coverage, timed), "share"),
        Metric::new(
            "trace.overhead_pct",
            ratio(spans * Tracer::cost_per_span_ns() * 100.0, timed),
            "%",
        ),
        Metric::new("host.spin_ns", spin_ns(), "ns"),
        Metric::new(
            "host.slowdown",
            stats::median(
                &(0..5)
                    .map(|_| host::slowdown(reference))
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        Metric::new(
            "host.nproc",
            std::thread::available_parallelism().map_or(1, usize::from) as f64,
            "count",
        ),
    ]
}
