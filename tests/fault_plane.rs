//! Fault-plane integration tests: the zero-rate differential guarantee
//! (an attached-but-inert injector is byte-for-byte invisible), recovery
//! of injected DTB corruption across the sample corpus, graceful
//! degradation to pure interpretation, and the no-panic guarantee under
//! aggressive injection of every fault class.

use dir::encode::SchemeKind;
use dir::exec::Trap;
use profile::CounterPlane;
use telemetry::{FaultKind, NullSink, RingSink};
use uhm::{
    CostModel, DtbConfig, FaultConfig, FaultStats, Limits, Machine, Mode, Report, RetryPolicy,
    RunOptions,
};

fn sample_programs() -> Vec<(&'static str, dir::Program)> {
    hlr::programs::ALL
        .iter()
        .map(|s| {
            (
                s.name,
                dir::compiler::compile(&s.compile().expect("samples compile")),
            )
        })
        .collect()
}

fn bounded(program: &dir::Program, scheme: SchemeKind) -> Machine {
    // Corrupted control flow can loop: bound every faulty run.
    let limits = Limits {
        max_steps: 2_000_000,
        ..Limits::default()
    };
    Machine::with(program, scheme, CostModel::default(), limits)
}

/// Run options with the fault plane attached.
fn faulty(faults: FaultConfig) -> RunOptions {
    RunOptions {
        faults: Some(faults),
        ..RunOptions::default()
    }
}

/// Runs `m` on a 64-entry DTB with `faults` and the fault-recovery
/// policy `retry`.
fn run_dtb64(m: &Machine, faults: FaultConfig, retry: RetryPolicy) -> Result<Report, Trap> {
    let opts = RunOptions {
        retry,
        ..faulty(faults)
    };
    m.run_with(
        &Mode::Dtb(DtbConfig::with_capacity(64)),
        &mut NullSink,
        opts,
    )
}

/// All execution levels agree at zero fault rate: HLR evaluation, DIR
/// execution, and the DTB machine with an inert fault plane attached
/// produce identical output.
#[test]
fn levels_agree_with_an_inert_fault_plane() {
    for s in hlr::programs::ALL {
        let hir = s.compile().unwrap();
        let program = dir::compiler::compile(&hir);
        let reference = hlr::eval::run(&hir).expect("samples are trap-free");
        assert_eq!(dir::exec::run(&program).unwrap(), reference, "{}", s.name);
        let m = Machine::new(&program, SchemeKind::Huffman);
        let r = run_dtb64(&m, FaultConfig::inert(7), RetryPolicy::default()).unwrap();
        assert_eq!(r.output, reference, "{}", s.name);
    }
}

/// A zero-rate injector is byte-for-byte inert: output and every metric
/// of the run match a machine with no fault plane at all, in every mode.
/// In the DTB modes the two runs take the machine's two step functions
/// (with and without the fault plane), so a counter plane attached to
/// each must also attribute every retire and cycle identically.
#[test]
fn zero_rate_injection_is_invisible() {
    for (name, program) in sample_programs() {
        for mode in [
            Mode::Interpreter,
            Mode::Dtb(DtbConfig::with_capacity(64)),
            Mode::ICache {
                geometry: memsim::Geometry::new(16, 4),
            },
            Mode::TwoLevelDtb {
                l1: DtbConfig::with_capacity(8),
                l2: DtbConfig::with_capacity(256),
            },
        ] {
            let m = Machine::new(&program, SchemeKind::Huffman);
            let inert = || faulty(FaultConfig::inert(0xDEAD));
            let same = |clean: Report, inert: Report| {
                assert_eq!(inert.output, clean.output, "{name} {mode:?}");
                let mut metrics = inert.metrics;
                assert_eq!(
                    metrics.faults.take(),
                    Some(FaultStats::default()),
                    "{name} {mode:?}"
                );
                assert_eq!(metrics, clean.metrics, "{name} {mode:?}");
            };
            same(
                m.run(&mode).unwrap(),
                m.run_with(&mode, &mut NullSink, inert()).unwrap(),
            );
            let mut clean_plane = CounterPlane::new(&program);
            let clean = m
                .run_with(&mode, &mut clean_plane, RunOptions::default())
                .unwrap();
            let mut inert_plane = CounterPlane::new(&program);
            same(clean, m.run_with(&mode, &mut inert_plane, inert()).unwrap());
            assert_eq!(
                inert_plane.to_json().render(),
                clean_plane.to_json().render(),
                "{name} {mode:?}: the counter plane attributed differently"
            );
        }
    }
}

/// DTB corruption (buffer words and poisoned tags) is always detected
/// and recovered: every sample completes with the reference output, and
/// the corpus as a whole exercises the recovery path, on a single DTB
/// and on a two-level one, whose first-level lines are stamped from
/// promoted translations too.
#[test]
fn dtb_corruption_recovers_across_the_corpus() {
    let modes = [
        Mode::Dtb(DtbConfig::with_capacity(64)),
        Mode::TwoLevelDtb {
            l1: DtbConfig::with_capacity(8),
            l2: DtbConfig::with_capacity(256),
        },
    ];
    for mode in modes {
        let (mut recoveries, mut promote_cycles) = (0, 0);
        for (name, program) in sample_programs() {
            let want = dir::exec::run(&program).unwrap();
            for kind in [FaultKind::DtbWord, FaultKind::DtbTag] {
                let m = bounded(&program, SchemeKind::Huffman);
                let faults = FaultConfig::only(0xFA14, kind, 1e-3);
                let r = m
                    .run_with(&mode, &mut NullSink, faulty(faults))
                    .unwrap_or_else(|t| panic!("{name} under {kind:?}, {mode:?}: {t}"));
                assert_eq!(r.output, want, "{name} under {kind:?}, {mode:?}");
                recoveries += r.metrics.recoveries;
                promote_cycles += r.metrics.cycles.promote;
            }
        }
        assert!(
            recoveries > 0,
            "{mode:?}: the corpus never exercised the recovery path"
        );
        if let Mode::TwoLevelDtb { .. } = mode {
            assert!(promote_cycles > 0, "the corpus never promoted");
        }
    }
}

/// Machine recovery counters are corroborated by telemetry: the event
/// totals from an attached sink agree with the metrics.
#[test]
fn telemetry_corroborates_recovery_counts() {
    let program = dir::compiler::compile(&hlr::programs::SIEVE.compile().unwrap());
    let m = bounded(&program, SchemeKind::Huffman);
    let opts = faulty(FaultConfig::only(0xFA14, FaultKind::DtbWord, 1e-2));
    let mut ring = RingSink::new(8192);
    let r = m
        .run_with(&Mode::Dtb(DtbConfig::with_capacity(64)), &mut ring, opts)
        .unwrap();
    let counts = ring.counts();
    let faults = r.metrics.faults.unwrap();
    assert!(faults.dtb_words_corrupted > 0, "nothing was injected");
    assert_eq!(counts.faults_injected, faults.total());
    assert_eq!(counts.recovery_misses, r.metrics.recoveries);
    assert!(r.metrics.recoveries > 0);
}

/// Constant corruption with a tight retry policy degrades hot addresses
/// to pure interpretation — and the output is still correct.
#[test]
fn degradation_preserves_semantics() {
    let program = dir::compiler::compile(&hlr::programs::FIB_ITER.compile().unwrap());
    let want = dir::exec::run(&program).unwrap();
    let m = bounded(&program, SchemeKind::Packed);
    let retry = RetryPolicy {
        degrade_after: 1,
        max_fetch_retries: 8,
    };
    let r = run_dtb64(&m, FaultConfig::only(3, FaultKind::DtbWord, 1.0), retry).unwrap();
    assert_eq!(r.output, want);
    assert!(r.metrics.degraded_instructions > 0);
    assert!(r.metrics.recoveries > 0);
}

/// Aggressive injection of every class at once: runs either complete or
/// end in a typed trap — never a panic. DIR corruption is terminal by
/// design, so traps are expected outcomes here.
#[test]
fn aggressive_injection_never_panics() {
    for (name, program) in sample_programs() {
        for seed in 0..4u64 {
            let config = FaultConfig {
                dir_bit_rate: 0.05,
                dtb_word_rate: 0.05,
                dtb_tag_rate: 0.05,
                drop_fetch_rate: 0.2,
                ..FaultConfig::inert(seed)
            };
            let limits = Limits {
                max_steps: 500_000,
                ..Limits::default()
            };
            let m = Machine::with(&program, SchemeKind::Huffman, CostModel::default(), limits);
            match run_dtb64(&m, config, RetryPolicy::default()) {
                Ok(_) => {}
                Err(trap) => {
                    // Any typed trap is acceptable; reaching here at all
                    // means no panic escaped the machine.
                    let _ = format!("{name} seed {seed}: {trap}");
                }
            }
        }
    }
}

/// Dropped fetches past the retry budget surface as the typed
/// `FetchFailed` trap rather than spinning forever.
#[test]
fn exhausted_fetch_retries_trap() {
    let program = dir::compiler::compile(&hlr::programs::FIB_ITER.compile().unwrap());
    let m = bounded(&program, SchemeKind::Huffman);
    let retry = RetryPolicy {
        degrade_after: 3,
        max_fetch_retries: 2,
    };
    let err = run_dtb64(&m, FaultConfig::only(1, FaultKind::FetchDrop, 1.0), retry).unwrap_err();
    assert!(matches!(err, Trap::FetchFailed { .. }), "got {err}");
}
