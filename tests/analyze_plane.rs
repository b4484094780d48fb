//! Analyze-plane integration tests: the load-time verifier accepts the
//! whole sample corpus under every encoding scheme, rejects each
//! known-bad fixture with the exact diagnostic code (and the checked
//! machine traps on each one, typed, if it runs anyway), a witness carries
//! exactly the program it proved, a machine loaded from a witness is
//! observably identical to an unverified one, the dataflow pass's
//! per-site facts survive a dynamic audit, and on bit-flipped (hostile)
//! images the verifier either rejects or admits only programs that never
//! trap as malformed and never panic the host — and `verify` accepts
//! exactly the images `analyze` calls clean.

use std::panic::{catch_unwind, AssertUnwindSafe};

use analyze::{DiagCode, Severity};
use dir::encode::{fixtures, Image, SchemeKind};
use dir::exec::Trap;
use dir::program::ProcInfo;
use uhm::{CostModel, DtbConfig, Machine, Mode};

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

/// Every compiler-produced image of every sample verifies clean under
/// every encoding scheme: no error-severity diagnostic anywhere.
#[test]
fn corpus_is_clean_under_every_scheme() {
    for (name, program) in sample_programs() {
        for scheme in SchemeKind::all() {
            let report = analyze::analyze(&program, &scheme.encode(&program));
            assert!(
                report.is_clean(),
                "{name} under {scheme}:\n{}",
                report.render()
            );
            assert_eq!(report.count(Severity::Error), 0, "{name} under {scheme}");
        }
    }
}

/// A minimal structurally well-formed program whose body starts with
/// `bad` — the vehicle for defects no compiler output contains.
fn bad_program(bad: dir::Inst) -> dir::Program {
    dir::Program {
        code: vec![
            dir::Inst::Call(0),
            dir::Inst::Halt,
            bad,
            dir::Inst::PushConst(0),
            dir::Inst::Pop,
            dir::Inst::Return,
        ],
        procs: vec![ProcInfo {
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

/// Each defect class is rejected with its own diagnostic code, and
/// `verify` refuses to mint a witness for it.
#[test]
fn negative_fixtures_carry_exact_diagnostic_codes() {
    let cases = [
        (DiagCode::StackUnderflow, bad_program(dir::Inst::Pop)),
        (DiagCode::JumpOutOfRange, bad_program(dir::Inst::Jump(999))),
        (
            DiagCode::UninitializedLocal,
            bad_program(dir::Inst::PushLocal(0)),
        ),
        (DiagCode::BadCallee, bad_program(dir::Inst::Call(7))),
    ];
    for (expect, program) in cases {
        let image = SchemeKind::ByteAligned.encode(&program);
        let report = analyze::analyze(&program, &image);
        assert!(
            report.diagnostics.iter().any(|d| d.code == expect),
            "expected {} in:\n{}",
            expect.id(),
            report.render()
        );
        assert!(!report.is_clean());
        assert!(analyze::verify(&program, image).is_err());
    }
}

/// The checked path is the safety net under the verifier: each fixture
/// the verifier rejects, run anyway on a machine built without a witness,
/// ends in a typed `Malformed` trap (or runs, for the warning-only
/// uninitialized read) and never panics the host.
#[test]
fn rejected_fixtures_trap_typed_on_an_unverified_machine() {
    let cases = [
        (dir::Inst::Pop, true),
        (dir::Inst::Jump(999), true),
        (dir::Inst::Call(7), true),
        (dir::Inst::PushLocal(0), false),
    ];
    for (bad, malformed) in cases {
        let machine = Machine::new(&bad_program(bad), SchemeKind::ByteAligned);
        for mode in [Mode::Interpreter, Mode::Dtb(DtbConfig::with_capacity(16))] {
            let run = catch_unwind(AssertUnwindSafe(|| machine.run(&mode)))
                .unwrap_or_else(|_| panic!("{bad:?} panicked the host under {mode:?}"));
            assert_eq!(
                matches!(run, Err(Trap::Malformed(_))),
                malformed,
                "{bad:?} under {mode:?}: {:?}",
                run.map(|r| r.output)
            );
        }
    }
}

/// Corrupted encoded images are stopped by the codec pass at load time —
/// before any decode attempt could turn them into a mid-run trap.
#[test]
fn corrupt_images_fail_the_codec_pass() {
    let program = sample_programs().remove(0).1;
    for image in [
        fixtures::truncated_codebook(&program),
        fixtures::conflicting_codebook(&program),
        fixtures::oversized_field_width(&program),
    ] {
        let report = analyze::analyze(&program, &image);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::CodecDefect));
        assert!(analyze::verify(&program, image).is_err());
    }
}

/// An image that decodes fine but encodes a *different* program is
/// rejected: a witness always pins the image to the proved program.
#[test]
fn witness_refuses_a_mismatched_image() {
    let programs = sample_programs();
    let (_, a) = &programs[0];
    let (_, b) = &programs[1];
    let report = analyze::analyze(a, &SchemeKind::Packed.encode(b));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::ImageMismatch));
    assert!(analyze::verify(a, SchemeKind::Packed.encode(b)).is_err());
}

/// The program a witness carries executes bit-identically, output and
/// stats, to the program it was proved from.
#[test]
fn verified_dir_execution_is_bit_identical() {
    for (name, program) in sample_programs() {
        let verified = analyze::verify(&program, SchemeKind::Huffman.encode(&program))
            .unwrap_or_else(|r| panic!("{name} verifies:\n{}", r.render()));
        let limits = dir::exec::Limits::default();
        let want = dir::exec::run_with(&program, limits, false).expect("corpus is trap-free");
        let got = dir::exec::run_with(verified.program(), limits, false).unwrap();
        assert_eq!(got, want, "{name}");
    }
}

/// A machine loaded from a witness runs every mode with output and
/// metrics equal to an unverified machine on the same program.
#[test]
fn verified_machine_is_observably_identical() {
    for (name, program) in sample_programs() {
        let verified = analyze::verify(&program, SchemeKind::Huffman.encode(&program)).unwrap();
        let loaded = Machine::load(&verified);
        let plain = Machine::new(&program, SchemeKind::Huffman);
        for mode in [
            Mode::Interpreter,
            Mode::Dtb(DtbConfig::with_capacity(64)),
            Mode::TwoLevelDtb {
                l1: DtbConfig::with_capacity(8),
                l2: DtbConfig::with_capacity(256),
            },
        ] {
            let a = loaded.run(&mode).unwrap();
            let b = plain.run(&mode).unwrap();
            assert_eq!(a.output, b.output, "{name} {mode:?}");
            assert_eq!(a.metrics, b.metrics, "{name} {mode:?}");
        }
    }
}

/// Audit mode evaluates the guard at every site the dataflow pass
/// discharged: no guard fires anywhere in the corpus, and the audited run
/// equals the checked run.
#[test]
fn audit_mode_finds_no_unsound_site() {
    for (name, program) in sample_programs() {
        let report = analyze::analyze(&program, &SchemeKind::ByteAligned.encode(&program));
        assert!(report.is_clean(), "{name}:\n{}", report.render());
        let limits = dir::exec::Limits::default();
        let checked = dir::exec::run_with(&program, limits, false);
        let (audited, verdict) =
            dir::exec::run_audit_with(&program, &report.site_facts, limits, false);
        assert!(
            verdict.is_sound(),
            "{name}: discharged guards fired: {verdict:?}"
        );
        assert_eq!(audited, checked, "{name}: dir audit");
    }
}

/// Flips `flips` seeded bits (not necessarily distinct) inside the
/// image's encoded stream.
fn flip_bits(image: &Image, rng: &mut hlr::rng::Rng, flips: u32) -> Image {
    let mut mutant = image.clone();
    for _ in 0..flips {
        let bit = rng.range_u64(0, image.bit_len.max(1));
        mutant.bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
    }
    mutant
}

/// What the pipeline made of one hostile image.
enum Verdict {
    /// The verifier refused it with an error diagnostic.
    Rejected,
    /// The verifier accepted it; the traps its three runs raised, and
    /// whether its code differs from the original program's.
    Ran { changed: bool, traps: Vec<Trap> },
}

/// Runs one hostile image through re-derivation, verification and, when
/// accepted, the DIR executor plus a loaded machine in interpreter and
/// 16-entry DTB modes, all under a small step limit. `verify` must accept
/// exactly when `analyze` is clean, and reject with `analyze`'s report.
fn judge(program: &dir::Program, mutant: Image) -> Verdict {
    const MAX_STEPS: u64 = 5_000;
    const MAX_DEPTH: u32 = 64;
    // Re-derive the program the hostile stream encodes. A stream that no
    // longer decodes is checked against the original program instead.
    let code: Result<Vec<_>, _> = (0..mutant.len() as u32)
        .map(|i| mutant.decode(i).map(|d| d.inst))
        .collect();
    let derived = match code {
        Ok(code) => dir::Program {
            code,
            ..program.clone()
        },
        Err(_) => program.clone(),
    };
    let analysis = analyze::analyze(&derived, &mutant);
    let verified = match analyze::verify(&derived, mutant) {
        Ok(v) => v,
        Err(report) => {
            assert!(
                report.count(Severity::Error) > 0,
                "rejection carries an error"
            );
            assert_eq!(*report, analysis, "verify's rejection is analyze's report");
            return Verdict::Rejected;
        }
    };
    assert!(
        analysis.is_clean(),
        "verify accepted an image analyze rejects"
    );
    let dir_limits = dir::exec::Limits {
        max_steps: MAX_STEPS,
        max_depth: MAX_DEPTH,
    };
    let mut traps: Vec<Trap> = dir::exec::run_with(&derived, dir_limits, false)
        .err()
        .into_iter()
        .collect();
    let machine_limits = uhm::Limits {
        max_steps: MAX_STEPS,
        max_depth: MAX_DEPTH,
    };
    let machine = Machine::load_with(&verified, CostModel::default(), machine_limits);
    for mode in [Mode::Interpreter, Mode::Dtb(DtbConfig::with_capacity(16))] {
        traps.extend(machine.run(&mode).err());
    }
    Verdict::Ran {
        changed: derived.code != program.code,
        traps,
    }
}

/// Mutation soundness: a hostile image (1–2 flipped stream bits) is
/// either rejected by the verifier with an error diagnostic, or the
/// program it decodes to runs on the DIR executor and on a loaded
/// machine without a `Trap::Malformed` and without panicking the host.
/// The split is pinned: 469 of the 816 seeded mutants are rejected. It
/// did not move when the cross-level consistency pass left the load path,
/// which is the evidence that pass never rejected anything image-specific.
#[test]
fn hostile_images_are_rejected_or_run_without_malformed_traps() {
    const MUTANTS_PER_IMAGE: usize = 8;
    let mut rng = hlr::rng::Rng::new(0x0005_AFE1);
    let (mut rejected, mut accepted, mut changed) = (0, 0, 0);
    for (name, program) in sample_programs() {
        for scheme in SchemeKind::all() {
            let image = scheme.encode(&program);
            for m in 0..MUTANTS_PER_IMAGE {
                let mutant = flip_bits(&image, &mut rng, 1 + (m % 2) as u32);
                let case = format!("{name} under {scheme}, mutant {m}");
                match catch_unwind(AssertUnwindSafe(|| judge(&program, mutant))) {
                    Err(_) => panic!("{case}: host panicked"),
                    Ok(Verdict::Rejected) => rejected += 1,
                    Ok(Verdict::Ran { changed: c, traps }) => {
                        accepted += 1;
                        changed += usize::from(c);
                        for trap in traps {
                            assert!(
                                !matches!(trap, Trap::Malformed(_)),
                                "{case}: verifier accepted an image that traps: {trap}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        (rejected, accepted),
        (469, 347),
        "hostile-image split moved"
    );
    // The property is only meaningful when accepted mutants ran new code.
    assert!(changed > 0, "no accepted mutant decoded to different code");
}
