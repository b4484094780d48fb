//! # uhm-analyze — load-time whole-image static verification
//!
//! Rau's architecture trusts the static DIR image: a damaged codebook, an
//! unbalanced stack sequence or a stray branch only surfaces as a runtime
//! trap deep inside the DTB dispatch loop. This crate is the classic
//! answer — JVM-style load-time verification — for the UHM pipeline: prove
//! the invariants **once, statically, before execution**, and refuse to
//! load an image that fails them. Execution stays fully checked: a proof
//! gates what may run, it never switches a runtime check off.
//!
//! The passes split in two around one shared prefix, the **load proof**:
//!
//! 1. **Codec validation** — decoder-side tables (canonical-Huffman
//!    codebooks, field widths, context regions, offset index) are checked
//!    structurally, and the image is decoded once against the program it
//!    claims to encode ([`dir::encode::Image::validate_codec`]).
//! 2. **Abstract interpretation** — per-region operand-stack depth bounds,
//!    locals-initialized-before-use, branch containment, slot ranges and
//!    callee indices ([`absint`]).
//!
//! These are the only passes that can emit an error, and they are all
//! [`verify`] runs. [`analyze`] runs the same prefix, then the analysis
//! passes, which report warnings, notes and analysis output only:
//!
//! 3. **Call graph** — whole-program reachability, recursion and the
//!    maximum call chain ([`callgraph`]).
//! 4. **DTB pressure** — a static translation working-set bound per region
//!    and per loop body, with a recommended DTB geometry ([`pressure`]).
//! 5. **Interprocedural dataflow** — interval value ranges and constant
//!    propagation over each region's CFG, joined across call edges via
//!    argument/return summaries, discharging *per-site* facts (divisor
//!    nonzero, index in bounds, decided branches, unreachable code) into
//!    a [`SiteFacts`] bitmap ([`dataflow`]). Facts are only computed for
//!    images the load proof accepts.
//! 6. **Region formation** — natural-loop detection with nesting depths,
//!    ranking hot-region candidates and their fact coverage
//!    ([`regionform`]).
//!
//! No load pass rechecks the PSDER level: the stack balance of the
//! translation templates and semantic routines, and its agreement with the
//! abstract stack model, are properties of the instruction set, proved once
//! by a seeded test over every decodable instruction shape
//! (`psder::verify::check_all`).
//!
//! [`verify`] turns a clean load proof into a [`Verified`] witness, the
//! only way to construct a `uhm::Machine` through `Machine::load`. The
//! witness owns the image and the program it was proved against, so a
//! loaded machine always runs the exact code that was proved. When it
//! rejects, `verify` returns exactly the report [`analyze`] would.
//!
//! ```
//! use dir::encode::SchemeKind;
//!
//! let hir = hlr::compile("proc main() begin write 40 + 2; end")?;
//! let program = dir::compiler::compile(&hir);
//! let image = SchemeKind::Huffman.encode(&program);
//! let verified = analyze::verify(&program, image).expect("clean program");
//! let output = dir::exec::run(verified.program())?;
//! assert_eq!(output, vec![42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod pressure;
pub mod regionform;
pub mod report;

pub use absint::RegionSummary;
pub use callgraph::CallGraph;
pub use dataflow::{FactsReport, Interval, RegionFacts};
pub use diag::{DiagCode, Diagnostic, Severity};
pub use pressure::{bound, HotSpan, PressureReport, RegionPressure, DEFAULT_DTB_ENTRIES};
pub use regionform::RegionCandidate;
pub use report::AnalysisReport;

use dir::encode::Image;
use dir::facts::SiteFacts;
use dir::program::Program;

/// What the load proof (passes 1–2) found: every error an image can
/// carry, plus the abstract interpreter's per-region summaries.
struct Proof {
    diags: Vec<Diagnostic>,
    regions: Vec<RegionSummary>,
}

impl Proof {
    fn is_clean(&self) -> bool {
        !self.diags.iter().any(|d| d.severity() == Severity::Error)
    }
}

/// Passes 1–2, the prefix [`verify`] and [`analyze`] share.
fn prove(program: &Program, image: &Image) -> Proof {
    let mut diags = Vec::new();

    // Pass 1: codec validation, then one full decode pinned against the
    // program — the witness-soundness linchpin: everything later is proved
    // about `program.code`, so the image must actually *be* that program.
    for issue in image.validate_codec() {
        diags.push(Diagnostic::global(DiagCode::CodecDefect, issue.to_string()));
    }
    // Only decode through tables that validated — the decoder assumes
    // structurally sound tables (that assumption is what this pass exists
    // to discharge up front).
    if diags.is_empty() {
        match image.decode_all() {
            Ok(code) if code == program.code => {}
            Ok(_) => diags.push(Diagnostic::global(
                DiagCode::ImageMismatch,
                "image decodes to a different instruction sequence than the program".to_string(),
            )),
            Err(e) => diags.push(Diagnostic::global(
                DiagCode::ImageUndecodable,
                format!("image fails to decode: {e}"),
            )),
        }
    }

    // Pass 2: abstract interpretation.
    let regions = absint::analyze_regions(program, &mut diags);
    Proof { diags, regions }
}

/// Passes 3–6 over a load proof, completing the report.
fn finish(program: &Program, image: &Image, proof: Proof) -> AnalysisReport {
    let clean = proof.is_clean();
    let Proof { mut diags, regions } = proof;

    // Pass 3: call graph.
    let callgraph = callgraph::build(program, &mut diags);

    // Pass 4: DTB pressure.
    let pressure = pressure::estimate(program, &mut diags);

    // Pass 5: interprocedural dataflow. Facts are only discharged for
    // images the load proof accepts — everything the pass assumes (depth
    // consistency, slot ranges, branch containment, decode pinning) is
    // exactly what passes 1–2 prove.
    let (site_facts, facts) = if clean {
        dataflow::analyze(program, &mut diags)
    } else {
        (
            SiteFacts::empty(program.code.len() as u32),
            FactsReport::default(),
        )
    };

    // Pass 6: loop-nesting region formation over the discharged facts.
    let hot_regions = regionform::form(program, &site_facts);

    AnalysisReport {
        scheme: image.kind.label().to_string(),
        insts: program.code.len(),
        regions,
        callgraph,
        pressure,
        site_facts,
        facts,
        hot_regions,
        diagnostics: diags,
    }
}

/// Runs the load proof and all four analysis passes over `image` and the
/// `program` it claims to encode, returning the full typed report (never
/// failing: defects are diagnostics, not errors).
pub fn analyze(program: &Program, image: &Image) -> AnalysisReport {
    finish(program, image, prove(program, image))
}

/// Proof that an image passed load-time verification, together with the
/// program it was proved against. The only constructor is [`verify`]; the
/// pair cannot be taken apart and reassembled, so a machine loaded from a
/// witness always runs the exact code that was proved.
#[derive(Debug, Clone)]
pub struct Verified<T> {
    value: T,
    program: Program,
}

impl<T> Verified<T> {
    /// The verified value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// The program the proofs are about.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// Verifies `image` against `program`: runs the load proof (passes 1–2)
/// and returns the witness when no finding is an error.
///
/// # Errors
///
/// Returns the full report (boxed — it is large), exactly the one
/// [`analyze`] returns, when any error-severity diagnostic was found;
/// warnings and notes do not block.
pub fn verify(program: &Program, image: Image) -> Result<Verified<Image>, Box<AnalysisReport>> {
    let proof = prove(program, &image);
    if proof.is_clean() {
        Ok(Verified {
            value: image,
            program: program.clone(),
        })
    } else {
        Err(Box::new(finish(program, &image, proof)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dir::encode::SchemeKind;

    fn program(src: &str) -> Program {
        dir::compiler::compile(&hlr::compile(src).unwrap())
    }

    #[test]
    fn corpus_verifies_clean_under_every_scheme() {
        for s in hlr::programs::ALL {
            let p = dir::compiler::compile(&s.compile().unwrap());
            for kind in SchemeKind::all() {
                let report = analyze(&p, &kind.encode(&p));
                assert!(
                    report.is_clean(),
                    "{} under {kind}: {}",
                    s.name,
                    report.render()
                );
            }
            let (fused, _) = dir::fuse::fuse(&p);
            let report = analyze(&fused, &SchemeKind::PairHuffman.encode(&fused));
            assert!(report.is_clean(), "{} fused: {}", s.name, report.render());
        }
    }

    /// The abstract stack model, the PSDER effect table and the
    /// translation templates agree on every decodable instruction shape:
    /// every opcode, every ALU op in every `Alu` field, random operands and
    /// fall-through addresses. This is why no load pass rechecks them.
    #[test]
    fn stack_model_matches_the_psder_level_on_every_instruction() {
        use psder::verify::{expected_effect, isa_sample, sequence_effect};
        let lib = psder::routines::RoutineLib::new();
        let mut rng = hlr::rng::Rng::new(0x15A_BA1A);
        let sample = isa_sample(8, || rng.next_u64());
        let opcodes: std::collections::BTreeSet<u8> =
            sample.iter().map(|(i, _)| i.opcode() as u8).collect();
        assert_eq!(opcodes.len(), dir::isa::OPCODE_COUNT);
        for (inst, next) in sample {
            let psder_net = expected_effect(inst);
            let sequence = psder::Template::new(inst, next);
            assert_eq!(sequence_effect(&lib, &sequence), psder_net, "{inst:?}");
            // `Call` and `Return` are frame-mediated: absint models them
            // with procedure metadata, not with this table.
            if let Some((pops, pushes)) = absint::basic_effect(&inst) {
                assert_eq!(pushes as i32 - pops as i32, psder_net, "{inst:?}");
            }
        }
    }

    #[test]
    fn witness_carries_the_proved_program() {
        let p = program("proc main() begin write 7; end");
        let v = verify(&p, SchemeKind::ByteAligned.encode(&p)).unwrap();
        assert_eq!(v.program().code, p.code);
        assert_eq!(v.get().kind, SchemeKind::ByteAligned);
    }

    #[test]
    fn mismatched_image_is_rejected() {
        let p = program("proc main() begin write 7; end");
        let other = program("proc main() begin write 8; end");
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&other));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ImageMismatch));
        assert!(!report.is_clean());
    }

    #[test]
    fn corrupt_codebooks_are_rejected_with_codec_codes() {
        let p = program("proc main() begin int i; for i := 0 to 9 do write i; end");
        for image in [
            dir::encode::fixtures::truncated_codebook(&p),
            dir::encode::fixtures::conflicting_codebook(&p),
            dir::encode::fixtures::oversized_field_width(&p),
        ] {
            let report = analyze(&p, &image);
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.code == DiagCode::CodecDefect),
                "{}",
                report.render()
            );
            assert!(verify(&p, image).is_err());
        }
    }

    #[test]
    fn recursion_and_reachability_are_reported() {
        let p = program(
            "proc fac(int n) -> int begin
                if n <= 1 then return 1;
                return n * fac(n - 1);
             end
             proc dead() begin skip; end
             proc main() begin write fac(5); end",
        );
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::RecursionDetected));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::UnreachableProcedure && d.message.contains("dead")));
        assert!(report.callgraph.max_chain.is_none());
        // Warnings and notes do not block verification.
        assert!(report.is_clean());
    }

    #[test]
    fn acyclic_call_chains_are_measured() {
        let p = program(
            "proc leaf() -> int begin return 1; end
             proc mid() -> int begin return leaf() + 1; end
             proc main() begin write mid(); end",
        );
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        assert_eq!(report.callgraph.max_chain, Some(3)); // main -> mid -> leaf
    }

    #[test]
    fn bound_matches_the_pressure_pass_without_diagnostics() {
        let p = program(
            "proc main() begin
                int i; int acc;
                for i := 0 to 99 do acc := acc + i;
                write acc;
             end",
        );
        let full = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        let admission = bound(&p);
        assert_eq!(admission, full.pressure);
        assert!(admission.total_words > 0);
    }

    #[test]
    fn pressure_pass_finds_the_loop() {
        let p = program(
            "proc main() begin
                int i; int acc;
                for i := 0 to 99 do acc := acc + i;
                write acc;
             end",
        );
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        let hot = report.pressure.hot.as_ref().unwrap();
        assert!(hot.is_loop, "{hot:?}");
        assert!(hot.insts >= 2);
        assert!(report.pressure.fits_default);
        assert!(report.pressure.recommended.capacity() >= hot.insts as usize);
    }

    #[test]
    fn hand_built_stack_underflow_is_rejected() {
        use dir::isa::Inst;
        use dir::program::ProcInfo;
        let p = Program {
            code: vec![
                Inst::Call(0),
                Inst::Halt,
                Inst::Pop, // nothing on the stack
                Inst::Return,
            ],
            procs: vec![ProcInfo {
                name: "main".into(),
                entry: 2,
                end: 4,
                n_args: 0,
                frame_size: 0,
                returns_value: false,
            }],
            entry_proc: 0,
            globals_size: 0,
        };
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::StackUnderflow && d.at == Some(2)));
    }

    #[test]
    fn hand_built_cross_region_jump_is_rejected() {
        use dir::isa::Inst;
        use dir::program::ProcInfo;
        let p = Program {
            code: vec![
                Inst::Call(0),
                Inst::Halt,
                Inst::Jump(0), // escapes into the prelude
                Inst::Return,
            ],
            procs: vec![ProcInfo {
                name: "main".into(),
                entry: 2,
                end: 4,
                n_args: 0,
                frame_size: 0,
                returns_value: false,
            }],
            entry_proc: 0,
            globals_size: 0,
        };
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::JumpCrossesProcedure));
    }

    #[test]
    fn uninitialized_local_read_is_an_error_when_never_stored() {
        use dir::isa::Inst;
        use dir::program::ProcInfo;
        let p = Program {
            code: vec![
                Inst::Call(0),
                Inst::Halt,
                Inst::PushLocal(0), // read, never stored in the region
                Inst::Write,
                Inst::Return,
            ],
            procs: vec![ProcInfo {
                name: "main".into(),
                entry: 2,
                end: 5,
                n_args: 0,
                frame_size: 1,
                returns_value: false,
            }],
            entry_proc: 0,
            globals_size: 0,
        };
        let report = analyze(&p, &SchemeKind::ByteAligned.encode(&p));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::UninitializedLocal && d.at == Some(2)));
    }
}
