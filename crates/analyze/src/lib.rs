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
//! [`analyze`] runs six passes over an encoded [`Image`] and its
//! [`Program`]:
//!
//! 1. **Codec validation** — decoder-side tables (canonical-Huffman
//!    codebooks, field widths, context regions, offset index) are checked
//!    structurally, and the image is decoded once against the program it
//!    claims to encode ([`dir::encode::Image::validate_codec`]).
//! 2. **Abstract interpretation** — per-region operand-stack depth bounds,
//!    locals-initialized-before-use, branch containment and slot ranges
//!    ([`absint`]), plus the whole-program call graph with reachability
//!    and recursion facts ([`callgraph`]).
//! 3. **Cross-level consistency** — every opcode the program contains is
//!    rechecked against the PSDER translation templates and the semantic
//!    routine library ([`psder::verify::check_program`]).
//! 4. **DTB pressure** — a static translation working-set bound per region
//!    and per loop body, with a recommended DTB geometry ([`pressure`]).
//! 5. **Interprocedural dataflow** — interval value ranges and constant
//!    propagation over each region's CFG, joined across call edges via
//!    argument/return summaries, discharging *per-site* facts (divisor
//!    nonzero, index in bounds, decided branches, unreachable code) into
//!    a [`SiteFacts`] bitmap ([`dataflow`]). Facts are only computed for
//!    images that are clean after passes 1–4.
//! 6. **Region formation** — natural-loop detection with nesting depths,
//!    ranking hot-region candidates and their fact coverage
//!    ([`regionform`]).
//!
//! [`verify`] turns a clean analysis into a [`Verified`] witness, the only
//! way to construct a `uhm::Machine` through `Machine::load`. The witness
//! owns the image, the program it was proved against, *and* the per-site
//! fact bitmap, so a loaded machine always runs the exact code that was
//! proved, and the facts always describe that code.
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

mod consistency;

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

/// Runs all six analysis passes over `image` and the `program` it claims
/// to encode, returning the full typed report (never failing: defects are
/// diagnostics, not errors).
pub fn analyze(program: &Program, image: &Image) -> AnalysisReport {
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

    // Pass 2: abstract interpretation + call graph.
    let regions = absint::analyze_regions(program, &mut diags);
    let callgraph = callgraph::build(program, &mut diags);

    // Pass 3: cross-level consistency.
    consistency::check(program, &mut diags);

    // Pass 4: DTB pressure.
    let pressure = pressure::estimate(program, &mut diags);

    // Pass 5: interprocedural dataflow. Facts are only discharged for
    // images that are clean so far — everything the pass assumes (depth
    // consistency, slot ranges, branch containment, decode pinning) is
    // exactly what passes 1–4 prove.
    let clean_so_far = !diags.iter().any(|d| d.severity() == Severity::Error);
    let (site_facts, facts) = if clean_so_far {
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

/// Proof that an image passed whole-image verification, together with the
/// program it was proved against. The only constructor is [`verify`]; the
/// pair cannot be taken apart and reassembled, so a machine loaded from a
/// witness always runs the exact code that was proved.
#[derive(Debug, Clone)]
pub struct Verified<T> {
    value: T,
    program: Program,
    facts: SiteFacts,
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

    /// The per-site fact bitmap the dataflow pass discharged. It is
    /// analysis output and the input of the soundness auditor
    /// (`dir::exec::run_audit_with`); no executor skips a check on it.
    pub fn facts(&self) -> &SiteFacts {
        &self.facts
    }
}

/// Verifies `image` against `program`: runs [`analyze`] and returns the
/// witness when no finding is an error.
///
/// # Errors
///
/// Returns the full report (boxed — it is large) when any error-severity
/// diagnostic was found; warnings and notes do not block.
pub fn verify(program: &Program, image: Image) -> Result<Verified<Image>, Box<AnalysisReport>> {
    let report = analyze(program, &image);
    if report.is_clean() {
        Ok(Verified {
            value: image,
            program: program.clone(),
            facts: report.site_facts,
        })
    } else {
        Err(Box::new(report))
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
