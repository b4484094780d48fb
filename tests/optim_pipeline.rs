//! Composition tests for the optimisation pipeline: constant folding
//! (HIR) and fusion (DIR) compose, always preserving semantics and never
//! growing the program.

use dir::encode::SchemeKind;
use uhm::{DtbConfig, Machine, Mode};

/// Applies the full pipeline: fold → compile → fuse.
fn optimise(hir: &hlr::hir::Program) -> dir::Program {
    let (folded, _) = hlr::fold::fold(hir);
    let compiled = dir::compiler::compile(&folded);
    let (fused, _) = dir::fuse::fuse(&compiled);
    fused
}

#[test]
fn full_pipeline_preserves_semantics_on_samples() {
    for sample in hlr::programs::ALL {
        let hir = sample.compile().expect("compiles");
        let reference = hlr::eval::run(&hir).expect("runs");
        let optimised = optimise(&hir);
        optimised
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", sample.name));
        assert_eq!(
            dir::exec::run(&optimised).expect("runs"),
            reference,
            "{}",
            sample.name
        );
    }
}

#[test]
fn full_pipeline_preserves_semantics_on_generated_programs() {
    for seed in 100..140 {
        let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
        let hir = hlr::sema::analyze(&ast).expect("valid");
        let reference = hlr::eval::run(&hir).expect("trap-free");
        let optimised = optimise(&hir);
        optimised
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            dir::exec::run(&optimised).expect("runs"),
            reference,
            "seed {seed}"
        );
    }
}

#[test]
fn pipeline_never_grows_programs() {
    for sample in hlr::programs::ALL {
        let hir = sample.compile().expect("compiles");
        let baseline = dir::compiler::compile(&hir);
        let optimised = optimise(&hir);
        assert!(
            optimised.len() <= baseline.len(),
            "{}: {} -> {}",
            sample.name,
            baseline.len(),
            optimised.len()
        );
    }
}

#[test]
fn optimised_programs_run_faster_under_the_dtb() {
    let mut faster = 0;
    let mut total = 0;
    for sample in hlr::programs::ALL {
        if sample.name == "straightline" {
            continue;
        }
        let hir = sample.compile().expect("compiles");
        let baseline = dir::compiler::compile(&hir);
        let optimised = optimise(&hir);
        let cycles = |p: &dir::Program| {
            Machine::new(p, SchemeKind::Huffman)
                .run(&Mode::Dtb(DtbConfig::with_capacity(128)))
                .expect("runs")
                .metrics
                .cycles
                .total()
        };
        total += 1;
        if cycles(&optimised) <= cycles(&baseline) {
            faster += 1;
        }
    }
    assert!(
        faster * 10 >= total * 9,
        "optimisation slowed down too many workloads ({faster}/{total})"
    );
}

#[test]
fn optimised_programs_encode_smaller() {
    let mut total_base = 0u64;
    let mut total_opt = 0u64;
    for sample in hlr::programs::ALL {
        let hir = sample.compile().expect("compiles");
        total_base += SchemeKind::PairHuffman
            .encode(&dir::compiler::compile(&hir))
            .program_bits();
        total_opt += SchemeKind::PairHuffman
            .encode(&optimise(&hir))
            .program_bits();
    }
    assert!(
        total_opt < total_base,
        "optimisation must shrink the encoded suite: {total_opt} vs {total_base}"
    );
}

#[test]
fn assembler_round_trips_optimised_programs() {
    for seed in 200..215 {
        let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
        let hir = hlr::sema::analyze(&ast).expect("valid");
        let program = optimise(&hir);
        let text = dir::asm::disassemble(&program);
        let back = dir::asm::assemble(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back, program, "seed {seed}");
    }
}
