//! Decoder-plane differential tests: the table-driven fast decoders must
//! be *bit-identical* to the seed's tree/reference decoders — same
//! instructions, same consumed widths, same modeled costs — on every
//! scheme, over the whole sample corpus and thousands of seeded random
//! programs. The table plane is a host-implementation change only; any
//! observable difference is a bug.

use dir::encode::{DecodeMode, SchemeKind};

fn compile(seed: u64) -> dir::Program {
    let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
    let hir = hlr::sema::analyze(&ast).expect("generated programs are valid");
    dir::compiler::compile(&hir)
}

fn sample_programs() -> Vec<(String, dir::Program)> {
    hlr::programs::ALL
        .iter()
        .map(|s| {
            (
                s.name.to_string(),
                dir::compiler::compile(&s.compile().expect("samples compile")),
            )
        })
        .collect()
}

/// Asserts both planes agree on `program` under `scheme`, per index and
/// over the whole image, and that both recover the original code. Returns the number
/// of per-instruction comparisons performed.
fn assert_planes_agree(name: &str, scheme: SchemeKind, program: &dir::Program) -> u64 {
    let image = scheme.encode(program);
    let mut per_index = Vec::with_capacity(image.len());
    for i in 0..image.len() as u32 {
        let tree = image
            .decode_with(&image.bytes, i, DecodeMode::Tree)
            .unwrap_or_else(|e| panic!("{name} {scheme} tree decode at {i}: {e:?}"));
        let table = image
            .decode_with(&image.bytes, i, DecodeMode::Table)
            .unwrap_or_else(|e| panic!("{name} {scheme} table decode at {i}: {e:?}"));
        assert_eq!(tree, table, "{name} {scheme} per-index divergence at {i}");
        per_index.push(table);
    }
    // The whole-image entry must agree with per-index decoding in both
    // modes: it walks the contour regions with a cursor, not a search.
    for mode in [DecodeMode::Tree, DecodeMode::Table] {
        let whole = image
            .decode_all_with(mode)
            .unwrap_or_else(|e| panic!("{name} {scheme} {mode:?} whole-image decode: {e:?}"));
        assert_eq!(
            whole, per_index,
            "{name} {scheme} {mode:?} whole-image vs per-index divergence"
        );
    }
    let insts: Vec<dir::isa::Inst> = per_index.iter().map(|d| d.inst).collect();
    assert_eq!(insts, program.code, "{name} {scheme} decode != source");
    image.len() as u64
}

/// Every scheme over the full sample corpus: tree and table planes are
/// bit-identical per index, whole-image decoding agrees with per-index,
/// and both recover the compiled code.
#[test]
fn sample_corpus_tree_table_identical() {
    for (name, program) in sample_programs() {
        for scheme in SchemeKind::all() {
            assert_planes_agree(&name, scheme, &program);
        }
    }
}

/// Seeded random programs: the same bit-identity property over >10k
/// instruction decodes per scheme pairing, exploring operand widths,
/// region layouts and opcode mixes the samples never hit.
#[test]
fn random_programs_tree_table_identical() {
    let mut comparisons = 0u64;
    for seed in 0..40 {
        let program = compile(seed);
        for scheme in SchemeKind::all() {
            comparisons += assert_planes_agree(&format!("seed {seed}"), scheme, &program);
        }
    }
    assert!(
        comparisons >= 10_000,
        "only {comparisons} differential comparisons"
    );
}

/// Whole-image decoding honours the offsets the image records, as a
/// machine's fetch does: with two instructions' offsets swapped, every
/// scheme on both planes decodes the whole image exactly as it decodes
/// each index, results and errors alike.
#[test]
fn whole_image_decode_honours_recorded_offsets() {
    let program = dir::compiler::compile(&hlr::programs::QUEENS.compile().expect("compiles"));
    for scheme in SchemeKind::all() {
        let mut image = scheme.encode(&program);
        image.offsets.swap(3, 4);
        for mode in DecodeMode::all() {
            let per_index: Result<Vec<_>, _> = (0..image.len() as u32)
                .map(|i| image.decode_with(&image.bytes, i, mode))
                .collect();
            assert_eq!(image.decode_all_with(mode), per_index, "{scheme} {mode:?}");
        }
    }
}

/// Encode → decode → re-encode is a fixpoint for every scheme, including
/// the conditional (pair/value) schemes whose codebooks depend on
/// predecessor context: the decoded program must measure to the exact
/// same frequency tables and produce a bit-identical image.
#[test]
fn reencode_is_a_fixpoint() {
    let mut programs = sample_programs();
    programs.extend((100..112).map(|seed| (format!("seed {seed}"), compile(seed))));
    for (name, program) in &programs {
        for scheme in SchemeKind::all() {
            let image = scheme.encode(program);
            let decoded = dir::Program {
                code: image
                    .decode_all()
                    .unwrap_or_else(|e| panic!("{name} {scheme}: {e:?}")),
                ..program.clone()
            };
            let again = scheme.encode(&decoded);
            assert_eq!(image.bytes, again.bytes, "{name} {scheme} bytes drift");
            assert_eq!(image.bit_len, again.bit_len, "{name} {scheme} length drift");
            assert_eq!(image.offsets, again.offsets, "{name} {scheme} offset drift");
        }
    }
}

/// The image-level mode switch is transparent: flipping an image to the
/// tree plane changes nothing observable about `decode`.
#[test]
fn set_decode_mode_is_transparent() {
    let program = compile(7);
    for scheme in SchemeKind::all() {
        let mut image = scheme.encode(&program);
        let table: Vec<_> = (0..image.len() as u32).map(|i| image.decode(i)).collect();
        image.set_decode_mode(DecodeMode::Tree);
        let tree: Vec<_> = (0..image.len() as u32).map(|i| image.decode(i)).collect();
        assert_eq!(table, tree, "{scheme}");
    }
}

/// `program` with every third immediate replaced by `i64::MIN` or
/// `i64::MAX` in turn: a zigzagged extreme needs 64 bits, so every
/// instruction that carries one is wider than a 57-bit decode window.
fn with_extreme_immediates(program: &dir::Program) -> dir::Program {
    use dir::isa::Inst;
    let mut out = program.clone();
    let mut seen = 0u32;
    for inst in &mut out.code {
        let (Inst::PushConst(imm)
        | Inst::IncLocal { imm, .. }
        | Inst::SetLocalConst { imm, .. }
        | Inst::CmpConstBr { imm, .. }) = inst
        else {
            continue;
        };
        if seen.is_multiple_of(3) {
            *imm = if seen.is_multiple_of(2) {
                i64::MIN
            } else {
                i64::MAX
            };
        }
        seen += 1;
    }
    out
}

/// Instructions too wide for one window take the per-field reader on the
/// table plane: per scheme, per index and over the whole image, both
/// planes stay bit-identical and recover the program, on sample programs
/// before and after fusion rewrote them with extreme immediates.
#[test]
fn extreme_immediates_decode_identically_on_both_planes() {
    let mut programs = Vec::new();
    for s in [&hlr::programs::QUEENS, &hlr::programs::SIEVE] {
        let base = dir::compiler::compile(&s.compile().expect("samples compile"));
        let (fused, _) = dir::fuse::fuse(&base);
        programs.push((
            format!("{} extreme", s.name),
            with_extreme_immediates(&base),
        ));
        programs.push((
            format!("{} fused extreme", s.name),
            with_extreme_immediates(&fused),
        ));
    }
    for (name, program) in &programs {
        let extremes = program
            .code
            .iter()
            .filter(|i| i.fields().iter().any(|&v| v >= 1 << 57))
            .count();
        assert!(extremes > 0, "{name}: no extreme immediate");
        for scheme in [
            SchemeKind::ByteAligned,
            SchemeKind::Packed,
            SchemeKind::Contextual,
            SchemeKind::Huffman,
        ] {
            assert_planes_agree(name, scheme, program);
        }
    }
}
