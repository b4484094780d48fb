//! Benchmarks of the encoding dimension, and of every stage that takes a
//! program from RAUL source to a verified image.
//!
//! The `cold/*` group times each front-end stage on one fixed generated
//! cold program, generated as the host ledger's `cold_source` workload
//! generates its pool (loop-free and call-free): `tokenize`, `parse`
//! (which includes tokenizing), `sema`, `lower`, the Huffman `encode`
//! that workload uses and `verify`. Its `cold/part/*` rows time pieces
//! on their own: the Huffman codebook and the contour tables the encoder
//! builds, and the image clone the `verify` row includes. The
//! `encode/*` and `decode_all/*` groups time each scheme on a sample
//! program. The `decode_at/*` group times one decode at an address, as a
//! machine decodes on each interpreted step or DTB miss: each iteration
//! decodes the next address of the sample's image in a fixed seeded
//! shuffle of all of them, so neither the address nor the decoder's
//! branches repeat from one iteration to the next. Run it with
//! `cargo bench -p uhm-bench --bench encode_bench` (add `-- --json` for
//! a report).

use dir::encode::{ContextTables, SchemeKind};
use dir::huffman::Tree;
use std::hint::black_box;
use uhm_bench::timing::Harness;

/// Seed of the fixed cold program.
const COLD_SEED: u64 = 1978;

/// Seed of the `decode_at/*` address shuffle.
const SHUFFLE_SEED: u64 = 0xDEC0DE;

/// Every index below `n` once, in a Fisher–Yates shuffle from `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = hlr::rng::Rng::new(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// The pretty-printed source of the fixed cold program.
fn cold_source() -> String {
    let config = hlr::generate::Config {
        max_loop_nesting: 0,
        calls: false,
        ..hlr::generate::Config::default()
    };
    hlr::pretty::print(&hlr::generate::program(COLD_SEED, &config))
}

fn program() -> dir::Program {
    let hir = hlr::programs::QUEENS.compile().expect("sample compiles");
    dir::compiler::compile(&hir)
}

fn main() {
    let mut h = Harness::new("encode_bench");

    let source = cold_source();
    let ast = hlr::parser::parse(&source).expect("the cold program parses");
    let hir = hlr::sema::analyze(&ast).expect("the cold program is well-typed");
    let cold = dir::compiler::compile(&hir);
    let scheme = SchemeKind::Huffman;
    h.bench("cold/tokenize", || {
        black_box(hlr::lexer::tokenize(black_box(&source)).expect("lexes"))
    });
    h.bench("cold/parse", || {
        black_box(hlr::parser::parse(black_box(&source)).expect("parses"))
    });
    h.bench("cold/sema", || {
        black_box(hlr::sema::analyze(black_box(&ast)).expect("well-typed"))
    });
    h.bench("cold/lower", || {
        black_box(dir::compiler::compile(black_box(&hir)))
    });
    h.bench("cold/encode", || black_box(scheme.encode(black_box(&cold))));
    let image = scheme.encode(&cold);
    // `verify` takes the image by value: the row includes a clone of
    // it, which `cold/part/image_clone` times on its own.
    h.bench("cold/verify", || {
        black_box(analyze::verify(black_box(&cold), image.clone()).expect("clean"))
    });
    h.bench("cold/part/image_clone", || {
        black_box(black_box(&image).clone())
    });
    h.bench("cold/part/huffman_tree", || {
        black_box(Tree::from_frequencies(&black_box(&cold).opcode_histogram()))
    });
    h.bench("cold/part/context_tables", || {
        black_box(ContextTables::build(black_box(&cold)))
    });

    let prog = program();

    for scheme in SchemeKind::all() {
        h.bench(&format!("encode/{}", scheme.label()), || {
            black_box(scheme.encode(black_box(&prog)))
        });
    }

    for scheme in SchemeKind::all() {
        let image = scheme.encode(&prog);
        h.bench(&format!("decode_all/{}", scheme.label()), || {
            black_box(image.decode_all().expect("round trip"))
        });
    }

    for scheme in SchemeKind::all() {
        let image = scheme.encode(&prog);
        let order = shuffled(image.len(), SHUFFLE_SEED);
        let mut next = 0usize;
        h.bench(&format!("decode_at/{}", scheme.label()), || {
            let index = order[next];
            next = if next + 1 == order.len() { 0 } else { next + 1 };
            black_box(image.decode(black_box(index)).expect("valid index"))
        });
    }

    h.finish();
}
