//! Encoding and verifying a DIR program allocates nothing per
//! instruction on the host.
//!
//! A counting global allocator (one counter per thread, as in
//! `alloc_free_steps.rs`) counts the allocations of one encode under
//! each scheme and of one `analyze::verify`, on two straight-line
//! programs, the second with twice the statements of the first. Only
//! the output may grow with the program: an encoder's byte buffer
//! regrows as a `Vec<u8>` does when pushed its final length a byte at a
//! time, and every other buffer is sized up front or independent of the
//! length. If an instruction allocated, the longer program would
//! allocate hundreds of times more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dir::encode::SchemeKind;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the second of two calls of `f` makes on this thread.
fn allocations<T>(mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations a `Vec<u8>` makes growing to `len` bytes one push at a
/// time: what an encoder's output buffer may cost.
fn growth(len: usize) -> u64 {
    allocations(|| {
        let mut bytes = Vec::new();
        for i in 0..len {
            bytes.push(i as u8);
        }
        bytes
    })
}

/// A straight-line program of `statements` identical updates, so that
/// no table an encoder keeps grows with its length.
fn straight_line(statements: usize) -> dir::Program {
    let body = "a := a + 3; b := b - a; ".repeat(statements / 2);
    let source = format!("proc main() begin int a := 1; int b := 2; {body} write a + b; end");
    dir::compiler::compile(&hlr::compile(&source).expect("the program compiles"))
}

const STATEMENTS: usize = 200;

#[test]
fn encoding_allocates_nothing_per_instruction() {
    let (short, long) = (straight_line(STATEMENTS), straight_line(2 * STATEMENTS));
    assert!(long.code.len() > 2 * short.code.len() - 16);
    for kind in SchemeKind::all() {
        let once = allocations(|| kind.encode(&short));
        let twice = allocations(|| kind.encode(&long));
        let output =
            growth(kind.encode(&long).bytes.len()) - growth(kind.encode(&short).bytes.len());
        eprintln!(
            "{kind}: {once} allocations for {} instructions, {twice} for {}",
            short.code.len(),
            long.code.len()
        );
        assert!(
            twice <= once + output,
            "{kind}: {once} vs {twice} allocations, output growth {output}"
        );
    }
}

#[test]
fn verifying_allocates_nothing_per_instruction() {
    let (short, long) = (straight_line(STATEMENTS), straight_line(2 * STATEMENTS));
    for kind in SchemeKind::all() {
        let (short_image, long_image) = (kind.encode(&short), kind.encode(&long));
        let once = allocations(|| analyze::verify(&short, short_image.clone()).expect("clean"));
        let twice = allocations(|| analyze::verify(&long, long_image.clone()).expect("clean"));
        eprintln!(
            "{kind}: verify makes {once} allocations for {} instructions, {twice} for {}",
            short.code.len(),
            long.code.len()
        );
        assert_eq!(once, twice, "{kind}: {once} vs {twice} allocations");
    }
}
