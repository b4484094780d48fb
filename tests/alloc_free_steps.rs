//! Executing a DIR instruction allocates nothing on the host.
//!
//! A counting global allocator (one counter per thread, so parallel tests
//! do not disturb each other) counts the allocations one run makes. The
//! same loop runs at trip counts N and 2N, with its only `write` after
//! the loop so output growth does not count: if a step allocated, the
//! longer run would allocate more. Setup (the engine, the buffers, the
//! output vector) is the same at both trip counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dir::encode::SchemeKind;
use memsim::Geometry;
use uhm::{Allocation, DtbConfig, Machine, Mode};

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

/// Allocations the second of two calls of `f` makes on this thread; the
/// first call initialises whatever is built lazily once per process,
/// such as the shared routine library and stencil table.
fn allocations<T>(mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f());
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// A loop whose body (over 16 instructions) overflows the small DTBs
/// below, so their runs keep missing, translating and evicting.
fn looping(trips: u32) -> dir::Program {
    let source = format!(
        "proc main() begin
             int i; int a := 0; int b := 1; int c := 0;
             for i := 1 to {trips} do begin
                 c := a + b * 3;
                 a := b % 1000;
                 b := c % 1000 + i;
                 if c > 500 then c := c - 500;
             end
             write a + b + c;
         end"
    );
    dir::compiler::compile(&hlr::compile(&source).expect("the loop compiles"))
}

const TRIPS: u32 = 400;

#[test]
fn the_psder_oracle_allocates_nothing_per_step() {
    let (short, long) = (looping(TRIPS), looping(2 * TRIPS));
    let once = allocations(|| psder::interp::run(&short).unwrap());
    let twice = allocations(|| psder::interp::run(&long).unwrap());
    assert_eq!(once, twice, "psder::interp::run: {once} vs {twice}");
}

#[test]
fn stamping_a_stencil_allocates_nothing() {
    // Every translation event stamps its shape's stencil; the table is
    // built before counting starts.
    let stencils = psder::Stencils::shared();
    let program = looping(TRIPS);
    let mut line = psder::Line::EMPTY;
    let n = allocations(|| {
        for (pc, &inst) in program.code.iter().enumerate() {
            stencils.instance(inst, pc as u32 + 1).line_into(&mut line);
            std::hint::black_box(&line);
        }
    });
    assert_eq!(
        n,
        0,
        "{n} allocations stamping {} instructions",
        program.code.len()
    );
}

#[test]
fn machine_runs_allocate_nothing_per_step() {
    // Interpreter and i-cache steps and DTB misses stamp stencils; the
    // shared table is built before counting starts.
    psder::Stencils::shared();
    let modes = [
        ("interp", Mode::Interpreter),
        (
            "icache16x4",
            Mode::ICache {
                geometry: Geometry::new(16, 4),
            },
        ),
        ("dtb256", Mode::Dtb(DtbConfig::with_capacity(256))),
        ("dtb16", Mode::Dtb(DtbConfig::with_capacity(16))),
        (
            "dtb16_overflow",
            Mode::Dtb(DtbConfig {
                unit_words: 2,
                allocation: Allocation::Overflow { blocks: 8 },
                ..DtbConfig::with_capacity(16)
            }),
        ),
        (
            "two_level",
            Mode::TwoLevelDtb {
                l1: DtbConfig::with_capacity(8),
                l2: DtbConfig::with_capacity(256),
            },
        ),
    ];
    let short = Machine::new(&looping(TRIPS), SchemeKind::Huffman);
    let long = Machine::new(&looping(2 * TRIPS), SchemeKind::Huffman);
    for (name, mode) in &modes {
        let once = allocations(|| short.run(mode).unwrap());
        let twice = allocations(|| long.run(mode).unwrap());
        assert_eq!(once, twice, "{name}: {once} vs {twice}");
    }
    // The small DTBs really thrash, so their miss paths are exercised,
    // overflow chains included.
    let dtb = short.run(&modes[3].1).unwrap().metrics.dtb.unwrap();
    assert!(dtb.evictions > u64::from(TRIPS), "{dtb:?}");
    let overflow = short.run(&modes[4].1).unwrap().metrics.dtb.unwrap();
    assert!(overflow.evictions > u64::from(TRIPS), "{overflow:?}");
    assert!(overflow.overflow_peak > 0, "{overflow:?}");
}
