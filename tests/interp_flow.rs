//! Tests of the INTERP instruction's control flow — the paper's Figure 4 —
//! exercising the DTB's hit, miss, translation, replacement and overflow
//! paths through the full machine.

use dir::encode::SchemeKind;
use memsim::Geometry;
use psder::MAX_TRANSLATION_WORDS;
use uhm::{Allocation, DtbConfig, Machine, Mode};

fn compile(src: &str) -> dir::Program {
    dir::compiler::compile(&hlr::compile(src).expect("compiles"))
}

/// A straight-line program visits each instruction once: every INTERP
/// misses, and the translator runs once per static instruction.
#[test]
fn straight_line_code_misses_once_per_instruction() {
    let program = compile("proc main() begin write 1; write 2; write 3; end");
    let machine = Machine::new(&program, SchemeKind::Packed);
    let report = machine
        .run(&Mode::Dtb(DtbConfig::with_capacity(64)))
        .expect("runs");
    let dtb = report.metrics.dtb.expect("dtb stats");
    assert_eq!(dtb.hits, 0, "nothing re-executes");
    assert_eq!(dtb.misses, report.metrics.instructions);
    assert_eq!(report.metrics.decoded, dtb.misses);
}

/// A tight loop achieves the paper's "hit ratio of unity while the DIR
/// program is in a tight loop": only the first traversal misses.
#[test]
fn tight_loop_hits_after_first_iteration() {
    let program = compile(
        "proc main() begin
            int i := 0;
            while i < 1000 do i := i + 1;
            write i;
        end",
    );
    let machine = Machine::new(&program, SchemeKind::Packed);
    let report = machine
        .run(&Mode::Dtb(DtbConfig::with_capacity(64)))
        .expect("runs");
    let dtb = report.metrics.dtb.expect("dtb stats");
    // Misses bounded by the static program size; everything else hits.
    assert!(dtb.misses <= program.len() as u64);
    assert!(dtb.hit_ratio() > 0.99, "hit ratio {}", dtb.hit_ratio());
}

/// With a DTB smaller than the loop, the LRU replacement path cycles
/// translations; correctness is unaffected and evictions are observed.
#[test]
fn undersized_dtb_replaces_but_stays_correct() {
    let program = compile(
        "proc main() begin
            int i := 0; int s := 0;
            while i < 200 do begin
                s := s + i * 2 - 1;
                i := i + 1;
            end
            write s;
        end",
    );
    let machine = Machine::new(&program, SchemeKind::Packed);
    let big = machine
        .run(&Mode::Dtb(DtbConfig::with_capacity(256)))
        .expect("runs");
    let tiny_cfg = DtbConfig {
        geometry: Geometry::new(2, 2),
        unit_words: MAX_TRANSLATION_WORDS,
        allocation: Allocation::Fixed,
        replacement: uhm::Replacement::Lru,
    };
    let tiny = machine.run(&Mode::Dtb(tiny_cfg)).expect("runs");
    assert_eq!(tiny.output, big.output);
    let stats = tiny.metrics.dtb.expect("dtb stats");
    assert!(stats.evictions > 0, "4-entry DTB must evict in a long loop");
    assert!(stats.hit_ratio() < big.metrics.dtb.unwrap().hit_ratio());
}

/// The two INTERP flavours: sequential/unconditional successors use the
/// immediate form (no stack traffic), computed successors (branch, call,
/// return) use the stack form. Both are exercised and agree with the
/// reference.
#[test]
fn both_interp_flavours_execute() {
    let program = compile(
        "proc choose(int n) -> int begin
            if n % 2 = 0 then return n / 2;
            return 3 * n + 1;
        end
        proc main() begin
            int v := 27;
            while v <> 1 do v := choose(v);
            write v;
        end",
    );
    // Statically verify both flavours appear in the translations.
    let mut has_imm = false;
    let mut has_stack = false;
    for (i, &inst) in program.code.iter().enumerate() {
        for short in psder::Template::new(inst, i as u32 + 1).iter() {
            match short {
                psder::ShortInstr::Interp(psder::InterpMode::Imm(_)) => has_imm = true,
                psder::ShortInstr::Interp(psder::InterpMode::Stack) => has_stack = true,
                _ => {}
            }
        }
    }
    assert!(has_imm && has_stack);
    let machine = Machine::new(&program, SchemeKind::Contextual);
    let report = machine
        .run(&Mode::Dtb(DtbConfig::with_capacity(128)))
        .expect("runs");
    assert_eq!(report.output, vec![1]);
}

/// The return-address stack nests correctly through deep recursion under
/// the DTB (DIR-level CALL/RETURN via the DirCall/DirRet routines).
#[test]
fn recursion_through_the_dtb() {
    let program = compile(
        "proc sum(int n) -> int begin
            if n = 0 then return 0;
            return n + sum(n - 1);
        end
        proc main() begin write sum(100); end",
    );
    let machine = Machine::new(&program, SchemeKind::Huffman);
    let report = machine
        .run(&Mode::Dtb(DtbConfig::with_capacity(64)))
        .expect("runs");
    assert_eq!(report.output, vec![5050]);
    assert!(report.metrics.dtb.unwrap().hit_ratio() > 0.9);
}

/// Overflow allocation under pressure falls back to uncached execution
/// without corrupting results, and the overflow peak is bounded by the
/// configured block count.
#[test]
fn overflow_pressure_is_graceful() {
    let program = compile(
        "proc main() begin
            int i; int j; int acc := 0;
            for i := 0 to 20 do begin
                for j := 0 to 20 do begin
                    if (i + j) % 3 = 0 then acc := acc + i * j;
                    else acc := acc - 1;
                end
            end
            write acc;
        end",
    );
    let reference = dir::exec::run(&program).expect("runs");
    let machine = Machine::new(&program, SchemeKind::Packed);
    // A small overflow area still runs correctly under heavy replacement.
    let cfg = DtbConfig {
        geometry: Geometry::new(4, 2),
        unit_words: 2,
        allocation: Allocation::Overflow { blocks: 1 },
        replacement: uhm::Replacement::Lru,
    };
    let report = machine.run(&Mode::Dtb(cfg)).expect("runs");
    assert_eq!(report.output, reference);
    assert!(report.metrics.dtb.expect("dtb stats").overflow_peak <= 1);

    // With no overflow blocks at all, every 4-word translation must take
    // the uncacheable path — and the result is still exact.
    let cfg = DtbConfig {
        geometry: Geometry::new(4, 2),
        unit_words: 2,
        allocation: Allocation::Overflow { blocks: 0 },
        replacement: uhm::Replacement::Lru,
    };
    let report = machine.run(&Mode::Dtb(cfg)).expect("runs");
    assert_eq!(report.output, reference);
    let stats = report.metrics.dtb.expect("dtb stats");
    assert!(
        stats.uncached > 0,
        "zero blocks cannot hold any long translation"
    );
    assert_eq!(stats.overflow_peak, 0);
}

/// The lookup cost is charged exactly once per executed DIR instruction
/// (one associative probe per INTERP).
#[test]
fn one_lookup_per_interp() {
    let program = compile("proc main() begin int i; for i := 0 to 9 do write i; end");
    let machine = Machine::new(&program, SchemeKind::Packed);
    let report = machine
        .run(&Mode::Dtb(DtbConfig::with_capacity(32)))
        .expect("runs");
    let costs = uhm::CostModel::default();
    assert_eq!(
        report.metrics.cycles.lookup,
        report.metrics.instructions * costs.mem.tau_d
    );
}
