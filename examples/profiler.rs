//! Profiler: measure the execution skew that justifies the DTB — per-
//! procedure dynamic counts, hottest instructions, and the coverage curve
//! ("how much of execution do the hottest k static instructions cover?").
//!
//! Run with `cargo run --example profiler --release`.

use dir::encode::SchemeKind;
use profile::CounterPlane;
use uhm::{Machine, Mode, RunOptions};

fn main() {
    let sample = hlr::programs::MIXED;
    println!("Workload: {} — {}\n", sample.name, sample.description);
    let program = dir::compiler::compile(&sample.compile().expect("sample compiles"));
    let machine = Machine::new(&program, SchemeKind::Huffman);
    let mut plane = CounterPlane::new(&program);
    machine
        .run_with(&Mode::Interpreter, &mut plane, RunOptions::default())
        .expect("trap-free");
    let total = plane.retired();

    println!(
        "{} static instructions, {total} executed dynamically, {} ever touched\n",
        program.len(),
        plane.touched()
    );

    println!("Dynamic instructions per procedure:");
    for (name, a) in plane.by_region() {
        let pct = 100.0 * a.retires as f64 / total as f64;
        println!("  {name:>12}: {:>9}  ({pct:.1}%)", a.retires);
    }

    println!("\nHottest instructions:");
    for (addr, count) in plane.hottest(8) {
        println!(
            "  {addr:>5}  {count:>9}x  {}",
            dir::asm::format_inst(&program.code[addr as usize])
        );
    }

    println!("\nCoverage curve (the locality the DTB exploits):");
    let ks = [4usize, 8, 16, 32, 64, 128];
    for (k, c) in ks.iter().zip(plane.coverage(&ks)) {
        println!(
            "  hottest {k:>3} instructions cover {:>5.1}% of execution",
            100.0 * c
        );
    }
    println!("\nA DTB of capacity k can at best achieve the coverage(k) hit ratio;");
    println!("compare with `cargo run -p uhm-bench --bin dtb_sweep --release`.");
}
