//! Profiler: measure the execution skew that justifies the DTB — per-
//! procedure dynamic counts, hottest instructions, and the coverage curve
//! ("how much of execution do the hottest k static instructions cover?").
//!
//! Run with `cargo run --example profiler --release`.

use profile::Profile;

fn main() {
    let sample = hlr::programs::MIXED;
    println!("Workload: {} — {}\n", sample.name, sample.description);
    let program = dir::compiler::compile(&sample.compile().expect("sample compiles"));
    let (_, stats) =
        dir::exec::run_with(&program, dir::exec::Limits::default(), true).expect("trap-free");
    let profile = Profile::from_trace(&program, &stats.trace.expect("tracing enabled"));

    println!(
        "{} static instructions, {} executed dynamically, {} ever touched\n",
        program.len(),
        profile.total,
        profile.touched()
    );

    println!("Dynamic instructions per procedure:");
    for (name, count) in profile.by_procedure(&program) {
        let pct = 100.0 * count as f64 / profile.total as f64;
        println!("  {name:>12}: {count:>9}  ({pct:.1}%)");
    }

    println!("\nHottest instructions:");
    for (addr, count) in profile.hottest(8) {
        println!(
            "  {addr:>5}  {count:>9}x  {}",
            dir::asm::format_inst(&program.code[addr as usize])
        );
    }

    println!("\nCoverage curve (the locality the DTB exploits):");
    for k in [4usize, 8, 16, 32, 64, 128] {
        println!(
            "  hottest {k:>3} instructions cover {:>5.1}% of execution",
            100.0 * profile.coverage(k)
        );
    }
    println!("\nA DTB of capacity k can at best achieve the coverage(k) hit ratio;");
    println!("compare with `cargo run -p uhm-bench --bin dtb_sweep --release`.");
}
