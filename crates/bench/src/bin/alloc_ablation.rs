//! **E8 — allocation-policy ablation (§5.1):** fixed allocation units
//! versus variable allocation with fixed-size overflow increments.
//!
//! Fixed units must be as large as the largest translation and waste the
//! slack; smaller units with an overflow area hold more translations in the
//! same level-1 footprint, trading occasional chain fetches and (under
//! pressure) uncacheable translations.
//!
//! Run with `cargo run -p uhm-bench --bin alloc_ablation --release`.
//! With `--json`, emits a versioned run report instead of the text table.

use dir::encode::SchemeKind;
use memsim::Geometry;
use psder::MAX_TRANSLATION_WORDS;
use telemetry::Json;
use uhm::{Allocation, DtbConfig, Machine, Mode};
use uhm_bench::{bench_report, gate, workloads};

fn main() {
    let json = gate::args("alloc_ablation", &[]).json;
    // Policies with an (approximately) equal level-1 budget of short words.
    let budget_entries = 32;
    let fixed = DtbConfig {
        geometry: Geometry::new(budget_entries / 4, 4),
        unit_words: MAX_TRANSLATION_WORDS,
        allocation: Allocation::Fixed,
        replacement: uhm::Replacement::Lru,
    };
    // Same word budget: 32 entries * 3-word units = 96 primary words, plus
    // 16 overflow blocks * 3 = 48; vs fixed 32 * 6 = 192 words.
    let overflow = DtbConfig {
        geometry: Geometry::new(48 / 4, 4),
        unit_words: 3,
        allocation: Allocation::Overflow { blocks: 16 },
        replacement: uhm::Replacement::Lru,
    };
    if !json {
        println!(
            "Allocation ablation (equal level-1 budget: fixed = {} words, overflow = {} words)\n",
            fixed.buffer_words(),
            overflow.buffer_words()
        );
        println!(
            "{:>14} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} {:>10}",
            "workload",
            "fix h_D",
            "fix T2",
            "fix evic",
            "ovf h_D",
            "ovf T2",
            "ovf evic",
            "uncached"
        );
        println!("{}", "-".repeat(106));
    }
    let mut rows = Vec::new();
    for w in workloads() {
        let machine = Machine::new(&w.base, SchemeKind::PairHuffman);
        let rf = machine.run(&Mode::Dtb(fixed)).expect("trap-free");
        let ro = machine.run(&Mode::Dtb(overflow)).expect("trap-free");
        let sf = rf.metrics.dtb.unwrap();
        let so = ro.metrics.dtb.unwrap();
        if json {
            rows.push(Json::obj(vec![
                ("workload", w.name.into()),
                (
                    "fixed",
                    Json::obj(vec![
                        ("hit_ratio", sf.hit_ratio().into()),
                        (
                            "time_per_instruction",
                            rf.metrics.time_per_instruction().into(),
                        ),
                        ("evictions", sf.evictions.into()),
                    ]),
                ),
                (
                    "overflow",
                    Json::obj(vec![
                        ("hit_ratio", so.hit_ratio().into()),
                        (
                            "time_per_instruction",
                            ro.metrics.time_per_instruction().into(),
                        ),
                        ("evictions", so.evictions.into()),
                        ("uncached", so.uncached.into()),
                    ]),
                ),
            ]));
        } else {
            println!(
                "{:>14} | {:>10.3} {:>10.2} {:>10} | {:>10.3} {:>10.2} {:>10} {:>10}",
                w.name,
                sf.hit_ratio(),
                rf.metrics.time_per_instruction(),
                sf.evictions,
                so.hit_ratio(),
                ro.metrics.time_per_instruction(),
                so.evictions,
                so.uncached,
            );
        }
    }
    if json {
        let config = Json::obj(vec![
            ("fixed_words", (fixed.buffer_words() as u64).into()),
            ("overflow_words", (overflow.buffer_words() as u64).into()),
        ]);
        println!("{}", bench_report("alloc_ablation", config, rows).render());
        return;
    }
    println!("\nWith the same fast-memory budget, 3-word units + overflow track more");
    println!("translations (48 vs 32 entries), raising h_D on working sets that");
    println!("exceed the fixed-policy entry count — §5.1's argument for variable");
    println!("allocation with fixed increments.");
}
