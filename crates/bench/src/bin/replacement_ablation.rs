//! **Replacement-policy ablation (§5.2):** the paper's replacement array
//! implements true LRU ("the one selected for replacement is that which
//! was used least recently"). This experiment quantifies what the recency
//! tracking buys over FIFO and random replacement at several DTB
//! capacities.
//!
//! Run with `cargo run -p uhm-bench --bin replacement_ablation --release`.
//! With `--json`, emits a versioned run report instead of the text tables.

use dir::encode::SchemeKind;
use memsim::Geometry;
use psder::MAX_TRANSLATION_WORDS;
use telemetry::Json;
use uhm::{Allocation, DtbConfig, Machine, Mode, Replacement};
use uhm_bench::{bench_report, gate, workloads};

fn config(capacity: usize, replacement: Replacement) -> DtbConfig {
    DtbConfig {
        geometry: Geometry::new((capacity / 4).max(1), 4),
        unit_words: MAX_TRANSLATION_WORDS,
        allocation: Allocation::Fixed,
        replacement,
    }
}

fn main() {
    let json = gate::args("replacement_ablation", &[]).json;
    let policies = [
        ("lru", Replacement::Lru),
        ("fifo", Replacement::Fifo),
        ("random", Replacement::Random { seed: 0x5EED }),
    ];
    let mut rows = Vec::new();
    if !json {
        println!("Replacement-policy ablation (degree-4 sets, PairHuffman static DIR)\n");
    }
    for capacity in [16usize, 32, 64] {
        if !json {
            println!("== {capacity}-entry DTB: hit ratio h_D ==");
            println!(
                "{:>14} | {:>8} {:>8} {:>8}",
                "workload", "lru", "fifo", "random"
            );
            println!("{}", "-".repeat(45));
        }
        let mut sums = [0.0f64; 3];
        let mut n = 0;
        for w in workloads() {
            let machine = Machine::new(&w.base, SchemeKind::PairHuffman);
            let mut cells = Vec::new();
            let mut fields: Vec<(&'static str, Json)> = vec![
                ("workload", w.name.into()),
                ("capacity", (capacity as u64).into()),
            ];
            for (i, (name, policy)) in policies.iter().enumerate() {
                let r = machine
                    .run(&Mode::Dtb(config(capacity, *policy)))
                    .expect("samples are trap-free");
                let h = r.metrics.dtb.unwrap().hit_ratio();
                sums[i] += h;
                cells.push(format!("{h:>8.4}"));
                fields.push((*name, h.into()));
            }
            n += 1;
            if json {
                rows.push(Json::obj(fields));
            } else {
                println!("{:>14} | {}", w.name, cells.join(" "));
            }
        }
        if !json {
            println!("{}", "-".repeat(45));
            println!(
                "{:>14} | {:>8.4} {:>8.4} {:>8.4}\n",
                "mean",
                sums[0] / n as f64,
                sums[1] / n as f64,
                sums[2] / n as f64
            );
        }
    }
    if json {
        let config = Json::obj(vec![(
            "capacities",
            Json::Arr(vec![16u64.into(), 32u64.into(), 64u64.into()]),
        )]);
        println!(
            "{}",
            bench_report("replacement_ablation", config, rows).render()
        );
        return;
    }
    println!("Reading: the policies are close when the working set fits (all ≈ 1) or");
    println!("drowns the buffer (all ≈ 0); LRU's recency tracking earns its keep in");
    println!("the transition region — and random occasionally beats both on cyclic");
    println!("reference patterns where deterministic policies thrash in lock-step.");
}
