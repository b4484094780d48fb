//! **E9 — associativity ablation (§5.2):** DTB hit ratio at fixed capacity
//! across associativity degrees 1, 2, 4, 8 and full.
//!
//! The paper adopts degree 4 because it "has been found to be nearly as
//! effective as full associativity"; this experiment checks that claim for
//! the DTB on our workloads.
//!
//! Run with `cargo run -p uhm-bench --bin assoc_ablation --release`.
//! With `--json`, emits a versioned run report instead of the text table.

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::sweep::associativity_sweep;
use uhm_bench::{bench_report, gate, workloads};

fn main() {
    let json = gate::args("assoc_ablation", &[]).json;
    let capacity = 32;
    let degrees: [usize; 5] = [1, 2, 4, 8, capacity];
    if !json {
        println!("Associativity ablation at a fixed {capacity}-entry DTB\n");
        println!(
            "{:>14} | {}",
            "workload",
            degrees
                .iter()
                .map(|&w| if w == capacity {
                    format!("{:>8}", "full")
                } else {
                    format!("{w:>8}-way")
                })
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!("{}", "-".repeat(17 + 13 * degrees.len()));
    }
    let mut rows = Vec::new();
    let mut sums = vec![0.0; degrees.len()];
    let mut count = 0usize;
    for w in workloads() {
        let mut cells = Vec::new();
        let mut points = Vec::new();
        let sweep = associativity_sweep(&w.base, SchemeKind::PairHuffman, capacity, &degrees);
        for (i, p) in sweep.iter().enumerate() {
            let h = p.stats.hit_ratio();
            sums[i] += h;
            cells.push(format!("{h:>12.4}"));
            points.push(Json::obj(vec![
                ("ways", (p.ways as u64).into()),
                ("hit_ratio", h.into()),
            ]));
        }
        count += 1;
        if json {
            rows.push(Json::obj(vec![
                ("workload", w.name.into()),
                ("degrees", Json::Arr(points)),
            ]));
        } else {
            println!("{:>14} | {}", w.name, cells.join(" "));
        }
    }
    if json {
        let config = Json::obj(vec![
            ("capacity", (capacity as u64).into()),
            (
                "degrees",
                Json::Arr(degrees.iter().map(|&d| (d as u64).into()).collect()),
            ),
        ]);
        println!("{}", bench_report("assoc_ablation", config, rows).render());
        return;
    }
    println!("{}", "-".repeat(17 + 13 * degrees.len()));
    let means: Vec<String> = sums
        .iter()
        .map(|s| format!("{:>12.4}", s / count as f64))
        .collect();
    println!("{:>14} | {}", "mean h_D", means.join(" "));
    println!("\nReading: on most workloads degree 4 is within a whisker of every other");
    println!("degree, supporting §5.2's compromise. Where the working set exceeds the");
    println!("DTB (queens, straightline), *lower* associativity can win: DIR addresses");
    println!("are sequential, so modulo placement spreads a loop across all sets while");
    println!("full-associative LRU exhibits classic loop thrashing (a loop one entry");
    println!("larger than the buffer yields zero hits). The 1978 'degree 4 ≈ full'");
    println!("evidence came from data caches; for an instruction-addressed DTB, modest");
    println!("associativity is not merely cheaper — it is also safer.");
}
