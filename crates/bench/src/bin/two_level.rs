//! **Multi-level dynamic translation (§4):** the paper notes that "when
//! the dissimilarities between the representations ... are great, it is
//! possible that a number of levels of dynamic translation will be
//! required". This experiment adds a second, larger translation store
//! behind a small first-level DTB and measures when the extra level pays:
//! first-level misses that hit the second level are *promoted* (copied)
//! instead of re-decoded and re-translated.
//!
//! Run with `cargo run -p uhm-bench --bin two_level --release`.
//! With `--json`, emits a versioned run report instead of the text table.

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::{DtbConfig, Machine, Mode};
use uhm_bench::{bench_report, gate, workloads};

fn main() {
    let json = gate::args("two_level", &[]).json;
    let l1_caps = [4usize, 8, 16, 32];
    if !json {
        println!("Two-level dynamic translation (L2 store: 512 entries at tau_dtb2 = 5)\n");
        println!(
            "{:>14} | {}",
            "workload",
            l1_caps
                .iter()
                .map(|c| format!("{:>10} {:>10}", format!("1L@{c}"), format!("2L@{c}")))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        println!("{}", "-".repeat(17 + 24 * l1_caps.len()));
    }
    let mut rows = Vec::new();
    for w in workloads() {
        let machine = Machine::new(&w.base, SchemeKind::PairHuffman);
        let mut cells = Vec::new();
        let mut points = Vec::new();
        for &cap in &l1_caps {
            let single = machine
                .run(&Mode::Dtb(DtbConfig::with_capacity(cap)))
                .expect("samples are trap-free");
            let two = machine
                .run(&Mode::TwoLevelDtb {
                    l1: DtbConfig::with_capacity(cap),
                    l2: DtbConfig::with_capacity(512),
                })
                .expect("samples are trap-free");
            let (t1l, t2l) = (
                single.metrics.time_per_instruction(),
                two.metrics.time_per_instruction(),
            );
            cells.push(format!("{t1l:>10.2} {t2l:>10.2}"));
            points.push(Json::obj(vec![
                ("l1_entries", (cap as u64).into()),
                ("single_level_time", t1l.into()),
                ("two_level_time", t2l.into()),
                ("promote_cycles", two.metrics.cycles.promote.into()),
            ]));
        }
        if json {
            rows.push(Json::obj(vec![
                ("workload", w.name.into()),
                ("points", Json::Arr(points)),
            ]));
        } else {
            println!("{:>14} | {}", w.name, cells.join(" | "));
        }
    }
    if json {
        let config = Json::obj(vec![
            ("l2_entries", 512u64.into()),
            (
                "l1_capacities",
                Json::Arr(l1_caps.iter().map(|&c| (c as u64).into()).collect()),
            ),
        ]);
        println!("{}", bench_report("two_level", config, rows).render());
        return;
    }
    println!("\nReading: cycles per DIR instruction, single-level (1L) vs two-level");
    println!("(2L) at each L1 capacity. The second level pays exactly where the");
    println!("working set overflows L1 (small capacities, recursive workloads):");
    println!("promotion at tau_dtb2 per word replaces a full fetch-decode-translate.");
    println!("Once L1 holds the working set the two probes tie, as §4 predicts for");
    println!("representations that are not 'greatly dissimilar'.");
}
