//! **E7 — the locality claim (§4):** DTB hit ratio and interpretation time
//! versus DTB capacity, plus Denning working-set measurements of the DIR
//! instruction traces that explain them.
//!
//! Run with `cargo run -p uhm-bench --bin dtb_sweep --release`.
//! With `--json`, emits a versioned run report instead of the text tables.

use dir::encode::SchemeKind;
use memsim::workset;
use telemetry::Json;
use uhm::sweep::capacity_sweep;
use uhm_bench::{bench_report, gate, workloads};

fn main() {
    let capacities = [4usize, 8, 16, 32, 64, 128, 256];
    if gate::args("dtb_sweep", &[]).json {
        emit_json(&capacities);
        return;
    }
    println!("DTB capacity sweep (PairHuffman static DIR, degree-4 sets)\n");
    println!(
        "{:>14} {:>7} | {}",
        "workload",
        "",
        capacities
            .iter()
            .map(|c| format!("{c:>7}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("{}", "-".repeat(26 + 8 * capacities.len()));
    for w in workloads() {
        let points = capacity_sweep(&w.base, SchemeKind::PairHuffman, &capacities);
        let hit_rows: Vec<String> = points
            .iter()
            .map(|p| format!("{:>7.3}", p.stats.hit_ratio()))
            .collect();
        let t_rows: Vec<String> = points
            .iter()
            .map(|p| format!("{:>7.2}", p.time_per_instruction))
            .collect();
        println!("{:>14} {:>7} | {}", w.name, "h_D", hit_rows.join(" "));
        println!("{:>14} {:>7} | {}", "", "T2", t_rows.join(" "));
    }

    println!("\nWorking-set evidence (Denning window over the DIR trace)\n");
    println!(
        "{:>14} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "workload", "refs", "unique", "ws(100)", "ws(1000)", "lru64"
    );
    for w in workloads() {
        let rep = locality(&w.base);
        println!(
            "{:>14} {:>10} {:>8} {:>8.1} {:>8.1} {:>8.3}",
            w.name, rep.references, rep.unique, rep.ws100, rep.ws1000, rep.lru64
        );
    }
    println!("\nThe small working sets relative to static program size are exactly the");
    println!("locality the paper's §4 invokes: a modest DTB captures almost all");
    println!("executed instructions, except on the adversarial straight-line workload.");
}

/// Locality of the reference executor's DIR-address trace.
fn locality(program: &dir::Program) -> workset::LocalityReport {
    let (_, stats) = dir::exec::run_with(program, dir::exec::Limits::default(), true)
        .expect("samples are trap-free");
    let trace: Vec<u64> = stats.trace.unwrap().into_iter().map(u64::from).collect();
    workset::LocalityReport::measure(&trace)
}

fn emit_json(capacities: &[usize]) {
    let mut rows = Vec::new();
    for w in workloads() {
        let points = capacity_sweep(&w.base, SchemeKind::PairHuffman, capacities);
        let sweep: Vec<Json> = points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("entries", (p.entries as u64).into()),
                    ("hit_ratio", p.stats.hit_ratio().into()),
                    ("time_per_instruction", p.time_per_instruction.into()),
                    ("dtb", uhm::report::dtb_stats_json(&p.stats)),
                ])
            })
            .collect();
        let rep = locality(&w.base);
        rows.push(Json::obj(vec![
            ("workload", w.name.into()),
            ("sweep", Json::Arr(sweep)),
            (
                "locality",
                Json::obj(vec![
                    ("references", (rep.references as u64).into()),
                    ("unique", (rep.unique as u64).into()),
                    ("ws100", rep.ws100.into()),
                    ("ws1000", rep.ws1000.into()),
                    ("lru64", rep.lru64.into()),
                ]),
            ),
        ]));
    }
    let config = Json::obj(vec![
        ("scheme", "pair".into()),
        (
            "capacities",
            Json::Arr(capacities.iter().map(|&c| (c as u64).into()).collect()),
        ),
    ]);
    println!("{}", bench_report("dtb_sweep", config, rows).render());
}
