//! Regenerates **Table 2**: percentage increase in the average DIR
//! instruction interpretation time due to using the DTB as a plain cache
//! on the level-2 memory (`F1 = (T3 − T2)/T2 × 100`).
//!
//! Three panels:
//! 1. the paper's published numbers (printed closed forms, reproduced
//!    exactly);
//! 2. the symbolic model under the paper's *stated* parameter values
//!    (internally inconsistent with panel 1 — see DESIGN.md);
//! 3. `F1` measured by full simulation on each sample workload, with every
//!    parameter (`d`, `g`, `x`, `s1`, `s2`, `h_D`, `h_c`) taken from the
//!    machine rather than assumed.
//!
//! Run with `cargo run -p uhm-bench --bin table2 --release`.
//! With `--json`, emits a versioned run report instead of the text panels.

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::model::{grid, printed, published, Params};
use uhm::DtbConfig;
use uhm_bench::{bench_report, gate, print_row, print_rule, run_three, workloads};

/// The measured panel as JSON rows (shared with `table3` in shape).
fn measured_rows() -> Vec<Json> {
    workloads()
        .iter()
        .map(|w| {
            let (interp, dtb, cache) = run_three(
                &w.base,
                SchemeKind::PairHuffman,
                DtbConfig::with_capacity(64),
            );
            let p = Params::from_reports(&uhm::CostModel::default(), &interp, &dtb, &cache);
            let t1 = interp.metrics.time_per_instruction();
            let t2 = dtb.metrics.time_per_instruction();
            let t3 = cache.metrics.time_per_instruction();
            Json::obj(vec![
                ("workload", w.name.into()),
                ("d", p.d.into()),
                ("x", p.x.into()),
                ("h_d", p.hd.into()),
                ("h_c", p.hc.into()),
                ("t1", t1.into()),
                ("t2", t2.into()),
                ("t3", t3.into()),
                ("f1_percent", (100.0 * (t3 - t2) / t2).into()),
                ("f2_percent", (100.0 * (t1 - t2) / t2).into()),
            ])
        })
        .collect()
}

fn main() {
    if gate::args("table2", &[]).json {
        let config = Json::obj(vec![
            ("scheme", "pair".into()),
            ("dtb_entries", 64u64.into()),
        ]);
        println!(
            "{}",
            bench_report("table2", config, measured_rows()).render()
        );
        return;
    }
    let xs: Vec<f64> = published::X_VALUES.to_vec();
    println!("Table 2 — F1: % increase in interpretation time, DTB used as a plain cache");
    println!("\nPanel A: paper's printed formula (matches the published table)\n");
    print_row("d \\ x", &xs);
    print_rule(xs.len());
    for (i, row) in grid(printed::f1).iter().enumerate() {
        print_row(&format!("d = {}", published::D_VALUES[i]), row);
    }
    println!("\nPanel B: symbolic model with the paper's stated parameter values\n");
    print_row("d \\ x", &xs);
    print_rule(xs.len());
    for &d in &published::D_VALUES {
        let row: Vec<f64> = xs
            .iter()
            .map(|&x| Params::paper_stated(d, x).f1())
            .collect();
        print_row(&format!("d = {d}"), &row);
    }
    println!("\nPanel C: measured by simulation (PairHuffman static DIR, 64-entry DTB)\n");
    println!(
        "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "workload", "d", "x", "h_D", "h_c", "T2", "T3", "F1 (%)"
    );
    print_rule(7);
    for w in workloads() {
        let (interp, dtb, cache) = run_three(
            &w.base,
            SchemeKind::PairHuffman,
            DtbConfig::with_capacity(64),
        );
        let p = Params::from_reports(&uhm::CostModel::default(), &interp, &dtb, &cache);
        let t2 = dtb.metrics.time_per_instruction();
        let t3 = cache.metrics.time_per_instruction();
        println!(
            "{:>14} {:>8.2} {:>8.2} {:>8.3} {:>8.3} {:>8.2} {:>8.2} {:>9.2}",
            w.name,
            p.d,
            p.x,
            p.hd,
            p.hc,
            t2,
            t3,
            100.0 * (t3 - t2) / t2
        );
    }
}
