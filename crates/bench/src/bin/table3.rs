//! Regenerates **Table 3**: percentage increase in the average DIR
//! instruction interpretation time due to *not* using the DTB
//! (`F2 = (T1 − T2)/T2 × 100`).
//!
//! Panels as in `table2`: published closed forms, stated-parameter
//! symbolic model, and full simulation with measured parameters.
//!
//! Run with `cargo run -p uhm-bench --bin table3 --release`.
//! With `--json`, emits a versioned run report instead of the text panels.

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::model::{grid, printed, published, Params};
use uhm::DtbConfig;
use uhm_bench::{bench_report, gate, print_row, print_rule, run_three, workloads};

fn main() {
    if gate::args("table3", &[]).json {
        let rows: Vec<Json> = workloads()
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
                Json::obj(vec![
                    ("workload", w.name.into()),
                    ("d", p.d.into()),
                    ("x", p.x.into()),
                    ("h_d", p.hd.into()),
                    ("t1", t1.into()),
                    ("t2", t2.into()),
                    ("f2_percent", (100.0 * (t1 - t2) / t2).into()),
                ])
            })
            .collect();
        let config = Json::obj(vec![
            ("scheme", "pair".into()),
            ("dtb_entries", 64u64.into()),
        ]);
        println!("{}", bench_report("table3", config, rows).render());
        return;
    }
    let xs: Vec<f64> = published::X_VALUES.to_vec();
    println!("Table 3 — F2: % increase in interpretation time without a DTB");
    println!("\nPanel A: paper's printed formula (matches the published table)\n");
    print_row("d \\ x", &xs);
    print_rule(xs.len());
    for (i, row) in grid(printed::f2).iter().enumerate() {
        print_row(&format!("d = {}", published::D_VALUES[i]), row);
    }
    println!("\nPanel B: symbolic model with the paper's stated parameter values\n");
    print_row("d \\ x", &xs);
    print_rule(xs.len());
    for &d in &published::D_VALUES {
        let row: Vec<f64> = xs
            .iter()
            .map(|&x| Params::paper_stated(d, x).f2())
            .collect();
        print_row(&format!("d = {d}"), &row);
    }
    println!("\nPanel C: measured by simulation (PairHuffman static DIR, 64-entry DTB)\n");
    println!(
        "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "workload", "d", "x", "h_D", "T1", "T2", "F2 (%)"
    );
    print_rule(6);
    for w in workloads() {
        let (interp, dtb, cache) = run_three(
            &w.base,
            SchemeKind::PairHuffman,
            DtbConfig::with_capacity(64),
        );
        let p = Params::from_reports(&uhm::CostModel::default(), &interp, &dtb, &cache);
        let t1 = interp.metrics.time_per_instruction();
        let t2 = dtb.metrics.time_per_instruction();
        println!(
            "{:>14} {:>8.2} {:>8.2} {:>8.3} {:>8.2} {:>8.2} {:>9.2}",
            w.name,
            p.d,
            p.x,
            p.hd,
            t1,
            t2,
            100.0 * (t1 - t2) / t2
        );
    }
}
