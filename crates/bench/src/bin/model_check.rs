//! **Model validation:** the Section-7 analytic model, fed with parameters
//! *measured* from the simulator, must predict each machine's simulated
//! average interpretation time. This closes the loop the paper left open
//! ("the evaluation of F1 and F2 is hampered by the lack of suitable
//! statistics").
//!
//! Run with `cargo run -p uhm-bench --bin model_check --release`.
//! With `--json`, emits a versioned run report instead of the text table.

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::model::{ModeKind, Params};
use uhm::{CostModel, DtbConfig};
use uhm_bench::{bench_report, gate, run_three, workloads};

fn main() {
    let json = gate::args("model_check", &[]).json;
    if !json {
        println!("Analytic model vs cycle-accurate simulation (PairHuffman, 64-entry DTB)\n");
        println!(
            "{:>14} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6}",
            "workload",
            "T1 sim",
            "T1 mod",
            "err%",
            "T2 sim",
            "T2 mod",
            "err%",
            "T3 sim",
            "T3 mod",
            "err%"
        );
        println!("{}", "-".repeat(98));
    }
    let costs = CostModel::default();
    let mut rows = Vec::new();
    let mut max_err: f64 = 0.0;
    for w in workloads() {
        let (interp, dtb, cache) = run_three(
            &w.base,
            SchemeKind::PairHuffman,
            DtbConfig::with_capacity(64),
        );
        let p = Params::from_reports(&costs, &interp, &dtb, &cache);
        let mut cells = Vec::new();
        let mut fields: Vec<(&'static str, Json)> = vec![("workload", w.name.into())];
        for (report, kind, label) in [
            (&interp, ModeKind::Interpreter, "t1"),
            (&dtb, ModeKind::Dtb, "t2"),
            (&cache, ModeKind::ICache, "t3"),
        ] {
            let sim = report.metrics.time_per_instruction();
            let model = p.predict(&kind);
            let err = 100.0 * (model - sim) / sim;
            max_err = max_err.max(err.abs());
            cells.push(format!("{sim:>8.2} {model:>8.2} {err:>6.2}"));
            fields.push((
                label,
                Json::obj(vec![
                    ("simulated", sim.into()),
                    ("modelled", model.into()),
                    ("error_percent", err.into()),
                ]),
            ));
        }
        if json {
            rows.push(Json::obj(fields));
        } else {
            println!("{:>14} | {}", w.name, cells.join(" | "));
        }
    }
    if json {
        let config = Json::obj(vec![
            ("scheme", "pair".into()),
            ("dtb_entries", 64u64.into()),
            ("max_abs_error_percent", max_err.into()),
        ]);
        println!("{}", bench_report("model_check", config, rows).render());
        return;
    }
    println!("\nmax |error| = {max_err:.2}%");
    println!("Residual error comes from correlation the mean-value model ignores:");
    println!("which instructions miss the DTB is not independent of their d and s2.");
}
