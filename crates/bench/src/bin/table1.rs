//! Regenerates **Table 1**: equivalence of a PSDER call sequence to more
//! compact, encoded machine formats (PDP-11 two-operand and System/360 RX
//! without the index field).
//!
//! Run with `cargo run -p uhm-bench --bin table1`.
//! With `--json`, emits a versioned run report instead of the text table.

use telemetry::Json;
use uhm_bench::{bench_report, gate};

fn main() {
    if gate::args("table1", &[]).json {
        let rows: Vec<Json> = dir::formats::table1()
            .into_iter()
            .map(|row| {
                Json::obj(vec![
                    ("representation", row.representation.into()),
                    ("total_bits", row.total_bits.into()),
                    (
                        "items",
                        Json::Arr(row.items.iter().map(|i| i.clone().into()).collect()),
                    ),
                ])
            })
            .collect();
        let config = Json::obj(vec![("statement", "R3 := R3 + base[disp]".into())]);
        println!("{}", bench_report("table1", config, rows).render());
        return;
    }
    println!("Table 1 — Equivalence of a PSDER sequence to more compact, encoded formats");
    println!("Statement: R3 := R3 + base[disp]\n");
    for row in dir::formats::table1() {
        println!("{} ({} bits total)", row.representation, row.total_bits);
        for item in &row.items {
            println!("    {item}");
        }
        println!();
    }
    println!("The paper's point: the same semantics shrink monotonically as the");
    println!("representation moves from explicit procedure calls (PSDER) to ever");
    println!("more heavily encoded instruction formats — at the price of decoding.");
}
