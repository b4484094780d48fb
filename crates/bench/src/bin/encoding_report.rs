//! **E6 — the §3.2 compaction claim:** Wilner reports 25–75% memory
//! reduction from encoding; Hehner claims up to 75%. This experiment
//! measures the reduction of every encoding scheme against the
//! byte-aligned baseline on every workload, at both semantic tiers.
//!
//! Run with `cargo run -p uhm-bench --bin encoding_report --release`.
//! With `--json`, emits a versioned run report instead of the text tables.

use dir::encode::SchemeKind;
use dir::stats::{ImageSummary, StaticStats};
use telemetry::Json;
use uhm_bench::corpus::tiers;
use uhm_bench::{bench_report, gate, workloads};

const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Packed,
    SchemeKind::Contextual,
    SchemeKind::Huffman,
    SchemeKind::PairHuffman,
    SchemeKind::ValueHuffman,
];

fn main() {
    let json = gate::args("encoding_report", &[]).json;
    if !json {
        println!("Encoding compaction versus the byte-aligned baseline (program bits)\n");
        println!(
            "{:>14} {:>6} {:>10} | {:>16} {:>16} {:>16} {:>16} {:>16}",
            "workload", "tier", "byte bits", "packed", "contextual", "huffman", "pair", "valuehuff"
        );
        println!("{}", "-".repeat(121));
    }
    let mut rows = Vec::new();
    let mut worst: f64 = 1.0;
    let mut best: f64 = 0.0;
    for w in workloads() {
        for (tier, prog) in tiers(&w) {
            let baseline = SchemeKind::ByteAligned.encode(prog).program_bits();
            let mut cells = Vec::new();
            let mut scheme_rows = Vec::new();
            for scheme in SCHEMES {
                let s = ImageSummary::of(&scheme.encode(prog));
                let red = s.reduction_vs(baseline);
                worst = worst.min(red);
                best = best.max(red);
                cells.push(format!("{:>7} ({:>4.0}%)", s.program_bits, red * 100.0));
                scheme_rows.push(Json::obj(vec![
                    ("scheme", scheme.label().into()),
                    ("program_bits", s.program_bits.into()),
                    ("reduction", red.into()),
                ]));
            }
            if json {
                rows.push(Json::obj(vec![
                    ("workload", w.name.into()),
                    ("tier", tier.into()),
                    ("baseline_bits", baseline.into()),
                    ("schemes", Json::Arr(scheme_rows)),
                ]));
            } else {
                println!(
                    "{:>14} {:>6} {:>10} | {}",
                    w.name,
                    tier,
                    baseline,
                    cells.join(" ")
                );
            }
        }
    }
    if !json {
        println!(
            "\nReduction range across all points: {:.0}%..{:.0}% (Wilner reported 25-75%).",
            worst * 100.0,
            best * 100.0
        );
        println!("\nStatic opcode statistics (entropy justifies the frequency coding):\n");
        println!(
            "{:>14} {:>8} {:>10} {:>24}",
            "workload", "instrs", "H(opcode)", "top-3 opcodes"
        );
    }
    for w in workloads() {
        let st = StaticStats::collect(&w.base);
        let top: Vec<String> = st
            .top_opcodes(3)
            .into_iter()
            .map(|(op, n)| format!("{op:?}:{n}"))
            .collect();
        if json {
            rows.push(Json::obj(vec![
                ("workload", w.name.into()),
                ("static_instructions", (st.instructions as u64).into()),
                ("opcode_entropy", st.opcode_entropy.into()),
                (
                    "top_opcodes",
                    Json::Arr(top.iter().map(|t| t.clone().into()).collect()),
                ),
            ]));
        } else {
            println!(
                "{:>14} {:>8} {:>10.2} {:>24}",
                w.name,
                st.instructions,
                st.opcode_entropy,
                top.join(" ")
            );
        }
    }
    if json {
        let config = Json::obj(vec![
            ("baseline", "byte".into()),
            ("reduction_min", worst.into()),
            ("reduction_max", best.into()),
        ]);
        println!("{}", bench_report("encoding_report", config, rows).render());
    }
}
