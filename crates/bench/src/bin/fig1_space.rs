//! Regenerates **Figure 1**: the two-dimensional space of program
//! representations.
//!
//! The vertical axis is semantic level (HLR source → fused DIR → stack DIR
//! → PSDER/DER expansion), the horizontal axis is degree of encoding
//! (byte-aligned → packed → contextual → Huffman → pair-Huffman). For
//! every point we measure the quantities the figure annotates:
//!
//! * program size (falls to the right and, per instruction count, upward);
//! * interpreter/side-table size (grows to the right);
//! * decode cost `d` and simulated interpretation time (grow to the right,
//!   fall upward).
//!
//! Run with `cargo run -p uhm-bench --bin fig1_space --release`.
//! With `--json`, emits a versioned run report instead of the text tables.

use dir::encode::SchemeKind;
use dir::program::Program;
use telemetry::Json;
use uhm::{Machine, Mode};
use uhm_bench::corpus::tiers;
use uhm_bench::{bench_report, gate, workloads};

/// PSDER/DER footprint of a program: every instruction expanded to its
/// steering sequence (what storing the whole program pre-translated would
/// cost), in 24-bit short words.
fn expanded_der_bits(p: &Program) -> u64 {
    let words: usize = p
        .code
        .iter()
        .map(|&i| psder::Template::new(i, 0).len())
        .sum();
    words as u64 * 24
}

fn main() {
    let json = gate::args("fig1_space", &[]).json;
    if !json {
        println!("Figure 1 — the space of program representations");
        println!("(sizes in bits; T = simulated cycles per DIR instruction, pure interpreter)\n");
    }
    let mut rows = Vec::new();
    let mut grand: Vec<(String, u64, u64, f64, f64)> = Vec::new();
    for w in workloads() {
        let hlr_bits = hlr::programs::by_name(w.name)
            .expect("workload names come from the sample set")
            .source
            .len() as u64
            * 8;
        if !json {
            println!("== {} (HLR source: {} bits) ==", w.name, hlr_bits);
            println!(
                "{:>8} {:>12} {:>10} {:>10} {:>8} {:>8}",
                "level", "encoding", "prog bits", "side bits", "d", "T"
            );
        }
        let mut points = Vec::new();
        // Higher semantic level first: the figure's vertical axis.
        for (level, prog) in tiers(&w).into_iter().rev() {
            for scheme in SchemeKind::all() {
                let image = scheme.encode(prog);
                let machine = Machine::new(prog, scheme);
                let t = machine
                    .run(&Mode::Interpreter)
                    .expect("samples are trap-free")
                    .metrics
                    .time_per_instruction();
                if json {
                    points.push(Json::obj(vec![
                        ("level", level.into()),
                        ("encoding", scheme.label().into()),
                        ("program_bits", image.program_bits().into()),
                        ("side_table_bits", image.side_table_bits.into()),
                        ("d", image.mean_decode_cost().into()),
                        ("time_per_instruction", t.into()),
                    ]));
                } else {
                    println!(
                        "{:>8} {:>12} {:>10} {:>10} {:>8.2} {:>8.2}",
                        level,
                        scheme.label(),
                        image.program_bits(),
                        image.side_table_bits,
                        image.mean_decode_cost(),
                        t
                    );
                }
                grand.push((
                    format!("{level}/{scheme}"),
                    image.program_bits(),
                    image.side_table_bits,
                    image.mean_decode_cost(),
                    t,
                ));
            }
            // The fully expanded DER point (no decode, maximal size).
            if json {
                points.push(Json::obj(vec![
                    ("level", level.into()),
                    ("encoding", "expanded-DER".into()),
                    ("program_bits", expanded_der_bits(prog).into()),
                    ("side_table_bits", 0u64.into()),
                    ("d", 0.0.into()),
                ]));
            } else {
                println!(
                    "{:>8} {:>12} {:>10} {:>10} {:>8.2} {:>8}",
                    level,
                    "expanded-DER",
                    expanded_der_bits(prog),
                    0,
                    0.0,
                    "n/a"
                );
            }
        }
        if json {
            rows.push(Json::obj(vec![
                ("workload", w.name.into()),
                ("hlr_bits", hlr_bits.into()),
                ("points", Json::Arr(points)),
            ]));
        } else {
            println!();
        }
    }

    // Aggregate view across the whole suite.
    if !json {
        println!("== aggregate across all workloads ==");
        println!(
            "{:>18} {:>12} {:>12} {:>8} {:>8}",
            "point", "prog bits", "side bits", "d", "T"
        );
    }
    let mut agg: std::collections::BTreeMap<String, (u64, u64, f64, f64, u32)> =
        std::collections::BTreeMap::new();
    for (k, p, s, d, t) in grand {
        let e = agg.entry(k).or_insert((0, 0, 0.0, 0.0, 0));
        e.0 += p;
        e.1 += s;
        e.2 += d;
        e.3 += t;
        e.4 += 1;
    }
    let mut agg_rows = Vec::new();
    for (k, (p, s, d, t, n)) in agg {
        if json {
            agg_rows.push(Json::obj(vec![
                ("point", k.into()),
                ("program_bits", p.into()),
                ("side_table_bits", s.into()),
                ("d", (d / n as f64).into()),
                ("time_per_instruction", (t / n as f64).into()),
            ]));
        } else {
            println!(
                "{:>18} {:>12} {:>12} {:>8.2} {:>8.2}",
                k,
                p,
                s,
                d / n as f64,
                t / n as f64
            );
        }
    }
    if json {
        rows.push(Json::obj(vec![("aggregate", Json::Arr(agg_rows))]));
        let config = Json::obj(vec![("mode", "interpreter".into())]);
        println!("{}", bench_report("fig1_space", config, rows).render());
        return;
    }
    println!("\nReading the figure: moving right (more encoding) shrinks programs but");
    println!("raises d and T; moving up (higher semantic level) shrinks programs AND");
    println!("lowers T — dynamic translation lets the static form sit far right while");
    println!("the working set executes from the top.");
}
