//! Regenerates the paper's Section 7 model and its §8 cost case:
//!
//! * **E2, Table 2:** percentage increase in the average DIR instruction
//!   interpretation time due to using the DTB as a plain cache on the
//!   level-2 memory (`F1 = (T3 − T2)/T2 × 100`).
//! * **E3, Table 3:** the same increase due to *not* using the DTB
//!   (`F2 = (T1 − T2)/T2 × 100`).
//!
//!   Each table has three panels: (A) the paper's published numbers
//!   (printed closed forms, reproduced exactly, with their largest
//!   deviation from the published digits); (B) the symbolic model under
//!   the paper's *stated* parameter values (internally inconsistent with
//!   panel A — see DESIGN.md); (C) the figure measured by full
//!   simulation on each sample workload, with every parameter (`d`, `g`,
//!   `x`, `s1`, `s2`, `h_D`, `h_c`) taken from the machine rather than
//!   assumed.
//! * **Model check:** the analytic model, fed with parameters *measured*
//!   from the simulator, must predict each machine's simulated average
//!   interpretation time. This closes the loop the paper left open ("the
//!   evaluation of F1 and F2 is hampered by the lack of suitable
//!   statistics").
//! * **E12, §8 cost-effectiveness:** "The decoding overhead of a
//!   universal host machine may be reduced either by providing powerful
//!   hardware aids to the decoding process or by the use of a dynamic
//!   translation buffer ... The former approach requires the addition of
//!   random logic whereas the latter approach relies on the use of
//!   memory." The conventional interpreter with increasingly powerful
//!   decode hardware (decode cost scaled to 100% / 50% / 25% / 10% of the
//!   measured software cost) against the unmodified machine plus a
//!   64-entry DTB (whose price is its level-1 buffer memory, reported in
//!   short words).
//!
//! Every table runs PairHuffman static DIR against a 64-entry DTB. Each
//! workload runs the interpreter, the DTB and the i-cache once at the
//! default costs, and the interpreter once more at each scaled decode
//! cost; all four tables read those runs.
//!
//! Run with `cargo run -p uhm-bench --bin section7 --release`.
//! With `--json`, emits one versioned run report instead of the text
//! panels; each row's `experiment` names its table (`E2`, `E3`, `model`,
//! `E12`).

use dir::encode::SchemeKind;
use telemetry::Json;
use uhm::model::{grid, printed, published, ModeKind, Params};
use uhm::{CostModel, DtbConfig, Limits, Machine, Mode};
use uhm_bench::{gate, workloads, Tables, Workload};

/// The DTB every table measures.
const DTB_ENTRIES: usize = 64;

/// E12's decode-cost scales, percent of the measured software cost.
const SCALES: [u64; 4] = [100, 50, 25, 10];

/// One workload's runs.
struct Sample {
    name: &'static str,
    /// `(T1, T2, T3)`: simulated cycles per DIR instruction of the
    /// interpreter, the DTB and the i-cache machines.
    times: (f64, f64, f64),
    /// Section-7 parameters measured from those three runs.
    params: Params,
    /// Interpreter cycles per DIR instruction at each of [`SCALES`].
    aided: Vec<f64>,
}

impl Sample {
    fn measure(w: &Workload) -> Sample {
        let costs = CostModel::default();
        let machine = Machine::new(&w.base, SchemeKind::PairHuffman);
        let run = |mode: &Mode| machine.run(mode).expect("samples are trap-free");
        let interp = run(&Mode::Interpreter);
        let dtb_config = DtbConfig::with_capacity(DTB_ENTRIES);
        let dtb = run(&Mode::Dtb(dtb_config));
        // The i-cache matches the DTB's level-1 footprint in words, the
        // paper's "roughly the same resources" comparison: one cache line
        // per level-2 word, equal word count = equal capacity.
        let ways = 4;
        let sets = (dtb_config.buffer_words() / ways).max(1);
        let cache = run(&Mode::ICache {
            geometry: memsim::Geometry::new(sets, ways),
        });
        let t1 = interp.metrics.time_per_instruction();
        let aided = SCALES
            .iter()
            .map(|&scale| {
                if scale == costs.decode_scale_percent {
                    return t1;
                }
                let costs = CostModel {
                    decode_scale_percent: scale,
                    ..costs
                };
                Machine::with(&w.base, SchemeKind::PairHuffman, costs, Limits::default())
                    .run(&Mode::Interpreter)
                    .expect("samples are trap-free")
                    .metrics
                    .time_per_instruction()
            })
            .collect();
        Sample {
            name: w.name,
            times: (
                t1,
                dtb.metrics.time_per_instruction(),
                cache.metrics.time_per_instruction(),
            ),
            params: Params::from_reports(&costs, &interp, &dtb, &cache),
            aided,
        }
    }
}

/// A formatted row of floats.
fn grid_row(label: &str, values: &[f64]) -> String {
    let cells: String = values.iter().map(|v| format!(" {v:>9.2}")).collect();
    format!("{label:>14}{cells}")
}

/// A rule line sized for `n` value columns.
fn rule(n: usize) -> String {
    "-".repeat(14 + 10 * n)
}

/// The `(d, x)` grid header and its rule.
fn grid_head(out: &mut Tables) {
    out.line(grid_row("d \\ x", &published::X_VALUES));
    out.line(rule(published::X_VALUES.len()));
}

/// Panels A and B of Table 2 or 3; returns panel A's largest deviation
/// from the published table.
fn model_panels(
    out: &mut Tables,
    printed: fn(f64, f64) -> f64,
    stated: fn(&Params) -> f64,
    paper: &[[f64; 6]; 3],
) -> f64 {
    out.line("\nPanel A: paper's printed formula (matches the published table)\n");
    grid_head(out);
    let panel_a = grid(printed);
    for (i, row) in panel_a.iter().enumerate() {
        out.line(grid_row(&format!("d = {}", published::D_VALUES[i]), row));
    }
    let deviation = panel_a
        .iter()
        .zip(paper)
        .flat_map(|(row, prow)| row.iter().zip(prow).map(|(a, b)| (a - b).abs()))
        .fold(0.0f64, f64::max);
    out.line(format!(
        "max deviation from the published table: {deviation:.3}"
    ));
    out.line("\nPanel B: symbolic model with the paper's stated parameter values\n");
    grid_head(out);
    for &d in &published::D_VALUES {
        let row: Vec<f64> = published::X_VALUES
            .iter()
            .map(|&x| stated(&Params::paper_stated(d, x)))
            .collect();
        out.line(grid_row(&format!("d = {d}"), &row));
    }
    out.line("\nPanel C: measured by simulation (PairHuffman static DIR, 64-entry DTB)\n");
    deviation
}

/// The settings every table shares, plus `extra`.
fn settings(extra: (&'static str, Json)) -> Vec<(&'static str, Json)> {
    vec![
        ("scheme", "pair".into()),
        ("dtb_entries", DTB_ENTRIES.into()),
        extra,
    ]
}

fn table2(samples: &[Sample], out: &mut Tables) {
    out.line("Table 2 — F1: % increase in interpretation time, DTB used as a plain cache");
    let deviation = model_panels(out, printed::f1, Params::f1, &published::TABLE2);
    out.config(
        "E2",
        settings(("max_deviation_from_published", deviation.into())),
    );
    out.line(format!(
        "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "workload", "d", "x", "h_D", "h_c", "T2", "T3", "F1 (%)"
    ));
    out.line(rule(7));
    for s in samples {
        let p = &s.params;
        let (t1, t2, t3) = s.times;
        let f1 = 100.0 * (t3 - t2) / t2;
        out.line(format!(
            "{:>14} {:>8.2} {:>8.2} {:>8.3} {:>8.3} {:>8.2} {:>8.2} {:>9.2}",
            s.name, p.d, p.x, p.hd, p.hc, t2, t3, f1
        ));
        out.row(
            "E2",
            vec![
                ("workload", s.name.into()),
                ("d", p.d.into()),
                ("x", p.x.into()),
                ("h_d", p.hd.into()),
                ("h_c", p.hc.into()),
                ("t1", t1.into()),
                ("t2", t2.into()),
                ("t3", t3.into()),
                ("f1_percent", f1.into()),
                ("f2_percent", (100.0 * (t1 - t2) / t2).into()),
            ],
        );
    }
}

fn table3(samples: &[Sample], out: &mut Tables) {
    out.line("Table 3 — F2: % increase in interpretation time without a DTB");
    let deviation = model_panels(out, printed::f2, Params::f2, &published::TABLE3);
    out.config(
        "E3",
        settings(("max_deviation_from_published", deviation.into())),
    );
    out.line(format!(
        "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "workload", "d", "x", "h_D", "T1", "T2", "F2 (%)"
    ));
    out.line(rule(6));
    for s in samples {
        let p = &s.params;
        let (t1, t2, _) = s.times;
        let f2 = 100.0 * (t1 - t2) / t2;
        out.line(format!(
            "{:>14} {:>8.2} {:>8.2} {:>8.3} {:>8.2} {:>8.2} {:>9.2}",
            s.name, p.d, p.x, p.hd, t1, t2, f2
        ));
        out.row(
            "E3",
            vec![
                ("workload", s.name.into()),
                ("d", p.d.into()),
                ("x", p.x.into()),
                ("h_d", p.hd.into()),
                ("t1", t1.into()),
                ("t2", t2.into()),
                ("f2_percent", f2.into()),
            ],
        );
    }
}

fn model_check(samples: &[Sample], out: &mut Tables) {
    out.line("Analytic model vs cycle-accurate simulation (PairHuffman, 64-entry DTB)\n");
    out.line(format!(
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
    ));
    out.line("-".repeat(98));
    let mut max_err: f64 = 0.0;
    for s in samples {
        let (t1, t2, t3) = s.times;
        let mut cells = Vec::new();
        let mut fields: Vec<(&'static str, Json)> = vec![("workload", s.name.into())];
        for (sim, kind, label) in [
            (t1, ModeKind::Interpreter, "t1"),
            (t2, ModeKind::Dtb, "t2"),
            (t3, ModeKind::ICache, "t3"),
        ] {
            let model = s.params.predict(&kind);
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
        out.line(format!("{:>14} | {}", s.name, cells.join(" | ")));
        out.row("model", fields);
    }
    out.config("model", settings(("max_abs_error_percent", max_err.into())));
    out.line(format!("\nmax |error| = {max_err:.2}%"));
    out.line("Residual error comes from correlation the mean-value model ignores:");
    out.line("which instructions miss the DTB is not independent of their d and s2.");
}

fn decode_aids(samples: &[Sample], out: &mut Tables) {
    let buffer_words = DtbConfig::with_capacity(DTB_ENTRIES).buffer_words();
    out.config(
        "E12",
        vec![
            (
                "decode_scales_percent",
                Json::Arr(SCALES.iter().map(|&s| s.into()).collect()),
            ),
            ("dtb_entries", DTB_ENTRIES.into()),
            ("dtb_buffer_words", buffer_words.into()),
        ],
    );
    out.line("Decode hardware aids vs dynamic translation (PairHuffman static DIR)\n");
    out.line(format!(
        "{:>14} | {} | {:>9}",
        "workload",
        SCALES
            .iter()
            .map(|s| format!("{:>9}", format!("T1@{s}%")))
            .collect::<Vec<_>>()
            .join(" "),
        "T2 (DTB)"
    ));
    out.line("-".repeat(17 + 10 * SCALES.len() + 12));
    let mut beats = 0usize;
    let mut total = 0usize;
    for s in samples {
        let (_, t2, _) = s.times;
        let best_aided = s.aided.iter().copied().fold(f64::INFINITY, f64::min);
        if s.name != "straightline" {
            total += 1;
            if t2 < best_aided {
                beats += 1;
            }
        }
        let cells: Vec<String> = s.aided.iter().map(|t1| format!("{t1:>9.2}")).collect();
        out.line(format!(
            "{:>14} | {} | {:>9.2}",
            s.name,
            cells.join(" "),
            t2
        ));
        let aided = SCALES
            .iter()
            .zip(&s.aided)
            .map(|(&scale, &t1)| {
                Json::obj(vec![
                    ("decode_scale_percent", scale.into()),
                    ("time_per_instruction", t1.into()),
                ])
            })
            .collect();
        out.row(
            "E12",
            vec![
                ("workload", s.name.into()),
                ("aided_interpreter", Json::Arr(aided)),
                ("dtb_time", t2.into()),
            ],
        );
    }
    out.line(format!(
        "\nThe DTB's price: {} short words of level-1 buffer ({} bits at 24-bit words).",
        buffer_words,
        buffer_words * 24
    ));
    out.line(format!(
        "On {beats}/{total} looping workloads the DTB beats even a 10x decode\n\
         accelerator: hardware aids only attack the d term, while the DTB also\n\
         removes the level-2 fetch (s2*t2) from the hit path. Decode aids win\n\
         only where reuse is absent (straightline) — memory vs random logic,\n\
         settled in memory's favour for §8's assumed workloads."
    ));
}

fn main() {
    let json = gate::args("section7", &[]).json;
    let samples: Vec<Sample> = workloads().iter().map(Sample::measure).collect();
    let mut out = Tables::default();
    let tables: [fn(&[Sample], &mut Tables); 4] = [table2, table3, model_check, decode_aids];
    for (i, table) in tables.into_iter().enumerate() {
        if i > 0 {
            out.line("");
        }
        table(&samples, &mut out);
    }
    out.print("section7", json);
}
