//! Regenerates the paper's evidence on DTB organisation (§4–5), every
//! table over PairHuffman static DIR:
//!
//! * **E7, the §4 locality claim:** DTB hit ratio and interpretation time
//!   versus DTB capacity, plus Denning working-set measurements of the
//!   DIR instruction traces that explain them.
//! * **E8, allocation policy (§5.1):** fixed allocation units versus
//!   variable allocation with fixed-size overflow increments. Fixed units
//!   must be as large as the largest translation and waste the slack;
//!   smaller units with an overflow area hold more translations in the
//!   same level-1 footprint, trading occasional chain fetches and (under
//!   pressure) uncacheable translations.
//! * **E9, associativity (§5.2):** hit ratio at fixed capacity across
//!   degrees 1, 2, 4, 8 and full. The paper adopts degree 4 because it
//!   "has been found to be nearly as effective as full associativity".
//! * **E10, replacement (§5.2):** the paper's replacement array
//!   implements true LRU ("the one selected for replacement is that which
//!   was used least recently"); what the recency tracking buys over FIFO
//!   and random replacement at several capacities.
//! * **E11, multi-level dynamic translation (§4):** "when the
//!   dissimilarities between the representations ... are great, it is
//!   possible that a number of levels of dynamic translation will be
//!   required". A second, larger translation store behind a small
//!   first-level DTB: first-level misses that hit the second level are
//!   *promoted* (copied) instead of re-decoded and re-translated.
//!
//! The tables share configurations (a 32-entry 4-way LRU DTB appears in
//! four of them); each workload runs each distinct mode once.
//!
//! Run with `cargo run -p uhm-bench --bin dtb_design --release`.
//! With `--json`, emits one versioned run report instead of the text
//! tables; each row's `experiment` names its table.

use dir::encode::SchemeKind;
use memsim::{workset, Geometry};
use psder::MAX_TRANSLATION_WORDS;
use telemetry::Json;
use uhm::{Allocation, DtbConfig, DtbStats, Machine, Mode, Replacement};
use uhm_bench::{gate, workloads, Tables};

/// What the tables read of one run.
#[derive(Clone, Copy)]
struct Run {
    /// First-level DTB statistics.
    dtb: DtbStats,
    /// Cycles per DIR instruction.
    t: f64,
    /// Two-level promotion cycles.
    promote: u64,
}

/// One workload's machine, each mode run at most once.
struct Sample {
    name: &'static str,
    program: dir::Program,
    machine: Machine,
    runs: Vec<(Mode, Run)>,
}

impl Sample {
    fn run(&mut self, mode: Mode) -> Run {
        if let Some((_, run)) = self.runs.iter().find(|(m, _)| *m == mode) {
            return *run;
        }
        let metrics = self
            .machine
            .run(&mode)
            .expect("samples are trap-free")
            .metrics;
        let run = Run {
            dtb: metrics.dtb.expect("a DTB mode"),
            t: metrics.time_per_instruction(),
            promote: metrics.cycles.promote,
        };
        self.runs.push((mode, run));
        run
    }
}

/// A DTB of `sets` × `ways` fixed units as large as the largest
/// translation.
fn fixed(sets: usize, ways: usize, replacement: Replacement) -> DtbConfig {
    DtbConfig {
        geometry: Geometry::new(sets, ways),
        unit_words: MAX_TRANSLATION_WORDS,
        allocation: Allocation::Fixed,
        replacement,
    }
}

/// A JSON array of sizes.
fn list(sizes: &[usize]) -> Json {
    Json::Arr(sizes.iter().map(|&s| s.into()).collect())
}

fn dtb(entries: usize) -> Mode {
    Mode::Dtb(DtbConfig::with_capacity(entries))
}

fn locality(samples: &mut [Sample], out: &mut Tables) {
    let capacities = [4usize, 8, 16, 32, 64, 128, 256];
    out.config(
        "E7",
        vec![("scheme", "pair".into()), ("capacities", list(&capacities))],
    );
    out.line("DTB capacity sweep (PairHuffman static DIR, degree-4 sets)\n");
    out.line(format!(
        "{:>14} {:>7} | {}",
        "workload",
        "",
        capacities
            .iter()
            .map(|c| format!("{c:>7}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.line("-".repeat(26 + 8 * capacities.len()));
    let mut ws_lines = Vec::new();
    for s in samples {
        let points: Vec<(usize, Run)> = capacities.iter().map(|&c| (c, s.run(dtb(c)))).collect();
        let hits: Vec<String> = points
            .iter()
            .map(|(_, r)| format!("{:>7.3}", r.dtb.hit_ratio()))
            .collect();
        let times: Vec<String> = points
            .iter()
            .map(|(_, r)| format!("{:>7.2}", r.t))
            .collect();
        out.line(format!("{:>14} {:>7} | {}", s.name, "h_D", hits.join(" ")));
        out.line(format!("{:>14} {:>7} | {}", "", "T2", times.join(" ")));
        // Locality of the reference executor's DIR-address trace.
        let (_, stats) = dir::exec::run_with(&s.program, dir::exec::Limits::default(), true)
            .expect("samples are trap-free");
        let trace: Vec<u64> = stats.trace.unwrap().into_iter().map(u64::from).collect();
        let rep = workset::LocalityReport::measure(&trace);
        ws_lines.push(format!(
            "{:>14} {:>10} {:>8} {:>8.1} {:>8.1} {:>8.3}",
            s.name, rep.references, rep.unique, rep.ws100, rep.ws1000, rep.lru64
        ));
        let sweep = points
            .iter()
            .map(|(c, r)| {
                Json::obj(vec![
                    ("entries", (*c).into()),
                    ("hit_ratio", r.dtb.hit_ratio().into()),
                    ("time_per_instruction", r.t.into()),
                    ("dtb", uhm::report::dtb_stats_json(&r.dtb)),
                ])
            })
            .collect();
        out.row(
            "E7",
            vec![
                ("workload", s.name.into()),
                ("sweep", Json::Arr(sweep)),
                (
                    "locality",
                    Json::obj(vec![
                        ("references", rep.references.into()),
                        ("unique", rep.unique.into()),
                        ("ws100", rep.ws100.into()),
                        ("ws1000", rep.ws1000.into()),
                        ("lru64", rep.lru64.into()),
                    ]),
                ),
            ],
        );
    }
    out.line("\nWorking-set evidence (Denning window over the DIR trace)\n");
    out.line(format!(
        "{:>14} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "workload", "refs", "unique", "ws(100)", "ws(1000)", "lru64"
    ));
    for line in ws_lines {
        out.line(line);
    }
    out.line("\nThe small working sets relative to static program size are exactly the");
    out.line("locality the paper's §4 invokes: a modest DTB captures almost all");
    out.line("executed instructions, except on the adversarial straight-line workload.");
}

fn allocation(samples: &mut [Sample], out: &mut Tables) {
    // Policies with an (approximately) equal level-1 budget of short words.
    let fixed = fixed(32 / 4, 4, Replacement::Lru);
    // Same word budget: 32 entries * 3-word units = 96 primary words, plus
    // 16 overflow blocks * 3 = 48; vs fixed 32 * 6 = 192 words.
    let overflow = DtbConfig {
        geometry: Geometry::new(48 / 4, 4),
        unit_words: 3,
        allocation: Allocation::Overflow { blocks: 16 },
        replacement: Replacement::Lru,
    };
    out.config(
        "E8",
        vec![
            ("fixed_words", fixed.buffer_words().into()),
            ("overflow_words", overflow.buffer_words().into()),
        ],
    );
    out.line(format!(
        "Allocation ablation (equal level-1 budget: fixed = {} words, overflow = {} words)\n",
        fixed.buffer_words(),
        overflow.buffer_words()
    ));
    out.line(format!(
        "{:>14} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} {:>10}",
        "workload", "fix h_D", "fix T2", "fix evic", "ovf h_D", "ovf T2", "ovf evic", "uncached"
    ));
    out.line("-".repeat(106));
    for s in samples {
        let rf = s.run(Mode::Dtb(fixed));
        let ro = s.run(Mode::Dtb(overflow));
        let (sf, so) = (rf.dtb, ro.dtb);
        out.line(format!(
            "{:>14} | {:>10.3} {:>10.2} {:>10} | {:>10.3} {:>10.2} {:>10} {:>10}",
            s.name,
            sf.hit_ratio(),
            rf.t,
            sf.evictions,
            so.hit_ratio(),
            ro.t,
            so.evictions,
            so.uncached,
        ));
        out.row(
            "E8",
            vec![
                ("workload", s.name.into()),
                (
                    "fixed",
                    Json::obj(vec![
                        ("hit_ratio", sf.hit_ratio().into()),
                        ("time_per_instruction", rf.t.into()),
                        ("evictions", sf.evictions.into()),
                    ]),
                ),
                (
                    "overflow",
                    Json::obj(vec![
                        ("hit_ratio", so.hit_ratio().into()),
                        ("time_per_instruction", ro.t.into()),
                        ("evictions", so.evictions.into()),
                        ("uncached", so.uncached.into()),
                    ]),
                ),
            ],
        );
    }
    out.line("\nWith the same fast-memory budget, 3-word units + overflow track more");
    out.line("translations (48 vs 32 entries), raising h_D on working sets that");
    out.line("exceed the fixed-policy entry count — §5.1's argument for variable");
    out.line("allocation with fixed increments.");
}

fn associativity(samples: &mut [Sample], out: &mut Tables) {
    let capacity = 32;
    let degrees: [usize; 5] = [1, 2, 4, 8, capacity];
    out.config(
        "E9",
        vec![("capacity", capacity.into()), ("degrees", list(&degrees))],
    );
    out.line(format!(
        "Associativity ablation at a fixed {capacity}-entry DTB\n"
    ));
    out.line(format!(
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
    ));
    out.line("-".repeat(17 + 13 * degrees.len()));
    let mut sums = vec![0.0; degrees.len()];
    for s in samples.iter_mut() {
        let mut cells = Vec::new();
        let mut points = Vec::new();
        for (i, &ways) in degrees.iter().enumerate() {
            let h = s
                .run(Mode::Dtb(fixed(capacity / ways, ways, Replacement::Lru)))
                .dtb
                .hit_ratio();
            sums[i] += h;
            cells.push(format!("{h:>12.4}"));
            points.push(Json::obj(vec![
                ("ways", ways.into()),
                ("hit_ratio", h.into()),
            ]));
        }
        out.line(format!("{:>14} | {}", s.name, cells.join(" ")));
        out.row(
            "E9",
            vec![("workload", s.name.into()), ("degrees", Json::Arr(points))],
        );
    }
    out.line("-".repeat(17 + 13 * degrees.len()));
    let means: Vec<String> = sums
        .iter()
        .map(|s| format!("{:>12.4}", s / samples.len() as f64))
        .collect();
    out.line(format!("{:>14} | {}", "mean h_D", means.join(" ")));
    out.line("\nReading: on most workloads degree 4 is within a whisker of every other");
    out.line("degree, supporting §5.2's compromise. Where the working set exceeds the");
    out.line("DTB (queens, straightline), *lower* associativity can win: DIR addresses");
    out.line("are sequential, so modulo placement spreads a loop across all sets while");
    out.line("full-associative LRU exhibits classic loop thrashing (a loop one entry");
    out.line("larger than the buffer yields zero hits). The 1978 'degree 4 ≈ full'");
    out.line("evidence came from data caches; for an instruction-addressed DTB, modest");
    out.line("associativity is not merely cheaper — it is also safer.");
}

fn replacement(samples: &mut [Sample], out: &mut Tables) {
    let capacities = [16usize, 32, 64];
    let policies = [
        ("lru", Replacement::Lru),
        ("fifo", Replacement::Fifo),
        ("random", Replacement::Random { seed: 0x5EED }),
    ];
    out.config("E10", vec![("capacities", list(&capacities))]);
    out.line("Replacement-policy ablation (degree-4 sets, PairHuffman static DIR)\n");
    for capacity in capacities {
        out.line(format!("== {capacity}-entry DTB: hit ratio h_D =="));
        out.line(format!(
            "{:>14} | {:>8} {:>8} {:>8}",
            "workload", "lru", "fifo", "random"
        ));
        out.line("-".repeat(45));
        let mut sums = [0.0f64; 3];
        for s in samples.iter_mut() {
            let mut cells = Vec::new();
            let mut fields: Vec<(&'static str, Json)> =
                vec![("workload", s.name.into()), ("capacity", capacity.into())];
            for (i, (name, policy)) in policies.iter().enumerate() {
                let config = fixed((capacity / 4).max(1), 4, *policy);
                let h = s.run(Mode::Dtb(config)).dtb.hit_ratio();
                sums[i] += h;
                cells.push(format!("{h:>8.4}"));
                fields.push((*name, h.into()));
            }
            out.line(format!("{:>14} | {}", s.name, cells.join(" ")));
            out.row("E10", fields);
        }
        let n = samples.len() as f64;
        out.line("-".repeat(45));
        out.line(format!(
            "{:>14} | {:>8.4} {:>8.4} {:>8.4}\n",
            "mean",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n
        ));
    }
    out.line("Reading: the policies are close when the working set fits (all ≈ 1) or");
    out.line("drowns the buffer (all ≈ 0); LRU's recency tracking earns its keep in");
    out.line("the transition region — and random occasionally beats both on cyclic");
    out.line("reference patterns where deterministic policies thrash in lock-step.");
}

fn two_level(samples: &mut [Sample], out: &mut Tables) {
    let l1_caps = [4usize, 8, 16, 32];
    out.config(
        "E11",
        vec![
            ("l2_entries", 512u64.into()),
            ("l1_capacities", list(&l1_caps)),
        ],
    );
    out.line("Two-level dynamic translation (L2 store: 512 entries at tau_dtb2 = 5)\n");
    out.line(format!(
        "{:>14} | {}",
        "workload",
        l1_caps
            .iter()
            .map(|c| format!("{:>10} {:>10}", format!("1L@{c}"), format!("2L@{c}")))
            .collect::<Vec<_>>()
            .join(" | ")
    ));
    out.line("-".repeat(17 + 24 * l1_caps.len()));
    for s in samples {
        let mut cells = Vec::new();
        let mut points = Vec::new();
        for &cap in &l1_caps {
            let single = s.run(dtb(cap));
            let two = s.run(Mode::TwoLevelDtb {
                l1: DtbConfig::with_capacity(cap),
                l2: DtbConfig::with_capacity(512),
            });
            cells.push(format!("{:>10.2} {:>10.2}", single.t, two.t));
            points.push(Json::obj(vec![
                ("l1_entries", cap.into()),
                ("single_level_time", single.t.into()),
                ("two_level_time", two.t.into()),
                ("promote_cycles", two.promote.into()),
            ]));
        }
        out.line(format!("{:>14} | {}", s.name, cells.join(" | ")));
        out.row(
            "E11",
            vec![("workload", s.name.into()), ("points", Json::Arr(points))],
        );
    }
    out.line("\nReading: cycles per DIR instruction, single-level (1L) vs two-level");
    out.line("(2L) at each L1 capacity. The second level pays exactly where the");
    out.line("working set overflows L1 (small capacities, recursive workloads):");
    out.line("promotion at tau_dtb2 per word replaces a full fetch-decode-translate.");
    out.line("Once L1 holds the working set the two probes tie, as §4 predicts for");
    out.line("representations that are not 'greatly dissimilar'.");
}

fn main() {
    let json = gate::args("dtb_design", &[]).json;
    let mut samples: Vec<Sample> = workloads()
        .into_iter()
        .map(|w| Sample {
            name: w.name,
            machine: Machine::new(&w.base, SchemeKind::PairHuffman),
            program: w.base,
            runs: Vec::new(),
        })
        .collect();
    let mut out = Tables::default();
    let tables: [fn(&mut [Sample], &mut Tables); 5] =
        [locality, allocation, associativity, replacement, two_level];
    for (i, table) in tables.into_iter().enumerate() {
        if i > 0 {
            out.line("");
        }
        table(&mut samples, &mut out);
    }
    out.print("dtb_design", json);
}
