//! Goldens pinning the machine's observable behaviour across changes to
//! how it executes PSDER lines on the host.
//!
//! * `tests/golden/threaded.metrics` holds one line per run: the output
//!   (or the trap) and the full `Metrics` debug form, for every sample
//!   program, `hlr::generate` seeds 0–39 and two trapping programs, each
//!   under {Packed, Huffman} × six modes (interpreter, i-cache, two DTB
//!   sizes, overflow allocation and two-level translation): 708 runs. An
//!   output longer than 16 values is stored as its length and FNV-1a
//!   digest.
//! * `tests/golden/threaded.events` holds the JSONL event stream of
//!   traced runs, with the miss classifier on and off. Small programs are
//!   stored line for line; the two long sample runs are stored as their
//!   event counts, byte length and FNV-1a digest of the stream.
//!
//! Both files were captured from the word-by-word executor that preceded
//! the threaded one; each test asserts byte equality with its file.

use std::fmt::Write as _;

use dir::encode::SchemeKind;
use dir::program::Program;
use memsim::Geometry;
use telemetry::{Event, JsonlSink, RingSink, TeeSink, TraceSink};
use uhm::{Allocation, DtbConfig, Machine, Mode, Replacement, RunOptions};

/// The two trapping programs of the machine's own trap test.
const TRAPPING: [&str; 2] = [
    "proc main() begin write 1 / 0; end",
    "proc main() begin int a[3]; write a[5]; end",
];

/// A short halting program with a call, a return, a loop and output.
const HALTING: &str = "proc sq(int a) -> int begin return a * a; end
proc main() begin int i; for i := 1 to 4 do write sq(i); end";

fn manifest_file(path: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn compile(source: &str) -> Program {
    dir::compiler::compile(&hlr::compile(source).unwrap())
}

fn programs() -> Vec<(String, Program)> {
    let mut all: Vec<(String, Program)> = hlr::programs::ALL
        .iter()
        .map(|s| (s.name.to_string(), compile(s.source)))
        .collect();
    for seed in 0..40 {
        let ast = hlr::generate::program(seed, &hlr::generate::Config::default());
        let hir = hlr::sema::analyze(&ast).unwrap();
        all.push((format!("gen{seed}"), dir::compiler::compile(&hir)));
    }
    for (i, source) in TRAPPING.iter().enumerate() {
        all.push((format!("trap{i}"), compile(source)));
    }
    all
}

fn modes() -> Vec<(&'static str, Mode)> {
    vec![
        ("interp", Mode::Interpreter),
        (
            "icache16x4",
            Mode::ICache {
                geometry: Geometry::new(16, 4),
            },
        ),
        ("dtb256", Mode::Dtb(DtbConfig::with_capacity(256))),
        ("dtb16", Mode::Dtb(DtbConfig::with_capacity(16))),
        (
            "overflow",
            Mode::Dtb(DtbConfig {
                geometry: Geometry::new(8, 2),
                unit_words: 2,
                allocation: Allocation::Overflow { blocks: 4 },
                replacement: Replacement::Lru,
            }),
        ),
        (
            "two_level",
            Mode::TwoLevelDtb {
                l1: DtbConfig::with_capacity(8),
                l2: DtbConfig::with_capacity(256),
            },
        ),
    ]
}

/// A run's result as one golden field: the output (long outputs as their
/// length and digest) and the full `Metrics` debug form, or the trap.
fn result_line(result: Result<uhm::Report, dir::exec::Trap>) -> String {
    match result {
        Ok(r) if r.output.len() <= 16 => format!("{:?} {:?}", r.output, r.metrics),
        Ok(r) => {
            let digest = fnv1a(format!("{:?}", r.output).as_bytes());
            let n = r.output.len();
            format!("[{n} values fnv1a={digest:016x}] {:?}", r.metrics)
        }
        Err(trap) => format!("trap {trap:?}"),
    }
}

fn render_metrics() -> String {
    let mut out = String::new();
    for (name, program) in programs() {
        for scheme in [SchemeKind::Packed, SchemeKind::Huffman] {
            let machine = Machine::new(&program, scheme);
            for (mode_name, mode) in modes() {
                let result = result_line(machine.run(&mode));
                writeln!(out, "{name}\t{scheme:?}\t{mode_name}\t{result}").unwrap();
            }
        }
    }
    out
}

/// A sink that leaves the DTB miss classifier off, as profiling sinks do.
struct Unclassified<S: TraceSink>(S);

impl<S: TraceSink> TraceSink for Unclassified<S> {
    const CLASSIFY_MISSES: bool = false;

    fn emit(&mut self, event: Event) {
        self.0.emit(event);
    }
}

/// FNV-1a over the stream's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One traced run: the result line, the ring's counts and the JSONL bytes.
fn traced(machine: &Machine, mode: &Mode, classify: bool) -> (String, String, Vec<u8>) {
    let mut ring = RingSink::new(16);
    let (result, bytes) = if classify {
        let mut sink = TeeSink(&mut ring, JsonlSink::new(Vec::new()));
        let r = machine.run_with(mode, &mut sink, RunOptions::default());
        (result_line(r), sink.1.finish().unwrap())
    } else {
        let mut sink = Unclassified(TeeSink(&mut ring, JsonlSink::new(Vec::new())));
        let r = machine.run_with(mode, &mut sink, RunOptions::default());
        (result_line(r), (sink.0).1.finish().unwrap())
    };
    (result, format!("{:?}", ring.counts()), bytes)
}

fn render_events() -> String {
    let mut out = String::new();
    let cases = [
        ("fib_rec", compile(hlr::programs::FIB_REC.source), false),
        ("queens", compile(hlr::programs::QUEENS.source), false),
        ("halting", compile(HALTING), true),
        ("trapping", compile(TRAPPING[1]), true),
    ];
    let modes: Vec<(&str, Mode)> = modes()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "dtb16" | "two_level" | "interp"))
        .collect();
    for (name, program, full) in &cases {
        let machine = Machine::new(program, SchemeKind::Packed);
        for (mode_name, mode) in &modes {
            for classify in [true, false] {
                let (result, counts, bytes) = traced(&machine, mode, classify);
                writeln!(out, "## {name}\t{mode_name}\tclassify={classify}").unwrap();
                writeln!(out, "result {result}").unwrap();
                writeln!(out, "counts {counts}").unwrap();
                if *full {
                    out.push_str(std::str::from_utf8(&bytes).unwrap());
                } else {
                    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
                    writeln!(
                        out,
                        "stream lines={lines} bytes={} fnv1a={:016x}",
                        bytes.len(),
                        fnv1a(&bytes)
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// Compares line by line first, so a failure names the first differing
/// run instead of dumping two megabytes.
fn assert_golden(got: &str, path: &str) {
    let want = manifest_file(path);
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{path}: line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{path}: line count"
    );
    assert!(got == want, "{path}: bytes differ");
}

#[test]
fn metrics_match_the_golden() {
    let got = render_metrics();
    assert_eq!(got.lines().count(), 708);
    assert_golden(&got, "tests/golden/threaded.metrics");
}

#[test]
fn event_streams_match_the_golden() {
    assert_golden(&render_events(), "tests/golden/threaded.events");
}
