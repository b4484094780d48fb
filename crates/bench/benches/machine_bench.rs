//! Benchmarks of the three machine configurations (host-side throughput
//! of the simulator, not simulated cycles). The runs use `Machine::run`,
//! i.e. the `NullSink` path — these numbers are the baseline that tracing
//! must not perturb when disabled. `machine/dtb_profiled` is `machine/dtb`
//! under a fresh [`CounterPlane`] per run, so the difference between the
//! two is what the counter plane costs per retire (the bound on it is
//! `profile_gate`'s).

use dir::encode::SchemeKind;
use profile::CounterPlane;
use std::hint::black_box;
use uhm::{DtbConfig, Machine, Mode, RunOptions};
use uhm_bench::timing::Harness;

fn main() {
    let mut h = Harness::new("machine_bench");

    let hir = hlr::programs::GCD_CHAIN.compile().expect("sample compiles");
    let prog = dir::compiler::compile(&hir);
    let machine = Machine::new(&prog, SchemeKind::Huffman);
    let modes: Vec<(&str, Mode)> = vec![
        ("interpreter", Mode::Interpreter),
        ("dtb", Mode::Dtb(DtbConfig::with_capacity(64))),
        (
            "icache",
            Mode::ICache {
                geometry: memsim::Geometry::new(32, 4),
            },
        ),
    ];
    for (label, mode) in &modes {
        h.bench(&format!("machine/{label}"), || {
            black_box(machine.run(black_box(mode)).expect("trap-free"))
        });
    }
    let dtb = &modes[1].1;
    h.bench("machine/dtb_profiled", || {
        let mut plane = CounterPlane::new(&prog);
        black_box(
            machine
                .run_with(black_box(dtb), &mut plane, RunOptions::default())
                .expect("trap-free"),
        );
        black_box(plane.retired())
    });

    let hir = hlr::programs::FIB_REC.compile().expect("sample compiles");
    let prog = dir::compiler::compile(&hir);
    for scheme in SchemeKind::all() {
        let machine = Machine::new(&prog, scheme);
        h.bench(&format!("dtb_by_scheme/{}", scheme.label()), || {
            black_box(
                machine
                    .run(&Mode::Dtb(DtbConfig::with_capacity(64)))
                    .expect("trap-free"),
            )
        });
    }

    h.finish();
}
