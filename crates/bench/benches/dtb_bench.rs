//! Benchmarks of the DTB data structure in isolation: lookup and fill
//! paths under hit- and miss-heavy address streams.

use psder::{PushMode, ShortInstr};
use std::hint::black_box;
use uhm::{Dtb, DtbConfig};
use uhm_bench::timing::Harness;

fn translation() -> Vec<ShortInstr> {
    (0..4).map(|i| ShortInstr::Push(PushMode::Imm(i))).collect()
}

fn main() {
    let mut h = Harness::new("dtb_bench");

    let mut dtb = Dtb::new(DtbConfig::with_capacity(256));
    let t = translation();
    for addr in 0..256u32 {
        dtb.fill(addr, &t);
    }
    let mut i = 0u32;
    h.bench("dtb_lookup_hit", || {
        i = (i + 1) % 256;
        black_box(dtb.lookup(black_box(i)))
    });

    let mut dtb = Dtb::new(DtbConfig::with_capacity(64));
    let mut addr = 0u32;
    h.bench("dtb_miss_fill", || {
        addr = addr.wrapping_add(97); // always a fresh address
        if dtb.lookup(black_box(addr)).is_none() {
            black_box(dtb.fill(addr, &t));
        }
    });

    let inst = dir::Inst::CmpConstBr {
        op: dir::AluOp::Lt,
        slot: 1,
        imm: 100,
        target: 17,
    };
    h.bench("translate_template", || {
        black_box(psder::Template::new(black_box(inst), 18))
    });

    h.finish();
}
