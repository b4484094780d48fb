//! Assembler playground: write a DIR program by hand, validate it, run it
//! through the machines, inspect its PSDER translations and IU occupancy.
//!
//! Run with `cargo run --example asm_playground`.

use dir::encode::SchemeKind;
use uhm::{DtbConfig, Machine, Mode};

/// A hand-written DIR program: the 3n+1 trajectory length of 27, written
/// directly in assembler syntax (no RAUL involved). Instruction indices
/// are absolute; comments mark the branch targets.
const SOURCE: &str = "
    .globals 0
    .entry main
    ; prelude
        call main                  ; 0
        halt                       ; 1
    .proc main args=0 frame=2
        ; slot 0 = n, slot 1 = steps
        set_local_const 0 27       ; 2
        set_local_const 1 0        ; 3
        cmp_const_br ne 0 1 22     ; 4: loop head; n = 1 -> epilogue (22)
        push_local 0               ; 5
        push_const 2               ; 6
        bin mod                    ; 7
        jump_if_false 16           ; 8: even -> 16
        push_const 3               ; 9: odd: n := 3n + 1
        push_local 0               ; 10
        bin mul                    ; 11
        push_const 1               ; 12
        bin add                    ; 13
        store_local 0              ; 14
        jump 20                    ; 15
        push_local 0               ; 16: even: n := n / 2
        push_const 2               ; 17
        bin div                    ; 18
        store_local 0              ; 19
        inc_local 1 1              ; 20
        jump 4                     ; 21
        push_local 1               ; 22: epilogue
        write                      ; 23
        return                     ; 24
    .end
";

fn main() {
    let program = match dir::asm::assemble(SOURCE) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = program.validate() {
        eprintln!("invalid program: {e}");
        std::process::exit(1);
    }
    println!("assembled {} instructions\n", program.len());

    // Show the PSDER translation of the fused compare-and-branch.
    let cmp_at = program
        .code
        .iter()
        .position(|i| matches!(i, dir::Inst::CmpConstBr { .. }))
        .expect("program contains cmp_const_br") as u32;
    println!(
        "PSDER translation of `{}`:",
        dir::asm::format_inst(&program.code[cmp_at as usize])
    );
    print!(
        "{}",
        psder::listing::sequence_listing(&psder::Template::new(
            program.code[cmp_at as usize],
            cmp_at + 1
        ))
    );

    let machine = Machine::new(&program, SchemeKind::Huffman);
    for (label, mode) in [
        ("interpreter", Mode::Interpreter),
        ("dtb", Mode::Dtb(DtbConfig::with_capacity(32))),
    ] {
        let report = machine.run(&mode).expect("program is trap-free");
        let m = &report.metrics;
        println!(
            "\n{label}: output {:?}, T = {:.2}",
            report.output,
            m.time_per_instruction()
        );
        println!(
            "  control-word occupancy: IU1 {} cycles, IU2 {} cycles, memory {} cycles",
            m.iu1_cycles(),
            m.iu2_cycles(),
            m.memory_cycles()
        );
    }
    println!("\nThe 3n+1 trajectory of 27 takes 111 steps; under the DTB the short-");
    println!("format unit (IU2) takes over the cycles the interpreter spent in IU1");
    println!("decode and steering — Figure 3's two instruction units, measured.");
}
