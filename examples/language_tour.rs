//! Language tour: RAUL from source text to every representation level —
//! tokens, AST, resolved HIR, DIR listing, PSDER translation — with the
//! reference evaluator confirming semantics at each step.
//!
//! Run with `cargo run --example language_tour`.

fn main() {
    let source = r#"
        int limit := 20;
        proc gcd(int a, int b) -> int begin
            int t;
            while b <> 0 do begin
                t := a % b;
                a := b;
                b := t;
            end
            return a;
        end
        proc main() begin
            int i;
            for i := 1 to limit do begin
                if gcd(i, 12) = 1 then write i;
            end
        end
    "#;

    // Level 0: the HLR. Lexing and parsing.
    let tokens = hlr::lexer::tokenize(source).expect("lexes");
    println!(
        "HLR: {} bytes of source, {} tokens",
        source.len(),
        tokens.len()
    );
    let ast = hlr::parser::parse(source).expect("parses");
    println!(
        "AST: {} globals, {} procedures",
        ast.globals.len(),
        ast.procs.len()
    );
    println!("\nPretty-printed (a fixed point of parse ∘ print):\n");
    let printed = hlr::pretty::print(&ast);
    for line in printed.lines().take(12) {
        println!("    {line}");
    }
    println!("    ...");

    // Binding: names to (contour, slot), types checked.
    let hir = hlr::sema::analyze(&ast).expect("type checks");
    for p in &hir.procs {
        println!(
            "proc {:>5}: {} params, frame of {} slots, {} contours",
            p.name, p.n_params, p.frame_size, p.contour_count
        );
    }
    let reference = hlr::eval::run(&hir).expect("runs");
    println!("\nReference evaluation (direct HLR interpretation): {reference:?}");

    // Level 1: the DIR.
    let program = dir::compiler::compile(&hir);
    println!("\nDIR listing (first 14 instructions):");
    for line in program.to_string().lines().take(15) {
        println!("    {line}");
    }
    assert_eq!(dir::exec::run(&program).expect("runs"), reference);

    // Level 2: the PSDER translation of one instruction.
    let pc = program.procs[0].entry;
    let inst = program.code[pc as usize];
    println!("\nPSDER translation of instruction {pc} ({inst:?}):");
    for short in psder::Template::new(inst, pc + 1).iter() {
        println!("    {short:?}");
    }
    assert_eq!(psder::interp::run(&program).expect("runs"), reference);

    println!("\nAll three execution levels agree: {reference:?}");
    println!("(integers below 20 coprime to 12)");
}
