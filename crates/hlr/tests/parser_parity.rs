//! The front end's observable behaviour, pinned: the rendered error
//! (stage, span and message) of a fixed list of malformed and of
//! ill-typed sources, and the print → parse → print fixed point on
//! generated programs. The parser moves tokens out of the lexer's buffer
//! instead of cloning them, and the resolver keeps its contours in one
//! stack of borrowed names instead of a hash map each; these pins hold
//! both to the behaviour of the versions they replaced.

use hlr::generate::Config;

/// Each malformed source with its error's `Display` form, as the
/// cloning parser reported it.
const MALFORMED: &[(&str, &str)] = &[
    (
        "42",
        "parse error at 0..2: expected declaration, found integer `42`",
    ),
    (
        "proc",
        "parse error at 4..4: expected identifier, found end of input",
    ),
    (
        "proc 1() begin skip; end",
        "parse error at 5..6: expected identifier, found integer `1`",
    ),
    (
        "proc main( begin skip; end",
        "parse error at 11..16: expected type, found `begin`",
    ),
    (
        "proc main(int) begin skip; end",
        "parse error at 13..14: expected identifier, found `)`",
    ),
    (
        "proc main(int a,) begin skip; end",
        "parse error at 16..17: expected type, found `)`",
    ),
    (
        "proc main(float a) begin skip; end",
        "parse error at 10..15: expected type, found identifier `float`",
    ),
    (
        "proc main() -> begin skip; end",
        "parse error at 15..20: expected type, found `begin`",
    ),
    (
        "proc main() begin skip; ",
        "parse error at 12..17: unterminated block: expected `end`",
    ),
    (
        "proc main() begin skip end",
        "parse error at 23..26: expected `;`, found `end`",
    ),
    (
        "proc main() begin x = 1; end",
        "parse error at 20..21: expected `:=`, found `=`",
    ),
    (
        "proc main() begin x := ; end",
        "parse error at 23..24: expected expression, found `;`",
    ),
    (
        "proc main() begin x[1 := 2; end",
        "parse error at 22..24: expected `]`, found `:=`",
    ),
    (
        "proc main() begin x[1] = 2; end",
        "parse error at 23..24: expected `:=`, found `=`",
    ),
    (
        "proc main() begin if then skip; end",
        "parse error at 21..25: expected expression, found `then`",
    ),
    (
        "proc main() begin if true skip; end",
        "parse error at 26..30: expected `then`, found `skip`",
    ),
    (
        "proc main() begin while true skip; end",
        "parse error at 29..33: expected `do`, found `skip`",
    ),
    (
        "proc main() begin for := 1 to 2 do skip; end",
        "parse error at 22..24: expected identifier, found `:=`",
    ),
    (
        "proc main() begin for i = 1 to 2 do skip; end",
        "parse error at 24..25: expected `:=`, found `=`",
    ),
    (
        "proc main() begin for i := 1 2 do skip; end",
        "parse error at 29..30: expected `to`, found integer `2`",
    ),
    (
        "proc main() begin call (); end",
        "parse error at 23..24: expected identifier, found `(`",
    ),
    (
        "proc main() begin call f(1, ; end",
        "parse error at 28..29: expected expression, found `;`",
    ),
    (
        "proc main() begin call f(1 2); end",
        "parse error at 27..28: expected `)`, found integer `2`",
    ),
    (
        "proc main() begin return 1 end",
        "parse error at 27..30: expected `;`, found `end`",
    ),
    (
        "proc main() begin write; end",
        "parse error at 23..24: expected expression, found `;`",
    ),
    (
        "proc main() begin write (1 + 2; end",
        "parse error at 30..31: expected `)`, found `;`",
    ),
    (
        "proc main() begin write 1 +; end",
        "parse error at 27..28: expected expression, found `;`",
    ),
    (
        "proc main() begin write f(1,); end",
        "parse error at 28..29: expected expression, found `)`",
    ),
    (
        "proc main() begin write a[1; end",
        "parse error at 27..28: expected `]`, found `;`",
    ),
    (
        "proc main() begin write not; end",
        "parse error at 27..28: expected expression, found `;`",
    ),
    (
        "proc main() begin write - ; end",
        "parse error at 26..27: expected expression, found `;`",
    ),
    (
        "proc main() begin write 1 < ; end",
        "parse error at 28..29: expected expression, found `;`",
    ),
    (
        "proc main() begin then; end",
        "parse error at 18..22: expected statement, found `then`",
    ),
    (
        "proc main() begin int x skip; end",
        "parse error at 24..28: expected `;`, found `skip`",
    ),
    (
        "proc main() begin int x := ; end",
        "parse error at 27..28: expected expression, found `;`",
    ),
    (
        "proc main() begin int a[0]; skip; end",
        "parse error at 24..25: expected positive array length, found integer `0`",
    ),
    (
        "proc main() begin int a[x]; skip; end",
        "parse error at 24..25: expected positive array length, found identifier `x`",
    ),
    (
        "proc main() begin bool b[4]; skip; end",
        "parse error at 18..22: only integer arrays are supported",
    ),
    (
        "proc main() begin int a[4; skip; end",
        "parse error at 25..26: expected `]`, found `;`",
    ),
    (
        "int g := 1",
        "parse error at 10..10: expected `;`, found end of input",
    ),
    (
        "int := 1;",
        "parse error at 4..6: expected identifier, found `:=`",
    ),
    (
        "bool;",
        "parse error at 4..5: expected identifier, found `;`",
    ),
    (
        "int g; g := 2;",
        "parse error at 7..8: expected declaration, found identifier `g`",
    ),
    (
        "proc main() begin write 1; end end",
        "parse error at 31..34: expected declaration, found `end`",
    ),
    (
        "proc main() begin write @; end",
        "lex error at 24..25: unrecognised character `@`",
    ),
    (
        "proc main() begin write 99999999999999999999; end",
        "lex error at 24..44: integer literal out of range",
    ),
    (
        "proc main() begin\n    int x := 1;\n    write x +\nend",
        "parse error at 48..51: expected expression, found `end`",
    ),
    (
        "proc main() begin skip; end\nproc f(int a, bool b) -> int begin return a b; end",
        "parse error at 72..73: expected `;`, found identifier `b`",
    ),
    (
        "# comment only\nproc main() begin write 1; # trailing\n  x := (1 + (2 * 3); end",
        "parse error at 72..73: expected `)`, found `;`",
    ),
];

/// Each well-formed but ill-typed source with its error's `Display`
/// form, as the hash-map resolver reported it.
const ILL_TYPED: &[(&str, &str)] = &[
    (
        "proc f() begin skip; end",
        "sema error at 0..0: program has no `main` procedure",
    ),
    (
        "proc main(int a) begin skip; end",
        "sema error at 0..22: `main` must take no parameters",
    ),
    (
        "proc main() -> int begin return 1; end",
        "sema error at 0..24: `main` must not return a value",
    ),
    (
        "proc main() begin skip; end proc main() begin skip; end",
        "sema error at 28..45: duplicate procedure `main`",
    ),
    (
        "int g; int g; proc main() begin skip; end",
        "sema error at 7..13: duplicate global `g`",
    ),
    (
        "proc main() begin int x; int x; skip; end",
        "sema error at 25..31: `x` is already declared in this contour",
    ),
    (
        "proc main() begin int x; begin int x; int y; int y; skip; end end",
        "sema error at 45..51: `y` is already declared in this contour",
    ),
    (
        "proc main() begin write y; end",
        "sema error at 24..25: unknown variable `y`",
    ),
    (
        "proc main() begin begin int y := 1; end write y; end",
        "sema error at 46..47: unknown variable `y`",
    ),
    (
        "proc main() begin int x := x; skip; end",
        "sema error at 27..28: unknown variable `x`",
    ),
    (
        "proc main() begin bool b := 1; skip; end",
        "sema error at 18..30: initialiser for `b` has type int, expected bool",
    ),
    (
        "proc main() begin int a[4]; write a; end",
        "sema error at 34..35: array `a` must be used with an index",
    ),
    (
        "proc main() begin int x; x[1] := 2; end",
        "sema error at 25..35: `x` has type int and cannot be indexed",
    ),
    (
        "proc main() begin int a[4]; a[true] := 2; end",
        "sema error at 30..34: expected int, found bool",
    ),
    (
        "proc main() begin call g(); end",
        "sema error at 18..27: unknown procedure `g`",
    ),
    (
        "proc f(int a) begin skip; end proc main() begin call f(); end",
        "sema error at 48..57: `f` expects 1 argument(s), got 0",
    ),
    (
        "proc f(int a) begin skip; end proc main() begin call f(true); end",
        "sema error at 55..59: argument to `f` has type bool, expected int",
    ),
    (
        "proc f() begin skip; end proc main() begin write f(); end",
        "sema error at 49..50: `f` returns no value and cannot be used in an expression",
    ),
    (
        "proc f() -> int begin return; end proc main() begin skip; end",
        "sema error at 22..29: this procedure must return a value",
    ),
    (
        "proc f() begin return 1; end proc main() begin skip; end",
        "sema error at 15..24: this procedure does not return a value",
    ),
    (
        "proc f() -> bool begin return 1; end proc main() begin skip; end",
        "sema error at 23..32: returning int, expected bool",
    ),
    (
        "proc main() begin if 1 then skip; end",
        "sema error at 21..22: expected bool, found int",
    ),
    (
        "proc main() begin while 1 do skip; end",
        "sema error at 24..25: expected bool, found int",
    ),
    (
        "proc main() begin bool b; for b := 1 to 2 do skip; end",
        "sema error at 26..50: for-loop variable must be `int`",
    ),
    (
        "proc main() begin write 1 + true; end",
        "sema error at 24..32: operator `+` expects int operands, found int and bool",
    ),
    (
        "proc main() begin write not 1; end",
        "sema error at 24..29: unary operator expects bool, found int",
    ),
    (
        "proc main() begin write -true; end",
        "sema error at 24..29: unary operator expects int, found bool",
    ),
    (
        "proc main() begin int x := 1 and 2; skip; end",
        "sema error at 27..34: operator `and` expects bool operands, found int and int",
    ),
    (
        "int g := h; int h; proc main() begin skip; end",
        "sema error at 9..10: unknown variable `h`",
    ),
    (
        "proc f(int a, int a) begin skip; end proc main() begin skip; end",
        "sema error at 14..19: `a` is already declared in this contour",
    ),
];

#[test]
fn malformed_sources_report_the_pinned_error() {
    for &(source, want) in MALFORMED {
        let got = match hlr::parser::parse(source) {
            Ok(ast) => panic!("{source:?} parsed: {ast:?}"),
            Err(e) => e.to_string(),
        };
        assert_eq!(got, want, "source {source:?}");
        // `compile` reports the same first error.
        let compiled = hlr::compile(source).expect_err("malformed source compiles");
        assert_eq!(compiled.to_string(), want, "compile of {source:?}");
    }
}

#[test]
fn ill_typed_sources_report_the_pinned_error() {
    for &(source, want) in ILL_TYPED {
        hlr::parser::parse(source).unwrap_or_else(|e| panic!("{source:?} fails to parse: {e}"));
        let got = hlr::compile(source).expect_err("ill-typed source compiles");
        assert_eq!(got.to_string(), want, "source {source:?}");
    }
}

#[test]
fn printing_a_parsed_program_gives_the_printed_text_back() {
    let cold = Config {
        max_loop_nesting: 0,
        calls: false,
        ..Config::default()
    };
    for seed in 0..200u64 {
        let config = if seed % 2 == 0 {
            &cold
        } else {
            &Config::default()
        };
        let text = hlr::pretty::print(&hlr::generate::program(seed, config));
        let ast = hlr::parser::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {}", e.render(&text)));
        assert_eq!(hlr::pretty::print(&ast), text, "seed {seed}");
    }
}
