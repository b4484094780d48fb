//! Semantic analysis: contour-model name resolution, type checking and
//! frame-slot assignment.
//!
//! This pass performs the binding that the paper assigns to the compiler:
//! symbolic names are bound "once and for all" to numeric (scope, slot)
//! pairs so that no associative lookup remains at interpretation time, and
//! nested blocks (contours) are flattened onto a frame with stack-disciplined
//! slot reuse.

use std::collections::HashMap;

use crate::ast;
use crate::ast::{BinOp, UnOp};
use crate::error::{Error, Result};
use crate::hir;
use crate::types::Type;
use crate::Span;

/// Analyses a parsed program, producing the resolved [`hir::Program`].
///
/// # Errors
///
/// Returns the first semantic error: unknown or duplicate names, type
/// mismatches, arity mismatches, a missing `main`, misuse of arrays, or
/// invalid `return` forms.
///
/// # Example
///
/// ```
/// let ast = hlr::parser::parse("proc main() begin int x := 2; write x; end")?;
/// let hir = hlr::sema::analyze(&ast)?;
/// assert_eq!(hir.procs[hir.entry].frame_size, 1);
/// # Ok::<(), hlr::Error>(())
/// ```
pub fn analyze(program: &ast::Program) -> Result<hir::Program> {
    Analyzer::new(program)?.run(program)
}

/// A declared variable as seen by the resolver.
#[derive(Debug, Clone, Copy)]
struct Binding {
    ty: Type,
    slot: u32,
    global: bool,
}

/// Signature of a procedure, gathered before bodies are analysed so that
/// mutual recursion resolves.
#[derive(Debug, Clone)]
struct Signature {
    params: Vec<Type>,
    ret: Option<Type>,
}

/// Names are borrowed from the AST: resolution copies no name.
struct Analyzer<'a> {
    proc_index: HashMap<&'a str, usize>,
    signatures: Vec<Signature>,
    globals: HashMap<&'a str, Binding>,
    globals_size: u32,
}

/// Per-procedure resolution state.
struct ProcCtx<'a> {
    /// Every binding visible in the open contours, outermost first: a
    /// lookup scans from the innermost end, so a contour's names shadow
    /// its enclosing contours'. A procedure has few names in scope at a
    /// time, so the scan is shorter than hashing the name once per open
    /// contour.
    names: Vec<(&'a str, Binding)>,
    /// Where each open contour's bindings start in `names`.
    scopes: Vec<usize>,
    /// Next free frame slot.
    watermark: u32,
    /// High-water mark = frame size.
    frame_size: u32,
    /// Return type of the enclosing procedure.
    ret: Option<Type>,
    /// Contour statistics for encoding studies.
    contour_count: u32,
    max_visible_slots: u32,
}

impl<'a> ProcCtx<'a> {
    /// A context with no contour open.
    fn new(ret: Option<Type>) -> Self {
        ProcCtx {
            names: Vec::new(),
            scopes: Vec::new(),
            watermark: 0,
            frame_size: 0,
            ret,
            contour_count: 0,
            max_visible_slots: 0,
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.names.len());
        self.contour_count += 1;
    }

    fn pop_scope(&mut self) {
        let start = self.scopes.pop().expect("scope stack underflow");
        let released: u32 = self.names[start..]
            .iter()
            .map(|(_, b)| b.ty.slot_count())
            .sum();
        self.names.truncate(start);
        self.watermark -= released;
    }

    fn declare(&mut self, name: &'a str, ty: Type, span: Span) -> Result<Binding> {
        let start = *self.scopes.last().expect("no open scope");
        if self.names[start..].iter().any(|&(n, _)| n == name) {
            return Err(Error::sema(
                format!("`{name}` is already declared in this contour"),
                span,
            ));
        }
        let binding = Binding {
            ty,
            slot: self.watermark,
            global: false,
        };
        self.watermark += ty.slot_count();
        self.frame_size = self.frame_size.max(self.watermark);
        self.max_visible_slots = self.max_visible_slots.max(self.watermark);
        self.names.push((name, binding));
        Ok(binding)
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.names
            .iter()
            .rev()
            .find(|&&(n, _)| n == name)
            .map(|&(_, b)| b)
    }
}

impl<'a> Analyzer<'a> {
    fn new(program: &'a ast::Program) -> Result<Self> {
        let mut proc_index = HashMap::new();
        let mut signatures = Vec::new();
        for (i, p) in program.procs.iter().enumerate() {
            if proc_index.insert(p.name.as_str(), i).is_some() {
                return Err(Error::sema(
                    format!("duplicate procedure `{}`", p.name),
                    p.span,
                ));
            }
            for param in &p.params {
                if !param.ty.is_scalar() {
                    return Err(Error::sema("parameters must be scalar", param.span));
                }
            }
            signatures.push(Signature {
                params: p.params.iter().map(|p| p.ty).collect(),
                ret: p.ret,
            });
        }
        Ok(Analyzer {
            proc_index,
            signatures,
            globals: HashMap::new(),
            globals_size: 0,
        })
    }

    fn run(mut self, program: &'a ast::Program) -> Result<hir::Program> {
        // Globals: assign slots and collect initialiser statements. The
        // initialisers may not call procedures or reference other variables
        // declared later; we enforce "only already-declared globals".
        let mut global_init = Vec::new();
        for decl in &program.globals {
            if self.globals.contains_key(decl.name.as_str()) {
                return Err(Error::sema(
                    format!("duplicate global `{}`", decl.name),
                    decl.span,
                ));
            }
            let binding = Binding {
                ty: decl.ty,
                slot: self.globals_size,
                global: true,
            };
            self.globals_size += decl.ty.slot_count();
            if let Some(init) = &decl.init {
                // Type-check the initialiser in a context with no locals.
                let mut ctx = ProcCtx::new(None);
                ctx.push_scope();
                let (expr, ty) = self.expr(init, &mut ctx)?;
                if ty != decl.ty {
                    return Err(Error::sema(
                        format!(
                            "initialiser for `{}` has type {ty}, expected {}",
                            decl.name, decl.ty
                        ),
                        decl.span,
                    ));
                }
                global_init.push(hir::Stmt::Store {
                    var: hir::VarRef::Global { slot: binding.slot },
                    value: expr,
                });
            }
            self.globals.insert(&decl.name, binding);
        }

        let mut procs = Vec::new();
        for p in &program.procs {
            procs.push(self.proc_decl(p)?);
        }

        let entry = *self
            .proc_index
            .get("main")
            .ok_or_else(|| Error::sema("program has no `main` procedure", Span::default()))?;
        let main = &program.procs[entry];
        if !main.params.is_empty() {
            return Err(Error::sema("`main` must take no parameters", main.span));
        }
        if main.ret.is_some() {
            return Err(Error::sema("`main` must not return a value", main.span));
        }

        Ok(hir::Program {
            globals_size: self.globals_size,
            procs,
            entry,
            global_init,
        })
    }

    fn proc_decl(&self, p: &'a ast::ProcDecl) -> Result<hir::Proc> {
        let mut ctx = ProcCtx::new(p.ret);
        ctx.push_scope();
        for param in &p.params {
            ctx.declare(&param.name, param.ty, param.span)?;
        }
        let body = self.block(&p.body, &mut ctx)?;
        ctx.pop_scope();
        Ok(hir::Proc {
            name: p.name.clone(),
            n_params: p.params.len() as u32,
            frame_size: ctx.frame_size,
            ret: p.ret,
            body,
            contour_count: ctx.contour_count,
            max_visible_slots: ctx.max_visible_slots,
        })
    }

    /// Lowers a block: declarations become explicit stores, statements are
    /// flattened into a `Vec<hir::Stmt>`.
    fn block(&self, block: &'a ast::Block, ctx: &mut ProcCtx<'a>) -> Result<Vec<hir::Stmt>> {
        ctx.push_scope();
        let mut out = Vec::new();
        for decl in &block.decls {
            // Evaluate the initialiser *before* the name is visible, so
            // `int x := x;` refers to an outer `x` (ALGOL semantics).
            let init = match &decl.init {
                Some(init) => {
                    let (expr, ty) = self.expr(init, ctx)?;
                    if ty != decl.ty {
                        return Err(Error::sema(
                            format!(
                                "initialiser for `{}` has type {ty}, expected {}",
                                decl.name, decl.ty
                            ),
                            decl.span,
                        ));
                    }
                    Some(expr)
                }
                None => None,
            };
            let binding = ctx.declare(&decl.name, decl.ty, decl.span)?;
            if let Some(value) = init {
                out.push(hir::Stmt::Store {
                    var: hir::VarRef::Local { slot: binding.slot },
                    value,
                });
            }
        }
        for stmt in &block.stmts {
            out.push(self.stmt(stmt, ctx)?);
        }
        ctx.pop_scope();
        Ok(out)
    }

    fn resolve_var(&self, name: &str, ctx: &ProcCtx<'a>, span: Span) -> Result<Binding> {
        ctx.lookup(name)
            .or_else(|| self.globals.get(name).copied())
            .ok_or_else(|| Error::sema(format!("unknown variable `{name}`"), span))
    }

    fn scalar_ref(&self, name: &str, ctx: &ProcCtx<'a>, span: Span) -> Result<(hir::VarRef, Type)> {
        let b = self.resolve_var(name, ctx, span)?;
        if !b.ty.is_scalar() {
            return Err(Error::sema(
                format!("array `{name}` must be used with an index"),
                span,
            ));
        }
        let var = if b.global {
            hir::VarRef::Global { slot: b.slot }
        } else {
            hir::VarRef::Local { slot: b.slot }
        };
        Ok((var, b.ty))
    }

    fn array_ref(&self, name: &str, ctx: &ProcCtx<'a>, span: Span) -> Result<hir::ArrRef> {
        let b = self.resolve_var(name, ctx, span)?;
        match b.ty {
            Type::IntArray(len) => Ok(hir::ArrRef {
                global: b.global,
                base: b.slot,
                len,
            }),
            other => Err(Error::sema(
                format!("`{name}` has type {other} and cannot be indexed"),
                span,
            )),
        }
    }

    fn stmt(&self, stmt: &'a ast::Stmt, ctx: &mut ProcCtx<'a>) -> Result<hir::Stmt> {
        match stmt {
            ast::Stmt::Assign { name, value, span } => {
                let (var, ty) = self.scalar_ref(name, ctx, *span)?;
                let (value, vty) = self.expr(value, ctx)?;
                if vty != ty {
                    return Err(Error::sema(
                        format!("cannot assign {vty} to `{name}` of type {ty}"),
                        *span,
                    ));
                }
                Ok(hir::Stmt::Store { var, value })
            }
            ast::Stmt::AssignIndexed {
                name,
                index,
                value,
                span,
            } => {
                let arr = self.array_ref(name, ctx, *span)?;
                let index = self.int_expr(index, ctx)?;
                let value = self.int_expr(value, ctx)?;
                Ok(hir::Stmt::StoreIndexed { arr, index, value })
            }
            ast::Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.bool_expr(cond, ctx)?;
                let then_branch = self.stmt_as_body(then_branch, ctx)?;
                let else_branch = match else_branch {
                    Some(s) => self.stmt_as_body(s, ctx)?,
                    None => Vec::new(),
                };
                Ok(hir::Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            ast::Stmt::While { cond, body, .. } => {
                let cond = self.bool_expr(cond, ctx)?;
                let body = self.stmt_as_body(body, ctx)?;
                Ok(hir::Stmt::While { cond, body })
            }
            ast::Stmt::For {
                var,
                from,
                to,
                body,
                span,
            } => {
                let (var, ty) = self.scalar_ref(var, ctx, *span)?;
                if ty != Type::Int {
                    return Err(Error::sema("for-loop variable must be `int`", *span));
                }
                let from = self.int_expr(from, ctx)?;
                let to = self.int_expr(to, ctx)?;
                let body = self.stmt_as_body(body, ctx)?;
                Ok(hir::Stmt::For {
                    var,
                    from,
                    to,
                    body,
                })
            }
            ast::Stmt::Block(b) => Ok(hir::Stmt::Block(self.block(b, ctx)?)),
            ast::Stmt::Call { name, args, span } => {
                let (proc, sig) = self.resolve_proc(name, *span)?;
                let args = self.check_args(name, sig, args, ctx, *span)?;
                Ok(hir::Stmt::CallStmt {
                    proc,
                    args,
                    has_result: sig.ret.is_some(),
                })
            }
            ast::Stmt::Return { value, span } => match (&ctx.ret, value) {
                (None, None) => Ok(hir::Stmt::Return(None)),
                (None, Some(_)) => {
                    Err(Error::sema("this procedure does not return a value", *span))
                }
                (Some(_), None) => Err(Error::sema("this procedure must return a value", *span)),
                (Some(ret_ty), Some(v)) => {
                    let ret_ty = *ret_ty;
                    let (value, ty) = self.expr(v, ctx)?;
                    if ty != ret_ty {
                        return Err(Error::sema(
                            format!("returning {ty}, expected {ret_ty}"),
                            *span,
                        ));
                    }
                    Ok(hir::Stmt::Return(Some(value)))
                }
            },
            ast::Stmt::Write { value, .. } => {
                let (value, _ty) = self.expr(value, ctx)?;
                Ok(hir::Stmt::Write(value))
            }
            ast::Stmt::Skip { .. } => Ok(hir::Stmt::Skip),
        }
    }

    /// Lowers a single statement used as a loop/branch body into a statement
    /// list, splicing blocks inline (their contour is still honoured).
    fn stmt_as_body(&self, stmt: &'a ast::Stmt, ctx: &mut ProcCtx<'a>) -> Result<Vec<hir::Stmt>> {
        match stmt {
            ast::Stmt::Block(b) => self.block(b, ctx),
            other => Ok(vec![self.stmt(other, ctx)?]),
        }
    }

    fn resolve_proc(&self, name: &str, span: Span) -> Result<(usize, &Signature)> {
        let idx = *self
            .proc_index
            .get(name)
            .ok_or_else(|| Error::sema(format!("unknown procedure `{name}`"), span))?;
        Ok((idx, &self.signatures[idx]))
    }

    fn check_args(
        &self,
        name: &str,
        sig: &Signature,
        args: &'a [ast::Expr],
        ctx: &mut ProcCtx<'a>,
        span: Span,
    ) -> Result<Vec<hir::Expr>> {
        if args.len() != sig.params.len() {
            return Err(Error::sema(
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut out = Vec::with_capacity(args.len());
        for (arg, &want) in args.iter().zip(&sig.params) {
            let (expr, got) = self.expr(arg, ctx)?;
            if got != want {
                return Err(Error::sema(
                    format!("argument to `{name}` has type {got}, expected {want}"),
                    arg.span(),
                ));
            }
            out.push(expr);
        }
        Ok(out)
    }

    fn int_expr(&self, e: &'a ast::Expr, ctx: &mut ProcCtx<'a>) -> Result<hir::Expr> {
        let (expr, ty) = self.expr(e, ctx)?;
        if ty != Type::Int {
            return Err(Error::sema(format!("expected int, found {ty}"), e.span()));
        }
        Ok(expr)
    }

    fn bool_expr(&self, e: &'a ast::Expr, ctx: &mut ProcCtx<'a>) -> Result<hir::Expr> {
        let (expr, ty) = self.expr(e, ctx)?;
        if ty != Type::Bool {
            return Err(Error::sema(format!("expected bool, found {ty}"), e.span()));
        }
        Ok(expr)
    }

    fn expr(&self, e: &'a ast::Expr, ctx: &mut ProcCtx<'a>) -> Result<(hir::Expr, Type)> {
        match e {
            ast::Expr::Int(v, _) => Ok((hir::Expr::Int(*v), Type::Int)),
            ast::Expr::Bool(b, _) => Ok((hir::Expr::Bool(*b), Type::Bool)),
            ast::Expr::Var(name, span) => {
                let (var, ty) = self.scalar_ref(name, ctx, *span)?;
                Ok((hir::Expr::Load(var), ty))
            }
            ast::Expr::Index { name, index, span } => {
                let arr = self.array_ref(name, ctx, *span)?;
                let index = self.int_expr(index, ctx)?;
                Ok((
                    hir::Expr::LoadIndexed {
                        arr,
                        index: Box::new(index),
                    },
                    Type::Int,
                ))
            }
            ast::Expr::Call { name, args, span } => {
                let (proc, sig) = self.resolve_proc(name, *span)?;
                let ret = sig.ret.ok_or_else(|| {
                    Error::sema(
                        format!("`{name}` returns no value and cannot be used in an expression"),
                        *span,
                    )
                })?;
                let args = self.check_args(name, sig, args, ctx, *span)?;
                Ok((hir::Expr::Call { proc, args }, ret))
            }
            ast::Expr::Binary { op, lhs, rhs, span } => {
                let (lhs_e, lt) = self.expr(lhs, ctx)?;
                let (rhs_e, rt) = self.expr(rhs, ctx)?;
                let want = if op.takes_ints() {
                    Type::Int
                } else {
                    Type::Bool
                };
                if lt != want || rt != want {
                    return Err(Error::sema(
                        format!("operator `{op}` expects {want} operands, found {lt} and {rt}"),
                        *span,
                    ));
                }
                let ty = if op.produces_bool() {
                    Type::Bool
                } else {
                    Type::Int
                };
                Ok((
                    hir::Expr::Binary {
                        op: *op,
                        lhs: Box::new(lhs_e),
                        rhs: Box::new(rhs_e),
                    },
                    ty,
                ))
            }
            ast::Expr::Unary { op, operand, span } => {
                let (inner, ty) = self.expr(operand, ctx)?;
                let (want, out) = match op {
                    UnOp::Neg => (Type::Int, Type::Int),
                    UnOp::Not => (Type::Bool, Type::Bool),
                };
                if ty != want {
                    return Err(Error::sema(
                        format!("unary operator expects {want}, found {ty}"),
                        *span,
                    ));
                }
                Ok((
                    hir::Expr::Unary {
                        op: *op,
                        operand: Box::new(inner),
                    },
                    out,
                ))
            }
        }
    }
}

// Suppress an unused-import warning in non-test builds: BinOp is referenced
// only in doc positions above.
#[allow(unused)]
fn _uses(_: BinOp) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> Result<hir::Program> {
        analyze(&parse(src).unwrap())
    }

    #[test]
    fn resolves_globals_and_locals() {
        let p = analyze_src("int g := 7; proc main() begin int x := g; write x; end").unwrap();
        assert_eq!(p.globals_size, 1);
        assert_eq!(p.procs[p.entry].frame_size, 1);
        assert_eq!(p.global_init.len(), 1);
    }

    #[test]
    fn sibling_blocks_reuse_slots() {
        let p = analyze_src(
            "proc main() begin
                begin int a := 1; write a; end
                begin int b := 2; int c := 3; write b + c; end
             end",
        )
        .unwrap();
        // First block uses 1 slot, second uses 2; with reuse the frame is 2.
        assert_eq!(p.procs[0].frame_size, 2);
    }

    #[test]
    fn nested_blocks_stack_slots() {
        let p = analyze_src(
            "proc main() begin
                int a := 1;
                begin int b := 2; begin int c := 3; write c; end end
                write a;
             end",
        )
        .unwrap();
        assert_eq!(p.procs[0].frame_size, 3);
        assert!(p.procs[0].contour_count >= 3);
    }

    #[test]
    fn shadowing_resolves_to_innermost() {
        let p = analyze_src(
            "proc main() begin
                int x := 1;
                begin int x := 2; write x; end
                write x;
             end",
        )
        .unwrap();
        // Inner write must reference slot 1, outer slot 0.
        let body = &p.procs[0].body;
        // body[0] = store x0, body[1] = block{store x1, write x1}, body[2] = write x0
        match &body[1] {
            hir::Stmt::Block(then_branch) => match &then_branch[1] {
                hir::Stmt::Write(hir::Expr::Load(hir::VarRef::Local { slot })) => {
                    assert_eq!(*slot, 1);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &body[2] {
            hir::Stmt::Write(hir::Expr::Load(hir::VarRef::Local { slot })) => {
                assert_eq!(*slot, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn initialiser_sees_outer_binding() {
        // ALGOL semantics: the new `x` is not in scope in its own initialiser.
        let p = analyze_src(
            "proc main() begin
                int x := 5;
                begin int x := x + 1; write x; end
             end",
        )
        .unwrap();
        match &p.procs[0].body[1] {
            hir::Stmt::Block(then_branch) => match &then_branch[0] {
                hir::Stmt::Store {
                    var: hir::VarRef::Local { slot: 1 },
                    value: hir::Expr::Binary { lhs, .. },
                } => {
                    assert_eq!(**lhs, hir::Expr::Load(hir::VarRef::Local { slot: 0 }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_in_same_contour_rejected() {
        assert!(analyze_src("proc main() begin int x; int x; skip; end").is_err());
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = analyze_src("proc main() begin write nope; end").unwrap_err();
        assert!(err.message.contains("unknown variable"));
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(analyze_src("proc main() begin int x := true; skip; end").is_err());
        assert!(analyze_src("proc main() begin bool b := 1 + true; skip; end").is_err());
        assert!(analyze_src("proc main() begin if 3 then skip; end").is_err());
        assert!(analyze_src("proc main() begin while 0 do skip; end").is_err());
    }

    #[test]
    fn array_rules_enforced() {
        assert!(analyze_src("proc main() begin int a[4]; write a; end").is_err());
        assert!(analyze_src("proc main() begin int x; write x[0]; end").is_err());
        assert!(analyze_src("proc main() begin int a[4]; a[true] := 1; skip; end").is_err());
    }

    #[test]
    fn call_checking() {
        assert!(
            analyze_src("proc f(int a) begin skip; end proc main() begin call f(); end").is_err()
        );
        assert!(
            analyze_src("proc f(int a) begin skip; end proc main() begin call f(true); end")
                .is_err()
        );
        assert!(
            analyze_src("proc f(int a) begin skip; end proc main() begin write f(1); end").is_err()
        ); // void in expression
        assert!(analyze_src("proc main() begin call nothere(); end").is_err());
    }

    #[test]
    fn return_rules() {
        assert!(analyze_src("proc main() begin return 3; end").is_err());
        assert!(
            analyze_src("proc f() -> int begin return; end proc main() begin skip; end").is_err()
        );
        assert!(
            analyze_src("proc f() -> int begin return true; end proc main() begin skip; end")
                .is_err()
        );
    }

    #[test]
    fn mutual_recursion_resolves() {
        let p = analyze_src(
            "proc even(int n) -> bool begin if n = 0 then return true; else return odd(n - 1); end
             proc odd(int n) -> bool begin if n = 0 then return false; else return even(n - 1); end
             proc main() begin if even(4) then write 1; else write 0; end",
        )
        .unwrap();
        assert_eq!(p.procs.len(), 3);
    }

    #[test]
    fn missing_main_rejected() {
        let err = analyze_src("proc f() begin skip; end").unwrap_err();
        assert!(err.message.contains("main"));
    }

    #[test]
    fn main_signature_enforced() {
        assert!(analyze_src("proc main(int x) begin skip; end").is_err());
        assert!(analyze_src("proc main() -> int begin return 0; end").is_err());
    }

    #[test]
    fn duplicate_procs_and_globals_rejected() {
        assert!(analyze_src(
            "proc f() begin skip; end proc f() begin skip; end proc main() begin skip; end"
        )
        .is_err());
        assert!(analyze_src("int g; int g; proc main() begin skip; end").is_err());
    }

    #[test]
    fn for_loop_variable_must_be_int() {
        assert!(analyze_src("proc main() begin bool b; for b := 0 to 3 do skip; end").is_err());
    }

    #[test]
    fn contour_stats_recorded() {
        let p = analyze_src("proc main() begin int a; begin int b; begin int c; skip; end end end")
            .unwrap();
        assert_eq!(p.procs[0].max_visible_slots, 3);
        assert_eq!(p.procs[0].contour_count, 4); // param scope + body + 2 nested
    }

    #[test]
    fn global_initialiser_type_checked() {
        assert!(analyze_src("int g := true; proc main() begin skip; end").is_err());
    }

    #[test]
    fn write_accepts_bool() {
        assert!(analyze_src("proc main() begin write true; end").is_ok());
    }
}
