//! Recursive-descent parser for RAUL.
//!
//! The grammar (EBNF):
//!
//! ```text
//! program   := { var_decl | proc_decl }
//! proc_decl := "proc" ident "(" [ param { "," param } ] ")" [ "->" type ] block
//! param     := type ident
//! var_decl  := type ident [ "[" int "]" ] [ ":=" expr ] ";"
//! type      := "int" | "bool"
//! block     := "begin" { var_decl } { stmt } "end"
//! stmt      := ident ":=" expr ";"
//!            | ident "[" expr "]" ":=" expr ";"
//!            | "if" expr "then" stmt [ "else" stmt ]
//!            | "while" expr "do" stmt
//!            | "for" ident ":=" expr "to" expr "do" stmt
//!            | block
//!            | "call" ident "(" [ expr { "," expr } ] ")" ";"
//!            | "return" [ expr ] ";"
//!            | "write" expr ";"
//!            | "skip" ";"
//! expr      := or
//! or        := and { "or" and }
//! and       := unary_not { "and" unary_not }
//! unary_not := "not" unary_not | cmp
//! cmp       := add [ ("=" | "<>" | "<" | "<=" | ">" | ">=") add ]
//! add       := mul { ("+" | "-") mul }
//! mul       := neg { ("*" | "/" | "%") neg }
//! neg       := "-" neg | primary
//! primary   := int | "true" | "false" | ident [ "(" args ")" | "[" expr "]" ]
//!            | "(" expr ")"
//! ```

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};
use crate::types::Type;
use crate::Span;

/// Parses RAUL source text into an AST.
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
///
/// # Example
///
/// ```
/// let ast = hlr::parser::parse("proc main() begin skip; end")?;
/// assert_eq!(ast.procs[0].name, "main");
/// # Ok::<(), hlr::Error>(())
/// ```
pub fn parse(source: &str) -> Result<Program> {
    let tokens = tokenize(source)?;
    Parser { tokens, pos: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Advances past the current token; the last token, end of input,
    /// is never passed.
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Moves the name out of the current token if it is an identifier,
    /// and advances past it. The parser never looks back at a token it
    /// has passed, so each name keeps the one `String` the lexer made.
    fn take_name(&mut self) -> Option<String> {
        match &mut self.tokens[self.pos].kind {
            TokenKind::Ident(name) => {
                let name = std::mem::take(name);
                self.bump();
                Some(name)
            }
            _ => None,
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected {}, found {}", kind.describe(), self.peek()),
                self.span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span)> {
        let span = self.span();
        match self.take_name() {
            Some(name) => Ok((name, span)),
            None => Err(Error::parse(
                format!("expected identifier, found {}", self.peek()),
                span,
            )),
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Proc => program.procs.push(self.proc_decl()?),
                TokenKind::KwInt | TokenKind::KwBool => {
                    program.globals.push(self.var_decl()?);
                }
                other => {
                    return Err(Error::parse(
                        format!("expected declaration, found {other}"),
                        self.span(),
                    ))
                }
            }
        }
        Ok(program)
    }

    fn scalar_type(&mut self) -> Result<Type> {
        match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Type::Int)
            }
            TokenKind::KwBool => {
                self.bump();
                Ok(Type::Bool)
            }
            other => Err(Error::parse(
                format!("expected type, found {other}"),
                self.span(),
            )),
        }
    }

    fn proc_decl(&mut self) -> Result<ProcDecl> {
        let start = self.span();
        self.expect(&TokenKind::Proc)?;
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let pstart = self.span();
                let ty = self.scalar_type()?;
                let (pname, pspan) = self.ident()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pstart.merge(pspan),
                });
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let ret = if self.peek() == &TokenKind::Arrow {
            self.bump();
            Some(self.scalar_type()?)
        } else {
            None
        };
        let header_end = self.span();
        let body = self.block()?;
        Ok(ProcDecl {
            name,
            params,
            ret,
            body,
            span: start.merge(header_end),
        })
    }

    fn var_decl(&mut self) -> Result<VarDecl> {
        let start = self.span();
        let base = self.scalar_type()?;
        let (name, _) = self.ident()?;
        let (ty, init) = if self.peek() == &TokenKind::LBracket {
            if base != Type::Int {
                return Err(Error::parse("only integer arrays are supported", start));
            }
            self.bump();
            let len = match *self.peek() {
                TokenKind::Int(n) if n > 0 && n <= u32::MAX as i64 => {
                    self.bump();
                    n as u32
                }
                _ => {
                    return Err(Error::parse(
                        format!("expected positive array length, found {}", self.peek()),
                        self.span(),
                    ))
                }
            };
            self.expect(&TokenKind::RBracket)?;
            (Type::IntArray(len), None)
        } else if self.peek() == &TokenKind::Assign {
            self.bump();
            let init = self.expr()?;
            (base, Some(init))
        } else {
            (base, None)
        };
        let end = self.span();
        self.expect(&TokenKind::Semi)?;
        Ok(VarDecl {
            name,
            ty,
            init,
            span: start.merge(end),
        })
    }

    fn block(&mut self) -> Result<Block> {
        let start = self.span();
        self.expect(&TokenKind::Begin)?;
        let mut decls = Vec::new();
        while matches!(self.peek(), TokenKind::KwInt | TokenKind::KwBool) {
            decls.push(self.var_decl()?);
        }
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::End {
            if self.peek() == &TokenKind::Eof {
                return Err(Error::parse("unterminated block: expected `end`", start));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.span();
        self.bump(); // `end`
        Ok(Block {
            decls,
            stmts,
            span: start.merge(end),
        })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        match self.peek() {
            TokenKind::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Then)?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.peek() == &TokenKind::Else {
                    self.bump();
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                let end = else_branch
                    .as_ref()
                    .map(|s| s.span())
                    .unwrap_or_else(|| then_branch.span());
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span: start.merge(end),
                })
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Do)?;
                let body = Box::new(self.stmt()?);
                let span = start.merge(body.span());
                Ok(Stmt::While { cond, body, span })
            }
            TokenKind::For => {
                self.bump();
                let (var, _) = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let from = self.expr()?;
                self.expect(&TokenKind::To)?;
                let to = self.expr()?;
                self.expect(&TokenKind::Do)?;
                let body = Box::new(self.stmt()?);
                let span = start.merge(body.span());
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                    span,
                })
            }
            TokenKind::Begin => Ok(Stmt::Block(self.block()?)),
            TokenKind::Call => {
                self.bump();
                let (name, _) = self.ident()?;
                let args = self.call_args()?;
                let end = self.span();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Call {
                    name,
                    args,
                    span: start.merge(end),
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.span();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return {
                    value,
                    span: start.merge(end),
                })
            }
            TokenKind::Write => {
                self.bump();
                let value = self.expr()?;
                let end = self.span();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Write {
                    value,
                    span: start.merge(end),
                })
            }
            TokenKind::Skip => {
                self.bump();
                let end = self.span();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Skip {
                    span: start.merge(end),
                })
            }
            TokenKind::Ident(_) => {
                let (name, _) = self.ident()?;
                if self.peek() == &TokenKind::LBracket {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    self.expect(&TokenKind::Assign)?;
                    let value = self.expr()?;
                    let end = self.span();
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::AssignIndexed {
                        name,
                        index,
                        value,
                        span: start.merge(end),
                    })
                } else {
                    self.expect(&TokenKind::Assign)?;
                    let value = self.expr()?;
                    let end = self.span();
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Assign {
                        name,
                        value,
                        span: start.merge(end),
                    })
                }
            }
            other => Err(Error::parse(
                format!("expected statement, found {other}"),
                start,
            )),
        }
    }

    fn call_args(&mut self) -> Result<Vec<Expr>> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &TokenKind::Or {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.peek() == &TokenKind::And {
            self.bump();
            let rhs = self.not_expr()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.peek() == &TokenKind::Not {
            let start = self.span();
            self.bump();
            let operand = self.not_expr()?;
            let span = start.merge(operand.span());
            Ok(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
                span,
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = lhs.span().merge(rhs.span());
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.neg_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.neg_expr()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn neg_expr(&mut self) -> Result<Expr> {
        if self.peek() == &TokenKind::Minus {
            let start = self.span();
            self.bump();
            let operand = self.neg_expr()?;
            let span = start.merge(operand.span());
            Ok(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
                span,
            })
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, start))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true, start))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false, start))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(_) => {
                let (name, _) = self.ident()?;
                if self.peek() == &TokenKind::LParen {
                    let args = self.call_args()?;
                    Ok(Expr::Call {
                        name,
                        args,
                        span: start,
                    })
                } else if self.peek() == &TokenKind::LBracket {
                    self.bump();
                    let index = self.expr()?;
                    let end = self.span();
                    self.expect(&TokenKind::RBracket)?;
                    Ok(Expr::Index {
                        name,
                        index: Box::new(index),
                        span: start.merge(end),
                    })
                } else {
                    Ok(Expr::Var(name, start))
                }
            }
            _ => Err(Error::parse(
                format!("expected expression, found {}", self.peek()),
                start,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_program() {
        let p = parse("").unwrap();
        assert!(p.globals.is_empty());
        assert!(p.procs.is_empty());
    }

    #[test]
    fn parses_globals_and_procs() {
        let p = parse("int g := 1; int a[8]; proc main() begin skip; end").unwrap();
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[1].ty, Type::IntArray(8));
        assert_eq!(p.procs.len(), 1);
    }

    #[test]
    fn parses_params_and_return_type() {
        let p = parse("proc f(int a, bool b) -> int begin return 1; end").unwrap();
        let f = &p.procs[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, Type::Int);
        assert_eq!(f.params[1].ty, Type::Bool);
        assert_eq!(f.ret, Some(Type::Int));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("proc main() begin int x := 1 + 2 * 3; skip; end").unwrap();
        let init = p.procs[0].body.decls[0].init.as_ref().unwrap();
        match init {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => match rhs.as_ref() {
                Expr::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected mul on rhs, got {other:?}"),
            },
            other => panic!("expected add at top, got {other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_over_and() {
        let p = parse("proc main() begin bool b := 1 < 2 and 3 < 4; skip; end").unwrap();
        let init = p.procs[0].body.decls[0].init.as_ref().unwrap();
        assert!(matches!(init, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn unary_minus_is_right_associative() {
        let p = parse("proc main() begin int x := --1; skip; end").unwrap();
        let init = p.procs[0].body.decls[0].init.as_ref().unwrap();
        match init {
            Expr::Unary {
                op: UnOp::Neg,
                operand,
                ..
            } => {
                assert!(matches!(
                    operand.as_ref(),
                    Expr::Unary { op: UnOp::Neg, .. }
                ));
            }
            other => panic!("expected neg, got {other:?}"),
        }
    }

    #[test]
    fn parses_all_statement_forms() {
        let src = r#"
            int g;
            proc f(int n) -> int begin return n; end
            proc main() begin
                int i;
                int a[4];
                g := 1;
                a[0] := 2;
                if g = 1 then skip; else g := 2;
                while g < 3 do g := g + 1;
                for i := 0 to 3 do a[i] := i;
                begin int local := 5; write local; end
                call f(1);
                write f(2);
                write a[1 + 2];
                skip;
            end
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.procs.len(), 2);
        assert_eq!(p.procs[1].body.stmts.len(), 10);
    }

    #[test]
    fn nested_if_else_binds_to_nearest() {
        let p =
            parse("proc main() begin if true then if false then skip; else write 1; end").unwrap();
        match &p.procs[0].body.stmts[0] {
            Stmt::If {
                else_branch,
                then_branch,
                ..
            } => {
                assert!(else_branch.is_none());
                assert!(matches!(
                    then_branch.as_ref(),
                    Stmt::If {
                        else_branch: Some(_),
                        ..
                    }
                ));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn error_on_bool_array() {
        assert!(parse("bool b[4];").is_err());
    }

    #[test]
    fn error_on_zero_length_array() {
        assert!(parse("int a[0];").is_err());
    }

    #[test]
    fn error_on_unterminated_block() {
        let err = parse("proc main() begin skip;").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn error_on_garbage_statement() {
        assert!(parse("proc main() begin 42; end").is_err());
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("proc main() begin write 1 end").is_err());
    }

    #[test]
    fn parenthesised_expressions() {
        let p = parse("proc main() begin int x := (1 + 2) * 3; skip; end").unwrap();
        let init = p.procs[0].body.decls[0].init.as_ref().unwrap();
        assert!(matches!(init, Expr::Binary { op: BinOp::Mul, .. }));
    }
}
