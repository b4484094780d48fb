//! The RAUL lexer.
//!
//! Converts source text into a vector of [`Token`]s. Comments run from `#`
//! to end of line, mirroring the "redundancy for intelligibility" the paper
//! ascribes to HLRs (and which the compiler strips away).

use crate::error::{Error, Result};
use crate::token::{Token, TokenKind};
use crate::Span;

/// Tokenises `source`, returning all tokens including a trailing
/// [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns an error on unrecognised characters or malformed literals.
///
/// # Example
///
/// ```
/// let toks = hlr::lexer::tokenize("x := 1;")?;
/// assert_eq!(toks.len(), 5); // ident, :=, int, ;, eof
/// # Ok::<(), hlr::Error>(())
/// ```
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        // Formatted RAUL averages about four bytes a token, so this
        // capacity usually holds every token without regrowing the buffer.
        let mut tokens = Vec::with_capacity(self.src.len() / 3 + 1);
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start, start),
                });
                return Ok(tokens);
            };
            let kind = match c {
                b'0'..=b'9' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.word(),
                _ => self.punct()?,
            };
            tokens.push(Token {
                kind,
                span: Span::new(start, self.pos),
            });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        text.parse::<i64>()
            .map(TokenKind::Int)
            .map_err(|_| Error::lex("integer literal out of range", Span::new(start, self.pos)))
    }

    fn word(&mut self) -> TokenKind {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii word");
        TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()))
    }

    fn punct(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let c = self.bump().expect("caller checked non-empty");
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'+' => TokenKind::Plus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'=' => TokenKind::Eq,
            b'-' => {
                if self.peek() == Some(b'>') {
                    self.pos += 1;
                    TokenKind::Arrow
                } else {
                    TokenKind::Minus
                }
            }
            b':' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Assign
                } else {
                    return Err(Error::lex(
                        "expected `=` after `:`",
                        Span::new(start, self.pos),
                    ));
                }
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    TokenKind::Le
                }
                Some(b'>') => {
                    self.pos += 1;
                    TokenKind::Ne
                }
                _ => TokenKind::Lt,
            },
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            other => {
                return Err(Error::lex(
                    format!("unrecognised character `{}`", other as char),
                    Span::new(start, self.pos),
                ))
            }
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn empty_input_yields_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
    }

    #[test]
    fn whitespace_and_comments_are_skipped() {
        assert_eq!(
            kinds("  # a comment\n  x # trailing\n"),
            vec![TokenKind::Ident("x".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn numbers_and_idents() {
        assert_eq!(
            kinds("x1 42"),
            vec![
                TokenKind::Ident("x1".into()),
                TokenKind::Int(42),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn keywords_are_recognised() {
        assert_eq!(
            kinds("while do"),
            vec![TokenKind::While, TokenKind::Do, TokenKind::Eof]
        );
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds(":= <> <= >= -> < >"),
            vec![
                TokenKind::Assign,
                TokenKind::Ne,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Arrow,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn all_single_punct() {
        assert_eq!(
            kinds("()[];,+-*/%="),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::Semi,
                TokenKind::Comma,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = tokenize("ab 12").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }

    #[test]
    fn bad_colon_is_an_error() {
        let err = tokenize("x : y").unwrap_err();
        assert!(err.message.contains("expected `=`"));
    }

    #[test]
    fn unknown_character_is_an_error() {
        assert!(tokenize("@").is_err());
        assert!(tokenize("x & y").is_err());
    }

    #[test]
    fn huge_literal_is_an_error() {
        assert!(tokenize("99999999999999999999999").is_err());
    }

    #[test]
    fn i64_max_is_accepted() {
        assert_eq!(
            kinds("9223372036854775807"),
            vec![TokenKind::Int(i64::MAX), TokenKind::Eof]
        );
    }
}
