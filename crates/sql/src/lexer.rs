//! A hand-written SQL tokenizer.
//!
//! Supports the lexical surface needed by TPC-H/SSB-style analytic SQL:
//! identifiers, integer and decimal literals, single-quoted strings with
//! `''` escaping, the usual operators, and `--` line comments plus
//! `/* ... */` block comments.

use crate::ast::Literal;
use crate::error::{ParseError, ParseResult, Pos};
use crate::token::{Spanned, Token};

/// Streaming tokenizer over an input string.
pub struct Lexer<'a> {
    src: &'a [u8],
    idx: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            idx: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize the whole input, appending a final [`Token::Eof`].
    pub fn tokenize(src: &str) -> ParseResult<Vec<Spanned>> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let spanned = lexer.next_token()?;
            let done = spanned.token == Token::Eof;
            out.push(spanned);
            if done {
                return Ok(out);
            }
        }
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.idx).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.idx + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.idx += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> ParseResult<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(ParseError::new(start, "unterminated block comment"))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> ParseResult<Spanned> {
        self.skip_trivia()?;
        let pos = self.pos();
        let token = match self.peek() {
            None => Token::Eof,
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.lex_word(),
            Some(c) if c.is_ascii_digit() => self.lex_number(pos)?,
            Some(b'\'') => self.lex_string(pos)?,
            Some(b'"') => self.lex_quoted_ident(pos)?,
            Some(b'(') => self.single(Token::LParen),
            Some(b')') => self.single(Token::RParen),
            Some(b',') => self.single(Token::Comma),
            Some(b';') => self.single(Token::Semicolon),
            Some(b'.') => self.single(Token::Period),
            Some(b'+') => self.single(Token::Plus),
            Some(b'-') => self.single(Token::Minus),
            Some(b'*') => self.single(Token::Star),
            Some(b'/') => self.single(Token::Slash),
            Some(b'%') => self.single(Token::Percent),
            Some(b'=') => self.single(Token::Eq),
            Some(b'|') => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Token::Concat
                } else {
                    return Err(ParseError::new(pos, "expected '||'"));
                }
            }
            Some(b'<') => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        Token::LtEq
                    }
                    Some(b'>') => {
                        self.bump();
                        Token::NotEq
                    }
                    _ => Token::Lt,
                }
            }
            Some(b'>') => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::GtEq
                } else {
                    Token::Gt
                }
            }
            Some(b'!') => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::NotEq
                } else {
                    return Err(ParseError::new(pos, "expected '!='"));
                }
            }
            Some(c) => {
                return Err(ParseError::new(
                    pos,
                    format!("unexpected character {:?}", c as char),
                ))
            }
        };
        Ok(Spanned { token, pos })
    }

    fn single(&mut self, t: Token) -> Token {
        self.bump();
        t
    }

    fn lex_word(&mut self) -> Token {
        let start = self.idx;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        // Identifiers are normalized to lowercase; SQL is case-insensitive
        // and canonical case keeps dedup and diffs stable.
        let text = std::str::from_utf8(&self.src[start..self.idx])
            .expect("ascii word")
            .to_ascii_lowercase();
        Token::Word(text)
    }

    fn lex_number(&mut self, pos: Pos) -> ParseResult<Token> {
        let start = self.idx;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_decimal = false;
        // A '.' only belongs to the number when followed by a digit, so that
        // `1.` in `t1.c` style input still lexes as integer + period.
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_decimal = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E'))
            && matches!(self.peek2(), Some(c) if c.is_ascii_digit() || c == b'+' || c == b'-')
        {
            is_decimal = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.idx]).expect("ascii number");
        if is_decimal {
            decimal_literal(text)
                .map(Token::Decimal)
                .map_err(|e| ParseError::new(pos, e))
        } else {
            text.parse::<i64>()
                .map(Token::Integer)
                .map_err(|e| ParseError::new(pos, format!("invalid integer literal: {e}")))
        }
    }

    /// The source between two byte offsets. Callers cut at quote bytes,
    /// which are ASCII and so never fall inside a multi-byte character:
    /// the slice is whole UTF-8 characters of the (already valid) input.
    fn text(&self, start: usize, end: usize) -> &'a str {
        std::str::from_utf8(&self.src[start..end]).expect("cut at ASCII quote bytes")
    }

    fn lex_string(&mut self, pos: Pos) -> ParseResult<Token> {
        self.bump(); // opening quote
        let mut out = String::new();
        let mut start = self.idx;
        loop {
            match self.bump() {
                Some(b'\'') => {
                    out.push_str(self.text(start, self.idx - 1));
                    if self.peek() != Some(b'\'') {
                        return Ok(Token::String(out));
                    }
                    // `''` is one quote; the literal continues after it.
                    self.bump();
                    out.push('\'');
                    start = self.idx;
                }
                Some(_) => {}
                None => return Err(ParseError::new(pos, "unterminated string literal")),
            }
        }
    }

    fn lex_quoted_ident(&mut self, pos: Pos) -> ParseResult<Token> {
        self.bump(); // opening quote
        let start = self.idx;
        loop {
            match self.bump() {
                Some(b'"') => {
                    let name = self.text(start, self.idx - 1);
                    return Ok(Token::Word(name.to_ascii_lowercase()));
                }
                Some(_) => {}
                None => return Err(ParseError::new(pos, "unterminated quoted identifier")),
            }
        }
    }
}

/// The most fractional digits an exact decimal literal keeps: `10^38` is
/// the largest power of ten an `i128` holds, so every such literal can
/// be taken to any scale up to its own.
const MAX_SCALE: u8 = 38;

/// The literal a decimal number's text spells: its exact value in lowest
/// terms while its digits fit an `i128` and at most [`MAX_SCALE`] of them
/// follow the point, the nearest `f64` otherwise. A number past the
/// largest `f64` is an error: no literal could print it back.
fn decimal_literal(text: &str) -> Result<Literal, String> {
    let (mantissa, exp) = text.split_once(['e', 'E']).unwrap_or((text, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let exact = || {
        let raw: i128 = format!("{int}{frac}").parse().ok()?;
        let scale = (frac.len() as i64).checked_sub(exp.parse().ok()?)?;
        if scale < 0 {
            let raw = raw.checked_mul(10i128.checked_pow(u32::try_from(-scale).ok()?)?)?;
            return Some(Literal::Decimal { raw, scale: 0 });
        }
        let lit = Literal::decimal(raw, u8::try_from(scale).ok()?);
        matches!(lit, Literal::Decimal { scale, .. } if scale <= MAX_SCALE).then_some(lit)
    };
    match exact() {
        Some(lit) => Ok(lit),
        None => match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Literal::Float(f)),
            Ok(_) => Err(format!("decimal literal {text} is out of range")),
            Err(e) => Err(format!("invalid decimal literal {text}: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn words_lowercased() {
        assert_eq!(
            toks("SELECT N_Name"),
            vec![
                Token::Word("select".into()),
                Token::Word("n_name".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 0.05 1e3"),
            vec![
                Token::Integer(42),
                Token::Decimal(Literal::Decimal { raw: 5, scale: 2 }),
                Token::Decimal(Literal::Decimal { raw: 1000, scale: 0 }),
                Token::Eof
            ]
        );
    }

    /// Decimal literals keep their exact value in lowest terms; digits
    /// past an `i128`, or more fractional digits than `10^38` counts,
    /// fall back to the nearest float.
    #[test]
    fn decimal_literals_are_exact() {
        let dec = |raw, scale| Token::Decimal(Literal::Decimal { raw, scale });
        assert_eq!(
            toks("9007199254740993.0 12345678901234567.89 0.0 1.2300 12.5e-3 1e38"),
            vec![
                dec(9007199254740993, 0),
                dec(1234567890123456789, 2),
                dec(0, 0),
                dec(123, 2),
                dec(125, 4),
                dec(10i128.pow(38), 0),
                Token::Eof
            ]
        );
        assert_eq!(
            toks("1e39 1e-39"),
            vec![
                Token::Decimal(Literal::Float(1e39)),
                Token::Decimal(Literal::Float(1e-39)),
                Token::Eof
            ]
        );
    }

    /// A number past the largest `f64` is a lex error that names it, not
    /// an infinite float that would print back as the column `inf`.
    #[test]
    fn a_literal_past_every_float_is_an_error() {
        for text in [
            "1e400",
            "1.5E309",
            "12345678901234567890123456789012345678901e300",
        ] {
            let err = Lexer::tokenize(&format!("select {text}")).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("decimal literal {text} is out of range")),
                "{err}"
            );
        }
        assert_eq!(toks("1.7e308")[0], Token::Decimal(Literal::Float(1.7e308)));
    }

    #[test]
    fn qualified_column_is_word_period_word() {
        assert_eq!(
            toks("l.tax"),
            vec![
                Token::Word("l".into()),
                Token::Period,
                Token::Word("tax".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks("'BRAZIL' 'O''Neil'"),
            vec![
                Token::String("BRAZIL".into()),
                Token::String("O'Neil".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<= >= <> != < > = + - * / %"),
            vec![
                Token::LtEq,
                Token::GtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("select -- trailing\n/* block\ncomment */ 1"),
            vec![Token::Word("select".into()), Token::Integer(1), Token::Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = Lexer::tokenize("'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.pos, Pos::new(1, 1));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(Lexer::tokenize("/* nope").is_err());
    }

    #[test]
    fn positions_track_lines() {
        let spanned = Lexer::tokenize("select\n  x").unwrap();
        assert_eq!(spanned[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(
            toks("\"Group\""),
            vec![Token::Word("group".into()), Token::Eof]
        );
    }

    #[test]
    fn non_ascii_literals_keep_their_characters() {
        // One character each, not one `char` per UTF-8 byte.
        assert_eq!(
            toks("'Ä' 'Ä''ö%' \"Größe\""),
            vec![
                Token::String("Ä".into()),
                Token::String("Ä'ö%".into()),
                Token::Word("größe".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(Lexer::tokenize("select @x").is_err());
    }
}
