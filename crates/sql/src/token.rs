//! SQL tokens and keyword classification.

use crate::ast::Literal;
use crate::error::Pos;
use std::fmt;

/// A lexical token produced by [`crate::lexer::Lexer`].
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword; keywords are recognized by the parser via
    /// [`Token::is_keyword`] so that non-reserved words stay usable as names.
    Word(String),
    /// Integer literal, e.g. `42`.
    Integer(i64),
    /// Decimal literal, e.g. `0.05`: a [`Literal::Decimal`], or a
    /// [`Literal::Float`] past its digits.
    Decimal(Literal),
    /// Single-quoted string literal with quotes removed and `''` unescaped.
    String(String),
    LParen,
    RParen,
    Comma,
    Semicolon,
    Period,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||` string concatenation.
    Concat,
    /// End of input marker.
    Eof,
}

impl Token {
    /// True when this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        match self {
            Token::Word(w) => w.eq_ignore_ascii_case(kw),
            _ => false,
        }
    }

    /// The identifier text, if this token is a word.
    pub fn word(&self) -> Option<&str> {
        match self {
            Token::Word(w) => Some(w),
            _ => None,
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::Integer(i) => write!(f, "{i}"),
            Token::Decimal(l) => write!(f, "{l}"),
            Token::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Semicolon => f.write_str(";"),
            Token::Period => f.write_str("."),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Star => f.write_str("*"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Concat => f.write_str("||"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token together with the position where it started.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub pos: Pos,
}

/// Reserved words that may not be used as bare column/table names.
///
/// Deliberately short: TPC-H schemas use many words (`comment`, `date`
/// appears as a type/name) that heavier dialects reserve.
pub const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "by", "having", "limit",
    "and", "or", "not", "in", "exists", "between", "like", "is", "null",
    "case", "when", "then", "else", "end", "as", "asc", "desc", "distinct",
    "union", "all", "join", "inner", "left", "right", "outer", "on",
];

/// True when `word` is reserved and therefore cannot be an identifier.
pub fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let t = Token::Word("SeLeCt".into());
        assert!(t.is_keyword("select"));
        assert!(t.is_keyword("SELECT"));
        assert!(!t.is_keyword("from"));
    }

    #[test]
    fn non_words_are_not_keywords() {
        assert!(!Token::Integer(5).is_keyword("select"));
        assert!(!Token::Eof.is_keyword("select"));
    }

    #[test]
    fn reserved_words() {
        assert!(is_reserved("SELECT"));
        assert!(is_reserved("between"));
        assert!(!is_reserved("nation"));
        assert!(!is_reserved("comment"));
    }

    #[test]
    fn string_display_escapes_quotes() {
        assert_eq!(Token::String("O'Neil".into()).to_string(), "'O''Neil'");
    }
}
