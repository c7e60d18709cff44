//! Platform error type.
//!
//! Every variant carries a *stable machine-readable code* ([`ErrorCode`],
//! one table row per variant) so wire clients can reconstruct the exact
//! typed error: the [`serde::Serialize`]/[`serde::Deserialize`] impls
//! round-trip `{"code": ..., "message": ..., "detail": ...}` losslessly,
//! and v2 carries the same code and detail in binary.

use serde::{Deserialize, Reader, Serialize, Sink, Value};
use std::fmt;

/// Errors raised by the sqalpel platform layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// Malformed input (names, emails, configuration).
    Invalid(String),
    UnknownUser(u64),
    UnknownProject(u64),
    UnknownExperiment(u64),
    UnknownTask(u64),
    UnknownQuery(u64),
    /// The caller lacks the required role on the project.
    AccessDenied(String),
    /// Grammar processing failed.
    Grammar(String),
    /// The pool hit its hard cap.
    PoolFull(usize),
    /// Publishing rules violated (e.g. a public project referencing a
    /// private DBMS/host entry, or a taken-down project being served).
    Publication(String),
    /// The wire transport failed after exhausting retries (connect
    /// refused, timeout, malformed response). Never raised in-process.
    Transport(String),
    /// Admission control rejected the request: the caller is over a
    /// per-user in-flight bound or a per-project queue quota. Retry
    /// after backing off; nothing was handed out or enqueued.
    Throttled(String),
}

/// An error's payload as it travels: a message, or a number (an id, a
/// cap). The v1 `"detail"` member is its JSON; v2 writes a kind byte
/// (0 text, 1 number) and then the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detail<'a> {
    Text(&'a str),
    Number(u64),
}

/// The payload types of [`PlatformError`] variants.
trait Payload: Sized {
    fn detail(&self) -> Detail<'_>;
    fn from_detail(d: Detail<'_>) -> Option<Self>;
}

impl Payload for String {
    fn detail(&self) -> Detail<'_> {
        Detail::Text(self)
    }
    fn from_detail(d: Detail<'_>) -> Option<Self> {
        match d {
            Detail::Text(m) => Some(m.to_string()),
            Detail::Number(_) => None,
        }
    }
}

impl Payload for u64 {
    fn detail(&self) -> Detail<'_> {
        Detail::Number(*self)
    }
    fn from_detail(d: Detail<'_>) -> Option<Self> {
        match d {
            Detail::Number(n) => Some(n),
            Detail::Text(_) => None,
        }
    }
}

impl Payload for usize {
    fn detail(&self) -> Detail<'_> {
        Detail::Number(*self as u64)
    }
    fn from_detail(d: Detail<'_>) -> Option<Self> {
        u64::from_detail(d).map(|n| n as usize)
    }
}

/// One row per [`PlatformError`] variant: its v2 status byte, its stable
/// string code and the HTTP status that carries it on v1. Everything
/// that maps an error to or from either wire is generated from here;
/// codes never change meaning.
macro_rules! error_codes {
    ($($variant:ident = $byte:literal, $code:literal, $http:literal;)*) => {
        /// The unified error code shared by both protocols: one per
        /// [`PlatformError`] variant, carried as the v1 JSON `"code"` plus
        /// HTTP status and as the v2 response status byte (never 0 —
        /// that means OK).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum ErrorCode {
            $($variant = $byte,)*
        }

        impl ErrorCode {
            /// Every code, in table order.
            pub const ALL: &'static [ErrorCode] = &[$(ErrorCode::$variant),*];

            pub fn of(err: &PlatformError) -> ErrorCode {
                match err {
                    $(PlatformError::$variant(_) => ErrorCode::$variant,)*
                }
            }

            /// The HTTP status carrying this error on v1.
            pub fn http_status(self) -> u16 {
                match self {
                    $(ErrorCode::$variant => $http,)*
                }
            }

            /// The stable string code (the v1 JSON `"code"` member).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$variant => $code,)*
                }
            }

            pub fn as_u8(self) -> u8 {
                self as u8
            }

            pub fn from_u8(b: u8) -> Option<ErrorCode> {
                match b {
                    $($byte => Some(ErrorCode::$variant),)*
                    _ => None,
                }
            }

            pub(crate) fn parse(code: &str) -> Option<ErrorCode> {
                match code {
                    $($code => Some(ErrorCode::$variant),)*
                    _ => None,
                }
            }
        }

        impl PlatformError {
            /// The variant's payload as it travels.
            pub(crate) fn detail(&self) -> Detail<'_> {
                match self {
                    $(PlatformError::$variant(p) => p.detail(),)*
                }
            }

            /// Rebuild the typed error from its code and payload.
            pub(crate) fn from_detail(code: ErrorCode, detail: Detail<'_>) -> Result<PlatformError, String> {
                let wrong = || format!("error code {:?} cannot carry {detail:?}", code.as_str());
                Ok(match code {
                    $(ErrorCode::$variant => {
                        PlatformError::$variant(Payload::from_detail(detail).ok_or_else(wrong)?)
                    })*
                })
            }
        }
    };
}

error_codes! {
    Invalid = 1, "invalid", 400;
    UnknownUser = 2, "unknown_user", 404;
    UnknownProject = 3, "unknown_project", 404;
    UnknownExperiment = 4, "unknown_experiment", 404;
    UnknownTask = 5, "unknown_task", 404;
    UnknownQuery = 6, "unknown_query", 404;
    AccessDenied = 7, "access_denied", 403;
    Grammar = 8, "grammar", 422;
    PoolFull = 9, "pool_full", 409;
    Publication = 10, "publication", 451;
    Transport = 11, "transport", 500;
    Throttled = 12, "throttled", 429;
}

impl PlatformError {
    /// The stable machine-readable error code carried on the wire.
    pub fn code(&self) -> &'static str {
        ErrorCode::of(self).as_str()
    }

    /// Rebuild the typed error from a `(code, detail)` pair: a number for
    /// the `unknown_*`/`pool_full` families, a message for the rest.
    pub fn from_code(code: &str, detail: &Value) -> Result<PlatformError, String> {
        let code = ErrorCode::parse(code).ok_or_else(|| format!("unknown error code {code:?}"))?;
        let detail = match detail {
            Value::String(m) => Detail::Text(m),
            Value::Int(n) => Detail::Number(*n as u64),
            _ => return Err("error detail is neither text nor a number".into()),
        };
        PlatformError::from_detail(code, detail)
    }
}

impl Serialize for PlatformError {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        s.field("code", self.code());
        s.key("detail");
        match self.detail() {
            Detail::Text(m) => s.str(m),
            Detail::Number(n) => s.int(n as i64),
        }
        s.field("message", &self.to_string());
        s.end_object();
    }
}

/// The message is derived from code and detail, so it is never read.
impl Deserialize for PlatformError {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut code, mut detail) = (None, Value::Null);
        r.begin_object()?;
        while let Some(key) = r.key()? {
            match &*key {
                "code" => code = Some(String::deserialize(r).map_err(|e| format!("code: {e}"))?),
                "detail" => detail = Value::deserialize(r)?,
                _ => r.skip()?,
            }
        }
        PlatformError::from_code(&code.ok_or("code: missing")?, &detail)
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Invalid(m) => write!(f, "invalid input: {m}"),
            PlatformError::UnknownUser(id) => write!(f, "unknown user #{id}"),
            PlatformError::UnknownProject(id) => write!(f, "unknown project #{id}"),
            PlatformError::UnknownExperiment(id) => write!(f, "unknown experiment #{id}"),
            PlatformError::UnknownTask(id) => write!(f, "unknown task #{id}"),
            PlatformError::UnknownQuery(id) => write!(f, "unknown query #{id}"),
            PlatformError::AccessDenied(m) => write!(f, "access denied: {m}"),
            PlatformError::Grammar(m) => write!(f, "grammar error: {m}"),
            PlatformError::PoolFull(cap) => write!(f, "query pool cap ({cap}) reached"),
            PlatformError::Publication(m) => write!(f, "publication rule violated: {m}"),
            PlatformError::Transport(m) => write!(f, "transport failure: {m}"),
            PlatformError::Throttled(m) => write!(f, "throttled: {m}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<sqalpel_grammar::GrammarParseError> for PlatformError {
    fn from(e: sqalpel_grammar::GrammarParseError) -> Self {
        PlatformError::Grammar(e.to_string())
    }
}

impl From<sqalpel_grammar::template::EnumerationError> for PlatformError {
    fn from(e: sqalpel_grammar::template::EnumerationError) -> Self {
        PlatformError::Grammar(e.to_string())
    }
}

impl From<sqalpel_grammar::GenerateError> for PlatformError {
    fn from(e: sqalpel_grammar::GenerateError) -> Self {
        PlatformError::Grammar(e.to_string())
    }
}

impl From<sqalpel_sql::ParseError> for PlatformError {
    fn from(e: sqalpel_sql::ParseError) -> Self {
        PlatformError::Grammar(e.to_string())
    }
}

pub type PlatformResult<T> = Result<T, PlatformError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PlatformError::AccessDenied("not a contributor".into())
            .to_string()
            .contains("access denied"));
        assert_eq!(PlatformError::PoolFull(10).to_string(), "query pool cap (10) reached");
    }

    /// The error-mapping table: every variant has a distinct stable code
    /// and survives a JSON round-trip bit-for-bit.
    #[test]
    fn every_variant_round_trips_with_a_stable_code() {
        let table: Vec<(&str, PlatformError)> = vec![
            ("invalid", PlatformError::Invalid("bad email".into())),
            ("unknown_user", PlatformError::UnknownUser(7)),
            ("unknown_project", PlatformError::UnknownProject(8)),
            ("unknown_experiment", PlatformError::UnknownExperiment(9)),
            ("unknown_task", PlatformError::UnknownTask(10)),
            ("unknown_query", PlatformError::UnknownQuery(11)),
            ("access_denied", PlatformError::AccessDenied("private".into())),
            ("grammar", PlatformError::Grammar("cycle".into())),
            ("pool_full", PlatformError::PoolFull(1000)),
            ("publication", PlatformError::Publication("taken down".into())),
            ("transport", PlatformError::Transport("connection refused".into())),
            ("throttled", PlatformError::Throttled("in-flight bound".into())),
        ];
        let mut seen = std::collections::HashSet::new();
        for (code, err) in table {
            assert_eq!(err.code(), code);
            assert!(seen.insert(code), "duplicate code {code}");
            let text = serde_json::to_string(&err).unwrap();
            let back: PlatformError = serde_json::from_str(&text).unwrap();
            assert_eq!(back, err, "round trip of {code}");
            // The JSON also carries the human-readable message.
            assert!(text.contains(&err.to_string().replace('"', "\\\"")));
        }
    }

    #[test]
    fn unknown_codes_and_bad_details_rejected() {
        assert!(PlatformError::from_code("no_such_code", &Value::Null).is_err());
        assert!(PlatformError::from_code("unknown_user", &Value::from("x")).is_err());
        assert!(PlatformError::from_code("invalid", &Value::from(3)).is_err());
    }
}
