//! Platform error type.
//!
//! Every variant carries a *stable machine-readable code* ([`PlatformError::code`])
//! so wire clients can reconstruct the exact typed error from a JSON payload:
//! the [`serde::Serialize`]/[`serde::Deserialize`] impls round-trip
//! `{"code": ..., "message": ..., "detail": ...}` losslessly.

use serde::{Deserialize, Serialize, Sink, Value};
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

impl PlatformError {
    /// The stable machine-readable error code carried on the wire.
    /// Codes are part of the v1 protocol: they never change meaning.
    pub fn code(&self) -> &'static str {
        match self {
            PlatformError::Invalid(_) => "invalid",
            PlatformError::UnknownUser(_) => "unknown_user",
            PlatformError::UnknownProject(_) => "unknown_project",
            PlatformError::UnknownExperiment(_) => "unknown_experiment",
            PlatformError::UnknownTask(_) => "unknown_task",
            PlatformError::UnknownQuery(_) => "unknown_query",
            PlatformError::AccessDenied(_) => "access_denied",
            PlatformError::Grammar(_) => "grammar",
            PlatformError::PoolFull(_) => "pool_full",
            PlatformError::Publication(_) => "publication",
            PlatformError::Transport(_) => "transport",
            PlatformError::Throttled(_) => "throttled",
        }
    }

    /// Rebuild the typed error from a `(code, detail)` pair. The detail is
    /// the variant payload: a number for the `unknown_*`/`pool_full`
    /// families, a message string for everything else.
    pub fn from_code(code: &str, detail: &Value) -> Result<PlatformError, String> {
        let num = || {
            detail
                .as_i64()
                .map(|n| n as u64)
                .ok_or_else(|| format!("error code {code:?} needs a numeric detail"))
        };
        let text = || {
            detail
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("error code {code:?} needs a string detail"))
        };
        Ok(match code {
            "invalid" => PlatformError::Invalid(text()?),
            "unknown_user" => PlatformError::UnknownUser(num()?),
            "unknown_project" => PlatformError::UnknownProject(num()?),
            "unknown_experiment" => PlatformError::UnknownExperiment(num()?),
            "unknown_task" => PlatformError::UnknownTask(num()?),
            "unknown_query" => PlatformError::UnknownQuery(num()?),
            "access_denied" => PlatformError::AccessDenied(text()?),
            "grammar" => PlatformError::Grammar(text()?),
            "pool_full" => PlatformError::PoolFull(num()? as usize),
            "publication" => PlatformError::Publication(text()?),
            "transport" => PlatformError::Transport(text()?),
            "throttled" => PlatformError::Throttled(text()?),
            other => return Err(format!("unknown error code {other:?}")),
        })
    }
}

impl Serialize for PlatformError {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        s.field("code", self.code());
        match self {
            PlatformError::Invalid(m)
            | PlatformError::AccessDenied(m)
            | PlatformError::Grammar(m)
            | PlatformError::Publication(m)
            | PlatformError::Transport(m)
            | PlatformError::Throttled(m) => s.field("detail", m),
            PlatformError::UnknownUser(id)
            | PlatformError::UnknownProject(id)
            | PlatformError::UnknownExperiment(id)
            | PlatformError::UnknownTask(id)
            | PlatformError::UnknownQuery(id) => s.field("detail", id),
            PlatformError::PoolFull(cap) => s.field("detail", cap),
        }
        s.field("message", &self.to_string());
        s.end_object();
    }
}

impl Deserialize for PlatformError {
    fn from_value(v: &Value) -> Result<Self, String> {
        let code = v["code"].as_str().ok_or("error: missing code")?;
        PlatformError::from_code(code, &v["detail"])
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
