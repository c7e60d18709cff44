//! The protocol "brain": pure, I/O-free codecs and versioned DTOs.
//!
//! Following the qail layering, everything that *decides bytes* lives
//! here — [`v1`] is the JSON-over-HTTP codec, [`v2`] the length-framed
//! binary codec — while everything that *moves bytes* lives in
//! [`crate::wire::transport`]. Both protocol versions encode the same
//! typed [`Request`]/[`Reply`] surface and are dispatched by the same
//! [`crate::wire::dispatch`] function, so their behavior is equivalent
//! by construction; the differential suite checks the decoded results
//! are byte-identical.
//!
//! Errors are unified across protocols by [`ErrorCode`]: one stable
//! numeric code per [`PlatformError`] variant, carried as an HTTP status
//! plus JSON body on v1 and as a status byte plus typed detail on v2 —
//! either transport reconstructs the exact typed error.

pub mod v1;
pub mod v2;

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::RunOutcome;
use crate::error::{PlatformError, PlatformResult};
use crate::metrics::MetricsSnapshot;
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId, Role};
use crate::queue::{QueueSummary, Task, TaskId};
use crate::results::ResultRecord;
use crate::user::{ContributorKey, UserId};
use serde::{Deserialize, Serialize, Sink, Value};

// ------------------------------------------------------------ error codes

/// The unified error-code enum shared by both protocols. Each variant
/// maps 1:1 to a [`PlatformError`] variant, a stable string code (the v1
/// JSON `"code"` field), an HTTP status (the v1 status line) and a wire
/// byte (the v2 response status byte). Codes never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    Invalid = 1,
    UnknownUser = 2,
    UnknownProject = 3,
    UnknownExperiment = 4,
    UnknownTask = 5,
    UnknownQuery = 6,
    AccessDenied = 7,
    Grammar = 8,
    PoolFull = 9,
    Publication = 10,
    Transport = 11,
    Throttled = 12,
}

impl ErrorCode {
    pub fn of(err: &PlatformError) -> ErrorCode {
        match err {
            PlatformError::Invalid(_) => ErrorCode::Invalid,
            PlatformError::UnknownUser(_) => ErrorCode::UnknownUser,
            PlatformError::UnknownProject(_) => ErrorCode::UnknownProject,
            PlatformError::UnknownExperiment(_) => ErrorCode::UnknownExperiment,
            PlatformError::UnknownTask(_) => ErrorCode::UnknownTask,
            PlatformError::UnknownQuery(_) => ErrorCode::UnknownQuery,
            PlatformError::AccessDenied(_) => ErrorCode::AccessDenied,
            PlatformError::Grammar(_) => ErrorCode::Grammar,
            PlatformError::PoolFull(_) => ErrorCode::PoolFull,
            PlatformError::Publication(_) => ErrorCode::Publication,
            PlatformError::Transport(_) => ErrorCode::Transport,
            PlatformError::Throttled(_) => ErrorCode::Throttled,
        }
    }

    /// The HTTP status carrying this error on v1. Part of the protocol.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::Invalid => 400,
            ErrorCode::UnknownUser
            | ErrorCode::UnknownProject
            | ErrorCode::UnknownExperiment
            | ErrorCode::UnknownTask
            | ErrorCode::UnknownQuery => 404,
            ErrorCode::AccessDenied => 403,
            ErrorCode::Grammar => 422,
            ErrorCode::PoolFull => 409,
            ErrorCode::Publication => 451,
            ErrorCode::Transport => 500,
            ErrorCode::Throttled => 429,
        }
    }

    /// The stable string code (identical to [`PlatformError::code`]).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Invalid => "invalid",
            ErrorCode::UnknownUser => "unknown_user",
            ErrorCode::UnknownProject => "unknown_project",
            ErrorCode::UnknownExperiment => "unknown_experiment",
            ErrorCode::UnknownTask => "unknown_task",
            ErrorCode::UnknownQuery => "unknown_query",
            ErrorCode::AccessDenied => "access_denied",
            ErrorCode::Grammar => "grammar",
            ErrorCode::PoolFull => "pool_full",
            ErrorCode::Publication => "publication",
            ErrorCode::Transport => "transport",
            ErrorCode::Throttled => "throttled",
        }
    }

    /// The v2 status byte (never 0 — that means OK).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Invalid,
            2 => ErrorCode::UnknownUser,
            3 => ErrorCode::UnknownProject,
            4 => ErrorCode::UnknownExperiment,
            5 => ErrorCode::UnknownTask,
            6 => ErrorCode::UnknownQuery,
            7 => ErrorCode::AccessDenied,
            8 => ErrorCode::Grammar,
            9 => ErrorCode::PoolFull,
            10 => ErrorCode::Publication,
            11 => ErrorCode::Transport,
            12 => ErrorCode::Throttled,
            _ => return None,
        })
    }
}

// -------------------------------------------------------- typed requests

/// One platform operation, transport-agnostic. Each protocol version
/// encodes this enum its own way; [`crate::wire::dispatch::dispatch`]
/// executes it against the server, so v1 and v2 cannot drift apart.
#[derive(Debug, Clone)]
pub enum Request {
    RegisterUser { nickname: String, email: String },
    IssueKey { user: UserId },
    AddDbms { entry: DbmsEntry },
    AddHost { entry: HostEntry },
    DbmsLabels,
    CreateProject {
        owner: UserId,
        title: String,
        synopsis: String,
        visibility: Visibility,
    },
    Invite { project: ProjectId, owner: UserId, user: UserId },
    SetTargets {
        project: ProjectId,
        actor: UserId,
        dbms_labels: Vec<String>,
        hosts: Vec<String>,
    },
    Comment { project: ProjectId, author: UserId, text: String },
    TakeDown { project: ProjectId },
    RoleOf { project: ProjectId, user: UserId },
    AddExperiment {
        project: ProjectId,
        actor: UserId,
        title: String,
        baseline_sql: String,
        /// Grammar source text, parsed server-side.
        grammar: Option<String>,
        template_cap: u64,
        pool_cap: u64,
    },
    SeedPool {
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        n_random: u64,
        seed: u64,
    },
    MorphPool {
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        /// Strategy name, resolved server-side.
        strategy: Option<String>,
        steps: u64,
        seed: u64,
    },
    EnqueueExperiment {
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
    },
    ResultsForKey { project: ProjectId, key: ContributorKey },
    ExportCsv { project: ProjectId, viewer: UserId },
    HideResult {
        project: ProjectId,
        actor: UserId,
        index: u64,
        hidden: bool,
    },
    RequestTask {
        key: ContributorKey,
        dbms_label: String,
        host: String,
        /// Claim nonce. `None` keeps the legacy idempotent semantics:
        /// if the key already holds a task matching the target, that
        /// task is re-handed-out. `Some(n)` scopes the idempotency to
        /// this nonce, so a bulk client can hold several tasks of the
        /// same target at once — its retries reuse the nonce and still
        /// get the same task back, but a *fresh* nonce gets a fresh
        /// checkout.
        claim: Option<u64>,
    },
    ReportResult {
        key: ContributorKey,
        task: TaskId,
        outcome: RunOutcome,
    },
    /// COPY-style bulk report: a whole experiment's outcomes in one
    /// acknowledged exchange. On v2 the reports stream as columnar
    /// continuation frames terminated by a summary frame; on v1 they
    /// travel as one JSON body. The reply is [`Reply::Batch`] — the
    /// accepted record index per report, in input order.
    ReportBatch {
        key: ContributorKey,
        reports: Vec<(TaskId, RunOutcome)>,
    },
    QueueSummary,
    ReapStuck { timeout_ms: u64 },
    Requeue { task: TaskId },
    Metrics,
    /// Execute SQL on the server's attached target system. With a
    /// fingerprint, a plan-cache hit skips parse/bind/rewrite — the v2
    /// `ExecuteByFingerprint` fast path (also exposed on v1 as
    /// `POST /v1/execute` so the differential suite covers it).
    Execute { sql: String, fingerprint: Option<u64> },
}

/// One row per op: its label, and the v1 route that carries it (numeric
/// path segments as `:id`). Every metric name an op is counted under is
/// a `concat!` of these, so the per-request path formats no label.
macro_rules! ops {
    ($($variant:ident: $name:literal, $route:literal;)*) => {
        impl Request {
            /// A bounded-cardinality metric label for this op.
            pub fn op_name(&self) -> &'static str {
                match self {
                    $(Request::$variant { .. } => $name,)*
                }
            }

            /// `(route counter, latency histogram)` this op is metered
            /// under when it arrives over v1: `wire.route.<METHOD /path>`
            /// and `wire.latency.<METHOD /path>`.
            pub fn v1_metric_names(&self) -> (&'static str, &'static str) {
                match self {
                    $(Request::$variant { .. } => (
                        concat!("wire.route.", $route),
                        concat!("wire.latency.", $route),
                    ),)*
                }
            }

            /// The same pair over v2: `wire.route.V2 <op>` and
            /// `wire.latency.V2 <op>`.
            pub fn v2_metric_names(&self) -> (&'static str, &'static str) {
                match self {
                    $(Request::$variant { .. } => (
                        concat!("wire.route.V2 ", $name),
                        concat!("wire.latency.V2 ", $name),
                    ),)*
                }
            }
        }
    };
}

ops! {
    RegisterUser: "register_user", "POST /v1/user/register";
    IssueKey: "issue_key", "POST /v1/user/key";
    AddDbms: "add_dbms", "POST /v1/dbms";
    AddHost: "add_host", "POST /v1/host";
    DbmsLabels: "dbms_labels", "GET /v1/dbms";
    CreateProject: "create_project", "POST /v1/project/create";
    Invite: "invite", "POST /v1/project/:id/invite";
    SetTargets: "set_targets", "POST /v1/project/:id/targets";
    Comment: "comment", "POST /v1/project/:id/comment";
    TakeDown: "take_down", "POST /v1/project/:id/take_down";
    RoleOf: "role_of", "GET /v1/project/:id/role";
    AddExperiment: "add_experiment", "POST /v1/project/:id/experiment";
    SeedPool: "seed_pool", "POST /v1/project/:id/experiment/:id/seed";
    MorphPool: "morph_pool", "POST /v1/project/:id/experiment/:id/morph";
    EnqueueExperiment: "enqueue_experiment", "POST /v1/project/:id/experiment/:id/enqueue";
    ResultsForKey: "results_for_key", "GET /v1/project/:id/results";
    ExportCsv: "export_csv", "GET /v1/project/:id/csv";
    HideResult: "hide_result", "POST /v1/result/hide";
    RequestTask: "request_task", "POST /v1/task/request";
    ReportResult: "report_result", "POST /v1/result/report";
    ReportBatch: "report_batch", "POST /v1/result/report_batch";
    QueueSummary: "queue_summary", "GET /v1/queue/summary";
    ReapStuck: "reap_stuck", "POST /v1/queue/reap";
    Requeue: "requeue", "POST /v1/task/:id/requeue";
    Metrics: "metrics", "GET /v1/metrics";
    Execute: "execute", "POST /v1/execute";
}

/// The `wire.status.<class>xx` counter of an HTTP status.
pub fn status_counter(status: u16) -> &'static str {
    match status / 100 {
        2 => "wire.status.2xx",
        4 => "wire.status.4xx",
        5 => "wire.status.5xx",
        _ => "wire.status.other",
    }
}

// ---------------------------------------------------------- typed replies

/// The result of one dispatched [`Request`], transport-agnostic.
#[derive(Debug, Clone)]
pub enum Reply {
    Unit,
    User(UserId),
    Key(ContributorKey),
    Labels(Vec<String>),
    Project(ProjectId),
    Role(Role),
    Experiment(ExperimentId),
    Seeded(u64),
    Added(Vec<QueryId>),
    Enqueued(u64),
    Results(Vec<ResultRecord>),
    Csv(String),
    Handout(Option<Task>),
    Index(u64),
    /// Accepted record index per bulk report, in input order.
    Batch(Vec<u64>),
    Queue(QueueSummary),
    Reaped(Vec<TaskId>),
    Metrics(MetricsSnapshot),
    Execution(ExecOutcome),
}

// -------------------------------------------------- execution result DTOs

/// How an [`Request::Execute`] interacted with the server's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    Hit,
    Miss,
    /// The cached plan was stale against newer cardinality feedback and
    /// was re-planned with observed actuals before executing.
    Reoptimized,
    Bypass,
}

impl CacheStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Reoptimized => "reoptimized",
            CacheStatus::Bypass => "bypass",
        }
    }

    pub fn parse(s: &str) -> Result<CacheStatus, String> {
        match s {
            "hit" => Ok(CacheStatus::Hit),
            "miss" => Ok(CacheStatus::Miss),
            "reoptimized" => Ok(CacheStatus::Reoptimized),
            "bypass" => Ok(CacheStatus::Bypass),
            other => Err(format!("unknown cache status {other:?}")),
        }
    }

    pub fn as_u8(self) -> u8 {
        match self {
            CacheStatus::Hit => 0,
            CacheStatus::Miss => 1,
            CacheStatus::Bypass => 2,
            CacheStatus::Reoptimized => 3,
        }
    }

    pub fn from_u8(b: u8) -> Result<CacheStatus, String> {
        match b {
            0 => Ok(CacheStatus::Hit),
            1 => Ok(CacheStatus::Miss),
            2 => Ok(CacheStatus::Bypass),
            3 => Ok(CacheStatus::Reoptimized),
            other => Err(format!("bad cache status byte {other}")),
        }
    }
}

/// A typed cell value in a wire result set — the engine's value domain,
/// encoded losslessly by both protocols (v1 uses tagged JSON arrays so
/// ints never collapse into floats; v2 uses typed binary vectors).
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// Fixed-point decimal: `raw / 10^scale`. The raw i128 travels as a
    /// decimal string on v1 and as 16 LE bytes on v2.
    Decimal { raw: i128, scale: u8 },
    Str(String),
    /// Days since the epoch (the engine's date representation).
    Date(i32),
    Interval { months: i32, days: i32 },
}

impl From<&sqalpel_engine::Value> for WireValue {
    fn from(v: &sqalpel_engine::Value) -> WireValue {
        use sqalpel_engine::Value as E;
        match v {
            E::Null => WireValue::Null,
            E::Bool(b) => WireValue::Bool(*b),
            E::Int(i) => WireValue::Int(*i),
            E::Float(f) => WireValue::Float(*f),
            E::Decimal { raw, scale } => WireValue::Decimal { raw: *raw, scale: *scale },
            E::Str(s) => WireValue::Str(s.clone()),
            E::Date(d) => WireValue::Date(*d),
            E::Interval { months, days } => WireValue::Interval { months: *months, days: *days },
        }
    }
}

impl From<&WireValue> for sqalpel_engine::Value {
    fn from(v: &WireValue) -> sqalpel_engine::Value {
        use sqalpel_engine::Value as E;
        match v {
            WireValue::Null => E::Null,
            WireValue::Bool(b) => E::Bool(*b),
            WireValue::Int(i) => E::Int(*i),
            WireValue::Float(f) => E::Float(*f),
            WireValue::Decimal { raw, scale } => E::Decimal { raw: *raw, scale: *scale },
            WireValue::Str(s) => E::Str(s.clone()),
            WireValue::Date(d) => E::Date(*d),
            WireValue::Interval { months, days } => E::Interval { months: *months, days: *days },
        }
    }
}

impl Serialize for WireValue {
    fn serialize<S: Sink>(&self, s: &mut S) {
        /// `[tag, a]` or `[tag, a, b]`.
        fn tagged<S: Sink>(s: &mut S, tag: &str, a: &impl Serialize, b: Option<i64>) {
            s.begin_array();
            s.str(tag);
            a.serialize(s);
            if let Some(b) = b {
                s.int(b);
            }
            s.end_array();
        }
        match self {
            WireValue::Null => s.null(),
            WireValue::Bool(b) => tagged(s, "b", b, None),
            WireValue::Int(i) => tagged(s, "i", i, None),
            WireValue::Float(f) => tagged(s, "f", f, None),
            WireValue::Decimal { raw, scale } => {
                tagged(s, "d", &raw.to_string(), Some(*scale as i64))
            }
            WireValue::Str(text) => tagged(s, "s", text, None),
            WireValue::Date(d) => tagged(s, "t", d, None),
            WireValue::Interval { months, days } => tagged(s, "iv", months, Some(*days as i64)),
        }
    }
}

impl Deserialize for WireValue {
    fn from_value(v: &Value) -> Result<Self, String> {
        if v.is_null() {
            return Ok(WireValue::Null);
        }
        let arr = v.as_array().ok_or("wire value: expected tagged array")?;
        let tag = arr
            .first()
            .and_then(|t| t.as_str())
            .ok_or("wire value: missing tag")?;
        let at = |i: usize| arr.get(i).ok_or(format!("wire value {tag:?}: short array"));
        Ok(match tag {
            "b" => WireValue::Bool(at(1)?.as_bool().ok_or("bad bool")?),
            "i" => WireValue::Int(at(1)?.as_i64().ok_or("bad int")?),
            "f" => WireValue::Float(at(1)?.as_f64().ok_or("bad float")?),
            "d" => WireValue::Decimal {
                raw: at(1)?
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad decimal raw")?,
                scale: at(2)?.as_i64().filter(|s| (0..=255).contains(s)).ok_or("bad decimal scale")?
                    as u8,
            },
            "s" => WireValue::Str(at(1)?.as_str().ok_or("bad string")?.to_string()),
            "t" => WireValue::Date(at(1)?.as_i64().ok_or("bad date")? as i32),
            "iv" => WireValue::Interval {
                months: at(1)?.as_i64().ok_or("bad interval months")? as i32,
                days: at(2)?.as_i64().ok_or("bad interval days")? as i32,
            },
            other => return Err(format!("unknown value tag {other:?}")),
        })
    }
}

/// A result set in columnar wire form: named columns, each a typed
/// vector of cells. This is the shape both protocols ship — v2 encodes
/// each column as one typed run (tag + null bitmap + packed values)
/// instead of re-tagging every cell of every row the way JSON does.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireResultSet {
    pub columns: Vec<String>,
    /// One vector per column, all the same length.
    pub data: Vec<Vec<WireValue>>,
}

impl WireResultSet {
    pub fn rows(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }

    /// Transpose the engine's row-major result into columnar wire form.
    pub fn from_result_set(rs: &sqalpel_engine::ResultSet) -> WireResultSet {
        let ncols = rs.columns.len();
        let mut data: Vec<Vec<WireValue>> = (0..ncols)
            .map(|_| Vec::with_capacity(rs.rows.len()))
            .collect();
        for row in &rs.rows {
            for (c, cell) in row.iter().enumerate() {
                data[c].push(WireValue::from(cell));
            }
        }
        WireResultSet {
            columns: rs.columns.clone(),
            data,
        }
    }

    /// Transpose back into the engine's row-major result.
    pub fn to_result_set(&self) -> sqalpel_engine::ResultSet {
        let nrows = self.rows();
        let rows = (0..nrows)
            .map(|r| self.data.iter().map(|col| (&col[r]).into()).collect())
            .collect();
        sqalpel_engine::ResultSet::new(self.columns.clone(), rows)
    }
}

impl Serialize for WireResultSet {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        s.field("columns", &self.columns);
        s.field("data", &self.data);
        s.end_object();
    }
}

impl Deserialize for WireResultSet {
    fn from_value(v: &Value) -> Result<Self, String> {
        let columns = v["columns"]
            .as_array()
            .ok_or("result set: missing columns")?
            .iter()
            .map(|c| c.as_str().map(str::to_string).ok_or("non-string column".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let data = v["data"]
            .as_array()
            .ok_or("result set: missing data")?
            .iter()
            .map(|col| {
                col.as_array()
                    .ok_or("result set: column is not an array".to_string())?
                    .iter()
                    .map(WireValue::from_value)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        if data.len() != columns.len() {
            return Err("result set: column count mismatch".into());
        }
        Ok(WireResultSet { columns, data })
    }
}

/// The reply to [`Request::Execute`]: the columnar result, the
/// authoritative plan fingerprint (reusable as the cache key on the next
/// call), and how the plan cache was involved.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    pub result: WireResultSet,
    pub fingerprint: u64,
    pub cache: CacheStatus,
}

impl Serialize for ExecOutcome {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        s.field("cache", self.cache.as_str());
        s.key("fingerprint");
        crate::results::fingerprint_hex(s, Some(self.fingerprint));
        s.field("result", &self.result);
        s.end_object();
    }
}

impl Deserialize for ExecOutcome {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(ExecOutcome {
            result: WireResultSet::from_value(&v["result"])?,
            fingerprint: v["fingerprint"]
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("exec outcome: missing fingerprint")?,
            cache: CacheStatus::parse(
                v["cache"].as_str().ok_or("exec outcome: missing cache")?,
            )?,
        })
    }
}

// ----------------------------------------- shared JSON helper functions
//
// The one home of the hand-written JSON plumbing that used to be
// duplicated between the server routing and the client: object
// construction on the encode side, checked field extraction on the
// decode side. Both directions of the v1 codec (and the JSON-payload
// fallbacks of v2) use these.

pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = serde_json::Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

pub(crate) fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| s.clone().into()).collect())
}

pub(crate) fn need_str(body: &Value, key: &str) -> PlatformResult<String> {
    body[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| PlatformError::Invalid(format!("missing string field {key:?}")))
}

pub(crate) fn need_u64(body: &Value, key: &str) -> PlatformResult<u64> {
    body[key]
        .as_i64()
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| PlatformError::Invalid(format!("missing numeric field {key:?}")))
}

pub(crate) fn need_bool(body: &Value, key: &str) -> PlatformResult<bool> {
    body[key]
        .as_bool()
        .ok_or_else(|| PlatformError::Invalid(format!("missing bool field {key:?}")))
}

pub(crate) fn need_strings(body: &Value, key: &str) -> PlatformResult<Vec<String>> {
    body[key]
        .as_array()
        .ok_or_else(|| PlatformError::Invalid(format!("missing array field {key:?}")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| PlatformError::Invalid(format!("{key:?} must hold strings")))
        })
        .collect()
}

pub(crate) fn need<T: Deserialize>(value: &Value, what: &str) -> PlatformResult<T> {
    T::from_value(value).map_err(|e| PlatformError::Invalid(format!("bad {what}: {e}")))
}

/// Decode-side field extraction where a missing field means the *peer*
/// misbehaved (a malformed response), not the caller.
pub(crate) fn field_u64(v: &Value, key: &str) -> PlatformResult<u64> {
    v[key]
        .as_i64()
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| PlatformError::Transport(format!("response missing {key:?}")))
}

pub(crate) fn field_str(v: &Value, key: &str) -> PlatformResult<String> {
    v[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| PlatformError::Transport(format!("response missing {key:?}")))
}

pub(crate) fn u64_array(v: &Value, key: &str) -> PlatformResult<Vec<u64>> {
    v[key]
        .as_array()
        .ok_or_else(|| PlatformError::Transport(format!("response missing {key:?}")))?
        .iter()
        .map(|n| {
            n.as_i64()
                .filter(|x| *x >= 0)
                .map(|x| x as u64)
                .ok_or_else(|| PlatformError::Transport(format!("non-numeric {key:?} entry")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_stable_and_bijective() {
        let all = [
            PlatformError::Invalid("x".into()),
            PlatformError::UnknownUser(1),
            PlatformError::UnknownProject(2),
            PlatformError::UnknownExperiment(3),
            PlatformError::UnknownTask(4),
            PlatformError::UnknownQuery(5),
            PlatformError::AccessDenied("y".into()),
            PlatformError::Grammar("z".into()),
            PlatformError::PoolFull(9),
            PlatformError::Publication("p".into()),
            PlatformError::Transport("t".into()),
        ];
        let mut seen = std::collections::HashSet::new();
        for err in &all {
            let code = ErrorCode::of(err);
            assert!(seen.insert(code.as_u8()), "duplicate byte for {code:?}");
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            // The string codes agree with the error's own stable code.
            assert_eq!(code.as_str(), err.code());
            assert!(code.http_status() >= 400);
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(200), None);
    }

    #[test]
    fn wire_values_round_trip_through_tagged_json() {
        let cells = vec![
            WireValue::Null,
            WireValue::Bool(true),
            WireValue::Int(-42),
            WireValue::Float(2.5),
            WireValue::Decimal { raw: -123456789012345678901234567890i128, scale: 4 },
            WireValue::Str("O'Brien, \"quoted\"".into()),
            WireValue::Date(19000),
            WireValue::Interval { months: -3, days: 14 },
        ];
        for cell in &cells {
            let text = serde_json::to_string(cell).unwrap();
            let back: WireValue = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, cell, "{text}");
        }
    }

    #[test]
    fn result_set_transposes_losslessly() {
        use sqalpel_engine::Value as E;
        let rs = sqalpel_engine::ResultSet::new(
            vec!["a".into(), "b".into()],
            vec![
                vec![E::Int(1), E::Str("x".into())],
                vec![E::Int(2), E::Null],
                vec![E::Int(3), E::Str("z".into())],
            ],
        );
        let wire = WireResultSet::from_result_set(&rs);
        assert_eq!(wire.rows(), 3);
        assert_eq!(wire.data.len(), 2);
        assert_eq!(wire.to_result_set().to_csv(), rs.to_csv());
        // And through JSON.
        let text = serde_json::to_string(&wire).unwrap();
        let back: WireResultSet = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_result_set().to_csv(), rs.to_csv());
    }
}
