//! The protocol "brain": pure, I/O-free codecs and versioned DTOs.
//!
//! Following the qail layering, everything that *decides bytes* lives
//! here — [`v1`] is the JSON-over-HTTP codec, [`v2`] the length-framed
//! binary codec — while everything that *moves bytes* lives in
//! [`crate::wire::transport`]. Both protocol versions encode the same
//! typed [`Request`]/[`Reply`] surface and are dispatched by the same
//! [`crate::wire::dispatch`] function.
//!
//! # The message table
//!
//! Every `Request` and `Reply` variant is one row of the table below,
//! and both codecs are loops over it — no per-variant code exists
//! anywhere else. A request row gives the variant's fields **in v2
//! order** with where v1 carries each (`Via`: a body member, the whole
//! body, a `:id` path segment or a query parameter), then its v2 opcode,
//! its op label (the metric name), its v1 method and route, and the
//! reply variant it answers with. A reply row gives its payload type
//! (and, for a body member, its v1 key), its v2 reply kind and how v1
//! carries it. How each field *type* travels is its
//! `Field` impl (`field.rs`), written once for both wires.
//!
//! Adding an op is one row here plus its arm in
//! [`dispatch`](crate::wire::dispatch::dispatch). Opcodes 0, 27 and 28
//! and reply kinds 0 and 20 belong to the hand-written connection-level
//! frames of [`v2`] (hello, bulk part, subscribe, hello answer, push).
//!
//! Errors are unified across protocols by [`ErrorCode`] (its own table
//! in [`crate::error`]): carried as an HTTP status plus JSON body on v1
//! and as a status byte plus typed detail on v2 — either transport
//! reconstructs the exact typed error.

mod field;
pub mod v1;
pub mod v2;

pub use crate::error::ErrorCode;

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::RunOutcome;
use crate::error::{PlatformError, PlatformResult};
use crate::metrics::MetricsSnapshot;
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId, Role};
use crate::queue::{QueueSummary, Task, TaskId};
use crate::results::ResultRecord;
use crate::user::{ContributorKey, UserId};
use field::Field;
use serde::{Deserialize, Hex, Reader, Serialize, Sink};
use std::any::Any;

/// Where a field travels on v1. (v2 writes every field back to back, in
/// table order.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// A member of the JSON body, keyed by the field's name.
    Body,
    /// The whole JSON body: a catalog entry, a bare reply object.
    Whole,
    /// The next `:id` segment of the route.
    Path,
    /// The `?name=` query parameter.
    Query,
    /// A `text/plain` body.
    Text,
}

/// Receives a message's fields in table order: what each codec's encoder
/// implements.
pub(crate) trait Visit {
    fn field<C: Field<T>, T>(&mut self, name: &'static str, via: Via, value: &T);
}

/// Supplies a message's fields in table order: what each codec's decoder
/// implements.
pub(crate) trait Source {
    type Error;
    fn field<C: Field<T>, T>(&mut self, name: &'static str, via: Via) -> Result<T, Self::Error>;
}

/// The codec of a table field: its type, or the spelling after `as`.
macro_rules! codec {
    ($t:ty) => { $t };
    ($t:ty as $c:ty) => { $c };
}

/// A reply payload's v1 name: its body key, else the variant's name.
macro_rules! key_or {
    (; $v:ident) => { stringify!($v) };
    ($k:literal; $v:ident) => { $k };
}

/// `$x`, where the table has a `$t` (binds a payload in a pattern).
macro_rules! per {
    ($t:ty, $x:ident) => { $x };
}

/// `a` as the `B` it is: a reply's payload handed to the caller who
/// asked for that type.
fn cast<A: 'static, B: 'static>(a: A) -> B {
    let mut slot = Some(a);
    (&mut slot as &mut dyn Any)
        .downcast_mut::<Option<B>>()
        .and_then(Option::take)
        .expect("the table pairs each reply with one payload type")
}

/// The message table: one row per variant generates [`Request`],
/// [`Reply`] and everything both codecs need.
///
/// * request row — `Variant { field: Type [as Codec] => Via, … } = opcode,
///   "op label", "METHOD /v1/route" => ReplyVariant;`, fields in v2 order;
/// * reply row — `Variant[(Payload[, "v1 body key"])] = kind => Via;`.
macro_rules! messages {
    (
        requests {$(
            $(#[$rmeta:meta])*
            $req:ident $({$(
                $(#[$fmeta:meta])*
                $field:ident: $fty:ty $(as $codec:ty)? => $via:ident
            ),* $(,)?})? = $op:literal, $label:literal, $route:literal => $answer:ident;
        )*}
        replies {$(
            $(#[$pmeta:meta])*
            $rep:ident $(($pty:ty $(, $key:literal)?))? = $kind:literal => $shape:ident;
        )*}
    ) => {
        /// One platform operation, transport-agnostic: the request half
        /// of the message table.
        #[derive(Debug, Clone)]
        pub enum Request {$(
            $(#[$rmeta])*
            $req $({$($(#[$fmeta])* $field: $fty,)*})?,
        )*}

        /// The result of one dispatched [`Request`], transport-agnostic:
        /// the reply half of the message table.
        #[derive(Debug, Clone)]
        pub enum Reply {$(
            $(#[$pmeta])*
            $rep $(($pty))?,
        )*}

        /// The v2 opcode of each request.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum Op {
            $($req = $op,)*
        }

        /// The v2 kind of each reply.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum ReplyKind {
            $($rep = $kind,)*
        }

        /// Every v1 route (`METHOD /path`, numeric segments as `:id`) and
        /// the op it carries.
        pub(crate) const ROUTES: &[(&str, Op)] = &[$(($route, Op::$req)),*];

        impl Request {
            /// A bounded-cardinality metric label for this op.
            pub fn op_name(&self) -> &'static str {
                self.opcode().label()
            }

            /// `(route counter, latency histogram)` this op is metered
            /// under when it arrives over v1: `wire.route.<METHOD /path>`
            /// and `wire.latency.<METHOD /path>`.
            pub fn v1_metric_names(&self) -> (&'static str, &'static str) {
                match self {
                    $(Request::$req { .. } => (
                        concat!("wire.route.", $route),
                        concat!("wire.latency.", $route),
                    ),)*
                }
            }

            /// The same pair over v2: `wire.route.V2 <op>` and
            /// `wire.latency.V2 <op>`.
            pub fn v2_metric_names(&self) -> (&'static str, &'static str) {
                match self {
                    $(Request::$req { .. } => (
                        concat!("wire.route.V2 ", $label),
                        concat!("wire.latency.V2 ", $label),
                    ),)*
                }
            }

            /// The v1 `METHOD /path` this op travels on.
            pub(crate) fn route(&self) -> &'static str {
                match self {
                    $(Request::$req { .. } => $route,)*
                }
            }

            pub(crate) fn opcode(&self) -> Op {
                match self {
                    $(Request::$req { .. } => Op::$req,)*
                }
            }

            /// The reply this op answers with.
            pub(crate) fn reply_kind(&self) -> ReplyKind {
                match self {
                    $(Request::$req { .. } => ReplyKind::$answer,)*
                }
            }

            /// Hand every field to `out`, in table order.
            pub(crate) fn visit(&self, out: &mut impl Visit) {
                match self {$(
                    Request::$req { $($($field,)*)? } => {
                        $($(out.field::<codec!($fty $(as $codec)?), $fty>(
                            stringify!($field),
                            Via::$via,
                            $field,
                        );)*)?
                    }
                )*}
            }

            /// The request `opcode` names, its fields read from `src` in
            /// table order; `None` for an opcode the table lacks.
            pub(crate) fn decode<S: Source>(opcode: u8, src: &mut S) -> Result<Option<Request>, S::Error> {
                Ok(Some(match opcode {
                    $($op => Request::$req { $($($field: src.field::<codec!($fty $(as $codec)?), $fty>(
                        stringify!($field),
                        Via::$via,
                    )?,)*)? },)*
                    _ => return Ok(None),
                }))
            }
        }

        impl Reply {
            pub(crate) fn kind(&self) -> ReplyKind {
                match self {
                    $(Reply::$rep { .. } => ReplyKind::$rep,)*
                }
            }

            /// Hand the payload, if any, to `out`.
            pub(crate) fn visit(&self, out: &mut impl Visit) {
                match self {$(
                    Reply::$rep $((per!($pty, payload)))? => {
                        $(out.field::<$pty, $pty>(key_or!($($key)?; $rep), Via::$shape, payload);)?
                    }
                )*}
            }

            /// The reply of `kind`, its payload read from `src`; `None`
            /// for a kind the table lacks.
            pub(crate) fn decode<S: Source>(kind: u8, src: &mut S) -> Result<Option<Reply>, S::Error> {
                Ok(Some(match kind {
                    $($kind => Reply::$rep $((src.field::<$pty, $pty>(key_or!($($key)?; $rep), Via::$shape)?))?,)*
                    _ => return Ok(None),
                }))
            }

            /// The payload of a reply of `kind` — the reply the asking op
            /// answers with; any other reply means the peer misbehaved.
            pub(crate) fn answer<T: 'static>(self, kind: ReplyKind) -> PlatformResult<T> {
                if self.kind() != kind {
                    return Err(PlatformError::Transport(format!("expected a {kind:?} reply, got {self:?}")));
                }
                Ok(match self {
                    $(Reply::$rep $((per!($pty, payload)))? => cast(($(per!($pty, payload))?)),)*
                })
            }
        }

        impl Op {
            pub(crate) fn label(self) -> &'static str {
                match self {
                    $(Op::$req => $label,)*
                }
            }
        }

        impl ReplyKind {
            /// How a reply of this kind travels on v1.
            pub(crate) fn via(self) -> Via {
                match self {
                    $(ReplyKind::$rep => Via::$shape,)*
                }
            }
        }
    };
}

messages! {
    requests {
        RegisterUser {
            nickname: String => Body,
            email: String => Body,
        } = 1, "register_user", "POST /v1/user/register" => User;
        IssueKey { user: UserId => Body } = 2, "issue_key", "POST /v1/user/key" => Key;
        AddDbms { entry: DbmsEntry => Whole } = 3, "add_dbms", "POST /v1/dbms" => Unit;
        AddHost { entry: HostEntry => Whole } = 4, "add_host", "POST /v1/host" => Unit;
        DbmsLabels = 5, "dbms_labels", "GET /v1/dbms" => Labels;
        CreateProject {
            owner: UserId => Body,
            title: String => Body,
            synopsis: String => Body,
            visibility: Visibility => Body,
        } = 6, "create_project", "POST /v1/project/create" => Project;
        Invite {
            project: ProjectId => Path,
            owner: UserId => Body,
            user: UserId => Body,
        } = 7, "invite", "POST /v1/project/:id/invite" => Unit;
        SetTargets {
            project: ProjectId => Path,
            actor: UserId => Body,
            dbms_labels: Vec<String> => Body,
            hosts: Vec<String> => Body,
        } = 8, "set_targets", "POST /v1/project/:id/targets" => Unit;
        Comment {
            project: ProjectId => Path,
            author: UserId => Body,
            text: String => Body,
        } = 9, "comment", "POST /v1/project/:id/comment" => Unit;
        TakeDown { project: ProjectId => Path } = 10, "take_down", "POST /v1/project/:id/take_down" => Unit;
        RoleOf {
            project: ProjectId => Path,
            user: UserId => Query,
        } = 11, "role_of", "GET /v1/project/:id/role" => Role;
        AddExperiment {
            project: ProjectId => Path,
            actor: UserId => Body,
            title: String => Body,
            baseline_sql: String => Body,
            /// Grammar source text, parsed server-side.
            grammar: Option<String> => Body,
            template_cap: u64 => Body,
            pool_cap: u64 => Body,
        } = 12, "add_experiment", "POST /v1/project/:id/experiment" => Experiment;
        SeedPool {
            project: ProjectId => Path,
            experiment: ExperimentId => Path,
            actor: UserId => Body,
            n_random: u64 => Body,
            seed: u64 => Body,
        } = 13, "seed_pool", "POST /v1/project/:id/experiment/:id/seed" => Seeded;
        MorphPool {
            project: ProjectId => Path,
            experiment: ExperimentId => Path,
            actor: UserId => Body,
            /// Strategy name, resolved server-side.
            strategy: Option<String> => Body,
            steps: u64 => Body,
            seed: u64 => Body,
        } = 14, "morph_pool", "POST /v1/project/:id/experiment/:id/morph" => Added;
        EnqueueExperiment {
            project: ProjectId => Path,
            experiment: ExperimentId => Path,
            actor: UserId => Body,
        } = 15, "enqueue_experiment", "POST /v1/project/:id/experiment/:id/enqueue" => Enqueued;
        ResultsForKey {
            project: ProjectId => Path,
            key: ContributorKey => Query,
        } = 16, "results_for_key", "GET /v1/project/:id/results" => Results;
        ExportCsv {
            project: ProjectId => Path,
            viewer: UserId => Query,
        } = 17, "export_csv", "GET /v1/project/:id/csv" => Csv;
        HideResult {
            project: ProjectId => Body,
            actor: UserId => Body,
            index: u64 => Body,
            hidden: bool => Body,
        } = 18, "hide_result", "POST /v1/result/hide" => Unit;
        RequestTask {
            key: ContributorKey => Body,
            dbms_label: String => Body,
            host: String => Body,
            /// Claim nonce. `None` keeps the legacy idempotent semantics:
            /// if the key already holds a task matching the target, that
            /// task is re-handed-out. `Some(n)` scopes the idempotency to
            /// this nonce, so a bulk client can hold several tasks of the
            /// same target at once — its retries reuse the nonce and still
            /// get the same task back, but a *fresh* nonce gets a fresh
            /// checkout.
            claim: Option<u64> => Body,
        } = 19, "request_task", "POST /v1/task/request" => Handout;
        ReportResult {
            key: ContributorKey => Body,
            task: TaskId => Body,
            outcome: RunOutcome => Body,
        } = 20, "report_result", "POST /v1/result/report" => Index;
        /// COPY-style bulk report: a whole experiment's outcomes in one
        /// acknowledged exchange. On v2 the reports stream as columnar
        /// continuation frames terminated by a summary frame; on v1 they
        /// travel as one JSON body. The reply is [`Reply::Batch`] — the
        /// accepted record index per report, in input order.
        ReportBatch {
            key: ContributorKey => Body,
            reports: Vec<(TaskId, RunOutcome)> => Body,
        } = 26, "report_batch", "POST /v1/result/report_batch" => Batch;
        QueueSummary = 21, "queue_summary", "GET /v1/queue/summary" => Queue;
        ReapStuck { timeout_ms: u64 => Body } = 22, "reap_stuck", "POST /v1/queue/reap" => Reaped;
        Requeue { task: TaskId => Path } = 23, "requeue", "POST /v1/task/:id/requeue" => Unit;
        Metrics = 24, "metrics", "GET /v1/metrics" => Metrics;
        /// Execute SQL on the server's attached target system. With a
        /// fingerprint, a plan-cache hit skips parse/bind/rewrite — the v2
        /// `ExecuteByFingerprint` fast path (also exposed on v1 as
        /// `POST /v1/execute` so the differential suite covers it). v1
        /// spells the fingerprint in hex.
        Execute {
            sql: String => Body,
            fingerprint: Option<u64> as Option<Hex> => Body,
        } = 25, "execute", "POST /v1/execute" => Execution;
    }
    replies {
        /// `{}` on v1.
        Unit = 1 => Whole;
        User(UserId, "user") = 2 => Body;
        Key(ContributorKey, "key") = 3 => Body;
        Labels(Vec<String>, "labels") = 4 => Body;
        Project(ProjectId, "project") = 5 => Body;
        Role(Role, "role") = 6 => Body;
        Experiment(ExperimentId, "experiment") = 7 => Body;
        Seeded(u64, "seeded") = 8 => Body;
        Added(Vec<QueryId>, "added") = 9 => Body;
        Enqueued(u64, "enqueued") = 10 => Body;
        Results(Vec<ResultRecord>, "results") = 11 => Body;
        Csv(String) = 12 => Text;
        /// `null` on v1 when the queue had nothing for the target.
        Handout(Option<Task>, "task") = 13 => Body;
        Index(u64, "index") = 14 => Body;
        /// Accepted record index per bulk report, in input order.
        Batch(Vec<u64>, "indices") = 19 => Body;
        Queue(QueueSummary) = 15 => Whole;
        Reaped(Vec<TaskId>, "reaped") = 16 => Body;
        Metrics(MetricsSnapshot) = 17 => Whole;
        Execution(ExecOutcome) = 18 => Whole;
    }
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

// -------------------------------------------------- execution result DTOs

serde::names! {
    /// How an [`Request::Execute`] interacted with the server's plan cache.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CacheStatus {
        Hit = "hit",
        Miss = "miss",
        /// The cached plan was stale against newer cardinality feedback
        /// and was re-planned with observed actuals before executing.
        Reoptimized = "reoptimized",
        Bypass = "bypass",
    }
}

impl CacheStatus {
    pub fn as_str(self) -> &'static str {
        serde::Named::name(&self)
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

/// `null`, or a tagged array; cells past the ones its tag reads are
/// skipped.
impl Deserialize for WireValue {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        if r.null()? {
            return Ok(WireValue::Null);
        }
        r.begin_array().map_err(|_| "wire value: expected tagged array")?;
        if !r.element()? {
            return Err("wire value: missing tag".into());
        }
        let tag = r.str().map_err(|_| "wire value: missing tag")?;
        /// The next cell of the tagged array.
        fn at<T: Deserialize>(r: &mut Reader<'_>, tag: &str) -> Result<T, String> {
            if !r.element()? {
                return Err(format!("wire value {tag:?}: short array"));
            }
            T::deserialize(r).map_err(|e| format!("wire value {tag:?}: {e}"))
        }
        let value = match &*tag {
            "b" => WireValue::Bool(at(r, &tag)?),
            "i" => WireValue::Int(at(r, &tag)?),
            "f" => WireValue::Float(at(r, &tag)?),
            "d" => WireValue::Decimal {
                raw: at::<String>(r, &tag)?.parse().map_err(|_| "bad decimal raw")?,
                scale: u8::try_from(at::<i64>(r, &tag)?).map_err(|_| "bad decimal scale")?,
            },
            "s" => WireValue::Str(at(r, &tag)?),
            "t" => WireValue::Date(at(r, &tag)?),
            "iv" => WireValue::Interval {
                months: at(r, &tag)?,
                days: at(r, &tag)?,
            },
            other => return Err(format!("unknown value tag {other:?}")),
        };
        while r.element()? {
            r.skip()?;
        }
        Ok(value)
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

/// Read as its two members, then checked: a column per name.
impl Deserialize for WireResultSet {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut columns, mut data) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.key()? {
            match &*key {
                "columns" => columns = Some(Vec::deserialize(r).map_err(|e| format!("columns: {e}"))?),
                "data" => data = Some(Vec::deserialize(r).map_err(|e| format!("data: {e}"))?),
                _ => r.skip()?,
            }
        }
        let (columns, data): (Vec<String>, Vec<Vec<WireValue>>) =
            (columns.ok_or("columns: missing")?, data.ok_or("data: missing")?);
        if data.len() != columns.len() {
            return Err("result set: column count mismatch".into());
        }
        Ok(WireResultSet { columns, data })
    }
}

serde::object! {
    /// The reply to [`Request::Execute`]: the columnar result, the
    /// authoritative plan fingerprint (reusable as the cache key on the
    /// next call), and how the plan cache was involved.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExecOutcome {
        "cache" => pub cache: CacheStatus,
        "fingerprint" => pub fingerprint: u64 as Hex,
        "result" => pub result: WireResultSet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn error_codes_are_stable_and_bijective() {
        let mut bytes = std::collections::HashSet::new();
        let mut codes = std::collections::HashSet::new();
        for &code in ErrorCode::ALL {
            assert!(bytes.insert(code.as_u8()), "duplicate byte for {code:?}");
            assert!(codes.insert(code.as_str()), "duplicate string for {code:?}");
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert!(code.http_status() >= 400);
            // Each code names one variant, with one kind of payload.
            let err = PlatformError::from_code(code.as_str(), &Value::from(7))
                .or_else(|_| PlatformError::from_code(code.as_str(), &Value::from("x")))
                .unwrap();
            assert_eq!(ErrorCode::of(&err), code);
            assert_eq!(err.code(), code.as_str());
        }
        assert_eq!(ErrorCode::ALL.len(), 12);
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(200), None);
    }

    /// The connection-level frames of v2 use opcodes and reply kinds the
    /// table leaves free, and v1 routes are unique.
    #[test]
    fn the_table_leaves_room_for_connection_frames() {
        struct Empty;
        impl Source for Empty {
            type Error = ();
            fn field<C: Field<T>, T>(&mut self, _: &'static str, _: Via) -> Result<T, ()> {
                Err(())
            }
        }
        for op in [0, 27, 28] {
            assert!(matches!(Request::decode(op, &mut Empty), Ok(None)), "opcode {op}");
        }
        for kind in [0, 20] {
            assert!(matches!(Reply::decode(kind, &mut Empty), Ok(None)), "kind {kind}");
        }
        let routes: std::collections::HashSet<_> = ROUTES.iter().map(|(r, _)| r).collect();
        assert_eq!(routes.len(), ROUTES.len());
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
