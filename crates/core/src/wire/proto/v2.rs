//! Protocol v2: the length-framed binary codec. Pure — no I/O anywhere
//! in this module; transports move the byte vectors it produces.
//!
//! # Frame layout
//!
//! Every message (either direction) is one frame:
//!
//! ```text
//! [len: u32 LE] [tag: u32 LE] [body: len bytes]
//! request  body = [opcode: u8] [payload]
//! response body = [status: u8] [payload]
//! ```
//!
//! `len` counts the body only (opcode/status byte included), so a reader
//! needs exactly 8 header bytes to know the frame boundary. `tag` is an
//! opaque client-chosen correlation id echoed verbatim in the response —
//! a client may keep many frames in flight on one connection
//! (pipelining) and match responses by tag.
//!
//! `status` 0 means OK and the payload starts with a reply-kind byte
//! (responses are self-describing, so a pipelined client never needs
//! request context to decode). Any other status is an [`ErrorCode`] byte
//! and the payload is the typed error detail — the exact
//! [`PlatformError`] variant is reconstructed, same as v1's JSON bodies.
//!
//! Opcode 0 is `Hello`: sent once per connection with the protocol
//! version; the server answers with its own version (reply kind 0)
//! before any op is accepted. A version mismatch is a hard error.
//!
//! # Messages
//!
//! A request is its opcode followed by its fields, a reply its kind
//! followed by its payload — opcode, kind and field order all from the
//! message table in [`super`], each field's bytes from its
//! `Field` impl. Little-endian fixed-width
//! integers and floats; strings are a u32 length followed by UTF-8
//! bytes; options are a presence byte. Hot DTOs (tasks, run outcomes,
//! result records, queue summaries) are fully binary; cold management
//! DTOs (DBMS/host catalog entries, metrics snapshots, the open-ended
//! `extras` object) travel as JSON text inside the frame. Every count is
//! checked against the bytes left in the frame before anything is
//! allocated for it.
//!
//! # Columnar results
//!
//! `Vec<ResultRecord>` and [`WireResultSet`](super::WireResultSet) are
//! encoded as per-column typed vectors rather than per-row tagged
//! tuples: one type tag and one null bitmap per column, then the packed
//! values. A column of mixed types falls back to per-cell tags under the
//! reserved tag `0xFF`.
//!
//! # Bulk frames
//!
//! A [`Request::ReportBatch`] may stream: the client sends any number of
//! continuation frames (`OP_BATCH_PART`, columnar `(task, outcome)`
//! pairs) followed by one summary frame (`OP_REPORT_BATCH` carrying the
//! contributor key, the expected total, and any inline tail of pairs),
//! **all under the same tag**. The server assembles parts per tag and
//! dispatches once the summary arrives, answering with a single
//! [`Reply::Batch`] ack. A connection dropped mid-sequence discards the
//! whole partial batch — nothing partial is ever dispatched.
//!
//! # Push frames
//!
//! A connection that sent `OP_SUBSCRIBE` (carrying its contributor key)
//! receives unsolicited notification frames on **tag 0** — a tag no
//! request ever uses (client tags start at 1) — with reply kind
//! `RK_NOTIFICATION`: `QueueReady` when work lands on a queue,
//! `ExperimentFinished` when an experiment's last task goes terminal.

use super::field::{read_report_pairs, write_report_pairs, Field};
use super::{ErrorCode, Op, Reply, Request, Source, Via, Visit};
use crate::error::{Detail, PlatformError, PlatformResult};
use crate::project::{ExperimentId, ProjectId};
use crate::push::Notification;
use crate::queue::TaskId;
use crate::driver::RunOutcome;
use crate::user::ContributorKey;
use serde::{Deserialize, Serialize};

/// The version this codec speaks, exchanged in the Hello handshake.
pub const PROTO_VERSION: u8 = 2;
/// Frame header: u32 length + u32 tag.
pub const HEADER_LEN: usize = 8;
/// Default cap on one frame body — matches the v1 client's response cap.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

// Connection-level opcodes and reply kinds, outside the message table's
// ranges (ops 1..=26, reply kinds 1..=19).
/// The connection handshake.
const OP_HELLO: u8 = 0;
/// Bulk summary frame: the table's `ReportBatch` opcode, read by hand.
const OP_REPORT_BATCH: u8 = Op::ReportBatch as u8;
/// Bulk continuation frame: columnar `(task, outcome)` pairs.
const OP_BATCH_PART: u8 = 27;
/// Subscribe this connection to server-push notifications.
const OP_SUBSCRIBE: u8 = 28;
const RK_HELLO: u8 = 0;
/// Unsolicited server-push frame (always tag 0).
const RK_NOTIFICATION: u8 = 20;

/// Notification kind bytes inside an `RK_NOTIFICATION` payload.
const NK_QUEUE_READY: u8 = 0;
const NK_EXPERIMENT_FINISHED: u8 = 1;

// ------------------------------------------------------------- writer

/// One little-endian method per fixed-width type, for [`W`] and [`R`].
macro_rules! fixed_width {
    ($($t:ident),*) => {$(
        pub(super) fn $t(&mut self, v: $t) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    )*};
    (read $($t:ident),*) => {$(
        pub(super) fn $t(&mut self) -> D<$t> {
            let bytes = self.take(std::mem::size_of::<$t>())?;
            Ok($t::from_le_bytes(bytes.try_into().expect("took the width")))
        }
    )*};
}

/// A growable little-endian byte writer. Infallible.
#[derive(Default)]
pub(crate) struct W {
    buf: Vec<u8>,
}

impl W {
    pub(super) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(super) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fixed_width!(u32, u64, i32, i64, f64, i128);
    pub(super) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A presence bitmap: bit `i` set when `set(i)` is true.
    pub(super) fn bitmap(&mut self, n: usize, set: impl Fn(usize) -> bool) {
        let mut byte = 0u8;
        for i in 0..n {
            if set(i) {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
    /// JSON-text payload for cold DTOs.
    pub(super) fn json<T: Serialize>(&mut self, v: &T) {
        self.str(&serde_json::to_string(v).expect("value serializes"));
    }
}

/// v2 encodes a message's fields back to back, in table order.
impl Visit for W {
    fn field<C: Field<T>, T>(&mut self, _: &'static str, _: Via, value: &T) {
        C::write(value, self)
    }
}

// ------------------------------------------------------------- reader

/// A checked little-endian byte reader over one frame body.
pub(crate) struct R<'a> {
    b: &'a [u8],
    pos: usize,
}

type D<T> = Result<T, String>;

impl<'a> R<'a> {
    fn new(b: &'a [u8]) -> R<'a> {
        R { b, pos: 0 }
    }
    fn left(&self) -> usize {
        self.b.len() - self.pos
    }
    fn take(&mut self, n: usize) -> D<&'a [u8]> {
        if self.left() < n {
            return Err(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.left()
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(super) fn u8(&mut self) -> D<u8> {
        Ok(self.take(1)?[0])
    }
    pub(super) fn bool(&mut self) -> D<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
    fixed_width!(read u32, u64, i32, i64, f64, i128);
    /// A u32 count of items encoded in at least `min_bits` each, refused
    /// unless they could all fit in the bytes left — so a length prefix
    /// never allocates more than its frame can back.
    pub(super) fn count(&mut self, min_bits: usize) -> D<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bits) > self.left().saturating_mul(8) {
            return Err(format!(
                "truncated frame: {n} items of {min_bits}+ bits each at offset {}, {} bytes left",
                self.pos,
                self.left()
            ));
        }
        Ok(n)
    }
    /// A string, borrowed from the frame.
    fn text(&mut self) -> D<&'a str> {
        let n = self.count(8)?;
        std::str::from_utf8(self.take(n)?).map_err(|e| format!("non-UTF-8 string: {e}"))
    }
    pub(super) fn str(&mut self) -> D<String> {
        self.text().map(str::to_string)
    }
    pub(super) fn bitmap(&mut self, n: usize) -> D<Vec<bool>> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }
    /// JSON-text payload, read straight off the frame.
    pub(super) fn json<T: Deserialize>(&mut self, what: &str) -> D<T> {
        serde_json::from_str(self.text()?).map_err(|e| format!("bad {what} JSON: {e}"))
    }
    fn done(&self) -> D<()> {
        match self.left() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after frame payload")),
        }
    }
}

/// v2 decodes a message's fields back to back, in table order.
impl Source for R<'_> {
    type Error = String;
    fn field<C: Field<T>, T>(&mut self, _: &'static str, _: Via) -> D<T> {
        C::read(self)
    }
}

// ---------------------------------------------------------- frame split

/// Try to split one complete frame off the front of `buf`. Returns
/// `Ok(None)` when more bytes are needed, `Ok(Some((tag, body)))` when a
/// frame was extracted (and drained from `buf`), and `Err` when the
/// header is malformed (oversized frame) — the connection should close.
pub fn take_frame(buf: &mut Vec<u8>, max_frame: usize) -> Result<Option<(u32, Vec<u8>)>, String> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len == 0 || len > max_frame {
        return Err(format!("frame body of {len} bytes outside (0, {max_frame}]"));
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let tag = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let body = buf[HEADER_LEN..HEADER_LEN + len].to_vec();
    buf.drain(..HEADER_LEN + len);
    Ok(Some((tag, body)))
}

fn frame(tag: u32, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

// ------------------------------------------------------------- requests

/// Encode the connection handshake frame.
pub fn encode_hello_frame(tag: u32) -> Vec<u8> {
    frame(tag, vec![OP_HELLO, PROTO_VERSION])
}

/// Encode one request as a complete frame (header included): its
/// opcode, then its fields in table order. A `ReportBatch` goes out as a
/// single summary frame whose total equals its inline count; streaming
/// clients use [`encode_batch_part_frame`] + [`encode_batch_end_frame`]
/// under one tag instead.
pub fn encode_request_frame(tag: u32, req: &Request) -> Vec<u8> {
    let mut w = W::default();
    w.u8(req.opcode() as u8);
    req.visit(&mut w);
    frame(tag, w.buf)
}

/// A decoded inbound frame body: either the handshake, a platform op
/// (boxed — [`Request`] is a wide enum, the handshake arm is two bytes),
/// or one of the connection-level bulk/push frames that never reach
/// dispatch on their own.
#[derive(Debug)]
pub enum DecodedRequest {
    Hello { version: u8 },
    Op(Box<Request>),
    /// A bulk continuation frame; the server buffers it under the
    /// frame's tag until the matching [`DecodedRequest::BatchEnd`].
    BatchPart(Vec<(TaskId, RunOutcome)>),
    /// The bulk summary frame. `total` is the expected pair count over
    /// the whole sequence (parts + `inline`); a mismatch after assembly
    /// is a protocol error.
    BatchEnd {
        key: ContributorKey,
        total: u32,
        inline: Vec<(TaskId, RunOutcome)>,
    },
    /// Subscribe this connection to server-push notifications.
    Subscribe { key: ContributorKey },
}

/// Encode a standalone bulk continuation frame.
pub fn encode_batch_part_frame(tag: u32, reports: &[(TaskId, RunOutcome)]) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_BATCH_PART);
    write_report_pairs(&mut w, reports);
    frame(tag, w.buf)
}

/// Encode the bulk summary frame closing a streamed sequence: the
/// continuation frames already sent under `tag` carry the pairs, this
/// frame carries the key, the expected `total`, and an (often empty)
/// inline tail.
pub fn encode_batch_end_frame(
    tag: u32,
    key: &ContributorKey,
    total: u32,
    inline: &[(TaskId, RunOutcome)],
) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_REPORT_BATCH);
    w.str(&key.0);
    w.u32(total);
    write_report_pairs(&mut w, inline);
    frame(tag, w.buf)
}

/// Encode the subscribe frame (acked with `Reply::Unit`).
pub fn encode_subscribe_frame(tag: u32, key: &ContributorKey) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_SUBSCRIBE);
    w.str(&key.0);
    frame(tag, w.buf)
}

/// Decode one request frame body (everything after the 8-byte header).
pub fn decode_request(body: &[u8]) -> Result<DecodedRequest, String> {
    let mut r = R::new(body);
    let decoded = match r.u8()? {
        OP_HELLO => DecodedRequest::Hello { version: r.u8()? },
        OP_REPORT_BATCH => DecodedRequest::BatchEnd {
            key: ContributorKey::read(&mut r)?,
            total: r.u32()?,
            inline: read_report_pairs(&mut r)?,
        },
        OP_BATCH_PART => DecodedRequest::BatchPart(read_report_pairs(&mut r)?),
        OP_SUBSCRIBE => DecodedRequest::Subscribe { key: ContributorKey::read(&mut r)? },
        op => DecodedRequest::Op(Box::new(
            Request::decode(op, &mut r)?.ok_or_else(|| format!("unknown opcode {op}"))?,
        )),
    };
    r.done()?;
    Ok(decoded)
}

// -------------------------------------------------------------- replies

/// Encode the server's handshake answer.
pub fn encode_hello_ok_frame(tag: u32) -> Vec<u8> {
    frame(tag, vec![0, RK_HELLO, PROTO_VERSION])
}

/// Encode one dispatched outcome as a complete response frame: status 0,
/// the reply kind and the payload — or the error's status byte and its
/// detail (a message or a number).
pub fn encode_reply_frame(tag: u32, outcome: &PlatformResult<Reply>) -> Vec<u8> {
    let mut w = W::default();
    match outcome {
        Err(err) => {
            w.u8(ErrorCode::of(err).as_u8());
            match err.detail() {
                Detail::Text(m) => {
                    w.u8(0);
                    w.str(m);
                }
                Detail::Number(n) => {
                    w.u8(1);
                    w.u64(n);
                }
            }
        }
        Ok(reply) => {
            w.u8(0);
            w.u8(reply.kind() as u8);
            reply.visit(&mut w);
        }
    }
    frame(tag, w.buf)
}

/// A decoded response frame body.
#[derive(Debug)]
pub enum DecodedReply {
    Hello { version: u8 },
    Outcome(PlatformResult<Reply>),
    /// An unsolicited server-push frame (always tag 0).
    Notification(Notification),
}

/// Encode an unsolicited server-push frame. Always tag 0 — client
/// request tags start at 1, so a pipelining client can never confuse a
/// push frame with a response it is waiting for.
pub fn encode_notification_frame(n: &Notification) -> Vec<u8> {
    let mut w = W::default();
    w.u8(0);
    w.u8(RK_NOTIFICATION);
    match n {
        Notification::QueueReady { project } => {
            w.u8(NK_QUEUE_READY);
            w.u64(project.0);
        }
        Notification::ExperimentFinished { project, experiment } => {
            w.u8(NK_EXPERIMENT_FINISHED);
            w.u64(project.0);
            w.u64(experiment.0);
        }
    }
    frame(0, w.buf)
}

/// Decode one response frame body. Responses are self-describing: the
/// status byte selects OK vs a typed error, the kind byte selects the
/// reply variant — no request context needed (pipelining relies on it).
pub fn decode_reply(body: &[u8]) -> Result<DecodedReply, String> {
    let mut r = R::new(body);
    let status = r.u8()?;
    let decoded = if status != 0 {
        let code = ErrorCode::from_u8(status).ok_or(format!("bad status byte {status}"))?;
        let text;
        let detail = match r.u8()? {
            0 => {
                text = r.str()?;
                Detail::Text(&text)
            }
            1 => Detail::Number(r.u64()?),
            b => return Err(format!("bad error detail kind {b}")),
        };
        DecodedReply::Outcome(Err(PlatformError::from_detail(code, detail)?))
    } else {
        match r.u8()? {
            RK_HELLO => DecodedReply::Hello { version: r.u8()? },
            RK_NOTIFICATION => DecodedReply::Notification(match r.u8()? {
                NK_QUEUE_READY => Notification::QueueReady {
                    project: ProjectId(r.u64()?),
                },
                NK_EXPERIMENT_FINISHED => Notification::ExperimentFinished {
                    project: ProjectId(r.u64()?),
                    experiment: ExperimentId(r.u64()?),
                },
                b => return Err(format!("bad notification kind {b}")),
            }),
            kind => DecodedReply::Outcome(Ok(
                Reply::decode(kind, &mut r)?.ok_or_else(|| format!("unknown reply kind {kind}"))?
            )),
        }
    };
    r.done()?;
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Visibility;
    use crate::driver::OperatorProfile;
    use crate::pool::QueryId;
    use crate::project::Role;
    use crate::queue::{QueueSummary, Task, TaskState};
    use crate::results::{LoadAvg, ResultRecord};
    use crate::user::UserId;
    use crate::wire::proto::{v1, CacheStatus, ExecOutcome, WireResultSet, WireValue};
    use serde::Value;

    fn round_trip_request(req: Request) -> Request {
        let frame = encode_request_frame(7, &req);
        let mut buf = frame.clone();
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 7);
        assert!(buf.is_empty());
        match decode_request(&body).unwrap() {
            DecodedRequest::Op(r) => *r,
            other => panic!("expected an op, got {other:?}"),
        }
    }

    fn round_trip_reply(outcome: PlatformResult<Reply>) -> PlatformResult<Reply> {
        let frame = encode_reply_frame(3, &outcome);
        let mut buf = frame;
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 3);
        match decode_reply(&body).unwrap() {
            DecodedReply::Outcome(o) => o,
            other => panic!("expected an outcome, got {other:?}"),
        }
    }

    fn sample_outcome() -> RunOutcome {
        RunOutcome {
            times_ms: vec![1.5, 2.25, 3.125],
            rows: 42,
            error: None,
            load_before: LoadAvg { one: 0.5, five: 0.25, fifteen: 0.125 },
            load_after: LoadAvg { one: 1.5, five: 1.25, fifteen: 1.125 },
            extras: serde_json::json!({"cache": "warm"}),
            fingerprint: Some(0xdead_beef_cafe_f00d),
            profile: Some(vec![OperatorProfile {
                op: "scan lineitem".into(),
                rows_in: 100,
                rows_out: 60,
                batches: 2,
                nanos: 12345,
                chunks_scanned: 3,
                chunks_skipped: 9,
            }]),
        }
    }

    fn sample_record(i: u64) -> ResultRecord {
        ResultRecord {
            task: i,
            project: 1,
            experiment: 2,
            query: 10 + i,
            dbms_label: "rowstore-2.0".into(),
            host: "bench-server".into(),
            contributor: format!("ck_{i}"),
            times_ms: vec![1.0 + i as f64, 2.0],
            rows: 5,
            error: (i % 2 == 1).then(|| "boom".to_string()),
            load_before: LoadAvg::default(),
            load_after: LoadAvg { one: 0.1, five: 0.2, fifteen: 0.3 },
            extras: serde_json::json!({"i": i as i64}).to_string(),
            hidden: i.is_multiple_of(3),
            fingerprint: i.is_multiple_of(2).then_some(0xfeed + i),
            profile: (i == 2).then(|| sample_outcome().profile.unwrap()),
        }
    }

    #[test]
    fn every_request_round_trips() {
        let reqs = vec![
            Request::RegisterUser { nickname: "mlk".into(), email: "mlk@cwi.nl".into() },
            Request::IssueKey { user: UserId(3) },
            Request::DbmsLabels,
            Request::CreateProject {
                owner: UserId(1),
                title: "t".into(),
                synopsis: "s".into(),
                visibility: Visibility::Private,
            },
            Request::Invite { project: ProjectId(1), owner: UserId(2), user: UserId(3) },
            Request::SetTargets {
                project: ProjectId(1),
                actor: UserId(2),
                dbms_labels: vec!["a".into(), "b".into()],
                hosts: vec!["h".into()],
            },
            Request::Comment { project: ProjectId(1), author: UserId(2), text: "hi".into() },
            Request::TakeDown { project: ProjectId(9) },
            Request::RoleOf { project: ProjectId(1), user: UserId(2) },
            Request::AddExperiment {
                project: ProjectId(1),
                actor: UserId(2),
                title: "e".into(),
                baseline_sql: "select 1 from t".into(),
                grammar: Some("Q:= select $a from t\n$a:= x | y".into()),
                template_cap: 100,
                pool_cap: 10,
            },
            Request::SeedPool {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
                n_random: 5,
                seed: 42,
            },
            Request::MorphPool {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
                strategy: None,
                steps: 3,
                seed: 7,
            },
            Request::EnqueueExperiment {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
            },
            Request::ResultsForKey { project: ProjectId(1), key: ContributorKey("ck_x".into()) },
            Request::ExportCsv { project: ProjectId(1), viewer: UserId(2) },
            Request::HideResult { project: ProjectId(1), actor: UserId(2), index: 4, hidden: true },
            Request::RequestTask {
                key: ContributorKey("ck_y".into()),
                dbms_label: "rowstore-2.0".into(),
                host: "bench-server".into(),
                claim: None,
            },
            Request::RequestTask {
                key: ContributorKey("ck_y".into()),
                dbms_label: "rowstore-2.0".into(),
                host: "bench-server".into(),
                claim: Some(0xfeed_beef),
            },
            Request::ReportResult {
                key: ContributorKey("ck_y".into()),
                task: TaskId(8),
                outcome: sample_outcome(),
            },
            Request::QueueSummary,
            Request::ReapStuck { timeout_ms: 30_000 },
            Request::Requeue { task: TaskId(5) },
            Request::Metrics,
            Request::Execute { sql: "select count(*) from region".into(), fingerprint: Some(99) },
        ];
        for req in reqs {
            let back = round_trip_request(req.clone());
            // Compare via the JSON debug form — RunOutcome has no PartialEq.
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
            // The static v1 metric names are what the route this op
            // travels on used to be formatted into per request.
            let label = v1::route_label(&v1::encode_request(&req));
            let (route, latency) = req.v1_metric_names();
            assert_eq!(route, format!("wire.route.{label}"));
            assert_eq!(latency, format!("wire.latency.{label}"));
        }
    }

    #[test]
    fn replies_and_errors_round_trip() {
        let mut task = Task {
            id: TaskId(1),
            project: ProjectId(2),
            experiment: ExperimentId(3),
            query: QueryId(4),
            sql: "select 1 from t".into(),
            dbms_label: "rowstore-2.0".into(),
            host: "bench-server".into(),
            state: TaskState::Running { claim: None, contributor: ContributorKey("ck_1".into()) },
            started: None,
        };
        let replies = vec![
            Reply::Unit,
            Reply::User(UserId(1)),
            Reply::Key(ContributorKey("ck_z".into())),
            Reply::Labels(vec!["a".into(), "b".into()]),
            Reply::Project(ProjectId(2)),
            Reply::Role(Role::Contributor),
            Reply::Experiment(ExperimentId(3)),
            Reply::Seeded(5),
            Reply::Added(vec![QueryId(1), QueryId(9)]),
            Reply::Enqueued(12),
            Reply::Results(vec![sample_record(0), sample_record(1), sample_record(2)]),
            Reply::Csv("a,b\n1,2\n".into()),
            Reply::Handout(Some(task.clone())),
            Reply::Handout(None),
            Reply::Index(7),
            Reply::Queue(QueueSummary { queued: 1, running: 2, finished: 3, failed: 4, timed_out: 5 }),
            Reply::Reaped(vec![TaskId(3)]),
            Reply::Execution(ExecOutcome {
                result: WireResultSet {
                    columns: vec!["n".into(), "s".into()],
                    data: vec![
                        vec![WireValue::Int(1), WireValue::Null, WireValue::Int(3)],
                        vec![
                            WireValue::Str("x".into()),
                            WireValue::Str("y".into()),
                            WireValue::Null,
                        ],
                    ],
                },
                fingerprint: 0xabcd,
                cache: CacheStatus::Hit,
            }),
        ];
        for reply in replies {
            let back = round_trip_reply(Ok(reply.clone())).unwrap();
            assert_eq!(format!("{back:?}"), format!("{reply:?}"));
        }
        // Every TaskState variant travels.
        for state in [
            TaskState::Queued,
            TaskState::Done,
            TaskState::Failed("x".into()),
            TaskState::TimedOut,
        ] {
            task.state = state.clone();
            let back = round_trip_reply(Ok(Reply::Handout(Some(task.clone())))).unwrap();
            match back {
                Reply::Handout(Some(t)) => assert_eq!(t.state, state),
                other => panic!("{other:?}"),
            }
        }
        // Errors reconstruct the exact typed variant.
        for err in [
            PlatformError::Invalid("bad".into()),
            PlatformError::UnknownProject(42),
            PlatformError::AccessDenied("nope".into()),
            PlatformError::PoolFull(10),
            PlatformError::Transport("io".into()),
            PlatformError::Throttled("in-flight bound".into()),
        ] {
            let back = round_trip_reply(Err(err.clone()));
            assert_eq!(back.unwrap_err(), err);
        }
    }

    #[test]
    fn mixed_and_typed_columns_both_encode() {
        let rs = WireResultSet {
            columns: vec!["mixed".into(), "ints".into(), "nulls".into()],
            data: vec![
                vec![
                    WireValue::Int(1),
                    WireValue::Str("two".into()),
                    WireValue::Float(3.0),
                    WireValue::Decimal { raw: 12345, scale: 2 },
                ],
                vec![
                    WireValue::Int(10),
                    WireValue::Null,
                    WireValue::Int(30),
                    WireValue::Int(40),
                ],
                vec![WireValue::Null, WireValue::Null, WireValue::Null, WireValue::Null],
            ],
        };
        let out = ExecOutcome { result: rs.clone(), fingerprint: 1, cache: CacheStatus::Bypass };
        match round_trip_reply(Ok(Reply::Execution(out))).unwrap() {
            Reply::Execution(back) => assert_eq!(back.result, rs),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hello_frames_round_trip() {
        let mut buf = encode_hello_frame(0);
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match decode_request(&body).unwrap() {
            DecodedRequest::Hello { version } => assert_eq!(version, PROTO_VERSION),
            other => panic!("{other:?}"),
        }
        let mut buf = encode_hello_ok_frame(0);
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match decode_reply(&body).unwrap() {
            DecodedReply::Hello { version } => assert_eq!(version, PROTO_VERSION),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_frames_wait_and_bad_headers_fail() {
        let full = encode_request_frame(1, &Request::QueueSummary);
        // Feed the frame byte by byte: no frame until the last byte.
        let mut buf = Vec::new();
        for (i, b) in full.iter().enumerate() {
            buf.push(*b);
            let got = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap();
            if i + 1 < full.len() {
                assert!(got.is_none(), "premature frame at byte {i}");
            } else {
                assert!(got.is_some());
            }
        }
        assert!(buf.is_empty());
        // Two frames back to back: both extracted in order.
        let mut buf = encode_request_frame(1, &Request::QueueSummary);
        buf.extend(encode_request_frame(2, &Request::Metrics));
        assert_eq!(take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap().0, 1);
        assert_eq!(take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap().0, 2);
        // An oversized length field is a hard protocol error.
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        assert!(take_frame(&mut buf, DEFAULT_MAX_FRAME).is_err());
        // Truncated payloads are decode errors, not panics.
        let mut buf = encode_request_frame(1, &Request::RegisterUser {
            nickname: "a".into(),
            email: "b".into(),
        });
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(decode_request(&body[..body.len() - 1]).is_err());
        // Trailing garbage is rejected too.
        let mut extended = body.clone();
        extended.push(0);
        assert!(decode_request(&extended).is_err());
    }

    #[test]
    fn report_batch_summary_frame_round_trips() {
        // OP_REPORT_BATCH decodes to BatchEnd (the server assembles
        // sequences itself), so it gets its own round trip instead of
        // joining `every_request_round_trips`.
        let key = ContributorKey("ck_bulk".into());
        let reports: Vec<(TaskId, RunOutcome)> = (0..4)
            .map(|i| {
                let mut o = sample_outcome();
                o.rows = i as usize;
                (TaskId(100 + i), o)
            })
            .collect();
        let req = Request::ReportBatch { key: key.clone(), reports: reports.clone() };
        let mut buf = encode_request_frame(9, &req);
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 9);
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchEnd { key: k, total, inline } => {
                assert_eq!(k, key);
                assert_eq!(total, 4);
                assert_eq!(format!("{inline:?}"), format!("{reports:?}"));
            }
            other => panic!("{other:?}"),
        }
        // The Batch reply round trips like any other.
        match round_trip_reply(Ok(Reply::Batch(vec![0, 7, 3]))).unwrap() {
            Reply::Batch(idx) => assert_eq!(idx, vec![0, 7, 3]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_part_and_end_frames_stream_under_one_tag() {
        let key = ContributorKey("ck_stream".into());
        let pairs: Vec<(TaskId, RunOutcome)> =
            (0..3).map(|i| (TaskId(i), sample_outcome())).collect();
        let mut buf = encode_batch_part_frame(5, &pairs[..2]);
        buf.extend(encode_batch_end_frame(5, &key, 3, &pairs[2..]));
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 5);
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchPart(p) => {
                assert_eq!(format!("{p:?}"), format!("{:?}", &pairs[..2]))
            }
            other => panic!("{other:?}"),
        }
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 5);
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchEnd { key: k, total, inline } => {
                assert_eq!(k, key);
                assert_eq!(total, 3);
                assert_eq!(inline.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // An empty part frame is legal (and decodes to zero pairs).
        let mut buf = encode_batch_part_frame(5, &[]);
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchPart(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subscribe_and_notification_frames_round_trip() {
        let key = ContributorKey("ck_sub".into());
        let mut buf = encode_subscribe_frame(2, &key);
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 2);
        match decode_request(&body).unwrap() {
            DecodedRequest::Subscribe { key: k } => assert_eq!(k, key),
            other => panic!("{other:?}"),
        }
        for n in [
            Notification::QueueReady { project: ProjectId(4) },
            Notification::ExperimentFinished {
                project: ProjectId(4),
                experiment: ExperimentId(2),
            },
        ] {
            let mut buf = encode_notification_frame(&n);
            let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(tag, 0, "push frames always ride tag 0");
            match decode_reply(&body).unwrap() {
                DecodedReply::Notification(back) => assert_eq!(back, n),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn decimal_and_extras_survive_binary() {
        let out = RunOutcome {
            extras: Value::Null,
            ..sample_outcome()
        };
        let req = Request::ReportResult {
            key: ContributorKey("ck".into()),
            task: TaskId(0),
            outcome: out,
        };
        let back = round_trip_request(req.clone());
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }
}
