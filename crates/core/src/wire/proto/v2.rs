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
//! # Scalar encodings
//!
//! Little-endian fixed-width integers and floats; strings are a u32
//! length followed by UTF-8 bytes; options are a presence byte. Hot DTOs
//! (tasks, run outcomes, result records, queue summaries) are fully
//! binary; cold management DTOs (DBMS/host catalog entries, metrics
//! snapshots, the open-ended `extras` object) travel as JSON text inside
//! the frame — they are off the contributor hot path and the JSON serde
//! is already the documented format.
//!
//! # Columnar results
//!
//! `Vec<ResultRecord>` and [`WireResultSet`] are encoded as per-column
//! typed vectors rather than per-row tagged tuples: one type tag and one
//! null bitmap per column, then the packed values. A column of mixed
//! types (possible for `WireResultSet` cells in principle) falls back to
//! per-cell tags under the reserved tag `0xFF`.
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

use super::{CacheStatus, ErrorCode, ExecOutcome, Reply, Request, WireResultSet, WireValue};
use crate::push::Notification;
use crate::catalog::Visibility;
use crate::driver::{OperatorProfile, RunOutcome};
use crate::error::{PlatformError, PlatformResult};
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId, Role};
use crate::queue::{QueueSummary, Task, TaskId, TaskState};
use crate::results::{LoadAvg, ResultRecord};
use crate::user::{ContributorKey, UserId};
use serde::{Deserialize, Serialize};

/// The version this codec speaks, exchanged in the Hello handshake.
pub const PROTO_VERSION: u8 = 2;
/// Frame header: u32 length + u32 tag.
pub const HEADER_LEN: usize = 8;
/// Default cap on one frame body — matches the v1 client's response cap.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Opcode 0: the connection handshake.
const OP_HELLO: u8 = 0;

// Request opcodes 1..=25 follow the Request enum order.
const OP_REGISTER_USER: u8 = 1;
const OP_ISSUE_KEY: u8 = 2;
const OP_ADD_DBMS: u8 = 3;
const OP_ADD_HOST: u8 = 4;
const OP_DBMS_LABELS: u8 = 5;
const OP_CREATE_PROJECT: u8 = 6;
const OP_INVITE: u8 = 7;
const OP_SET_TARGETS: u8 = 8;
const OP_COMMENT: u8 = 9;
const OP_TAKE_DOWN: u8 = 10;
const OP_ROLE_OF: u8 = 11;
const OP_ADD_EXPERIMENT: u8 = 12;
const OP_SEED_POOL: u8 = 13;
const OP_MORPH_POOL: u8 = 14;
const OP_ENQUEUE_EXPERIMENT: u8 = 15;
const OP_RESULTS_FOR_KEY: u8 = 16;
const OP_EXPORT_CSV: u8 = 17;
const OP_HIDE_RESULT: u8 = 18;
const OP_REQUEST_TASK: u8 = 19;
const OP_REPORT_RESULT: u8 = 20;
const OP_QUEUE_SUMMARY: u8 = 21;
const OP_REAP_STUCK: u8 = 22;
const OP_REQUEUE: u8 = 23;
const OP_METRICS: u8 = 24;
const OP_EXECUTE: u8 = 25;
/// Bulk summary frame: key + expected total + inline tail of pairs.
const OP_REPORT_BATCH: u8 = 26;
/// Bulk continuation frame: columnar `(task, outcome)` pairs.
const OP_BATCH_PART: u8 = 27;
/// Subscribe this connection to server-push notifications.
const OP_SUBSCRIBE: u8 = 28;

// Reply kinds.
const RK_HELLO: u8 = 0;
const RK_UNIT: u8 = 1;
const RK_USER: u8 = 2;
const RK_KEY: u8 = 3;
const RK_LABELS: u8 = 4;
const RK_PROJECT: u8 = 5;
const RK_ROLE: u8 = 6;
const RK_EXPERIMENT: u8 = 7;
const RK_SEEDED: u8 = 8;
const RK_ADDED: u8 = 9;
const RK_ENQUEUED: u8 = 10;
const RK_RESULTS: u8 = 11;
const RK_CSV: u8 = 12;
const RK_HANDOUT: u8 = 13;
const RK_INDEX: u8 = 14;
const RK_QUEUE: u8 = 15;
const RK_REAPED: u8 = 16;
const RK_METRICS: u8 = 17;
const RK_EXECUTION: u8 = 18;
const RK_BATCH: u8 = 19;
/// Unsolicited server-push frame (always tag 0).
const RK_NOTIFICATION: u8 = 20;

/// Notification kind bytes inside an `RK_NOTIFICATION` payload.
const NK_QUEUE_READY: u8 = 0;
const NK_EXPERIMENT_FINISHED: u8 = 1;

// Cell type tags for columnar vectors. 0 marks an all-null column (no
// values follow); 0xFF marks a mixed column (per-cell tags).
const CT_ALL_NULL: u8 = 0;
const CT_BOOL: u8 = 1;
const CT_INT: u8 = 2;
const CT_FLOAT: u8 = 3;
const CT_DECIMAL: u8 = 4;
const CT_STR: u8 = 5;
const CT_DATE: u8 = 6;
const CT_INTERVAL: u8 = 7;
const CT_MIXED: u8 = 0xFF;

// ------------------------------------------------------------- writer

/// A growable little-endian byte writer. Infallible.
#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }
    /// A presence bitmap: bit `i` set when `set(i)` is true.
    fn bitmap(&mut self, n: usize, set: impl Fn(usize) -> bool) {
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
    fn json<T: Serialize>(&mut self, v: &T) {
        self.str(&serde_json::to_string(v).expect("value serializes"));
    }
}

// ------------------------------------------------------------- reader

/// A checked little-endian byte reader over one frame body.
struct R<'a> {
    b: &'a [u8],
    pos: usize,
}

type D<T> = Result<T, String>;

impl<'a> R<'a> {
    fn new(b: &'a [u8]) -> R<'a> {
        R { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> D<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return Err(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.b.len() - self.pos
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> D<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> D<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
    fn u32(&mut self) -> D<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> D<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> D<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> D<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> D<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i128(&mut self) -> D<i128> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn str(&mut self) -> D<String> {
        let n = self.u32()? as usize;
        // The frame length already bounds n; take() re-checks.
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("non-UTF-8 string: {e}"))
    }
    fn opt_str(&mut self) -> D<Option<String>> {
        Ok(if self.bool()? { Some(self.str()?) } else { None })
    }
    fn opt_u64(&mut self) -> D<Option<u64>> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }
    fn bitmap(&mut self, n: usize) -> D<Vec<bool>> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }
    fn json<T: Deserialize>(&mut self, what: &str) -> D<T> {
        let text = self.str()?;
        serde_json::from_str(&text).map_err(|e| format!("bad {what} JSON: {e}"))
    }
    fn done(&self) -> D<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after frame payload",
                self.b.len() - self.pos
            ))
        }
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

// ------------------------------------------------------- request encode

/// Encode the connection handshake frame.
pub fn encode_hello_frame(tag: u32) -> Vec<u8> {
    frame(tag, vec![OP_HELLO, PROTO_VERSION])
}

/// Encode one request as a complete frame (header included).
pub fn encode_request_frame(tag: u32, req: &Request) -> Vec<u8> {
    let mut w = W::default();
    match req {
        Request::RegisterUser { nickname, email } => {
            w.u8(OP_REGISTER_USER);
            w.str(nickname);
            w.str(email);
        }
        Request::IssueKey { user } => {
            w.u8(OP_ISSUE_KEY);
            w.u64(user.0);
        }
        Request::AddDbms { entry } => {
            w.u8(OP_ADD_DBMS);
            w.json(entry);
        }
        Request::AddHost { entry } => {
            w.u8(OP_ADD_HOST);
            w.json(entry);
        }
        Request::DbmsLabels => w.u8(OP_DBMS_LABELS),
        Request::CreateProject {
            owner,
            title,
            synopsis,
            visibility,
        } => {
            w.u8(OP_CREATE_PROJECT);
            w.u64(owner.0);
            w.str(title);
            w.str(synopsis);
            w.u8(match visibility {
                Visibility::Public => 0,
                Visibility::Private => 1,
            });
        }
        Request::Invite { project, owner, user } => {
            w.u8(OP_INVITE);
            w.u64(project.0);
            w.u64(owner.0);
            w.u64(user.0);
        }
        Request::SetTargets {
            project,
            actor,
            dbms_labels,
            hosts,
        } => {
            w.u8(OP_SET_TARGETS);
            w.u64(project.0);
            w.u64(actor.0);
            write_strs(&mut w, dbms_labels);
            write_strs(&mut w, hosts);
        }
        Request::Comment { project, author, text } => {
            w.u8(OP_COMMENT);
            w.u64(project.0);
            w.u64(author.0);
            w.str(text);
        }
        Request::TakeDown { project } => {
            w.u8(OP_TAKE_DOWN);
            w.u64(project.0);
        }
        Request::RoleOf { project, user } => {
            w.u8(OP_ROLE_OF);
            w.u64(project.0);
            w.u64(user.0);
        }
        Request::AddExperiment {
            project,
            actor,
            title,
            baseline_sql,
            grammar,
            template_cap,
            pool_cap,
        } => {
            w.u8(OP_ADD_EXPERIMENT);
            w.u64(project.0);
            w.u64(actor.0);
            w.str(title);
            w.str(baseline_sql);
            w.opt_str(grammar.as_deref());
            w.u64(*template_cap);
            w.u64(*pool_cap);
        }
        Request::SeedPool {
            project,
            experiment,
            actor,
            n_random,
            seed,
        } => {
            w.u8(OP_SEED_POOL);
            w.u64(project.0);
            w.u64(experiment.0);
            w.u64(actor.0);
            w.u64(*n_random);
            w.u64(*seed);
        }
        Request::MorphPool {
            project,
            experiment,
            actor,
            strategy,
            steps,
            seed,
        } => {
            w.u8(OP_MORPH_POOL);
            w.u64(project.0);
            w.u64(experiment.0);
            w.u64(actor.0);
            w.opt_str(strategy.as_deref());
            w.u64(*steps);
            w.u64(*seed);
        }
        Request::EnqueueExperiment {
            project,
            experiment,
            actor,
        } => {
            w.u8(OP_ENQUEUE_EXPERIMENT);
            w.u64(project.0);
            w.u64(experiment.0);
            w.u64(actor.0);
        }
        Request::ResultsForKey { project, key } => {
            w.u8(OP_RESULTS_FOR_KEY);
            w.u64(project.0);
            w.str(&key.0);
        }
        Request::ExportCsv { project, viewer } => {
            w.u8(OP_EXPORT_CSV);
            w.u64(project.0);
            w.u64(viewer.0);
        }
        Request::HideResult {
            project,
            actor,
            index,
            hidden,
        } => {
            w.u8(OP_HIDE_RESULT);
            w.u64(project.0);
            w.u64(actor.0);
            w.u64(*index);
            w.bool(*hidden);
        }
        Request::RequestTask {
            key,
            dbms_label,
            host,
            claim,
        } => {
            w.u8(OP_REQUEST_TASK);
            w.str(&key.0);
            w.str(dbms_label);
            w.str(host);
            w.opt_u64(*claim);
        }
        Request::ReportResult { key, task, outcome } => {
            w.u8(OP_REPORT_RESULT);
            w.str(&key.0);
            w.u64(task.0);
            write_outcome(&mut w, outcome);
        }
        Request::ReportBatch { key, reports } => {
            // The single-frame form: total == inline count, no parts.
            // Streaming clients use `encode_batch_part_frame` +
            // `encode_batch_end_frame` under one tag instead.
            w.u8(OP_REPORT_BATCH);
            w.str(&key.0);
            w.u32(reports.len() as u32);
            write_report_pairs(&mut w, reports);
        }
        Request::QueueSummary => w.u8(OP_QUEUE_SUMMARY),
        Request::ReapStuck { timeout_ms } => {
            w.u8(OP_REAP_STUCK);
            w.u64(*timeout_ms);
        }
        Request::Requeue { task } => {
            w.u8(OP_REQUEUE);
            w.u64(task.0);
        }
        Request::Metrics => w.u8(OP_METRICS),
        Request::Execute { sql, fingerprint } => {
            w.u8(OP_EXECUTE);
            w.str(sql);
            w.opt_u64(*fingerprint);
        }
    }
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

/// Encode the subscribe frame (acked with `RK_UNIT`).
pub fn encode_subscribe_frame(tag: u32, key: &ContributorKey) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_SUBSCRIBE);
    w.str(&key.0);
    frame(tag, w.buf)
}

/// Decode one request frame body (everything after the 8-byte header).
pub fn decode_request(body: &[u8]) -> Result<DecodedRequest, String> {
    let mut r = R::new(body);
    let op = r.u8()?;
    let req = match op {
        OP_HELLO => {
            let version = r.u8()?;
            r.done()?;
            return Ok(DecodedRequest::Hello { version });
        }
        OP_REGISTER_USER => Request::RegisterUser {
            nickname: r.str()?,
            email: r.str()?,
        },
        OP_ISSUE_KEY => Request::IssueKey {
            user: UserId(r.u64()?),
        },
        OP_ADD_DBMS => Request::AddDbms {
            entry: r.json("dbms entry")?,
        },
        OP_ADD_HOST => Request::AddHost {
            entry: r.json("host entry")?,
        },
        OP_DBMS_LABELS => Request::DbmsLabels,
        OP_CREATE_PROJECT => Request::CreateProject {
            owner: UserId(r.u64()?),
            title: r.str()?,
            synopsis: r.str()?,
            visibility: match r.u8()? {
                0 => Visibility::Public,
                1 => Visibility::Private,
                b => return Err(format!("bad visibility byte {b}")),
            },
        },
        OP_INVITE => Request::Invite {
            project: ProjectId(r.u64()?),
            owner: UserId(r.u64()?),
            user: UserId(r.u64()?),
        },
        OP_SET_TARGETS => Request::SetTargets {
            project: ProjectId(r.u64()?),
            actor: UserId(r.u64()?),
            dbms_labels: read_strs(&mut r)?,
            hosts: read_strs(&mut r)?,
        },
        OP_COMMENT => Request::Comment {
            project: ProjectId(r.u64()?),
            author: UserId(r.u64()?),
            text: r.str()?,
        },
        OP_TAKE_DOWN => Request::TakeDown {
            project: ProjectId(r.u64()?),
        },
        OP_ROLE_OF => Request::RoleOf {
            project: ProjectId(r.u64()?),
            user: UserId(r.u64()?),
        },
        OP_ADD_EXPERIMENT => Request::AddExperiment {
            project: ProjectId(r.u64()?),
            actor: UserId(r.u64()?),
            title: r.str()?,
            baseline_sql: r.str()?,
            grammar: r.opt_str()?,
            template_cap: r.u64()?,
            pool_cap: r.u64()?,
        },
        OP_SEED_POOL => Request::SeedPool {
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            actor: UserId(r.u64()?),
            n_random: r.u64()?,
            seed: r.u64()?,
        },
        OP_MORPH_POOL => Request::MorphPool {
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            actor: UserId(r.u64()?),
            strategy: r.opt_str()?,
            steps: r.u64()?,
            seed: r.u64()?,
        },
        OP_ENQUEUE_EXPERIMENT => Request::EnqueueExperiment {
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            actor: UserId(r.u64()?),
        },
        OP_RESULTS_FOR_KEY => Request::ResultsForKey {
            project: ProjectId(r.u64()?),
            key: ContributorKey(r.str()?),
        },
        OP_EXPORT_CSV => Request::ExportCsv {
            project: ProjectId(r.u64()?),
            viewer: UserId(r.u64()?),
        },
        OP_HIDE_RESULT => Request::HideResult {
            project: ProjectId(r.u64()?),
            actor: UserId(r.u64()?),
            index: r.u64()?,
            hidden: r.bool()?,
        },
        OP_REQUEST_TASK => Request::RequestTask {
            key: ContributorKey(r.str()?),
            dbms_label: r.str()?,
            host: r.str()?,
            claim: r.opt_u64()?,
        },
        OP_REPORT_RESULT => Request::ReportResult {
            key: ContributorKey(r.str()?),
            task: TaskId(r.u64()?),
            outcome: read_outcome(&mut r)?,
        },
        OP_REPORT_BATCH => {
            let key = ContributorKey(r.str()?);
            let total = r.u32()?;
            let inline = read_report_pairs(&mut r)?;
            r.done()?;
            return Ok(DecodedRequest::BatchEnd { key, total, inline });
        }
        OP_BATCH_PART => {
            let pairs = read_report_pairs(&mut r)?;
            r.done()?;
            return Ok(DecodedRequest::BatchPart(pairs));
        }
        OP_SUBSCRIBE => {
            let key = ContributorKey(r.str()?);
            r.done()?;
            return Ok(DecodedRequest::Subscribe { key });
        }
        OP_QUEUE_SUMMARY => Request::QueueSummary,
        OP_REAP_STUCK => Request::ReapStuck { timeout_ms: r.u64()? },
        OP_REQUEUE => Request::Requeue {
            task: TaskId(r.u64()?),
        },
        OP_METRICS => Request::Metrics,
        OP_EXECUTE => Request::Execute {
            sql: r.str()?,
            fingerprint: r.opt_u64()?,
        },
        other => return Err(format!("unknown opcode {other}")),
    };
    r.done()?;
    Ok(DecodedRequest::Op(Box::new(req)))
}

// --------------------------------------------------------- reply encode

/// Encode the server's handshake answer.
pub fn encode_hello_ok_frame(tag: u32) -> Vec<u8> {
    frame(tag, vec![0, RK_HELLO, PROTO_VERSION])
}

/// Encode one dispatched outcome as a complete response frame.
pub fn encode_reply_frame(tag: u32, outcome: &PlatformResult<Reply>) -> Vec<u8> {
    let mut w = W::default();
    match outcome {
        Err(err) => {
            w.u8(ErrorCode::of(err).as_u8());
            write_error_detail(&mut w, err);
        }
        Ok(reply) => {
            w.u8(0);
            match reply {
                Reply::Unit => w.u8(RK_UNIT),
                Reply::User(u) => {
                    w.u8(RK_USER);
                    w.u64(u.0);
                }
                Reply::Key(k) => {
                    w.u8(RK_KEY);
                    w.str(&k.0);
                }
                Reply::Labels(ls) => {
                    w.u8(RK_LABELS);
                    write_strs(&mut w, ls);
                }
                Reply::Project(p) => {
                    w.u8(RK_PROJECT);
                    w.u64(p.0);
                }
                Reply::Role(role) => {
                    w.u8(RK_ROLE);
                    w.u8(match role {
                        Role::None => 0,
                        Role::Reader => 1,
                        Role::Contributor => 2,
                        Role::Owner => 3,
                    });
                }
                Reply::Experiment(e) => {
                    w.u8(RK_EXPERIMENT);
                    w.u64(e.0);
                }
                Reply::Seeded(n) => {
                    w.u8(RK_SEEDED);
                    w.u64(*n);
                }
                Reply::Added(ids) => {
                    w.u8(RK_ADDED);
                    w.u32(ids.len() as u32);
                    for id in ids {
                        w.u64(id.0);
                    }
                }
                Reply::Enqueued(n) => {
                    w.u8(RK_ENQUEUED);
                    w.u64(*n);
                }
                Reply::Results(records) => {
                    w.u8(RK_RESULTS);
                    write_records(&mut w, records);
                }
                Reply::Csv(text) => {
                    w.u8(RK_CSV);
                    w.str(text);
                }
                Reply::Handout(task) => {
                    w.u8(RK_HANDOUT);
                    match task {
                        Some(t) => {
                            w.u8(1);
                            write_task(&mut w, t);
                        }
                        None => w.u8(0),
                    }
                }
                Reply::Index(n) => {
                    w.u8(RK_INDEX);
                    w.u64(*n);
                }
                Reply::Batch(indices) => {
                    w.u8(RK_BATCH);
                    w.u32(indices.len() as u32);
                    for idx in indices {
                        w.u64(*idx);
                    }
                }
                Reply::Queue(q) => {
                    w.u8(RK_QUEUE);
                    w.u64(q.queued as u64);
                    w.u64(q.running as u64);
                    w.u64(q.finished as u64);
                    w.u64(q.failed as u64);
                    w.u64(q.timed_out as u64);
                }
                Reply::Reaped(ids) => {
                    w.u8(RK_REAPED);
                    w.u32(ids.len() as u32);
                    for id in ids {
                        w.u64(id.0);
                    }
                }
                Reply::Metrics(snap) => {
                    w.u8(RK_METRICS);
                    w.json(snap);
                }
                Reply::Execution(out) => {
                    w.u8(RK_EXECUTION);
                    write_result_set(&mut w, &out.result);
                    w.u64(out.fingerprint);
                    w.u8(out.cache.as_u8());
                }
            }
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
    if status != 0 {
        let code = ErrorCode::from_u8(status).ok_or(format!("bad status byte {status}"))?;
        let err = read_error_detail(&mut r, code)?;
        r.done()?;
        return Ok(DecodedReply::Outcome(Err(err)));
    }
    let kind = r.u8()?;
    let reply = match kind {
        RK_HELLO => {
            let version = r.u8()?;
            r.done()?;
            return Ok(DecodedReply::Hello { version });
        }
        RK_UNIT => Reply::Unit,
        RK_USER => Reply::User(UserId(r.u64()?)),
        RK_KEY => Reply::Key(ContributorKey(r.str()?)),
        RK_LABELS => Reply::Labels(read_strs(&mut r)?),
        RK_PROJECT => Reply::Project(ProjectId(r.u64()?)),
        RK_ROLE => Reply::Role(match r.u8()? {
            0 => Role::None,
            1 => Role::Reader,
            2 => Role::Contributor,
            3 => Role::Owner,
            b => return Err(format!("bad role byte {b}")),
        }),
        RK_EXPERIMENT => Reply::Experiment(ExperimentId(r.u64()?)),
        RK_SEEDED => Reply::Seeded(r.u64()?),
        RK_ADDED => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ids.push(QueryId(r.u64()?));
            }
            Reply::Added(ids)
        }
        RK_ENQUEUED => Reply::Enqueued(r.u64()?),
        RK_RESULTS => Reply::Results(read_records(&mut r)?),
        RK_CSV => Reply::Csv(r.str()?),
        RK_HANDOUT => Reply::Handout(if r.bool()? {
            Some(read_task(&mut r)?)
        } else {
            None
        }),
        RK_INDEX => Reply::Index(r.u64()?),
        RK_BATCH => {
            let n = r.u32()? as usize;
            let mut indices = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                indices.push(r.u64()?);
            }
            Reply::Batch(indices)
        }
        RK_NOTIFICATION => {
            let n = match r.u8()? {
                NK_QUEUE_READY => Notification::QueueReady {
                    project: ProjectId(r.u64()?),
                },
                NK_EXPERIMENT_FINISHED => Notification::ExperimentFinished {
                    project: ProjectId(r.u64()?),
                    experiment: ExperimentId(r.u64()?),
                },
                b => return Err(format!("bad notification kind {b}")),
            };
            r.done()?;
            return Ok(DecodedReply::Notification(n));
        }
        RK_QUEUE => Reply::Queue(QueueSummary {
            queued: r.u64()? as usize,
            running: r.u64()? as usize,
            finished: r.u64()? as usize,
            failed: r.u64()? as usize,
            timed_out: r.u64()? as usize,
        }),
        RK_REAPED => {
            let n = r.u32()? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ids.push(TaskId(r.u64()?));
            }
            Reply::Reaped(ids)
        }
        RK_METRICS => Reply::Metrics(r.json("metrics snapshot")?),
        RK_EXECUTION => {
            let result = read_result_set(&mut r)?;
            Reply::Execution(ExecOutcome {
                result,
                fingerprint: r.u64()?,
                cache: CacheStatus::from_u8(r.u8()?)?,
            })
        }
        other => return Err(format!("unknown reply kind {other}")),
    };
    r.done()?;
    Ok(DecodedReply::Outcome(Ok(reply)))
}

// ------------------------------------------------------- error details

fn write_error_detail(w: &mut W, err: &PlatformError) {
    match err {
        PlatformError::Invalid(m)
        | PlatformError::AccessDenied(m)
        | PlatformError::Grammar(m)
        | PlatformError::Publication(m)
        | PlatformError::Transport(m)
        | PlatformError::Throttled(m) => {
            w.u8(0);
            w.str(m);
        }
        PlatformError::UnknownUser(id)
        | PlatformError::UnknownProject(id)
        | PlatformError::UnknownExperiment(id)
        | PlatformError::UnknownTask(id)
        | PlatformError::UnknownQuery(id) => {
            w.u8(1);
            w.u64(*id);
        }
        PlatformError::PoolFull(cap) => {
            w.u8(1);
            w.u64(*cap as u64);
        }
    }
}

fn read_error_detail(r: &mut R<'_>, code: ErrorCode) -> D<PlatformError> {
    let detail = match r.u8()? {
        0 => serde::Value::from(r.str()?),
        1 => serde::Value::from(r.u64()? as i64),
        b => return Err(format!("bad error detail kind {b}")),
    };
    PlatformError::from_code(code.as_str(), &detail)
}

// --------------------------------------------------------- DTO helpers

fn write_strs(w: &mut W, items: &[String]) {
    w.u32(items.len() as u32);
    for s in items {
        w.str(s);
    }
}

fn read_strs(r: &mut R<'_>) -> D<Vec<String>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

fn write_task(w: &mut W, t: &Task) {
    w.u64(t.id.0);
    w.u64(t.project.0);
    w.u64(t.experiment.0);
    w.u64(t.query.0);
    w.str(&t.sql);
    w.str(&t.dbms_label);
    w.str(&t.host);
    match &t.state {
        TaskState::Queued => w.u8(0),
        TaskState::Running { contributor } => {
            w.u8(1);
            w.str(&contributor.0);
        }
        TaskState::Done => w.u8(2),
        TaskState::Failed(e) => {
            w.u8(3);
            w.str(e);
        }
        TaskState::TimedOut => w.u8(4),
    }
}

fn read_task(r: &mut R<'_>) -> D<Task> {
    Ok(Task {
        id: TaskId(r.u64()?),
        project: ProjectId(r.u64()?),
        experiment: ExperimentId(r.u64()?),
        query: QueryId(r.u64()?),
        sql: r.str()?.into(),
        dbms_label: r.str()?.into(),
        host: r.str()?.into(),
        state: match r.u8()? {
            0 => TaskState::Queued,
            1 => TaskState::Running {
                contributor: ContributorKey(r.str()?),
            },
            2 => TaskState::Done,
            3 => TaskState::Failed(r.str()?),
            4 => TaskState::TimedOut,
            b => return Err(format!("bad task state byte {b}")),
        },
        // Hand-out time is server-side only, same as the JSON codec.
        started: None,
    })
}

fn write_profile(w: &mut W, ops: &[OperatorProfile]) {
    w.u32(ops.len() as u32);
    for op in ops {
        w.str(&op.op);
        w.u64(op.rows_in);
        w.u64(op.rows_out);
        w.u64(op.batches);
        w.u64(op.nanos);
        w.u64(op.chunks_scanned);
        w.u64(op.chunks_skipped);
    }
}

fn read_profile(r: &mut R<'_>) -> D<Vec<OperatorProfile>> {
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ops.push(OperatorProfile {
            op: r.str()?,
            rows_in: r.u64()?,
            rows_out: r.u64()?,
            batches: r.u64()?,
            nanos: r.u64()?,
            chunks_scanned: r.u64()?,
            chunks_skipped: r.u64()?,
        });
    }
    Ok(ops)
}

fn write_outcome(w: &mut W, o: &RunOutcome) {
    w.u32(o.times_ms.len() as u32);
    for t in &o.times_ms {
        w.f64(*t);
    }
    w.u64(o.rows as u64);
    w.opt_str(o.error.as_deref());
    for l in [&o.load_before, &o.load_after] {
        w.f64(l.one);
        w.f64(l.five);
        w.f64(l.fifteen);
    }
    w.json(&o.extras);
    w.opt_u64(o.fingerprint);
    match &o.profile {
        Some(ops) => {
            w.u8(1);
            write_profile(w, ops);
        }
        None => w.u8(0),
    }
}

fn read_outcome(r: &mut R<'_>) -> D<RunOutcome> {
    let n = r.u32()? as usize;
    let mut times_ms = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        times_ms.push(r.f64()?);
    }
    let rows = r.u64()? as usize;
    let error = r.opt_str()?;
    let mut loads = [LoadAvg::default(); 2];
    for l in &mut loads {
        l.one = r.f64()?;
        l.five = r.f64()?;
        l.fifteen = r.f64()?;
    }
    Ok(RunOutcome {
        times_ms,
        rows,
        error,
        load_before: loads[0],
        load_after: loads[1],
        extras: r.json("extras")?,
        fingerprint: r.opt_u64()?,
        profile: if r.bool()? {
            Some(read_profile(r)?)
        } else {
            None
        },
    })
}

// -------------------------------------------------- bulk report pairs

/// Columnar `(task, outcome)` pairs: `[count][task ids][outcomes]` — the
/// fixed-width task-id vector packs densely up front, the variable-width
/// outcomes follow.
fn write_report_pairs(w: &mut W, pairs: &[(TaskId, RunOutcome)]) {
    w.u32(pairs.len() as u32);
    for (task, _) in pairs {
        w.u64(task.0);
    }
    for (_, outcome) in pairs {
        write_outcome(w, outcome);
    }
}

fn read_report_pairs(r: &mut R<'_>) -> D<Vec<(TaskId, RunOutcome)>> {
    let n = r.u32()? as usize;
    if n > (1 << 22) {
        return Err(format!("report pair count {n} too large"));
    }
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        tasks.push(TaskId(r.u64()?));
    }
    let mut pairs = Vec::with_capacity(n);
    for task in tasks {
        pairs.push((task, read_outcome(r)?));
    }
    Ok(pairs)
}

// ------------------------------------------------ columnar: records

/// Result records as per-field columns: all the `task` ids, then all the
/// `project` ids, … so the repetitive numeric fields pack densely and
/// the per-record framing overhead of JSON objects disappears.
fn write_records(w: &mut W, records: &[ResultRecord]) {
    let n = records.len();
    w.u32(n as u32);
    for rec in records {
        w.u64(rec.task);
    }
    for rec in records {
        w.u64(rec.project);
    }
    for rec in records {
        w.u64(rec.experiment);
    }
    for rec in records {
        w.u64(rec.query);
    }
    for rec in records {
        w.str(&rec.dbms_label);
    }
    for rec in records {
        w.str(&rec.host);
    }
    for rec in records {
        w.str(&rec.contributor);
    }
    // times_ms: per-record counts, then one flat f64 vector.
    for rec in records {
        w.u32(rec.times_ms.len() as u32);
    }
    for rec in records {
        for t in &rec.times_ms {
            w.f64(*t);
        }
    }
    for rec in records {
        w.u64(rec.rows as u64);
    }
    w.bitmap(n, |i| records[i].error.is_some());
    for rec in records {
        if let Some(e) = &rec.error {
            w.str(e);
        }
    }
    for rec in records {
        w.f64(rec.load_before.one);
        w.f64(rec.load_before.five);
        w.f64(rec.load_before.fifteen);
        w.f64(rec.load_after.one);
        w.f64(rec.load_after.five);
        w.f64(rec.load_after.fifteen);
    }
    for rec in records {
        // Stored as the JSON text this column carries.
        w.str(&rec.extras);
    }
    w.bitmap(n, |i| records[i].hidden);
    w.bitmap(n, |i| records[i].fingerprint.is_some());
    for rec in records {
        if let Some(fp) = rec.fingerprint {
            w.u64(fp);
        }
    }
    w.bitmap(n, |i| records[i].profile.is_some());
    for rec in records {
        if let Some(ops) = &rec.profile {
            write_profile(w, ops);
        }
    }
}

fn read_records(r: &mut R<'_>) -> D<Vec<ResultRecord>> {
    let n = r.u32()? as usize;
    // Frame sizes bound n transitively; still refuse absurd counts so a
    // corrupt frame cannot trigger a huge allocation before take() fails.
    if n > (1 << 22) {
        return Err(format!("record count {n} too large"));
    }
    let col_u64 = |r: &mut R<'_>| -> D<Vec<u64>> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.u64()?);
        }
        Ok(v)
    };
    let col_str = |r: &mut R<'_>| -> D<Vec<String>> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.str()?);
        }
        Ok(v)
    };
    let task = col_u64(r)?;
    let project = col_u64(r)?;
    let experiment = col_u64(r)?;
    let query = col_u64(r)?;
    let dbms_label = col_str(r)?;
    let host = col_str(r)?;
    let contributor = col_str(r)?;
    let mut times_len = Vec::with_capacity(n);
    for _ in 0..n {
        times_len.push(r.u32()? as usize);
    }
    let mut times = Vec::with_capacity(n);
    for len in &times_len {
        let mut ts = Vec::with_capacity(*len);
        for _ in 0..*len {
            ts.push(r.f64()?);
        }
        times.push(ts);
    }
    let rows = col_u64(r)?;
    let has_error = r.bitmap(n)?;
    let mut errors = Vec::with_capacity(n);
    for has in &has_error {
        errors.push(if *has { Some(r.str()?) } else { None });
    }
    let mut loads = Vec::with_capacity(n);
    for _ in 0..n {
        loads.push((
            LoadAvg { one: r.f64()?, five: r.f64()?, fifteen: r.f64()? },
            LoadAvg { one: r.f64()?, five: r.f64()?, fifteen: r.f64()? },
        ));
    }
    let mut extras: Vec<String> = Vec::with_capacity(n);
    for _ in 0..n {
        // Parsed to reject a malformed payload, kept as compact text.
        extras.push(r.json::<serde_json::Value>("extras")?.to_string());
    }
    let hidden = r.bitmap(n)?;
    let has_fp = r.bitmap(n)?;
    let mut fingerprints = Vec::with_capacity(n);
    for has in &has_fp {
        fingerprints.push(if *has { Some(r.u64()?) } else { None });
    }
    let has_profile = r.bitmap(n)?;
    let mut profiles = Vec::with_capacity(n);
    for has in &has_profile {
        profiles.push(if *has { Some(read_profile(r)?) } else { None });
    }

    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        records.push(ResultRecord {
            task: task[i],
            project: project[i],
            experiment: experiment[i],
            query: query[i],
            dbms_label: dbms_label[i].as_str().into(),
            host: host[i].as_str().into(),
            contributor: contributor[i].clone(),
            times_ms: times[i].clone(),
            rows: rows[i] as usize,
            error: errors[i].clone(),
            load_before: loads[i].0,
            load_after: loads[i].1,
            extras: extras[i].clone(),
            hidden: hidden[i],
            fingerprint: fingerprints[i],
            profile: profiles[i].clone(),
        });
    }
    Ok(records)
}

// ---------------------------------------------- columnar: result sets

fn cell_tag(v: &WireValue) -> u8 {
    match v {
        WireValue::Null => CT_ALL_NULL,
        WireValue::Bool(_) => CT_BOOL,
        WireValue::Int(_) => CT_INT,
        WireValue::Float(_) => CT_FLOAT,
        WireValue::Decimal { .. } => CT_DECIMAL,
        WireValue::Str(_) => CT_STR,
        WireValue::Date(_) => CT_DATE,
        WireValue::Interval { .. } => CT_INTERVAL,
    }
}

fn write_cell_payload(w: &mut W, v: &WireValue) {
    match v {
        WireValue::Null => {}
        WireValue::Bool(b) => w.bool(*b),
        WireValue::Int(i) => w.i64(*i),
        WireValue::Float(f) => w.f64(*f),
        WireValue::Decimal { raw, scale } => {
            w.i128(*raw);
            w.u8(*scale);
        }
        WireValue::Str(s) => w.str(s),
        WireValue::Date(d) => w.i32(*d),
        WireValue::Interval { months, days } => {
            w.i32(*months);
            w.i32(*days);
        }
    }
}

fn read_cell_payload(r: &mut R<'_>, tag: u8) -> D<WireValue> {
    Ok(match tag {
        CT_BOOL => WireValue::Bool(r.bool()?),
        CT_INT => WireValue::Int(r.i64()?),
        CT_FLOAT => WireValue::Float(r.f64()?),
        CT_DECIMAL => WireValue::Decimal {
            raw: r.i128()?,
            scale: r.u8()?,
        },
        CT_STR => WireValue::Str(r.str()?),
        CT_DATE => WireValue::Date(r.i32()?),
        CT_INTERVAL => WireValue::Interval {
            months: r.i32()?,
            days: r.i32()?,
        },
        other => return Err(format!("bad cell tag {other}")),
    })
}

/// One column: `[tag][null bitmap][packed values]`. `tag` is the uniform
/// cell type of the column (the common case — columns are typed), `0`
/// for an all-null column, or `0xFF` for a mixed column, which falls
/// back to a tag byte per non-null cell.
fn write_column(w: &mut W, col: &[WireValue]) {
    let mut uniform: Option<u8> = None;
    let mut mixed = false;
    for v in col {
        if matches!(v, WireValue::Null) {
            continue;
        }
        match uniform {
            None => uniform = Some(cell_tag(v)),
            Some(t) if t == cell_tag(v) => {}
            Some(_) => {
                mixed = true;
                break;
            }
        }
    }
    let tag = if mixed { CT_MIXED } else { uniform.unwrap_or(CT_ALL_NULL) };
    w.u8(tag);
    w.bitmap(col.len(), |i| !matches!(col[i], WireValue::Null));
    for v in col {
        if matches!(v, WireValue::Null) {
            continue;
        }
        if tag == CT_MIXED {
            w.u8(cell_tag(v));
        }
        write_cell_payload(w, v);
    }
}

fn read_column(r: &mut R<'_>, rows: usize) -> D<Vec<WireValue>> {
    let tag = r.u8()?;
    let present = r.bitmap(rows)?;
    let mut col = Vec::with_capacity(rows);
    for p in present {
        if !p {
            col.push(WireValue::Null);
            continue;
        }
        let cell_tag = if tag == CT_MIXED { r.u8()? } else { tag };
        col.push(read_cell_payload(r, cell_tag)?);
    }
    Ok(col)
}

fn write_result_set(w: &mut W, rs: &WireResultSet) {
    w.u32(rs.columns.len() as u32);
    w.u32(rs.rows() as u32);
    for name in &rs.columns {
        w.str(name);
    }
    for col in &rs.data {
        write_column(w, col);
    }
}

fn read_result_set(r: &mut R<'_>) -> D<WireResultSet> {
    let ncols = r.u32()? as usize;
    let nrows = r.u32()? as usize;
    if ncols > (1 << 16) || nrows > (1 << 28) {
        return Err(format!("result set of {ncols}x{nrows} too large"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.str()?);
    }
    let mut data = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        data.push(read_column(r, nrows)?);
    }
    Ok(WireResultSet { columns, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use crate::wire::proto::v1;

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
            state: TaskState::Running { contributor: ContributorKey("ck_1".into()) },
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
