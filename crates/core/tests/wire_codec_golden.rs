//! Both wire codecs, byte for byte.
//!
//! `tests/golden/wire_v2.hex` holds one v2 frame per line and
//! `tests/golden/wire_v1.txt` one v1 exchange per block, as the
//! hand-written per-variant codecs wrote them (07d5bdc): every `Request`
//! variant with each optional field set and unset, every `Reply` variant
//! (a hand-out in each task state, results mixing errors, hidden rows,
//! fingerprints and profiles, executions with typed, all-null and mixed
//! columns under every cache status), all twelve `PlatformError`s, and on
//! v2 the connection-level frames (hello, bulk part and summary,
//! subscribe, both notifications). The files are never re-blessed:
//!
//! * encoding the cases below reproduces both files exactly;
//! * decoding each fixture entry and encoding it again gives the same
//!   bytes;
//! * malformed input yields the typed error and status pinned in
//!   [`malformed_input_fails_typed`] — on v2 with the connection kept open.

use sqalpel_core::wire::proto::{v1, v2};
use sqalpel_core::wire::transport::http::Request as HttpRequest;
use sqalpel_core::wire::{CacheStatus, ErrorCode, ExecOutcome, Reply, Request, WireResultSet, WireValue};
use sqalpel_core::{
    ContributorKey, DbmsEntry, ExperimentId, HistogramSummary, HostEntry, LoadAvg,
    MetricsSnapshot, Notification, OperatorProfile, PlatformError, PlatformResult, ProjectId,
    Proto, QueryId, QueueSummary, ResultRecord, RetryPolicy, Role, RunOutcome, SqalpelServer,
    Task, TaskId, TaskState, UserId, V2Config, V2Server, Visibility, WireClient,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A fingerprint past `i64::MAX`: the hex spelling and the i64 cast both
/// have to carry its top bit.
const BIG_FP: u64 = 0xdead_beef_cafe_f00d;

fn key(k: &str) -> ContributorKey {
    ContributorKey(k.into())
}

fn profile() -> Vec<OperatorProfile> {
    vec![
        OperatorProfile {
            op: "scan lineitem".into(),
            rows_in: 100,
            rows_out: 60,
            batches: 2,
            nanos: 12_345,
            chunks_scanned: 3,
            chunks_skipped: 9,
        },
        OperatorProfile {
            op: "select".into(),
            rows_in: 60,
            rows_out: 60,
            batches: 1,
            nanos: 77,
            chunks_scanned: 0,
            chunks_skipped: 0,
        },
    ]
}

fn outcome() -> RunOutcome {
    RunOutcome {
        times_ms: vec![1.5, 2.0, 3.125],
        rows: 42,
        error: None,
        load_before: LoadAvg { one: 0.5, five: 0.25, fifteen: 0.125 },
        load_after: LoadAvg { one: 1.5, five: 1.0, fifteen: 1.125 },
        extras: serde_json::json!({"cache": "warm", "n": 3}),
        fingerprint: Some(BIG_FP),
        profile: Some(profile()),
    }
}

fn failed_outcome() -> RunOutcome {
    RunOutcome {
        times_ms: vec![],
        rows: 0,
        error: Some("row budget exceeded: \"q\"".into()),
        load_before: LoadAvg::default(),
        load_after: LoadAvg { one: 0.1, five: 0.2, fifteen: 0.3 },
        extras: serde_json::Value::Null,
        fingerprint: None,
        profile: None,
    }
}

fn record(i: u64) -> ResultRecord {
    ResultRecord {
        task: i,
        project: 1,
        experiment: 2,
        query: 10 + i,
        dbms_label: "rowstore-2.0".into(),
        host: "bench-server".into(),
        contributor: format!("ck_{i}"),
        times_ms: (0..i).map(|t| 1.0 + t as f64 / 4.0).collect(),
        rows: 5 * i as usize,
        error: (i % 2 == 1).then(|| format!("boom {i}")),
        load_before: LoadAvg::default(),
        load_after: LoadAvg { one: 0.1, five: 0.2, fifteen: 0.3 },
        extras: format!("{{\"i\":{i},\"s\":\"x\\ny\"}}"),
        hidden: i.is_multiple_of(3),
        fingerprint: match i % 3 {
            0 => Some(BIG_FP - i),
            1 => Some(0xfeed + i),
            _ => None,
        },
        profile: (i == 2).then(profile),
    }
}

fn task(state: TaskState) -> Task {
    Task {
        id: TaskId(11),
        project: ProjectId(2),
        experiment: ExperimentId(3),
        query: QueryId(4),
        sql: "select 'O''Brien', \"x\" from t".into(),
        dbms_label: "rowstore-2.0".into(),
        host: "bench-server".into(),
        state,
        started: None,
    }
}

fn exec(result: WireResultSet, cache: CacheStatus) -> Reply {
    Reply::Execution(ExecOutcome { result, fingerprint: BIG_FP, cache })
}

fn typed_columns() -> WireResultSet {
    use WireValue::*;
    WireResultSet {
        columns: vec![
            "b".into(),
            "i".into(),
            "f".into(),
            "d".into(),
            "s".into(),
            "t".into(),
            "iv".into(),
        ],
        data: vec![
            vec![Bool(true), Null, Bool(false)],
            vec![Int(-42), Int(7), Null],
            vec![Float(2.5), Float(3.0), Float(-0.125)],
            vec![Decimal { raw: -123_456_789_012_345_678_901_234_567_890, scale: 4 }, Null, Decimal { raw: 5, scale: 0 }],
            vec![Str("O'Brien, \"quoted\"".into()), Str(String::new()), Null],
            vec![Date(19_000), Null, Date(-3)],
            vec![Interval { months: -3, days: 14 }, Null, Null],
        ],
    }
}

fn all_null_column() -> WireResultSet {
    WireResultSet {
        columns: vec!["nothing".into()],
        data: vec![vec![WireValue::Null; 9]],
    }
}

fn mixed_column() -> WireResultSet {
    use WireValue::*;
    WireResultSet {
        columns: vec!["mixed".into(), "ints".into()],
        data: vec![
            vec![Int(1), Str("two".into()), Null, Float(3.0), Decimal { raw: 12_345, scale: 2 }],
            vec![Int(10), Null, Int(30), Int(40), Int(50)],
        ],
    }
}

/// Every request variant, each optional field both set and unset.
fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("register_user", Request::RegisterUser { nickname: "mlk".into(), email: "mlk@cwi.nl".into() }),
        ("issue_key", Request::IssueKey { user: UserId(3) }),
        (
            "add_dbms",
            Request::AddDbms {
                entry: DbmsEntry {
                    name: "diffstore".into(),
                    version: "1.0".into(),
                    vendor: "cwi".into(),
                    settings: BTreeMap::from([("threads".into(), "4".into())]),
                    visibility: Visibility::Private,
                },
            },
        ),
        (
            "add_host",
            Request::AddHost {
                entry: HostEntry {
                    name: "pi".into(),
                    cpu: "cortex-a72".into(),
                    cores: 4,
                    ram_gb: 8,
                    os: "linux".into(),
                    visibility: Visibility::Public,
                },
            },
        ),
        ("dbms_labels", Request::DbmsLabels),
        (
            "create_project_public",
            Request::CreateProject {
                owner: UserId(1),
                title: "t \"quoted\"".into(),
                synopsis: "two\nlines".into(),
                visibility: Visibility::Public,
            },
        ),
        (
            "create_project_private",
            Request::CreateProject {
                owner: UserId(1),
                title: "t".into(),
                synopsis: String::new(),
                visibility: Visibility::Private,
            },
        ),
        ("invite", Request::Invite { project: ProjectId(1), owner: UserId(2), user: UserId(3) }),
        (
            "set_targets",
            Request::SetTargets {
                project: ProjectId(1),
                actor: UserId(2),
                dbms_labels: vec!["a".into(), "b".into()],
                hosts: vec!["h".into()],
            },
        ),
        ("comment", Request::Comment { project: ProjectId(1), author: UserId(2), text: "O'Brien: \"hi\" \u{fc}".into() }),
        ("take_down", Request::TakeDown { project: ProjectId(9) }),
        ("role_of", Request::RoleOf { project: ProjectId(1), user: UserId(2) }),
        (
            "add_experiment_grammar",
            Request::AddExperiment {
                project: ProjectId(1),
                actor: UserId(2),
                title: "e".into(),
                baseline_sql: "select 1 from t".into(),
                grammar: Some("Q:= select $a from t\n$a:= x | y".into()),
                template_cap: 100,
                pool_cap: 10,
            },
        ),
        (
            "add_experiment_no_grammar",
            Request::AddExperiment {
                project: ProjectId(1),
                actor: UserId(2),
                title: "e".into(),
                baseline_sql: "select 1 from t".into(),
                grammar: None,
                template_cap: 100,
                pool_cap: 10,
            },
        ),
        (
            "seed_pool",
            Request::SeedPool {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
                n_random: 5,
                seed: 42,
            },
        ),
        (
            "morph_pool_strategy",
            Request::MorphPool {
                project: ProjectId(1),
                experiment: ExperimentId(4),
                actor: UserId(2),
                strategy: Some("alter".into()),
                steps: 3,
                seed: 7,
            },
        ),
        (
            "morph_pool_no_strategy",
            Request::MorphPool {
                project: ProjectId(1),
                experiment: ExperimentId(4),
                actor: UserId(2),
                strategy: None,
                steps: 3,
                seed: 7,
            },
        ),
        (
            "enqueue_experiment",
            Request::EnqueueExperiment { project: ProjectId(1), experiment: ExperimentId(4), actor: UserId(2) },
        ),
        ("results_for_key", Request::ResultsForKey { project: ProjectId(1), key: key("ck_x") }),
        ("export_csv", Request::ExportCsv { project: ProjectId(1), viewer: UserId(2) }),
        (
            "hide_result",
            Request::HideResult { project: ProjectId(1), actor: UserId(2), index: 4, hidden: true },
        ),
        (
            "request_task_no_claim",
            Request::RequestTask {
                key: key("ck_y"),
                dbms_label: "rowstore-2.0".into(),
                host: "bench-server".into(),
                claim: None,
            },
        ),
        (
            "request_task_claim",
            Request::RequestTask {
                key: key("ck_y"),
                dbms_label: "rowstore-2.0".into(),
                host: "bench-server".into(),
                claim: Some(0xfeed_beef),
            },
        ),
        ("report_result", Request::ReportResult { key: key("ck_y"), task: TaskId(8), outcome: outcome() }),
        (
            "report_result_failed",
            Request::ReportResult { key: key("ck_y"), task: TaskId(9), outcome: failed_outcome() },
        ),
        (
            "report_batch",
            Request::ReportBatch {
                key: key("ck_bulk"),
                reports: vec![(TaskId(100), outcome()), (TaskId(101), failed_outcome()), (TaskId(102), outcome())],
            },
        ),
        ("queue_summary", Request::QueueSummary),
        ("reap_stuck", Request::ReapStuck { timeout_ms: 30_000 }),
        ("requeue", Request::Requeue { task: TaskId(5) }),
        ("metrics", Request::Metrics),
        ("execute_no_fingerprint", Request::Execute { sql: "select count(*) from region".into(), fingerprint: None }),
        ("execute_fingerprint", Request::Execute { sql: "select count(*) from region".into(), fingerprint: Some(BIG_FP) }),
    ]
}

/// The request a reply case answers (v1 needs it to decode the reply).
fn op(label: &str) -> Request {
    requests()
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no request {label}"))
        .1
}

/// Every reply variant, and every error, with the request it answers.
fn replies() -> Vec<(String, Request, PlatformResult<Reply>)> {
    let snapshot = MetricsSnapshot {
        counters: vec![("wire.requests".into(), 3), ("wire.route.GET /v1/dbms".into(), 2)],
        histograms: vec![(
            "wire.latency.GET /v1/dbms".into(),
            HistogramSummary { count: 2, sum: 300, p50: 100, p95: 200, p99: 200 },
        )],
    };
    let mut out: Vec<(String, Request, PlatformResult<Reply>)> = vec![
        ("unit".into(), op("take_down"), Ok(Reply::Unit)),
        ("user".into(), op("register_user"), Ok(Reply::User(UserId(7)))),
        ("key".into(), op("issue_key"), Ok(Reply::Key(key("ck_z")))),
        ("labels".into(), op("dbms_labels"), Ok(Reply::Labels(vec!["a".into(), "b c".into()]))),
        ("project".into(), op("create_project_public"), Ok(Reply::Project(ProjectId(2)))),
        ("experiment".into(), op("add_experiment_grammar"), Ok(Reply::Experiment(ExperimentId(3)))),
        ("seeded".into(), op("seed_pool"), Ok(Reply::Seeded(5))),
        ("added".into(), op("morph_pool_strategy"), Ok(Reply::Added(vec![QueryId(1), QueryId(9)]))),
        ("added_none".into(), op("morph_pool_strategy"), Ok(Reply::Added(vec![]))),
        ("enqueued".into(), op("enqueue_experiment"), Ok(Reply::Enqueued(12))),
        ("results".into(), op("results_for_key"), Ok(Reply::Results((0..5).map(record).collect()))),
        ("results_none".into(), op("results_for_key"), Ok(Reply::Results(vec![]))),
        ("csv".into(), op("export_csv"), Ok(Reply::Csv("a,b\n1,\"x, y\"\n".into()))),
        ("handout_none".into(), op("request_task_no_claim"), Ok(Reply::Handout(None))),
        ("index".into(), op("report_result"), Ok(Reply::Index(7))),
        ("batch".into(), op("report_batch"), Ok(Reply::Batch(vec![0, 7, 3]))),
        (
            "queue".into(),
            op("queue_summary"),
            Ok(Reply::Queue(QueueSummary { queued: 1, running: 2, finished: 3, failed: 4, timed_out: 5 })),
        ),
        ("reaped".into(), op("reap_stuck"), Ok(Reply::Reaped(vec![TaskId(3), TaskId(4)]))),
        ("metrics".into(), op("metrics"), Ok(Reply::Metrics(snapshot))),
        ("execution_typed_hit".into(), op("execute_fingerprint"), Ok(exec(typed_columns(), CacheStatus::Hit))),
        ("execution_all_null_miss".into(), op("execute_no_fingerprint"), Ok(exec(all_null_column(), CacheStatus::Miss))),
        ("execution_mixed_reoptimized".into(), op("execute_fingerprint"), Ok(exec(mixed_column(), CacheStatus::Reoptimized))),
        ("execution_empty_bypass".into(), op("execute_no_fingerprint"), Ok(exec(WireResultSet::default(), CacheStatus::Bypass))),
    ];
    for (name, role) in [
        ("none", Role::None),
        ("reader", Role::Reader),
        ("contributor", Role::Contributor),
        ("owner", Role::Owner),
    ] {
        out.push((format!("role_{name}"), op("role_of"), Ok(Reply::Role(role))));
    }
    for (name, state) in [
        ("queued", TaskState::Queued),
        ("running", TaskState::Running { claim: None, contributor: key("ck_1") }),
        ("done", TaskState::Done),
        ("failed", TaskState::Failed("boom \"x\"".into())),
        ("timed_out", TaskState::TimedOut),
    ] {
        out.push((format!("handout_{name}"), op("request_task_claim"), Ok(Reply::Handout(Some(task(state))))));
    }
    for err in all_errors() {
        out.push((format!("error_{}", err.code()), op("queue_summary"), Err(err)));
    }
    out
}

fn all_errors() -> Vec<PlatformError> {
    vec![
        PlatformError::Invalid("bad email \"x\"".into()),
        PlatformError::UnknownUser(7),
        PlatformError::UnknownProject(8),
        PlatformError::UnknownExperiment(9),
        PlatformError::UnknownTask(10),
        PlatformError::UnknownQuery(11),
        PlatformError::AccessDenied("private".into()),
        PlatformError::Grammar("cycle".into()),
        PlatformError::PoolFull(1000),
        PlatformError::Publication("taken down".into()),
        PlatformError::Transport("connection refused".into()),
        PlatformError::Throttled("in-flight bound".into()),
    ]
}

/// The v2 frames that are not one op or one reply, with their direction.
fn connection_frames() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let pairs = [(TaskId(1), outcome()), (TaskId(2), failed_outcome()), (TaskId(3), outcome())];
    vec![
        ("req", "hello", v2::encode_hello_frame(0)),
        ("reply", "hello_ok", v2::encode_hello_ok_frame(0)),
        ("req", "batch_part", v2::encode_batch_part_frame(5, &pairs[..2])),
        ("req", "batch_part_empty", v2::encode_batch_part_frame(5, &[])),
        ("req", "batch_end", v2::encode_batch_end_frame(5, &key("ck_bulk"), 3, &pairs[2..])),
        ("req", "subscribe", v2::encode_subscribe_frame(2, &key("ck_sub"))),
        ("reply", "notify_queue_ready", v2::encode_notification_frame(&Notification::QueueReady { project: ProjectId(4) })),
        (
            "reply",
            "notify_experiment_finished",
            v2::encode_notification_frame(&Notification::ExperimentFinished {
                project: ProjectId(4),
                experiment: ExperimentId(2),
            }),
        ),
    ]
}

// ------------------------------------------------------------- rendering

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// One line per v2 frame: `<kind> <label> <hex>`.
fn render_v2() -> String {
    let mut out = String::new();
    for (label, req) in requests() {
        out.push_str(&format!("req {label} {}\n", hex(&v2::encode_request_frame(7, &req))));
    }
    for (label, _, outcome) in replies() {
        out.push_str(&format!("reply {label} {}\n", hex(&v2::encode_reply_frame(3, &outcome))));
    }
    for (kind, label, frame) in connection_frames() {
        out.push_str(&format!("{kind} {label} {}\n", hex(&frame)));
    }
    out
}

/// Body bytes on one line: `\` and newline escaped.
fn escape(body: &[u8]) -> String {
    String::from_utf8(body.to_vec())
        .unwrap()
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
}

fn unescape(line: &str) -> Vec<u8> {
    let mut out = String::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            other => panic!("bad escape {other:?}"),
        }
    }
    out.into_bytes()
}

fn target(http: &HttpRequest) -> String {
    if http.query.is_empty() {
        return http.path.clone();
    }
    let qs: Vec<String> = http.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{}?{}", http.path, qs.join("&"))
}

fn render_request(http: &HttpRequest) -> String {
    format!("{} {}\n{}\n", http.method, target(http), escape(&http.body))
}

fn render_response(status: u16, content_type: &str, body: &[u8]) -> String {
    format!("{status} {content_type}\n{}\n", escape(body))
}

/// Three lines per v1 exchange half: `> label` (request) or `< label`
/// (response), then the request line or status line, then the body.
fn render_v1() -> String {
    let mut out = String::new();
    for (label, req) in requests() {
        out.push_str(&format!("> {label}\n{}", render_request(&v1::encode_request(&req))));
    }
    for (label, _, outcome) in replies() {
        let resp = v1::encode_reply(&outcome);
        out.push_str(&format!("< {label}\n{}", render_response(resp.status, resp.content_type, &resp.body)));
    }
    out
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_same_text(name: &str, today: &str, parent: &str) {
    for (i, (a, b)) in today.lines().zip(parent.lines()).enumerate() {
        assert_eq!(a, b, "{name} line {} differs from the fixture", i + 1);
    }
    assert_eq!(today.lines().count(), parent.lines().count(), "{name}: line count");
    assert!(today == parent, "{name}: trailing bytes differ");
}

// ----------------------------------------------------------------- tests

#[test]
fn v2_frames_are_the_fixtures() {
    assert_same_text("wire_v2.hex", &render_v2(), &golden("wire_v2.hex"));
}

#[test]
fn v1_exchanges_are_the_fixtures() {
    assert_same_text("wire_v1.txt", &render_v1(), &golden("wire_v1.txt"));
}

/// The frame `body` decodes to, encoded again under `tag`.
fn reencode_v2(kind: &str, tag: u32, body: &[u8]) -> Vec<u8> {
    if kind == "req" {
        return match v2::decode_request(body).unwrap() {
            v2::DecodedRequest::Hello { version } => {
                assert_eq!(version, v2::PROTO_VERSION);
                v2::encode_hello_frame(tag)
            }
            v2::DecodedRequest::Op(req) => v2::encode_request_frame(tag, &req),
            v2::DecodedRequest::BatchPart(pairs) => v2::encode_batch_part_frame(tag, &pairs),
            v2::DecodedRequest::BatchEnd { key, total, inline } => {
                v2::encode_batch_end_frame(tag, &key, total, &inline)
            }
            v2::DecodedRequest::Subscribe { key } => v2::encode_subscribe_frame(tag, &key),
        };
    }
    match v2::decode_reply(body).unwrap() {
        v2::DecodedReply::Hello { version } => {
            assert_eq!(version, v2::PROTO_VERSION);
            v2::encode_hello_ok_frame(tag)
        }
        v2::DecodedReply::Outcome(outcome) => v2::encode_reply_frame(tag, &outcome),
        v2::DecodedReply::Notification(n) => {
            assert_eq!(tag, 0);
            v2::encode_notification_frame(&n)
        }
    }
}

#[test]
fn v2_fixtures_decode_and_reencode_to_themselves() {
    let fixture = golden("wire_v2.hex");
    let mut seen = 0;
    for line in fixture.lines() {
        let mut parts = line.splitn(3, ' ');
        let (kind, label, frame) = (parts.next().unwrap(), parts.next().unwrap(), unhex(parts.next().unwrap()));
        let mut buf = frame.clone();
        let (tag, body) = v2::take_frame(&mut buf, v2::DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(buf.is_empty(), "{label}: one frame per line");
        assert!(reencode_v2(kind, tag, &body) == frame, "{label}: decode -> encode moved bytes");
        seen += 1;
    }
    assert_eq!(seen, requests().len() + replies().len() + connection_frames().len());
}

#[test]
fn v1_fixtures_decode_and_reencode_to_themselves() {
    let fixture = golden("wire_v1.txt");
    let lines: Vec<&str> = fixture.lines().collect();
    assert_eq!(lines.len(), 3 * (requests().len() + replies().len()));
    let replies = replies();
    for block in lines.chunks(3) {
        let (head, first, body) = (block[0], block[1], unescape(block[2]));
        if let Some(label) = head.strip_prefix("> ") {
            let (method, target) = first.split_once(' ').unwrap();
            let (path, query) = match target.split_once('?') {
                Some((p, q)) => (
                    p,
                    q.split('&')
                        .map(|kv| {
                            let (k, v) = kv.split_once('=').unwrap();
                            (k.to_string(), v.to_string())
                        })
                        .collect(),
                ),
                None => (target, Vec::new()),
            };
            let http = HttpRequest { method: method.into(), path: path.into(), query, body };
            let op = v1::decode_http(&http).unwrap_or_else(|r| panic!("{label}: {}", escape(&r.body)));
            assert_eq!(
                render_request(&v1::encode_request(&op)),
                render_request(&http),
                "{label}: decode -> encode moved bytes"
            );
        } else {
            let label = head.strip_prefix("< ").unwrap();
            let (status, content_type) = first.split_once(' ').unwrap();
            let status: u16 = status.parse().unwrap();
            let (_, op, _) = replies.iter().find(|(l, _, _)| l == label).unwrap();
            let outcome = v1::decode_reply(op, status, &body);
            let resp = v1::encode_reply(&outcome);
            assert_eq!(
                render_response(resp.status, resp.content_type, &resp.body),
                render_response(status, content_type, &body),
                "{label}: decode -> encode moved bytes"
            );
        }
    }
}

// ------------------------------------------------------- malformed input

fn frame(tag: u32, body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn body_of(frame: Vec<u8>) -> Vec<u8> {
    frame[v2::HEADER_LEN..].to_vec()
}

fn read_frame(s: &mut TcpStream) -> (u32, Vec<u8>) {
    let mut header = [0u8; v2::HEADER_LEN];
    s.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
    (u32::from_le_bytes(header[4..].try_into().unwrap()), body)
}

fn expect_error(body: &[u8]) -> PlatformError {
    match v2::decode_reply(body).unwrap() {
        v2::DecodedReply::Outcome(Err(e)) => e,
        other => panic!("expected a typed error, got {other:?}"),
    }
}

/// A server that completes the handshake, reads one request and answers
/// it with `reply` — a peer that speaks malformed v2.
fn lying_server(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        read_frame(&mut s);
        s.write_all(&v2::encode_hello_ok_frame(0)).unwrap();
        let (tag, _) = read_frame(&mut s);
        s.write_all(&frame(tag, &reply)).unwrap();
        let _ = s.read(&mut [0u8; 1]);
    });
    (addr, handle)
}

#[test]
fn malformed_input_fails_typed() {
    // ---- v2 requests: the server answers Invalid (400) on a connection
    // that keeps serving.
    let server = Arc::new(SqalpelServer::new());
    let wire = V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default()).unwrap();
    let mut s = TcpStream::connect(wire.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&v2::encode_hello_frame(0)).unwrap();
    read_frame(&mut s);

    let register = body_of(v2::encode_request_frame(1, &Request::RegisterUser {
        nickname: "ab".into(),
        email: "c".into(),
    }));
    let mut non_utf8 = register.clone();
    non_utf8[5..7].copy_from_slice(&[0xff, 0xfe]);
    let mut bad_bool = body_of(v2::encode_request_frame(1, &Request::HideResult {
        project: ProjectId(1),
        actor: UserId(1),
        index: 0,
        hidden: true,
    }));
    *bad_bool.last_mut().unwrap() = 2;
    let mut bad_visibility = body_of(v2::encode_request_frame(1, &Request::CreateProject {
        owner: UserId(1),
        title: "t".into(),
        synopsis: "s".into(),
        visibility: Visibility::Private,
    }));
    *bad_visibility.last_mut().unwrap() = 2;
    let mut trailing = body_of(v2::encode_request_frame(1, &Request::QueueSummary));
    trailing.push(0);
    let v2_requests: Vec<(&str, Vec<u8>, &str)> = vec![
        ("truncated body", register[..register.len() - 1].to_vec(), "truncated"),
        ("trailing byte", trailing, "trailing"),
        ("unknown opcode", vec![200], "unknown opcode 200"),
        ("bad bool byte", bad_bool, "bad bool byte 2"),
        ("bad visibility byte", bad_visibility, "bad visibility byte 2"),
        ("non-UTF-8 string", non_utf8, "non-UTF-8"),
    ];
    for (i, (case, body, says)) in v2_requests.into_iter().enumerate() {
        let tag = 10 + i as u32;
        s.write_all(&frame(tag, &body)).unwrap();
        let (got, reply) = read_frame(&mut s);
        assert_eq!(got, tag, "{case}");
        let err = expect_error(&reply);
        assert!(matches!(&err, PlatformError::Invalid(m) if m.contains(says)), "{case}: {err:?}");
        assert_eq!(ErrorCode::of(&err).http_status(), 400, "{case}");
    }
    // The same connection still serves.
    s.write_all(&v2::encode_request_frame(99, &Request::QueueSummary)).unwrap();
    let (tag, reply) = read_frame(&mut s);
    assert_eq!(tag, 99);
    assert!(matches!(v2::decode_reply(&reply).unwrap(), v2::DecodedReply::Outcome(Ok(Reply::Queue(_)))));
    drop(s);
    drop(wire);

    // ---- v2 replies: the decoder refuses them, and the client surfaces
    // the misbehaving peer as Transport (500).
    let mut bad_state = body_of(v2::encode_reply_frame(1, &Ok(Reply::Handout(Some(task(TaskState::Done))))));
    *bad_state.last_mut().unwrap() = 9;
    let mut bad_presence = body_of(v2::encode_reply_frame(1, &Ok(Reply::Handout(None))));
    *bad_presence.last_mut().unwrap() = 2;
    let mut bad_role = body_of(v2::encode_reply_frame(1, &Ok(Reply::Role(Role::Owner))));
    *bad_role.last_mut().unwrap() = 9;
    let mut short = body_of(v2::encode_reply_frame(1, &Ok(Reply::Index(7))));
    short.pop();
    let v2_replies: Vec<(&str, Vec<u8>, &str)> = vec![
        ("unknown reply kind", vec![0, 99], "unknown reply kind 99"),
        ("unknown status byte", vec![99, 0], "bad status byte 99"),
        ("bad role byte", bad_role, "bad role byte 9"),
        ("bad task-state byte", bad_state, "bad task state byte 9"),
        ("bad bool byte", bad_presence, "bad bool byte 2"),
        ("truncated body", short, "truncated"),
    ];
    for (case, body, says) in v2_replies {
        let err = v2::decode_reply(&body).unwrap_err();
        assert!(err.contains(says), "{case}: {err}");
        let (addr, peer) = lying_server(body);
        let client = WireClient::builder(addr)
            .transport(Proto::V2Framed)
            .retry(RetryPolicy { attempts: 1, base_backoff: Duration::ZERO, max_backoff: Duration::ZERO })
            .build();
        let err = client.queue_summary().unwrap_err();
        assert!(matches!(&err, PlatformError::Transport(m) if m.contains(says)), "{case}: {err:?}");
        assert_eq!(ErrorCode::of(&err).http_status(), 500, "{case}");
        drop(client);
        peer.join().unwrap();
    }

    // ---- v1: the status and typed body of each refusal.
    let http = |method: &str, path: &str, query: &[(&str, &str)], body: &str| HttpRequest {
        method: method.into(),
        path: path.into(),
        query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        body: body.as_bytes().to_vec(),
    };
    let bad_fingerprint = format!(
        r#"{{"key":"k","outcome":{},"task":1}}"#,
        serde_json::to_string(&outcome()).unwrap().replace(&format!("{BIG_FP:016x}"), "not-hex")
    );
    let v1_cases: Vec<(&str, HttpRequest, u16, &str)> = vec![
        ("missing field", http("POST", "/v1/user/register", &[], r#"{"nickname":"x"}"#), 400, "email"),
        ("wrong field type", http("POST", "/v1/user/key", &[], r#"{"user":"seven"}"#), 400, "user"),
        (
            "wrong bool type",
            http("POST", "/v1/result/hide", &[], r#"{"actor":1,"hidden":"yes","index":0,"project":1}"#),
            400,
            "hidden",
        ),
        ("wrong option type", http("POST", "/v1/task/request", &[], r#"{"claim":"x","dbms_label":"d","host":"h","key":"k"}"#), 400, "claim"),
        ("non-hex fingerprint", http("POST", "/v1/result/report", &[], &bad_fingerprint), 400, "fingerprint"),
        ("body is not JSON", http("POST", "/v1/queue/reap", &[], "{"), 400, "JSON"),
        ("non-numeric path id", http("POST", "/v1/project/abc/take_down", &[], ""), 400, "abc"),
        ("non-numeric query value", http("GET", "/v1/project/1/role", &[("user", "x")], ""), 400, "user"),
        ("missing query value", http("GET", "/v1/project/1/csv", &[], ""), 400, "viewer"),
        ("unknown route", http("GET", "/v1/nope", &[], ""), 404, "no endpoint"),
        ("unknown method", http("DELETE", "/v1/dbms", &[], ""), 404, "no endpoint"),
    ];
    let server = SqalpelServer::new();
    for (case, req, status, says) in v1_cases {
        let resp = v1::handle(&server, None, &req);
        assert_eq!(resp.status, status, "{case}");
        let err = match v1::decode_reply(&Request::QueueSummary, resp.status, &resp.body) {
            Err(e) => e,
            Ok(r) => panic!("{case}: {r:?}"),
        };
        assert!(matches!(&err, PlatformError::Invalid(m) if m.contains(says)), "{case}: {err:?}");
    }
}
