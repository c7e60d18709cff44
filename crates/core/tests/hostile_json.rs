//! Hostile JSON: every reader returns `Ok` or `Err`, never a panic, never
//! an abort.
//!
//! Random bytes, and the parent's own log and checkpoint lines mutated —
//! bytes flipped, bytes inserted (deep nesting among them), lines cut —
//! go through every way the platform reads JSON: a `Value`, a WAL record,
//! a checkpoint line, the v1 request bodies and reply bodies, and the v2
//! JSON-text fields (a catalog entry, `extras` on a report and on a
//! results reply, a metrics snapshot). A panic fails the case; a stack
//! overflow would take the whole run down.
//!
//! What reads is a fixed point: it encodes to text that reads back to the
//! same encoding. And the printer and the reader agree: a random value's
//! text reads back to print byte for byte, and `scan_compact` accepts it
//! whole when its integers keep to the 18 digits the scan holds them to.

use proptest::prelude::*;
use serde::text::scan_compact;
use serde::{Deserialize, Serialize, Value};
use sqalpel_core::durability::{SnapshotLine, WalRecord};
use sqalpel_core::wire::proto::{v1, v2};
use sqalpel_core::wire::transport::http::Request as HttpRequest;
use sqalpel_core::wire::{Reply, Request};
use sqalpel_core::{
    ContributorKey, DbmsEntry, ExperimentId, MetricsRegistry, PlatformError, ProjectId,
    ResultRecord, RunOutcome, TaskId, UserId, Visibility,
};
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// splitmix64, as in `wal_codec_props`: a case is a seed expanded here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte a JSON reader has to think about, or any byte.
    fn byte(&mut self) -> u8 {
        const TRICKY: &[u8] = b"[]{}\":,\\u0123456789abcdefABCDEF-+.eE ntrufalsd\n\t\x00\x1f\x7f\xc3\xa9\xed\xa0\x80";
        match self.below(4) {
            0 => self.next() as u8,
            _ => TRICKY[self.below(TRICKY.len())],
        }
    }

    /// `text` flipped, grown or cut a few times.
    fn mutate(&mut self, text: &[u8]) -> Vec<u8> {
        let mut b = text.to_vec();
        for _ in 0..1 + self.below(4) {
            let at = self.below(b.len() + 1);
            match self.below(7) {
                0 | 1 if at < b.len() => b[at] = self.byte(),
                2 => b.truncate(at),
                3 => {
                    let n = [2, 130, 1000][self.below(3)];
                    let open = if self.below(2) == 0 { "[" } else { "{\"k\":" };
                    let deep = open.repeat(n);
                    b.splice(at..at, deep.bytes());
                }
                4 if at < b.len() => {
                    b.remove(at);
                }
                5 => {
                    let escape = ["\\ud83d", "\\ude00", "\\ud83d\\ude00", "\\u+12", "\\u12", "\\x", "1e999", "-0"];
                    b.splice(at..at, escape[self.below(escape.len())].bytes());
                }
                _ => {
                    let by = self.byte();
                    b.insert(at, by);
                }
            }
        }
        b
    }

    fn bytes(&mut self) -> Vec<u8> {
        (0..self.below(64)).map(|_| self.byte()).collect()
    }

    /// A random value; `wide`, its numbers take the whole `i64` and
    /// finite `f64` range, else they print in at most 18 integer digits
    /// (what `scan_compact` holds an integer to).
    fn value(&mut self, depth: usize, wide: bool) -> Value {
        let sign = [1.0, -1.0][self.below(2)];
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 0),
            2 if wide => Value::Int(self.next() as i64),
            2 => Value::Int((self.next() % 10u64.pow(18)) as i64 * sign as i64),
            3 if wide => Value::Float(sign * f64::from_bits(self.next() % (0x7ff << 52))),
            3 => Value::Float(sign * (self.next() % (1 << 53)) as f64 / 2f64.powi(self.below(1100) as i32)),
            4 => Value::String(String::from_utf8_lossy(&self.bytes()).into_owned()),
            5 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1, wide)).collect()),
            _ => Value::Object(
                (0..self.below(4))
                    .map(|_| (String::from_utf8_lossy(&self.bytes()).into_owned(), self.value(depth - 1, wide)))
                    .collect(),
            ),
        }
    }
}

/// Read `text` as a `T`; if it reads, what it encodes to reads back and
/// encodes the same.
fn fixed_point<T: Serialize + Deserialize>(what: &str, text: &str) {
    if let Ok(v) = serde_json::from_str::<T>(text) {
        let once = serde_json::to_string(&v).unwrap();
        let back: T = serde_json::from_str(&once).unwrap_or_else(|e| panic!("{what}: {text:?} read, {once:?} does not: {e}"));
        assert_eq!(serde_json::to_string(&back).unwrap(), once, "{what}: {text:?}");
    }
}

/// Every text reader of the platform on `bytes`.
fn read_everything(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    fixed_point::<Value>("Value", &text);
    fixed_point::<WalRecord>("WalRecord", &text);
    fixed_point::<SnapshotLine>("SnapshotLine", &text);
    fixed_point::<ResultRecord>("ResultRecord", &text);
    fixed_point::<PlatformError>("PlatformError", &text);
    for (method, path) in [
        ("POST", "/v1/user/register"),
        ("POST", "/v1/dbms"),
        ("POST", "/v1/project/1/comment"),
        ("POST", "/v1/result/report"),
        ("POST", "/v1/result/report_batch"),
        ("POST", "/v1/execute"),
    ] {
        let req = HttpRequest { method: method.into(), path: path.into(), query: Vec::new(), body: bytes.to_vec() };
        if let Ok(op) = v1::decode_http(&req) {
            let again = v1::decode_http(&v1::encode_request(&op)).unwrap();
            assert_eq!(format!("{again:?}"), format!("{op:?}"), "{path}: {text:?}");
        }
    }
    let key = ContributorKey("ck".into());
    for (op, status) in [
        (Request::ResultsForKey { project: ProjectId(1), key: key.clone() }, 200),
        (Request::Metrics, 200),
        (Request::QueueSummary, 200),
        (Request::Execute { sql: "select 1".into(), fingerprint: None }, 200),
        (Request::QueueSummary, 404),
    ] {
        if let Ok(reply) = v1::decode_reply(&op, status, bytes) {
            let resp = v1::encode_reply(&Ok(reply.clone()));
            let again = v1::decode_reply(&op, resp.status, &resp.body).unwrap();
            assert_eq!(format!("{again:?}"), format!("{reply:?}"), "{op:?}: {text:?}");
        }
    }
}

/// `frame`'s body with the JSON text `json` (length-prefixed inside it)
/// replaced by `with`.
fn swap_json(frame: &[u8], json: &str, with: &[u8]) -> Vec<u8> {
    let mut prefixed = (json.len() as u32).to_le_bytes().to_vec();
    prefixed.extend_from_slice(json.as_bytes());
    let body = &frame[v2::HEADER_LEN..];
    let at = body.windows(prefixed.len()).position(|w| w == prefixed).unwrap();
    let mut out = body[..at].to_vec();
    out.extend_from_slice(&(with.len() as u32).to_le_bytes());
    out.extend_from_slice(with);
    out.extend_from_slice(&body[at + prefixed.len()..]);
    out
}

/// The v2 frames that carry JSON text, with `json` in that text's place.
fn v2_json_fields(json: &[u8]) {
    let entry = DbmsEntry {
        name: "rowstore".into(),
        version: "2.0".into(),
        vendor: "v".into(),
        settings: Default::default(),
        visibility: Visibility::Public,
    };
    let add = v2::encode_request_frame(1, &Request::AddDbms { entry: entry.clone() });
    let outcome = RunOutcome {
        times_ms: vec![1.0],
        rows: 1,
        error: None,
        load_before: Default::default(),
        load_after: Default::default(),
        extras: serde_json::json!({"marker": "extras"}),
        fingerprint: None,
        profile: None,
    };
    let extras = outcome.extras.to_string();
    let report = v2::encode_request_frame(
        2,
        &Request::ReportResult { key: ContributorKey("ck".into()), task: TaskId(1), outcome: outcome.clone() },
    );
    for body in [
        swap_json(&add, &serde_json::to_string(&entry).unwrap(), json),
        swap_json(&report, &extras, json),
    ] {
        if let Ok(v2::DecodedRequest::Op(op)) = v2::decode_request(&body) {
            let again = v2::encode_request_frame(1, &op);
            match v2::decode_request(&again[v2::HEADER_LEN..]) {
                Ok(v2::DecodedRequest::Op(back)) => assert_eq!(format!("{back:?}"), format!("{op:?}")),
                other => panic!("{op:?} re-encoded reads as {other:?}"),
            }
        }
    }
    let record = sqalpel_core::results::record(
        TaskId(1),
        ProjectId(1),
        ExperimentId(0),
        sqalpel_core::QueryId(0),
        "rowstore-2.0",
        "bench-server",
        &ContributorKey("ck".into()),
        sqalpel_core::RunOutcome { times_ms: vec![1.0], rows: 1, ..Default::default() },
    );
    let results = v2::encode_reply_frame(1, &Ok(Reply::Results(vec![ResultRecord { extras: extras.clone(), ..record }])));
    let metrics = MetricsRegistry::new();
    metrics.incr("wire.requests");
    let snapshot = metrics.snapshot();
    let metrics = v2::encode_reply_frame(2, &Ok(Reply::Metrics(snapshot.clone())));
    for body in [
        swap_json(&results, &extras, json),
        swap_json(&metrics, &serde_json::to_string(&snapshot).unwrap(), json),
    ] {
        if let Ok(v2::DecodedReply::Outcome(Ok(reply))) = v2::decode_reply(&body) {
            let again = v2::encode_reply_frame(1, &Ok(reply.clone()));
            match v2::decode_reply(&again[v2::HEADER_LEN..]) {
                Ok(v2::DecodedReply::Outcome(Ok(back))) => assert_eq!(format!("{back:?}"), format!("{reply:?}")),
                other => panic!("{reply:?} re-encoded reads as {other:?}"),
            }
        }
    }
}

/// Lines of the parent's log (the JSON payloads) and checkpoint, and the
/// v1 bodies of a few requests and replies.
fn valid_inputs() -> Vec<Vec<u8>> {
    let log = golden("wal_parent.log");
    let snapshot = golden("snapshot_parent.jsonl");
    let mut inputs: Vec<Vec<u8>> = log
        .lines()
        .map(|l| l.splitn(4, ' ').nth(3).unwrap().as_bytes().to_vec())
        .chain(snapshot.lines().map(|l| l.as_bytes().to_vec()))
        .collect();
    let register = Request::RegisterUser { nickname: "mlk".into(), email: "m@cwi.nl".into() };
    let comment = Request::Comment { project: ProjectId(1), author: UserId(1), text: "😀 \"q\"".into() };
    for op in [register, comment] {
        inputs.push(v1::encode_request(&op).body);
    }
    inputs.push(v1::encode_reply(&Err(PlatformError::UnknownTask(7))).body);
    inputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated valid lines and bodies, and random bytes, through every
    /// reader: `Ok` or `Err`, and what reads is a fixed point.
    #[test]
    fn no_input_panics_any_reader(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let inputs = valid_inputs();
        for _ in 0..4 {
            let input = &inputs[rng.below(inputs.len())];
            let mutated = rng.mutate(input);
            read_everything(&mutated);
            v2_json_fields(&mutated);
        }
        let noise = rng.bytes();
        read_everything(&noise);
        v2_json_fields(&noise);
    }

    /// What the printer writes the reader reads back to the same bytes;
    /// and `scan_compact` accepts it whole unless an integer in it runs
    /// past 18 digits.
    #[test]
    fn the_reader_reads_what_the_printer_writes(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for wide in [true, false] {
            let text = rng.value(4, wide).to_string();
            let back: Value = serde_json::from_str(&text).unwrap();
            prop_assert_eq!(back.to_string(), text.as_str());
            if !wide {
                prop_assert_eq!(scan_compact(&text), Some(text.len()), "{}", text);
            }
        }
    }
}

/// Every line the parent wrote reads, and is already a fixed point.
#[test]
fn valid_inputs_read_and_print_back() {
    for input in valid_inputs() {
        let text = std::str::from_utf8(&input).unwrap();
        let v: Value = serde_json::from_str(text).unwrap();
        assert_eq!(v.to_string(), text);
        read_everything(&input);
    }
}
