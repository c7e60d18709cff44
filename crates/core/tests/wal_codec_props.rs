//! The durable formats, byte for byte.
//!
//! The WAL and the checkpoint are written straight to text by each
//! type's one description (the `serde` stand-in's `Serialize::serialize`
//! against a `TextSink`), and a bulk record is replayed element by
//! element off its line. Neither may change a byte of either format:
//!
//! * **The bytes are the parent's.** `tests/golden/` holds a log, its
//!   checkpoint and its CSV as the last value-tree build (7faa73a) wrote
//!   them from `golden/history.rs`: all 18 ops, every checkpoint line
//!   kind, hostile strings, a `u64` past `i64::MAX`, whole and fractional
//!   floats, every shape of `extras`, tasks in all five states. Encoding
//!   the same history today gives the same files, every line survives
//!   decode → encode unchanged, and a state directory holding either file
//!   opens to the same CSV.
//! * **Text sink == tree sink** on random records (non-finite floats
//!   included), which is what catches a description whose keys are not
//!   sorted; and for finite input encode → decode → encode is a fixed
//!   point.
//! * **The element-wise walk == whole-line parsing**, on the golden
//!   lines, on random bulk records whose texts look like the log's own
//!   structure — and a line cut at any byte is torn, never a panic.

use proptest::prelude::*;
use sqalpel_core::durability::{read_wal, write_snapshot, WalWriter, WAL_FILE};
use sqalpel_core::{
    recover, ContributorKey, DbmsEntry, ExperimentId, HostEntry, LoadAvg, OperatorProfile, Origin,
    PoolEntry, ProjectId, ProjectShard, QueryId, ResultRecord, SqalpelServer, Strategy, Task,
    TaskId, TaskState, UserId, Visibility, WalRecord,
};
use std::path::{Path, PathBuf};

include!("golden/history.rs");

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqalpel-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The log `records` make, as the writer frames it from LSN 1.
fn log_of<'a>(tag: &str, records: impl IntoIterator<Item = &'a WalRecord>) -> Vec<u8> {
    let dir = tmp_dir(tag);
    let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    drop(wal);
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// The records of a log, decoded the way replay decodes them.
fn replay(tag: &str, log: &[u8]) -> Vec<WalRecord> {
    let dir = tmp_dir(tag);
    std::fs::write(dir.join(WAL_FILE), log).unwrap();
    let mut wal = read_wal(&dir.join(WAL_FILE)).unwrap();
    let records: Vec<WalRecord> = wal.by_ref().map(|r| r.unwrap().1).collect();
    assert_eq!(wal.torn(), 0);
    assert_eq!(wal.intact_len(), log.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
    records
}

/// The JSON payload of one framed line.
fn payload(line: &str) -> &str {
    line.splitn(4, ' ').nth(3).unwrap()
}

fn text(r: &WalRecord) -> String {
    serde_json::to_string(r).unwrap()
}

#[test]
fn the_bytes_are_the_parents() {
    let parent_log = golden("wal_parent.log");
    let parent_snapshot = golden("snapshot_parent.jsonl");
    let parent_csv = String::from_utf8(golden("export_parent.csv")).unwrap();

    // The same history, encoded today.
    let history = history();
    assert_eq!(history.len(), 27);
    let ops: std::collections::BTreeSet<String> = history
        .iter()
        .map(|r| {
            serde::Serialize::to_value(r)["op"]
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(ops.len(), 18, "the fixture covers every op: {ops:?}");
    let log = log_of("golden-encode", &history);
    assert!(
        log == parent_log,
        "the log differs from the parent's:\n{}",
        String::from_utf8_lossy(&log)
    );

    // Every parent-written line: decode (element-wise) -> encode.
    let replayed = replay("golden-replay", &parent_log);
    assert_eq!(replayed.len(), history.len());
    assert!(log_of("golden-reencode", &replayed) == parent_log);
    // ... and the walk agrees with parsing the whole line into a tree.
    for (line, walked) in std::str::from_utf8(&parent_log)
        .unwrap()
        .lines()
        .zip(&replayed)
    {
        let whole: WalRecord = serde_json::from_str(payload(line)).unwrap();
        assert_eq!(text(walked), text(&whole));
        assert_eq!(text(walked), payload(line));
    }

    // A state dir holding the parent's log opens to the parent's CSV and
    // checkpoints to the parent's snapshot.
    let dir = tmp_dir("golden-log-dir");
    std::fs::write(dir.join(WAL_FILE), &parent_log).unwrap();
    let server = SqalpelServer::open(&dir).unwrap();
    assert_eq!(
        server.export_csv(ProjectId(1), UserId(1)).unwrap(),
        parent_csv
    );
    let s = server.queue_summary();
    assert_eq!(
        (s.queued, s.running, s.finished, s.failed, s.timed_out),
        (3, 1, 2, 1, 1)
    );
    let lsn = server.snapshot_now().unwrap();
    assert_eq!(lsn, 27);
    let snapshot_name = format!("snapshot-{lsn:020}.jsonl");
    let written = std::fs::read(dir.join(&snapshot_name)).unwrap();
    assert!(
        written == parent_snapshot,
        "the snapshot differs from the parent's:\n{}",
        String::from_utf8_lossy(&written)
    );
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();

    // A state dir holding the parent's snapshot: same CSV, and the
    // snapshot read back and written again is the same file.
    let dir = tmp_dir("golden-snapshot-dir");
    std::fs::write(dir.join(&snapshot_name), &parent_snapshot).unwrap();
    let recovered = recover(&dir).unwrap();
    assert_eq!(
        (recovered.snapshot_lsn, recovered.replayed_records),
        (27, 0)
    );
    let shards: Vec<&ProjectShard> = recovered.shards.iter().collect();
    let again = write_snapshot(&dir, 28, &recovered.global, &shards).unwrap();
    let again = String::from_utf8(std::fs::read(again).unwrap()).unwrap();
    let expect = String::from_utf8(parent_snapshot.clone())
        .unwrap()
        .replacen("\"lsn\":27", "\"lsn\":28", 1);
    assert_eq!(again, expect);
    drop(recovered);
    let server = SqalpelServer::open(&dir).unwrap();
    assert_eq!(
        server.export_csv(ProjectId(1), UserId(1)).unwrap(),
        parent_csv
    );
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_line_cut_at_any_byte_is_torn() {
    let parent_log = golden("wal_parent.log");
    let dir = tmp_dir("cut");
    let path = dir.join(WAL_FILE);
    let mut start = 0;
    for (n, line) in parent_log.split_inclusive(|&b| b == b'\n').enumerate() {
        // Every proper prefix of the line, behind the intact lines before it.
        for cut in 0..line.len() {
            std::fs::write(&path, &parent_log[..start + cut]).unwrap();
            let mut wal = read_wal(&path).unwrap();
            let intact = wal.by_ref().filter(|r| r.is_ok()).count();
            assert_eq!(intact, n, "line {n} cut at byte {cut}");
            assert_eq!(
                wal.torn(),
                usize::from(cut > 0),
                "line {n} cut at byte {cut}"
            );
            assert_eq!(wal.intact_len(), start as u64);
        }
        start += line.len();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------------- random records

/// splitmix64: the vendored proptest has no collection strategies, so a
/// case is a seed expanded here (same idiom as `queue_props`).
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

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Mostly small, sometimes anywhere in the u64 range.
    fn id(&mut self) -> u64 {
        match self.below(4) {
            0 => self.next(),
            _ => self.next() % 1000,
        }
    }

    /// Text out of the characters an escaper and a bracket matcher get
    /// wrong, with the log's own key names thrown in.
    fn text(&mut self) -> String {
        const PIECES: [&str; 24] = [
            "\"",
            "\\",
            "\n",
            "\t",
            "\r",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "✓",
            "😀",
            " ",
            "a",
            "Z",
            "[",
            "]",
            "{",
            "}",
            ":",
            ",",
            "\"tasks\":[",
            "\\\"",
            "null",
            "0",
        ];
        (0..self.below(12))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }

    fn opt_text(&mut self) -> Option<String> {
        self.coin().then(|| self.text())
    }

    fn float(&mut self, finite: bool) -> f64 {
        match self.below(if finite { 8 } else { 11 }) {
            0 => 0.0,
            1 => -0.0,
            2 => self.below(100_000) as f64,
            3 => self.below(100_000) as f64 / 64.0,
            4 => (self.next() as f64) * 1e3,
            5 => f64::from_bits(self.next() % (0x7ff << 52)),
            6 => -(self.below(1000) as f64) * 1e-9,
            7 => 1e15 * (1 + self.below(9000)) as f64,
            8 => f64::NAN,
            9 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }

    fn json(&mut self, depth: usize) -> serde_json::Value {
        use serde_json::Value;
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::Int(self.next() as i64),
            3 => Value::Float(self.float(true)),
            4 => Value::String(self.text()),
            5 => Value::Array((0..self.below(4)).map(|_| self.json(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(4))
                    .map(|_| (self.text(), self.json(depth - 1)))
                    .collect(),
            ),
        }
    }

    /// What the public `extras` field may hold: compact JSON (what the
    /// server stores), JSON with whitespace, or no JSON at all.
    fn extras(&mut self) -> String {
        let compact = self.json(2).to_string();
        match self.below(4) {
            0 => format!(" {compact}\n"),
            1 => format!("not json {}", self.text()),
            _ => compact,
        }
    }

    fn result(&mut self, finite: bool) -> ResultRecord {
        let mut load = || LoadAvg {
            one: self.float(finite),
            five: self.float(finite),
            fifteen: self.float(finite),
        };
        let (load_before, load_after) = (load(), load());
        ResultRecord {
            task: self.id(),
            project: self.id(),
            experiment: self.id(),
            query: self.id(),
            dbms_label: self.text().into(),
            host: self.text().into(),
            contributor: self.text(),
            times_ms: (0..self.below(5)).map(|_| self.float(finite)).collect(),
            rows: self.id() as usize,
            error: self.opt_text(),
            load_before,
            load_after,
            extras: self.extras(),
            hidden: self.coin(),
            fingerprint: self.coin().then(|| self.next()),
            profile: self.coin().then(|| {
                (0..self.below(3))
                    .map(|_| OperatorProfile {
                        op: self.text(),
                        rows_in: self.id(),
                        rows_out: self.id(),
                        batches: self.id(),
                        nanos: self.next(),
                        chunks_scanned: self.id(),
                        chunks_skipped: self.id(),
                    })
                    .collect()
            }),
        }
    }

    fn visibility(&mut self) -> Visibility {
        if self.coin() {
            Visibility::Public
        } else {
            Visibility::Private
        }
    }

    fn task(&mut self) -> Task {
        let state = match self.below(5) {
            0 => TaskState::Queued,
            1 => TaskState::Running {
                contributor: ContributorKey(self.text()),
            },
            2 => TaskState::Done,
            3 => TaskState::Failed(self.text()),
            _ => TaskState::TimedOut,
        };
        Task {
            id: TaskId(self.id()),
            project: ProjectId(self.id()),
            experiment: ExperimentId(self.id()),
            query: QueryId(self.id()),
            // Few distinct texts, so neighbours share.
            sql: ["select 1", "select '\"tasks\":[' , ']' , '}'", "\\\""][self.below(3)].into(),
            dbms_label: ["rowstore-2.0", "colstore-5.1"][self.below(2)].into(),
            host: ["bench-server", "raspberry-pi"][self.below(2)].into(),
            state,
            started: None,
        }
    }

    fn pool_entry(&mut self) -> PoolEntry {
        let origin = match self.below(3) {
            0 => Origin::Baseline,
            1 => Origin::Random,
            _ => Origin::Morph {
                strategy: [Strategy::Alter, Strategy::Expand, Strategy::Prune][self.below(3)],
                parent: QueryId(self.id()),
            },
        };
        PoolEntry {
            id: QueryId(self.id()),
            sql: self.text(),
            template: self.below(10),
            choice: (0..self.below(4))
                .map(|_| {
                    (
                        self.text(),
                        (0..self.below(3)).map(|_| self.below(9)).collect(),
                    )
                })
                .collect(),
            origin,
            step: self.below(1000),
            fingerprint: self.coin().then(|| self.next()),
        }
    }

    /// One record of op number `op` (0..18).
    fn record(&mut self, op: usize, finite: bool) -> WalRecord {
        let key = ContributorKey(self.text());
        let project = ProjectId(self.id());
        match op {
            0 => WalRecord::UserRegistered {
                id: UserId(self.id()),
                nickname: self.text(),
                email: self.text(),
            },
            1 => WalRecord::KeyIssued {
                user: UserId(self.id()),
                key,
                counter: self.next(),
            },
            2 => WalRecord::DbmsAdded {
                entry: DbmsEntry {
                    name: self.text(),
                    version: self.text(),
                    vendor: self.text(),
                    settings: (0..self.below(4))
                        .map(|_| (self.text(), self.text()))
                        .collect(),
                    visibility: self.visibility(),
                },
            },
            3 => WalRecord::HostAdded {
                entry: HostEntry {
                    name: self.text(),
                    cpu: self.text(),
                    cores: self.next() as u32,
                    ram_gb: self.next() as u32,
                    os: self.text(),
                    visibility: self.visibility(),
                },
            },
            4 => WalRecord::ProjectCreated {
                id: project,
                owner: UserId(self.id()),
                title: self.text(),
                synopsis: self.text(),
                visibility: self.visibility(),
            },
            5 => WalRecord::Invited {
                project,
                user: UserId(self.id()),
            },
            6 => WalRecord::TargetsSet {
                project,
                dbms_labels: (0..self.below(4)).map(|_| self.text()).collect(),
                hosts: (0..self.below(3)).map(|_| self.text()).collect(),
            },
            7 => WalRecord::CommentAdded {
                project,
                author: UserId(self.id()),
                text: self.text(),
            },
            8 => WalRecord::TakenDown { project },
            9 => WalRecord::ExperimentAdded {
                project,
                id: ExperimentId(self.id()),
                title: self.text(),
                baseline_sql: self.text(),
                grammar: self.text(),
                template_cap: self.id() as usize,
                pool_cap: self.id() as usize,
                dialect: self.opt_text(),
            },
            10 => WalRecord::PoolExtended {
                project,
                experiment: ExperimentId(self.id()),
                entries: (0..self.below(5)).map(|_| self.pool_entry()).collect(),
            },
            11 => WalRecord::TasksEnqueued {
                project,
                tasks: (0..self.below(7)).map(|_| self.task()).collect(),
            },
            12 => WalRecord::TaskClaimed {
                task: TaskId(self.id()),
                key,
            },
            13 => WalRecord::ReportAccepted {
                task: TaskId(self.id()),
                key,
                error: self.opt_text(),
                record: self.result(finite),
            },
            14 => WalRecord::ReportBatchAccepted {
                key,
                items: (0..self.below(4))
                    .map(|_| (TaskId(self.id()), self.opt_text(), self.result(finite)))
                    .collect(),
            },
            15 => WalRecord::TasksReaped {
                project,
                tasks: (0..self.below(5)).map(|_| TaskId(self.id())).collect(),
            },
            16 => WalRecord::TaskRequeued {
                task: TaskId(self.id()),
            },
            _ => WalRecord::ResultHidden {
                project,
                index: self.id() as usize,
                hidden: self.coin(),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two sinks print the same JSON for every op, non-finite floats
    /// included (both print `null`).
    #[test]
    fn text_sink_equals_tree_sink(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for op in 0..18 {
            let record = rng.record(op, false);
            prop_assert_eq!(text(&record), serde::Serialize::to_value(&record).to_string(), "op {}", op);
        }
    }

    /// Finite input: what was written decodes, and encodes to the same
    /// bytes again — through the whole-line tree and through the
    /// element-wise walk replay takes.
    #[test]
    fn encode_decode_encode_is_a_fixed_point(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let records: Vec<WalRecord> = (0..18).map(|op| rng.record(op, true)).collect();
        let log = log_of(&format!("fixed-{seed:x}"), &records);
        let walked = replay(&format!("walk-{seed:x}"), &log);
        prop_assert_eq!(walked.len(), records.len());
        for ((line, written), walked) in std::str::from_utf8(&log).unwrap().lines().zip(&records).zip(&walked) {
            let whole: WalRecord = serde_json::from_str(payload(line)).unwrap();
            prop_assert_eq!(text(&whole), payload(line), "written as {}", text(written));
            prop_assert_eq!(text(walked), payload(line));
        }
    }
}
