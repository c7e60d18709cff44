//! The durable formats, byte for byte.
//!
//! The WAL and the checkpoint are written straight to text by each
//! type's one description (the `serde` stand-in's `Serialize::serialize`
//! against a `TextSink`) and read straight off it by the reader the same
//! table generates. Neither may change a byte of either format:
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
//! * **The reader agrees with the printer**: every golden line, and every
//!   line of random records whose texts look like the log's own
//!   structure, read as a `Value` by the same tokenizer prints back byte
//!   for byte — and a line cut at any byte is torn, never a panic.
//! * **Every JSON type, not only the log's records**: text sink == tree
//!   sink and encode → decode → encode on random values of each type the
//!   platform writes as JSON (the v1 wire's DTOs and every checkpoint
//!   line kind included).
//! * **Legacy input still reads**: each key an older writer may leave out
//!   decodes to its default when absent; every other key is required.
//!   A value that is present but mistyped — a fingerprint that is not
//!   hex — is an error, and a logged line holding one fails replay
//!   naming its LSN.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use sqalpel_core::durability::{read_snapshot, read_wal, write_snapshot, SnapshotLine, WalWriter, WAL_FILE};
use sqalpel_core::project::Comment;
use sqalpel_core::wire::{CacheStatus, ExecOutcome, WireResultSet, WireValue};
use sqalpel_core::{
    recover, ContributorKey, DbmsEntry, ExperimentId, HistogramSummary, HostEntry, LoadAvg,
    MetricsSnapshot, OperatorProfile, Origin, PlatformError, PoolEntry, ProjectId, ProjectShard,
    QueryId, QueueSummary, ResultRecord, Role, RunOutcome, SqalpelServer, Strategy, Task, TaskId,
    TaskState, UserId, Visibility, WalRecord,
};
use std::borrow::Cow;
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

    // Every parent-written line: decode -> encode.
    let replayed = replay("golden-replay", &parent_log);
    assert_eq!(replayed.len(), history.len());
    assert!(log_of("golden-reencode", &replayed) == parent_log);
    // ... and read as a tree by the same tokenizer, it prints back.
    for (line, replayed) in std::str::from_utf8(&parent_log)
        .unwrap()
        .lines()
        .zip(&replayed)
    {
        assert_eq!(text(replayed), payload(line));
        let tree: Value = serde_json::from_str(payload(line)).unwrap();
        assert_eq!(tree.to_string(), payload(line));
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

    /// A claim nonce, or none.
    fn nonce(&mut self) -> Option<u64> {
        self.coin().then(|| self.id())
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
                claim: self.nonce(),
                contributor: ContributorKey(self.text().into()),
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
        let key = ContributorKey(self.text().into());
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
                claim: self.nonce(),
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

    fn outcome(&mut self, finite: bool) -> RunOutcome {
        let r = self.result(finite);
        RunOutcome {
            times_ms: r.times_ms,
            rows: r.rows,
            error: r.error,
            load_before: r.load_before,
            load_after: r.load_after,
            extras: self.json(2),
            fingerprint: r.fingerprint,
            profile: r.profile,
        }
    }

    fn dbms(&mut self) -> DbmsEntry {
        match self.record(2, true) {
            WalRecord::DbmsAdded { entry } => entry,
            _ => unreachable!(),
        }
    }

    fn host(&mut self) -> HostEntry {
        match self.record(3, true) {
            WalRecord::HostAdded { entry } => entry,
            _ => unreachable!(),
        }
    }

    fn summary(&mut self) -> QueueSummary {
        QueueSummary {
            queued: self.id() as usize,
            running: self.id() as usize,
            finished: self.id() as usize,
            failed: self.id() as usize,
            timed_out: self.id() as usize,
        }
    }

    fn histogram(&mut self) -> HistogramSummary {
        HistogramSummary {
            count: self.id(),
            sum: self.next(),
            p50: self.id(),
            p95: self.next(),
            p99: self.id(),
        }
    }

    /// Names sorted and distinct, as a registry snapshot holds them.
    fn metrics(&mut self) -> MetricsSnapshot {
        let counters: std::collections::BTreeMap<String, u64> = (0..self.below(4))
            .map(|_| (self.text(), self.next()))
            .collect();
        let histograms: std::collections::BTreeMap<String, HistogramSummary> = (0..self.below(3))
            .map(|_| (self.text(), self.histogram()))
            .collect();
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }

    fn cell(&mut self, finite: bool) -> WireValue {
        match self.below(8) {
            0 => WireValue::Null,
            1 => WireValue::Bool(self.coin()),
            2 => WireValue::Int(self.next() as i64),
            3 => WireValue::Float(self.float(finite)),
            4 => WireValue::Decimal {
                raw: (self.next() as i64 as i128) * (self.next() as i128),
                scale: self.below(256) as u8,
            },
            5 => WireValue::Str(self.text()),
            6 => WireValue::Date(self.next() as i32),
            _ => WireValue::Interval {
                months: self.next() as i32,
                days: self.next() as i32,
            },
        }
    }

    fn execution(&mut self, finite: bool) -> ExecOutcome {
        let (ncols, nrows) = (self.below(4), self.below(4));
        ExecOutcome {
            result: WireResultSet {
                columns: (0..ncols).map(|_| self.text()).collect(),
                data: (0..ncols)
                    .map(|_| (0..nrows).map(|_| self.cell(finite)).collect())
                    .collect(),
            },
            fingerprint: self.next(),
            cache: [
                CacheStatus::Hit,
                CacheStatus::Miss,
                CacheStatus::Reoptimized,
                CacheStatus::Bypass,
            ][self.below(4)],
        }
    }

    fn error(&mut self) -> PlatformError {
        let (text, n) = (self.text(), self.next());
        match self.below(12) {
            0 => PlatformError::Invalid(text),
            1 => PlatformError::UnknownUser(n),
            2 => PlatformError::UnknownProject(n),
            3 => PlatformError::UnknownExperiment(n),
            4 => PlatformError::UnknownTask(n),
            5 => PlatformError::UnknownQuery(n),
            6 => PlatformError::AccessDenied(text),
            7 => PlatformError::Grammar(text),
            8 => PlatformError::PoolFull(n as usize),
            9 => PlatformError::Publication(text),
            10 => PlatformError::Transport(text),
            _ => PlatformError::Throttled(text),
        }
    }

    fn role(&mut self) -> Role {
        [Role::None, Role::Reader, Role::Contributor, Role::Owner][self.below(4)]
    }

    /// One checkpoint line of each of the twelve kinds.
    fn snapshot_lines(&mut self, finite: bool) -> Vec<SnapshotLine<'static>> {
        let project = Some(SnapshotLine::Project {
            comments: (0..self.below(3))
                .map(|_| Comment { author: UserId(self.id()), text: self.text() })
                .collect::<Vec<_>>()
                .into(),
            contributors: Cow::Owned((0..self.below(4)).map(|_| UserId(self.id())).collect()),
            dbms_labels: (0..self.below(3)).map(|_| self.text()).collect::<Vec<_>>().into(),
            hosts: (0..self.below(3)).map(|_| self.text()).collect::<Vec<_>>().into(),
            id: ProjectId(self.id()),
            owner: UserId(self.id()),
            synopsis: self.text().into(),
            taken_down: self.coin(),
            title: self.text().into(),
            visibility: self.visibility(),
        });
        let experiment = Some(SnapshotLine::Experiment {
            baseline_sql: self.text().into(),
            dialect: self.opt_text().map(Cow::Owned),
            grammar: self.text(),
            id: ExperimentId(self.id()),
            pool_cap: self.id() as usize,
            project: ProjectId(self.id()),
            template_cap: self.id() as usize,
            title: self.text().into(),
        });
        [
            Some(SnapshotLine::Meta { lsn: self.next(), projects: self.id() as usize }),
            Some(SnapshotLine::User { email: self.text().into(), id: UserId(self.id()), nickname: self.text().into() }),
            Some(SnapshotLine::Key { key: Cow::Owned(ContributorKey(self.text().into())), user: UserId(self.id()) }),
            Some(SnapshotLine::KeyCounter { value: self.next() }),
            Some(SnapshotLine::Dbms { entry: Cow::Owned(self.dbms()) }),
            Some(SnapshotLine::Host { entry: Cow::Owned(self.host()) }),
            project,
            experiment,
            Some(SnapshotLine::PoolEntry {
                entry: Cow::Owned(self.pool_entry()),
                experiment: ExperimentId(self.id()),
                project: ProjectId(self.id()),
            }),
            Some(SnapshotLine::Task(Cow::Owned(self.task()))),
            Some(SnapshotLine::Result(Cow::Owned(self.result(finite)))),
            Some(SnapshotLine::End),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// `v` prints the same JSON through the text sink and the tree sink; and
/// when `finite`, what it prints decodes and prints to the same text.
fn one_description<T: Serialize + Deserialize>(what: &str, v: &T, finite: bool) {
    let text = serde_json::to_string(v).unwrap();
    assert_eq!(
        text,
        v.to_value().to_string(),
        "{what}: text sink != tree sink"
    );
    if finite {
        let back: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{what}: {text}: {e}"));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            text,
            "{what}: decode moved bytes"
        );
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

    /// Finite input: what was written replays, and encodes to the same
    /// bytes again; read as a tree by the same tokenizer, each line
    /// prints back unchanged.
    #[test]
    fn encode_decode_encode_is_a_fixed_point(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let records: Vec<WalRecord> = (0..18).map(|op| rng.record(op, true)).collect();
        let log = log_of(&format!("fixed-{seed:x}"), &records);
        let replayed = replay(&format!("replay-{seed:x}"), &log);
        prop_assert_eq!(replayed.len(), records.len());
        for ((line, written), replayed) in std::str::from_utf8(&log).unwrap().lines().zip(&records).zip(&replayed) {
            prop_assert_eq!(text(replayed), payload(line), "written as {}", text(written));
            let tree: Value = serde_json::from_str(payload(line)).unwrap();
            prop_assert_eq!(tree.to_string(), payload(line));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every type the platform writes as JSON — the log's members and the
    /// v1 wire's DTOs — prints the same through both sinks, non-finite
    /// floats included, and finite values survive encode -> decode ->
    /// encode.
    #[test]
    fn every_json_type_round_trips(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for finite in [false, true] {
            let r = rng.result(finite);
            one_description("ResultRecord", &r, finite);
            one_description("LoadAvg", &r.load_after, finite);
            for op in r.profile.iter().flatten() {
                one_description("OperatorProfile", op, finite);
            }
            one_description("RunOutcome", &rng.outcome(finite), finite);
            one_description("DbmsEntry", &rng.dbms(), finite);
            one_description("HostEntry", &rng.host(), finite);
            one_description("Visibility", &rng.visibility(), finite);
            let task = rng.task();
            one_description("Task", &task, finite);
            one_description("TaskState", &task.state, finite);
            one_description("QueueSummary", &rng.summary(), finite);
            let entry = rng.pool_entry();
            one_description("PoolEntry", &entry, finite);
            one_description("Origin", &entry.origin, finite);
            one_description("HistogramSummary", &rng.histogram(), finite);
            one_description("MetricsSnapshot", &rng.metrics(), finite);
            let exec = rng.execution(finite);
            one_description("ExecOutcome", &exec, finite);
            one_description("WireResultSet", &exec.result, finite);
            for cell in exec.result.data.iter().flatten() {
                one_description("WireValue", cell, finite);
            }
            one_description("PlatformError", &rng.error(), finite);
            one_description("Role", &rng.role(), finite);
            for line in rng.snapshot_lines(finite) {
                one_description("SnapshotLine", &line, finite);
            }
        }
    }
}

// ----------------------------------------------------------- legacy input

/// A default an older writer's input decodes to: `full` with the field
/// behind one key reset.
type Reset<T> = fn(&mut T);

/// Decode `full`'s JSON with each of its keys left out in turn. A key
/// `tolerated` names decodes to `full` with that field reset; every
/// other key is required, and leaving it out is an error. Returns how
/// many tolerated keys the value carried.
fn legacy_input<T: Serialize + Deserialize + Clone>(
    what: &str,
    full: &T,
    tolerated: &[(&str, Reset<T>)],
) -> usize {
    let Value::Object(members) = full.to_value() else {
        panic!("{what}: not an object")
    };
    let mut seen = 0;
    for key in members.keys() {
        let mut cut = members.clone();
        cut.remove(key);
        let got: Result<T, _> = serde_json::from_str(&Value::Object(cut).to_string());
        match tolerated.iter().find(|(k, _)| k == key) {
            Some((_, reset)) => {
                seen += 1;
                let mut want = full.clone();
                reset(&mut want);
                let got = got.unwrap_or_else(|e| panic!("{what}.{key} left out: {e}"));
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&want).unwrap(),
                    "{what}.{key} left out"
                );
            }
            None => assert!(
                got.is_err(),
                "{what}.{key} is required, yet decoded without it"
            ),
        }
    }
    seen
}

fn full_record() -> ResultRecord {
    let mut r = result(0, 3, "rowstore-2.0", vec![1.5, 2.0], Some("boom"));
    r.extras = r#"{"k":[1,2]}"#.into();
    r.hidden = true;
    r.fingerprint = Some(0xfeed_face_cafe_beef);
    r.profile = Some(vec![OperatorProfile {
        op: "scan nation".into(),
        rows_in: 25,
        rows_out: 5,
        batches: 1,
        nanos: 77,
        chunks_scanned: 3,
        chunks_skipped: 1,
    }]);
    r
}

fn full_outcome() -> RunOutcome {
    let r = full_record();
    RunOutcome {
        times_ms: r.times_ms,
        rows: r.rows,
        error: r.error,
        load_before: r.load_before,
        load_after: r.load_after,
        extras: serde_json::json!({"cache": "warm"}),
        fingerprint: r.fingerprint,
        profile: r.profile,
    }
}

/// The keys older writers leave out, and what each decodes to.
#[test]
fn legacy_input_decodes_to_its_defaults() {
    let record = full_record();
    let n = legacy_input(
        "ResultRecord",
        &record,
        &[
            ("error", |r| r.error = None),
            ("extras", |r| r.extras = "null".into()),
            ("fingerprint", |r| r.fingerprint = None),
            ("hidden", |r| r.hidden = false),
            ("profile", |r| r.profile = None),
        ],
    );
    assert_eq!(n, 5);
    let op = record.profile.clone().unwrap().remove(0);
    let n = legacy_input(
        "OperatorProfile",
        &op,
        &[
            ("chunks_scanned", |o| o.chunks_scanned = 0),
            ("chunks_skipped", |o| o.chunks_skipped = 0),
        ],
    );
    assert_eq!(n, 2);
    assert_eq!(legacy_input("LoadAvg", &record.load_after, &[]), 0);
    let n = legacy_input(
        "RunOutcome",
        &full_outcome(),
        &[
            ("error", |o| o.error = None),
            ("extras", |o| o.extras = Value::Null),
            ("fingerprint", |o| o.fingerprint = None),
            ("profile", |o| o.profile = None),
        ],
    );
    assert_eq!(n, 4);

    let WalRecord::DbmsAdded { entry } = &history()[3] else {
        panic!()
    };
    let n = legacy_input("DbmsEntry", entry, &[("settings", |e| e.settings.clear())]);
    assert_eq!(n, 1);
    let WalRecord::HostAdded { entry } = &history()[4] else {
        panic!()
    };
    assert_eq!(legacy_input("HostEntry", entry, &[]), 0);

    let mut t = task(1, 0, "select 1", "rowstore-2.0");
    assert_eq!(legacy_input("Task", &t, &[]), 0);
    for state in [
        TaskState::Queued,
        TaskState::Running { claim: None, contributor: key() },
        TaskState::Failed("boom".into()),
    ] {
        t.state = state;
        assert_eq!(legacy_input("TaskState", &t.state, &[]), 0);
    }
    // A claim's nonce: state lines and claim records written before
    // claims kept one read as "answers any nonce".
    let running = TaskState::Running { claim: Some(u64::MAX), contributor: key() };
    let n = legacy_input(
        "TaskState",
        &running,
        &[("claim", |s| {
            if let TaskState::Running { claim, .. } = s {
                *claim = None;
            }
        })],
    );
    assert_eq!(n, 1);
    let claimed = WalRecord::TaskClaimed { task: TaskId(1 << 32), key: key(), claim: Some(9) };
    let n = legacy_input(
        "WalRecord",
        &claimed,
        &[("claim", |r| {
            if let WalRecord::TaskClaimed { claim, .. } = r {
                *claim = None;
            }
        })],
    );
    assert_eq!(n, 1);
    let summary = QueueSummary {
        queued: 1,
        running: 2,
        finished: 3,
        failed: 4,
        timed_out: 5,
    };
    assert_eq!(legacy_input("QueueSummary", &summary, &[]), 0);

    let WalRecord::PoolExtended { entries, .. } = &history()[11] else {
        panic!()
    };
    let n = legacy_input(
        "PoolEntry",
        &entries[2],
        &[("fingerprint", |e| e.fingerprint = None)],
    );
    assert_eq!(n, 1);
    assert_eq!(legacy_input("Origin", &entries[2].origin, &[]), 0);

    let histogram = HistogramSummary {
        count: 2,
        sum: 300,
        p50: 100,
        p95: 200,
        p99: 200,
    };
    assert_eq!(legacy_input("HistogramSummary", &histogram, &[]), 0);
    let snapshot = MetricsSnapshot {
        counters: vec![("wire.requests".into(), 3)],
        histograms: vec![("wire.latency".into(), histogram)],
    };
    assert_eq!(legacy_input("MetricsSnapshot", &snapshot, &[]), 0);
    let exec = ExecOutcome {
        result: WireResultSet {
            columns: vec!["a".into()],
            data: vec![vec![WireValue::Int(1), WireValue::Null]],
        },
        fingerprint: 0xdead_beef,
        cache: CacheStatus::Hit,
    };
    assert_eq!(legacy_input("ExecOutcome", &exec, &[]), 0);
    assert_eq!(legacy_input("WireResultSet", &exec.result, &[]), 0);
    // The message is derived from code and detail, never read.
    let n = legacy_input(
        "PlatformError",
        &PlatformError::UnknownTask(9),
        &[("message", |_| {})],
    );
    assert_eq!(n, 1);

    // Every op of the log: `dialect` and a report's `error` may be left
    // out, nothing else.
    let mut seen = 0;
    for record in history() {
        seen += legacy_input(
            "WalRecord",
            &record,
            &[
                ("dialect", |r| {
                    if let WalRecord::ExperimentAdded { dialect, .. } = r {
                        *dialect = None;
                    }
                }),
                ("error", |r| {
                    if let WalRecord::ReportAccepted { error, .. } = r {
                        *error = None;
                    }
                }),
            ],
        );
    }
    assert_eq!(
        seen, 2,
        "the history carries one dialect and one report error"
    );
    // Every checkpoint line kind: a project's `taken_down` and an
    // experiment's `dialect` may be left out, nothing else.
    let snapshot = String::from_utf8(golden("snapshot_parent.jsonl")).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    let mut seen = 0;
    for text in snapshot.lines() {
        let line: SnapshotLine = serde_json::from_str(text).unwrap();
        kinds.insert(line.to_value()["t"].as_str().unwrap().to_string());
        seen += legacy_input(
            "SnapshotLine",
            &line,
            &[
                ("dialect", |l| {
                    if let SnapshotLine::Experiment { dialect, .. } = l {
                        *dialect = None;
                    }
                }),
                ("taken_down", |l| {
                    if let SnapshotLine::Project { taken_down, .. } = l {
                        *taken_down = false;
                    }
                }),
            ],
        );
    }
    assert_eq!(kinds.len(), 12, "the fixture holds every line kind: {kinds:?}");
    assert_eq!(seen, 3, "the fixture carries two projects and one dialect");
    // ... and inside a batch, an item's `error` may be left out too.
    let batch = history()
        .into_iter()
        .find(|r| matches!(r, WalRecord::ReportBatchAccepted { .. }))
        .unwrap();
    for (key, tolerated) in [("error", true), ("record", false), ("task", false)] {
        let mut v = batch.to_value();
        let Value::Object(members) = &mut v else {
            panic!()
        };
        let Some(Value::Array(items)) = members.get_mut("items") else {
            panic!()
        };
        let Value::Object(item) = &mut items[1] else {
            panic!()
        };
        assert!(item.remove(key).is_some(), "items[1].{key}");
        let got = serde_json::from_str::<WalRecord>(&v.to_string());
        if tolerated {
            let WalRecord::ReportBatchAccepted { items, .. } = got.unwrap() else {
                panic!()
            };
            assert_eq!(items[1].1, None);
        } else {
            assert!(got.is_err(), "items[1].{key} is required");
        }
    }
}

/// A present value of the wrong type is an error naming its key, never a
/// silent default: a fingerprint is 16 hex digits or absent.
#[test]
fn a_mistyped_fingerprint_is_an_error_naming_it() {
    fn with_bad_fingerprint<T: Serialize + Deserialize>(full: &T) -> Result<T, String> {
        let mut v = full.to_value();
        let Value::Object(members) = &mut v else {
            panic!()
        };
        members.insert("fingerprint".into(), Value::from("not-hex"));
        serde_json::from_str(&v.to_string()).map_err(|e| e.to_string())
    }
    let WalRecord::PoolExtended { entries, .. } = &history()[11] else {
        panic!()
    };
    let exec = ExecOutcome {
        result: WireResultSet::default(),
        fingerprint: 7,
        cache: CacheStatus::Miss,
    };
    for (what, got) in [
        ("ResultRecord", with_bad_fingerprint(&full_record()).err()),
        ("RunOutcome", with_bad_fingerprint(&full_outcome()).err()),
        ("PoolEntry", with_bad_fingerprint(&entries[2]).err()),
        ("ExecOutcome", with_bad_fingerprint(&exec).err()),
    ] {
        let e = got.unwrap_or_else(|| panic!("{what}: a non-hex fingerprint decoded"));
        assert!(e.contains("fingerprint"), "{what}: {e}");
    }
}

/// The checkpoint reads as strictly as the log: a `taken_down` that is not
/// a bool fails the read naming the key (it once read as `false`).
#[test]
fn a_mistyped_checkpoint_value_fails_the_read_naming_it() {
    let snapshot = String::from_utf8(golden("snapshot_parent.jsonl")).unwrap();
    let dir = tmp_dir("bad-taken-down");
    let path = dir.join("snapshot-00000000000000000027.jsonl");
    for (from, to) in [("\"taken_down\":false", "\"taken_down\":0"), ("\"taken_down\":false", "\"taken_down\":null")] {
        std::fs::write(&path, snapshot.replacen(from, to, 1)).unwrap();
        let err = read_snapshot(&path).err().unwrap_or_else(|| panic!("{to} read"));
        assert!(err.to_string().contains("taken_down"), "{err}");
    }
    std::fs::write(&path, snapshot.replacen(",\"taken_down\":false", "", 1)).unwrap();
    assert!(read_snapshot(&path).is_ok(), "an older writer's line without the key reads");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same on the replay side: a checksummed `report_accepted` line
/// whose record carries a non-hex fingerprint was acknowledged as
/// something this build cannot read, so replay fails naming its LSN.
#[test]
fn a_logged_non_hex_fingerprint_fails_replay_naming_its_lsn() {
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }
    let report = history()
        .into_iter()
        .find(|r| matches!(r, WalRecord::ReportAccepted { .. }))
        .unwrap();
    let json = text(&report).replacen(
        "\"fingerprint\":\"feedfacecafebeef\"",
        "\"fingerprint\":\"not-hex\"",
        1,
    );
    assert!(json.contains("not-hex"));
    let mut log = log_of("bad-fp", &history()[..1]);
    log.extend_from_slice(
        format!("2 {} {:016x} {json}\n", json.len(), fnv64(json.as_bytes())).as_bytes(),
    );
    let dir = tmp_dir("bad-fp-replay");
    std::fs::write(dir.join(WAL_FILE), &log).unwrap();
    let mut wal = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert!(wal.next().unwrap().is_ok());
    let err = wal.next().unwrap().unwrap_err();
    assert!(err.to_string().contains("lsn 2"), "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    assert!(wal.next().is_none());
    assert_eq!(wal.torn(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
