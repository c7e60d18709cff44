//! The append-only record log.
//!
//! Every mutating platform operation appends one typed [`WalRecord`]
//! *before* the caller sees its acknowledgement. Records are physical,
//! not logical: they carry the concrete ids, SQL texts and catalog
//! entries the operation produced, so replay never re-runs grammar
//! conversion, random seeding or role checks — it re-applies outcomes.
//! (The alternative, logging API calls, founders on the pool's
//! [`Fingerprinter`](crate::pool::Fingerprinter): an in-process closure
//! that cannot be serialized, and without which a replayed morph walk
//! would diverge.)
//!
//! Framing is one record per line: `<lsn> <len> <fnv64> <json>\n`,
//! where `lsn` is the record's log sequence number, `len` the byte
//! length of the JSON text and `fnv64` its FNV-1a checksum. A torn
//! tail — short line, bad length, bad checksum — ends replay at the
//! last intact record, which is exactly the prefix the platform
//! acknowledged before the crash; the writer that reopens the log cuts
//! the torn bytes off before it appends. A line that passes its checksum
//! but does not decode is something else — an acknowledged record this
//! build cannot read — and fails recovery, naming the LSN. The LSN stamp
//! lets recovery skip records a snapshot already contains: if a crash
//! lands between persisting a snapshot and truncating the log, the stale
//! prefix (lsn <= snapshot lsn) is ignored instead of replayed twice.
//!
//! No value tree stands between a record and its line: the records' JSON
//! is one table (each op's keys once, in byte order) that generates both
//! directions. The writer runs a record's description against its line
//! buffer; replay reads the record straight off the line's text, an
//! array of any length (`tasks`, `entries`, `items`) element by element,
//! so it holds the line and the record, never a tree of either.
//!
//! Each append is flushed to the OS before the operation acks, which
//! survives process death (`kill -9`). Full fsync happens at snapshot
//! time; the log is truncated there, so the WAL is always the tail
//! since the latest snapshot.

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::pool::PoolEntry;
use crate::project::{ExperimentId, ProjectId};
use crate::queue::{SharedTexts, Task, TaskId};
use crate::results::ResultRecord;
use crate::shard::project_of_task;
use crate::user::{ContributorKey, UserId};
use serde::text::TextSink;
use serde::Serialize;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// FNV-1a over a byte string — the per-record checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv_fold(0xcbf29ce484222325, bytes)
}

/// FNV-1a state `h` carried on over `bytes`.
pub(crate) fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

serde::tagged! {
    /// One durable platform mutation.
    ///
    /// `ReportAccepted` dominates the enum's size via its inline
    /// `ResultRecord`; records are serialized and dropped (or replayed
    /// one at a time), never held in bulk, so the indirection a box
    /// would buy isn't worth the churn at every construction site.
    #[allow(clippy::large_enum_variant)]
    #[derive(Debug, Clone)]
    pub enum WalRecord by "op" {
        UserRegistered {
            "email" => email: String,
            "id" => id: UserId,
            "nickname" => nickname: String,
        } = "user_registered",
        KeyIssued {
            /// The registry's issue counter at derivation time; replay
            /// advances past it so fresh keys never collide.
            "counter" => counter: u64,
            "key" => key: ContributorKey,
            "user" => user: UserId,
        } = "key_issued",
        DbmsAdded { "entry" => entry: DbmsEntry } = "dbms_added",
        HostAdded { "entry" => entry: HostEntry } = "host_added",
        ProjectCreated {
            "id" => id: ProjectId,
            "owner" => owner: UserId,
            "synopsis" => synopsis: String,
            "title" => title: String,
            "visibility" => visibility: Visibility,
        } = "project_created",
        Invited {
            "project" => project: ProjectId,
            "user" => user: UserId,
        } = "invited",
        TargetsSet {
            "dbms_labels" => dbms_labels: Vec<String>,
            "hosts" => hosts: Vec<String>,
            "project" => project: ProjectId,
        } = "targets_set",
        CommentAdded {
            "author" => author: UserId,
            "project" => project: ProjectId,
            "text" => text: String,
        } = "comment_added",
        TakenDown { "project" => project: ProjectId } = "taken_down",
        ExperimentAdded {
            "baseline_sql" => baseline_sql: String,
            "dialect" => dialect: Option<String> [omit],
            /// The resolved grammar rendered back to the DSL — covers
            /// both hand-written grammars and auto-converted baselines.
            "grammar" => grammar: String,
            "id" => id: ExperimentId,
            "pool_cap" => pool_cap: usize,
            "project" => project: ProjectId,
            "template_cap" => template_cap: usize,
            "title" => title: String,
        } = "experiment_added",
        /// Pool entries added by seeding or a morph step (physical: the
        /// instantiated SQL, not the random walk that found it).
        PoolExtended {
            "entries" => entries: Vec<PoolEntry>,
            "experiment" => experiment: ExperimentId,
            "project" => project: ProjectId,
        } = "pool_extended",
        TasksEnqueued {
            "project" => project: ProjectId,
            "tasks" => tasks: Vec<Task> as SharedTexts,
        } = "tasks_enqueued",
        /// A hand-out: the task runs under `key`, answering claim nonce
        /// `claim` (absent when the claim carried none). A log written
        /// before claims kept their nonce has none on any line, so each
        /// of its held claims answers every nonce, as it did then.
        TaskClaimed {
            "claim" => claim: Option<u64> [omit],
            "key" => key: ContributorKey,
            "task" => task: TaskId,
        } = "task_claimed",
        /// A report acknowledged: the queue completion and the stored
        /// record in one — replay applies both or neither.
        ReportAccepted {
            "error" => error: Option<String> [omit],
            "key" => key: ContributorKey,
            "record" => record: ResultRecord,
            "task" => task: TaskId,
        } = "report_accepted",
        /// One bulk upload's accepted reports as a single group commit:
        /// one framed line, one checksum, so a torn tail drops the whole
        /// batch atomically — an unacked batch never replays partially.
        ReportBatchAccepted {
            /// `(task, error, record)` per accepted report, in upload
            /// order.
            "items" => items: Vec<(TaskId, Option<String>, ResultRecord)> as Vec<BatchItem>,
            "key" => key: ContributorKey,
        } = "report_batch_accepted",
        TasksReaped {
            "project" => project: ProjectId,
            "tasks" => tasks: Vec<TaskId>,
        } = "tasks_reaped",
        TaskRequeued { "task" => task: TaskId } = "task_requeued",
        ResultHidden {
            "hidden" => hidden: bool,
            "index" => index: usize,
            "project" => project: ProjectId,
        } = "result_hidden",
    }
}

/// The part of the platform state a record changes — the one place a
/// record kind is mapped to its part. Recovery routes each record by it;
/// the server applies a record holding that part's lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Users and catalogs ([`crate::shard::GlobalShard`]).
    Global,
    /// The shard map: the record creates a project's shard.
    ShardMap,
    /// One project's shard ([`crate::shard::ProjectShard`]).
    Project(ProjectId),
}

impl WalRecord {
    /// The part this record changes; `None` for an empty report batch,
    /// which changes nothing.
    pub fn part(&self) -> Option<Part> {
        use WalRecord::*;
        Some(match self {
            UserRegistered { .. } | KeyIssued { .. } | DbmsAdded { .. } | HostAdded { .. } => Part::Global,
            ProjectCreated { .. } => Part::ShardMap,
            Invited { project, .. }
            | TargetsSet { project, .. }
            | CommentAdded { project, .. }
            | TakenDown { project }
            | ExperimentAdded { project, .. }
            | PoolExtended { project, .. }
            | TasksEnqueued { project, .. }
            | TasksReaped { project, .. }
            | ResultHidden { project, .. } => Part::Project(*project),
            TaskClaimed { task, .. } | ReportAccepted { task, .. } | TaskRequeued { task } => {
                Part::Project(project_of_task(*task))
            }
            ReportBatchAccepted { items, .. } => Part::Project(project_of_task(items.first()?.0)),
        })
    }
}

serde::object! {
    /// One report of a `report_batch_accepted` record.
    BatchItem for (task, error, record): (TaskId, Option<String>, ResultRecord) {
        "error" => error [omit],
        "record" => record,
        "task" => task,
    }
}

/// The WAL file name inside a state directory.
pub const WAL_FILE: &str = "wal.log";

/// A line buffer — the writer's or the reader's — is kept from record to
/// record; one a bulk line has grown is cut back to this capacity, so a
/// 20 MB enqueue does not stay resident. Cut back, not dropped: the
/// allocator shrinks a mapping of that size in place, while *freeing* a
/// multi-megabyte block teaches glibc to serve everything up to that
/// size from the heap and to stop trimming it (it raises its mmap and
/// trim thresholds to the size freed) — 35 MB of a 133 MB heap sat free
/// at its top after a set-up that dropped its 23 MB line buffer.
const LINE_KEEP: usize = 64 * 1024;

/// Room in front of the payload for the frame header, which can only be
/// written once the payload is known: three numbers of at most 20, 20
/// and 16 characters and their separators.
const HEADER_ROOM: usize = 64;

/// Appender over the single live WAL file.
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Records appended since the file was last truncated, plus the
    /// starting sequence handed in at open — a monotone record sequence
    /// used to name snapshots.
    lsn: u64,
    /// The file's length: everything before it is intact records.
    len: u64,
    /// The line being framed; reused, see [`LINE_KEEP`].
    buf: String,
    /// Fail the next append before it writes a byte: the test suite's
    /// way to make one append fail.
    #[cfg(test)]
    pub(crate) fail_next: bool,
}

impl WalWriter {
    /// Open (creating if absent) the WAL for appending. `lsn` is the
    /// sequence number recovery established for the existing tail and
    /// `intact_len` the byte length of its intact records
    /// ([`WalReader::intact_len`]): anything behind that is a torn write
    /// and is cut off here, so the first append lands on a line of its
    /// own instead of behind bytes the next replay would stop at.
    pub fn open(dir: &Path, lsn: u64, intact_len: u64) -> io::Result<WalWriter> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if file.metadata()?.len() > intact_len {
            file.set_len(intact_len)?;
            file.sync_all()?;
        }
        Ok(WalWriter {
            path,
            file,
            lsn,
            len: intact_len,
            buf: String::new(),
            #[cfg(test)]
            fail_next: false,
        })
    }

    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Append one record stamped with the next LSN, and flush it to the
    /// OS. Returns the framed line's byte length (for the `wal.bytes`
    /// counter). The record is written, not built: its description runs
    /// once against the line buffer, the payload is checksummed where it
    /// lies and the header put in front of it. A failed append truncates
    /// back to the pre-append length so a partial line cannot tear off
    /// later, successful records.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next) {
            return Err(io::Error::other("injected append failure"));
        }
        self.buf.clear();
        self.buf.extend(std::iter::repeat_n(' ', HEADER_ROOM));
        record.serialize(&mut TextSink::new(&mut self.buf));
        let lsn = self.lsn + 1;
        let payload = &self.buf.as_bytes()[HEADER_ROOM..];
        let mut header = [0u8; HEADER_ROOM];
        let mut room = &mut header[..];
        write!(room, "{lsn} {} {:016x} ", payload.len(), fnv64(payload))?;
        let start = room.len();
        let header = std::str::from_utf8(&header[..HEADER_ROOM - start]).expect("ASCII header");
        self.buf.replace_range(start..HEADER_ROOM, header);
        self.buf.push('\n');
        let line = &self.buf.as_bytes()[start..];
        if let Err(e) = self.file.write_all(line).and_then(|()| self.file.flush()) {
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        let written = line.len() as u64;
        self.lsn = lsn;
        self.len += written;
        if self.buf.capacity() > LINE_KEEP {
            self.buf.clear();
            self.buf.shrink_to(LINE_KEEP);
        }
        Ok(written)
    }

    /// Fsync then truncate: called under all platform locks right after
    /// a snapshot at the current LSN has been persisted, making the WAL
    /// the empty tail of that snapshot.
    pub fn reset_after_snapshot(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.file.set_len(0)?;
        self.len = 0;
        self.file.sync_all()?;
        Ok(())
    }

    /// Fsync without truncating (graceful shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_all()
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The intact records of a WAL file, one at a time: replay applies each
/// before the next is read, so recovery never holds more of the log
/// than one line's text and one record beside the state it is
/// rebuilding. Iteration
/// ends silently at a torn tail — short line, bad length, bad checksum —
/// and [`torn`](WalReader::torn) then says so. A line that passes its
/// checksum but does not decode is not a torn write — it was
/// acknowledged — and is yielded as an error naming its LSN; that, like
/// an I/O error, ends the iteration too.
pub struct WalReader {
    /// `None` once the file is exhausted, torn or failed (or was absent).
    file: Option<BufReader<File>>,
    /// The line being parsed; reused, see [`LINE_KEEP`].
    line: Vec<u8>,
    torn: usize,
    intact_len: u64,
}

impl WalReader {
    /// Torn (ignored) lines met so far: 0, or 1 once the tail was reached
    /// and found torn.
    pub fn torn(&self) -> usize {
        self.torn
    }

    /// The byte offset just past the last intact record read so far —
    /// once iteration has ended, where the next append belongs.
    pub fn intact_len(&self) -> u64 {
        self.intact_len
    }
}

impl Iterator for WalReader {
    type Item = io::Result<(u64, WalRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.line.clear();
        let item = match self.file.as_mut()?.read_until(b'\n', &mut self.line) {
            Ok(0) => None,
            Ok(n) => match parse_line(&self.line) {
                Some((lsn, Ok(record))) => {
                    self.intact_len += n as u64;
                    Some(Ok((lsn, record)))
                }
                Some((lsn, Err(e))) => Some(Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wal record lsn {lsn} passes its checksum but does not decode: {e}"),
                ))),
                // Torn: everything from here on is past the
                // acknowledged prefix.
                None => {
                    self.torn += 1;
                    None
                }
            },
            Err(e) => Some(Err(e)),
        };
        if !matches!(item, Some(Ok(_))) {
            self.file = None;
        }
        if self.line.capacity() > LINE_KEEP {
            self.line.clear();
            self.line.shrink_to(LINE_KEEP);
        }
        item
    }
}

/// Open a WAL file for replay. A missing file reads as empty.
pub fn read_wal(path: &Path) -> io::Result<WalReader> {
    let file = match File::open(path) {
        Ok(f) => Some(BufReader::new(f)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    Ok(WalReader {
        file,
        line: Vec::new(),
        torn: 0,
        intact_len: 0,
    })
}

/// One framed line, newline included. `None` is a torn write: no
/// newline (the append never completed), a malformed header, a length or
/// checksum that does not match. Otherwise the record's LSN and what its
/// payload decodes to.
fn parse_line(line: &[u8]) -> Option<(u64, Result<WalRecord, String>)> {
    let text = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
    let (lsn, rest) = text.split_once(' ')?;
    let (len, rest) = rest.split_once(' ')?;
    let (sum, json) = rest.split_once(' ')?;
    let lsn: u64 = lsn.parse().ok()?;
    let len: usize = len.parse().ok()?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    if json.len() != len || fnv64(json.as_bytes()) != sum {
        return None;
    }
    Some((lsn, serde_json::from_str(json).map_err(|e| e.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunOutcome;
    use crate::results::record;
    use crate::{pool::QueryId, queue::TaskState};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sqalpel-wal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Drain a log: its intact records and the torn-line count.
    fn read_all(path: &Path) -> (Vec<(u64, WalRecord)>, usize) {
        let mut wal = read_wal(path).unwrap();
        let records = wal.by_ref().collect::<io::Result<Vec<_>>>().unwrap();
        (records, wal.torn())
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::UserRegistered {
                id: UserId(1),
                nickname: "mlk".into(),
                email: "mlk@cwi.nl".into(),
            },
            WalRecord::KeyIssued {
                user: UserId(1),
                key: ContributorKey("ck_feed".into()),
                counter: 3,
            },
            WalRecord::ProjectCreated {
                id: ProjectId(1),
                owner: UserId(1),
                title: "nation".into(),
                synopsis: "s".into(),
                visibility: Visibility::Public,
            },
            WalRecord::TargetsSet {
                project: ProjectId(1),
                dbms_labels: vec!["rowstore-2.0".into()],
                hosts: vec!["bench-server".into()],
            },
            WalRecord::TasksEnqueued {
                project: ProjectId(1),
                tasks: vec![Task {
                    id: TaskId(1 << 32),
                    project: ProjectId(1),
                    experiment: ExperimentId(0),
                    query: QueryId(0),
                    sql: "select 1 from t".into(),
                    dbms_label: "rowstore-2.0".into(),
                    host: "bench-server".into(),
                    state: TaskState::Queued,
                    started: None,
                }],
            },
            WalRecord::TaskClaimed {
                task: TaskId(1 << 32),
                key: ContributorKey("ck_feed".into()),
                claim: Some(7),
            },
            WalRecord::ReportAccepted {
                task: TaskId(1 << 32),
                key: ContributorKey("ck_feed".into()),
                error: None,
                record: record(
                    TaskId(1 << 32),
                    ProjectId(1),
                    ExperimentId(0),
                    QueryId(0),
                    "rowstore-2.0",
                    "bench-server",
                    &ContributorKey("ck_feed".into()),
                    RunOutcome { times_ms: vec![1.0, 2.0], rows: 3, ..RunOutcome::default() },
                ),
            },
            WalRecord::ReportBatchAccepted {
                key: ContributorKey("ck_feed".into()),
                items: vec![(
                    TaskId((1 << 32) | 1),
                    Some("timeout".into()),
                    record(
                        TaskId((1 << 32) | 1),
                        ProjectId(1),
                        ExperimentId(0),
                        QueryId(1),
                        "rowstore-2.0",
                        "bench-server",
                        &ContributorKey("ck_feed".into()),
                        RunOutcome {
                            times_ms: vec![4.0],
                            error: Some("timeout".into()),
                            ..RunOutcome::default()
                        },
                    ),
                )],
            },
            WalRecord::TasksReaped {
                project: ProjectId(1),
                tasks: vec![TaskId(1 << 32)],
            },
            WalRecord::ResultHidden {
                project: ProjectId(1),
                index: 0,
                hidden: true,
            },
        ]
    }

    #[test]
    fn append_and_read_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        let mut bytes = 0;
        for r in sample_records() {
            bytes += wal.append(&r).unwrap();
        }
        assert_eq!(wal.lsn(), sample_records().len() as u64);
        assert!(bytes > 0);

        let (back, torn) = read_all(&dir.join(WAL_FILE));
        assert_eq!(torn, 0);
        assert_eq!(back.len(), sample_records().len());
        // LSNs stamp the records 1..=n in append order.
        let lsns: Vec<u64> = back.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, (1..=back.len() as u64).collect::<Vec<_>>());
        // Spot-check a couple of payloads survived verbatim.
        let WalRecord::ReportAccepted { record, .. } = &back[6].1 else {
            panic!("wrong op at 6: {}", back[6].1.to_value()["op"]);
        };
        assert_eq!(record.times_ms, vec![1.0, 2.0]);
        let WalRecord::TasksEnqueued { tasks, .. } = &back[4].1 else {
            panic!()
        };
        assert_eq!(tasks[0].id, TaskId(1 << 32));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_name_the_part_they_change() {
        let parts: Vec<_> = sample_records().iter().map(WalRecord::part).collect();
        let p1 = Some(Part::Project(ProjectId(1)));
        assert_eq!(
            parts,
            [Some(Part::Global), Some(Part::Global), Some(Part::ShardMap), p1, p1, p1, p1, p1, p1, p1]
        );
        // A task id names its project; an empty batch changes nothing.
        let claim = WalRecord::TaskClaimed { task: TaskId(7 << 32), key: ContributorKey("ck".into()), claim: None };
        assert_eq!(claim.part(), Some(Part::Project(ProjectId(7))));
        let batch = WalRecord::ReportBatchAccepted { key: ContributorKey("ck".into()), items: vec![] };
        assert_eq!(batch.part(), None);
    }

    #[test]
    fn torn_tail_stops_replay_at_acknowledged_prefix() {
        let dir = tmp_dir("torn");
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        for r in sample_records().into_iter().take(3) {
            wal.append(&r).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-write: chop the last line in half.
        let path = dir.join(WAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();

        let (back, torn) = read_all(&path);
        assert_eq!(back.len(), 2);
        assert_eq!(torn, 1);

        // A flipped byte (bad checksum) also ends replay there.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let (back, torn) = read_all(&path);
        assert!(back.len() <= 2);
        assert_eq!(torn, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Three boots. The first dies mid-append; the second replays the
    /// intact prefix and acknowledges more; the third must find all of
    /// it. Opening at the end of the file instead of the end of the last
    /// intact record would glue the second boot's first record onto the
    /// torn bytes, and the third boot would stop there.
    #[test]
    fn appends_after_a_torn_tail_survive_the_next_boot() {
        let dir = tmp_dir("torn-append");
        let path = dir.join(WAL_FILE);
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        for r in sample_records().into_iter().take(3) {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 10]).unwrap();

        // Boot two: two records replay, the torn third is cut away.
        let mut tail = read_wal(&path).unwrap();
        let replayed: Vec<_> = tail.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!((replayed.len(), tail.torn()), (2, 1));
        let intact = tail.intact_len();
        assert!(intact < whole.len() as u64 - 10);
        let mut wal = WalWriter::open(&dir, 2, intact).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        for r in sample_records().into_iter().skip(3).take(2) {
            wal.append(&r).unwrap();
        }
        drop(wal);

        // Boot three: everything acknowledged is there, nothing torn.
        let (back, torn) = read_all(&path);
        let lsns: Vec<u64> = back.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!((lsns, torn), (vec![1, 2, 3, 4], 0));
        assert_eq!(back[2].1.to_value()["op"], "targets_set");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A line whose checksum holds was acknowledged: if it does not
    /// decode, replay must say so, not pass it off as a torn tail.
    #[test]
    fn a_checksummed_line_that_does_not_decode_is_an_error() {
        let dir = tmp_dir("undecodable");
        let path = dir.join(WAL_FILE);
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        let mut log = std::fs::read(&path).unwrap();
        // A value nested past the reader's bound, which an older build
        // could log, no longer reads either.
        let deep = format!(r#"{{"op":"taken_down","project":1,"x":{}{}}}"#, "[".repeat(200), "]".repeat(200));
        for json in [r#"{"op":"from_the_future"}"#, r#"{"op":"tasks_enqueued","project":1,"tasks":[{}]}"#, &deep] {
            let line = format!("2 {} {:016x} {json}\n", json.len(), fnv64(json.as_bytes()));
            let mut bad = log.clone();
            bad.extend_from_slice(line.as_bytes());
            std::fs::write(&path, &bad).unwrap();
            let mut wal = read_wal(&path).unwrap();
            assert!(wal.next().unwrap().is_ok());
            let err = wal.next().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("lsn 2"), "{err}");
            assert!(wal.next().is_none());
            assert_eq!(wal.torn(), 0);
        }
        // The same bytes with one flipped are torn, as before.
        let json = r#"{"op":"from_the_future"}"#;
        let line = format!("2 {} {:016x} {json}\n", json.len(), fnv64(json.as_bytes()) ^ 1);
        log.extend_from_slice(line.as_bytes());
        std::fs::write(&path, &log).unwrap();
        assert_eq!(read_all(&path).1, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The line buffer is the writer's only allocation, and a bulk line
    /// does not leave it behind.
    #[test]
    fn the_line_buffer_is_reused_and_cut_back_to_its_cap() {
        let dir = tmp_dir("buffer");
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        let small = wal.buf.capacity();
        assert!(small > 0 && small <= LINE_KEEP);
        wal.append(&sample_records()[1]).unwrap();
        assert_eq!(wal.buf.capacity(), small);
        wal.append(&WalRecord::CommentAdded {
            project: ProjectId(1),
            author: UserId(1),
            text: "x".repeat(2 * LINE_KEEP),
        })
        .unwrap();
        assert_eq!(wal.buf.capacity(), LINE_KEEP);
        let (back, torn) = read_all(&dir.join(WAL_FILE));
        assert_eq!((back.len(), torn), (3, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_after_snapshot_empties_the_log() {
        let dir = tmp_dir("reset");
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        for r in sample_records().into_iter().take(2) {
            wal.append(&r).unwrap();
        }
        wal.reset_after_snapshot().unwrap();
        assert_eq!(wal.lsn(), 2, "lsn keeps counting across truncation");
        let (back, _) = read_all(&dir.join(WAL_FILE));
        assert!(back.is_empty());
        // Appends continue on the truncated file, LSNs past the snapshot.
        wal.append(&sample_records()[0]).unwrap();
        let (back, _) = read_all(&dir.join(WAL_FILE));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, 3, "post-truncation records carry lsns past the snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_reads_empty() {
        let (records, torn) = read_all(Path::new("/nonexistent/wal.log"));
        assert!(records.is_empty());
        assert_eq!(torn, 0);
    }
}
