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
//! acknowledged before the crash. The LSN stamp lets recovery skip
//! records a snapshot already contains: if a crash lands between
//! persisting a snapshot and truncating the log, the stale prefix
//! (lsn <= snapshot lsn) is ignored instead of replayed twice.
//!
//! Each append is flushed to the OS before the operation acks, which
//! survives process death (`kill -9`). Full fsync happens at snapshot
//! time; the log is truncated there, so the WAL is always the tail
//! since the latest snapshot.

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::pool::PoolEntry;
use crate::project::{ExperimentId, ProjectId};
use crate::queue::{Task, TaskId};
use crate::results::ResultRecord;
use crate::user::{ContributorKey, UserId};
use serde::{Deserialize, Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// FNV-1a over a byte string — the per-record checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One durable platform mutation.
///
/// `ReportAccepted` dominates the enum's size via its inline
/// `ResultRecord`; records are serialized and dropped (or replayed one
/// at a time), never held in bulk, so the indirection a box would buy
/// isn't worth the churn at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WalRecord {
    UserRegistered {
        id: UserId,
        nickname: String,
        email: String,
    },
    KeyIssued {
        user: UserId,
        key: ContributorKey,
        /// The registry's issue counter at derivation time; replay
        /// advances past it so fresh keys never collide.
        counter: u64,
    },
    DbmsAdded {
        entry: DbmsEntry,
    },
    HostAdded {
        entry: HostEntry,
    },
    ProjectCreated {
        id: ProjectId,
        owner: UserId,
        title: String,
        synopsis: String,
        visibility: Visibility,
    },
    Invited {
        project: ProjectId,
        user: UserId,
    },
    TargetsSet {
        project: ProjectId,
        dbms_labels: Vec<String>,
        hosts: Vec<String>,
    },
    CommentAdded {
        project: ProjectId,
        author: UserId,
        text: String,
    },
    TakenDown {
        project: ProjectId,
    },
    ExperimentAdded {
        project: ProjectId,
        id: ExperimentId,
        title: String,
        baseline_sql: String,
        /// The resolved grammar rendered back to the DSL — covers both
        /// hand-written grammars and auto-converted baselines.
        grammar: String,
        template_cap: usize,
        pool_cap: usize,
        dialect: Option<String>,
    },
    /// Pool entries added by seeding or a morph step (physical: the
    /// instantiated SQL, not the random walk that found it).
    PoolExtended {
        project: ProjectId,
        experiment: ExperimentId,
        entries: Vec<PoolEntry>,
    },
    TasksEnqueued {
        project: ProjectId,
        tasks: Vec<Task>,
    },
    TaskClaimed {
        task: TaskId,
        key: ContributorKey,
    },
    /// A report acknowledged: the queue completion and the stored record
    /// in one — replay applies both or neither.
    ReportAccepted {
        task: TaskId,
        key: ContributorKey,
        error: Option<String>,
        record: ResultRecord,
    },
    /// One bulk upload's accepted reports as a single group commit: one
    /// framed line, one checksum, so a torn tail drops the whole batch
    /// atomically — an unacked batch never replays partially.
    ReportBatchAccepted {
        key: ContributorKey,
        /// `(task, error, record)` per accepted report, in upload order.
        items: Vec<(TaskId, Option<String>, ResultRecord)>,
    },
    TasksReaped {
        project: ProjectId,
        tasks: Vec<TaskId>,
    },
    TaskRequeued {
        task: TaskId,
    },
    ResultHidden {
        project: ProjectId,
        index: usize,
        hidden: bool,
    },
}

impl WalRecord {
    fn op(&self) -> &'static str {
        match self {
            WalRecord::UserRegistered { .. } => "user_registered",
            WalRecord::KeyIssued { .. } => "key_issued",
            WalRecord::DbmsAdded { .. } => "dbms_added",
            WalRecord::HostAdded { .. } => "host_added",
            WalRecord::ProjectCreated { .. } => "project_created",
            WalRecord::Invited { .. } => "invited",
            WalRecord::TargetsSet { .. } => "targets_set",
            WalRecord::CommentAdded { .. } => "comment_added",
            WalRecord::TakenDown { .. } => "taken_down",
            WalRecord::ExperimentAdded { .. } => "experiment_added",
            WalRecord::PoolExtended { .. } => "pool_extended",
            WalRecord::TasksEnqueued { .. } => "tasks_enqueued",
            WalRecord::TaskClaimed { .. } => "task_claimed",
            WalRecord::ReportAccepted { .. } => "report_accepted",
            WalRecord::ReportBatchAccepted { .. } => "report_batch_accepted",
            WalRecord::TasksReaped { .. } => "tasks_reaped",
            WalRecord::TaskRequeued { .. } => "task_requeued",
            WalRecord::ResultHidden { .. } => "result_hidden",
        }
    }
}

impl Serialize for WalRecord {
    fn to_value(&self) -> Value {
        let mut m = serde_json::Map::new();
        m.insert("op".into(), self.op().into());
        match self {
            WalRecord::UserRegistered {
                id,
                nickname,
                email,
            } => {
                m.insert("id".into(), id.0.into());
                m.insert("nickname".into(), nickname.clone().into());
                m.insert("email".into(), email.clone().into());
            }
            WalRecord::KeyIssued { user, key, counter } => {
                m.insert("user".into(), user.0.into());
                m.insert("key".into(), key.0.clone().into());
                m.insert("counter".into(), (*counter).into());
            }
            WalRecord::DbmsAdded { entry } => {
                m.insert("entry".into(), entry.to_value());
            }
            WalRecord::HostAdded { entry } => {
                m.insert("entry".into(), entry.to_value());
            }
            WalRecord::ProjectCreated {
                id,
                owner,
                title,
                synopsis,
                visibility,
            } => {
                m.insert("id".into(), id.0.into());
                m.insert("owner".into(), owner.0.into());
                m.insert("title".into(), title.clone().into());
                m.insert("synopsis".into(), synopsis.clone().into());
                m.insert("visibility".into(), visibility.to_value());
            }
            WalRecord::Invited { project, user } => {
                m.insert("project".into(), project.0.into());
                m.insert("user".into(), user.0.into());
            }
            WalRecord::TargetsSet {
                project,
                dbms_labels,
                hosts,
            } => {
                m.insert("project".into(), project.0.into());
                m.insert("dbms_labels".into(), dbms_labels.clone().into());
                m.insert("hosts".into(), hosts.clone().into());
            }
            WalRecord::CommentAdded {
                project,
                author,
                text,
            } => {
                m.insert("project".into(), project.0.into());
                m.insert("author".into(), author.0.into());
                m.insert("text".into(), text.clone().into());
            }
            WalRecord::TakenDown { project } => {
                m.insert("project".into(), project.0.into());
            }
            WalRecord::ExperimentAdded {
                project,
                id,
                title,
                baseline_sql,
                grammar,
                template_cap,
                pool_cap,
                dialect,
            } => {
                m.insert("project".into(), project.0.into());
                m.insert("id".into(), id.0.into());
                m.insert("title".into(), title.clone().into());
                m.insert("baseline_sql".into(), baseline_sql.clone().into());
                m.insert("grammar".into(), grammar.clone().into());
                m.insert("template_cap".into(), (*template_cap).into());
                m.insert("pool_cap".into(), (*pool_cap).into());
                if let Some(d) = dialect {
                    m.insert("dialect".into(), d.clone().into());
                }
            }
            WalRecord::PoolExtended {
                project,
                experiment,
                entries,
            } => {
                m.insert("project".into(), project.0.into());
                m.insert("experiment".into(), experiment.0.into());
                m.insert(
                    "entries".into(),
                    Value::Array(entries.iter().map(|e| e.to_value()).collect()),
                );
            }
            WalRecord::TasksEnqueued { project, tasks } => {
                m.insert("project".into(), project.0.into());
                m.insert(
                    "tasks".into(),
                    Value::Array(tasks.iter().map(|t| t.to_value()).collect()),
                );
            }
            WalRecord::TaskClaimed { task, key } => {
                m.insert("task".into(), task.0.into());
                m.insert("key".into(), key.0.clone().into());
            }
            WalRecord::ReportAccepted {
                task,
                key,
                error,
                record,
            } => {
                m.insert("task".into(), task.0.into());
                m.insert("key".into(), key.0.clone().into());
                if let Some(e) = error {
                    m.insert("error".into(), e.clone().into());
                }
                m.insert("record".into(), record.to_value());
            }
            WalRecord::ReportBatchAccepted { key, items } => {
                m.insert("key".into(), key.0.clone().into());
                m.insert(
                    "items".into(),
                    Value::Array(
                        items
                            .iter()
                            .map(|(task, error, record)| {
                                let mut item = serde_json::Map::new();
                                item.insert("task".into(), task.0.into());
                                if let Some(e) = error {
                                    item.insert("error".into(), e.clone().into());
                                }
                                item.insert("record".into(), record.to_value());
                                Value::Object(item)
                            })
                            .collect(),
                    ),
                );
            }
            WalRecord::TasksReaped { project, tasks } => {
                m.insert("project".into(), project.0.into());
                m.insert(
                    "tasks".into(),
                    Value::Array(tasks.iter().map(|t| Value::from(t.0)).collect()),
                );
            }
            WalRecord::TaskRequeued { task } => {
                m.insert("task".into(), task.0.into());
            }
            WalRecord::ResultHidden {
                project,
                index,
                hidden,
            } => {
                m.insert("project".into(), project.0.into());
                m.insert("index".into(), (*index).into());
                m.insert("hidden".into(), (*hidden).into());
            }
        }
        Value::Object(m)
    }
}

impl Deserialize for WalRecord {
    fn from_value(v: &Value) -> Result<Self, String> {
        let num = |k: &str| {
            v[k].as_i64()
                .map(|x| x as u64)
                .ok_or(format!("wal record: missing {k}"))
        };
        let text = |k: &str| {
            v[k].as_str()
                .map(str::to_string)
                .ok_or(format!("wal record: missing {k}"))
        };
        match v["op"].as_str().ok_or("wal record: missing op")? {
            "user_registered" => Ok(WalRecord::UserRegistered {
                id: UserId(num("id")?),
                nickname: text("nickname")?,
                email: text("email")?,
            }),
            "key_issued" => Ok(WalRecord::KeyIssued {
                user: UserId(num("user")?),
                key: ContributorKey(text("key")?),
                counter: num("counter")?,
            }),
            "dbms_added" => Ok(WalRecord::DbmsAdded {
                entry: DbmsEntry::from_value(&v["entry"])?,
            }),
            "host_added" => Ok(WalRecord::HostAdded {
                entry: HostEntry::from_value(&v["entry"])?,
            }),
            "project_created" => Ok(WalRecord::ProjectCreated {
                id: ProjectId(num("id")?),
                owner: UserId(num("owner")?),
                title: text("title")?,
                synopsis: text("synopsis")?,
                visibility: Visibility::from_value(&v["visibility"])?,
            }),
            "invited" => Ok(WalRecord::Invited {
                project: ProjectId(num("project")?),
                user: UserId(num("user")?),
            }),
            "targets_set" => {
                let list = |k: &str| -> Result<Vec<String>, String> {
                    v[k].as_array()
                        .ok_or(format!("targets_set: missing {k}"))?
                        .iter()
                        .map(|s| {
                            s.as_str()
                                .map(str::to_string)
                                .ok_or(format!("targets_set: non-string in {k}"))
                        })
                        .collect()
                };
                Ok(WalRecord::TargetsSet {
                    project: ProjectId(num("project")?),
                    dbms_labels: list("dbms_labels")?,
                    hosts: list("hosts")?,
                })
            }
            "comment_added" => Ok(WalRecord::CommentAdded {
                project: ProjectId(num("project")?),
                author: UserId(num("author")?),
                text: text("text")?,
            }),
            "taken_down" => Ok(WalRecord::TakenDown {
                project: ProjectId(num("project")?),
            }),
            "experiment_added" => Ok(WalRecord::ExperimentAdded {
                project: ProjectId(num("project")?),
                id: ExperimentId(num("id")?),
                title: text("title")?,
                baseline_sql: text("baseline_sql")?,
                grammar: text("grammar")?,
                template_cap: num("template_cap")? as usize,
                pool_cap: num("pool_cap")? as usize,
                dialect: v["dialect"].as_str().map(str::to_string),
            }),
            "pool_extended" => Ok(WalRecord::PoolExtended {
                project: ProjectId(num("project")?),
                experiment: ExperimentId(num("experiment")?),
                entries: v["entries"]
                    .as_array()
                    .ok_or("pool_extended: missing entries")?
                    .iter()
                    .map(PoolEntry::from_value)
                    .collect::<Result<_, _>>()?,
            }),
            "tasks_enqueued" => Ok(WalRecord::TasksEnqueued {
                project: ProjectId(num("project")?),
                tasks: v["tasks"]
                    .as_array()
                    .ok_or("tasks_enqueued: missing tasks")?
                    .iter()
                    .map(Task::from_value)
                    .collect::<Result<_, _>>()?,
            }),
            "task_claimed" => Ok(WalRecord::TaskClaimed {
                task: TaskId(num("task")?),
                key: ContributorKey(text("key")?),
            }),
            "report_accepted" => Ok(WalRecord::ReportAccepted {
                task: TaskId(num("task")?),
                key: ContributorKey(text("key")?),
                error: v["error"].as_str().map(str::to_string),
                record: ResultRecord::from_value(&v["record"])?,
            }),
            "report_batch_accepted" => Ok(WalRecord::ReportBatchAccepted {
                key: ContributorKey(text("key")?),
                items: v["items"]
                    .as_array()
                    .ok_or("report_batch_accepted: missing items")?
                    .iter()
                    .map(|item| {
                        Ok((
                            TaskId(
                                item["task"]
                                    .as_i64()
                                    .map(|x| x as u64)
                                    .ok_or("report_batch_accepted: missing task")?,
                            ),
                            item["error"].as_str().map(str::to_string),
                            ResultRecord::from_value(&item["record"])?,
                        ))
                    })
                    .collect::<Result<_, String>>()?,
            }),
            "tasks_reaped" => Ok(WalRecord::TasksReaped {
                project: ProjectId(num("project")?),
                tasks: v["tasks"]
                    .as_array()
                    .ok_or("tasks_reaped: missing tasks")?
                    .iter()
                    .map(|t| {
                        t.as_i64()
                            .map(|x| TaskId(x as u64))
                            .ok_or("tasks_reaped: bad task id".to_string())
                    })
                    .collect::<Result<_, _>>()?,
            }),
            "task_requeued" => Ok(WalRecord::TaskRequeued {
                task: TaskId(num("task")?),
            }),
            "result_hidden" => Ok(WalRecord::ResultHidden {
                project: ProjectId(num("project")?),
                index: num("index")? as usize,
                hidden: v["hidden"].as_bool().ok_or("result_hidden: missing hidden")?,
            }),
            other => Err(format!("unknown wal op {other:?}")),
        }
    }
}

/// The WAL file name inside a state directory.
pub const WAL_FILE: &str = "wal.log";

/// Appender over the single live WAL file.
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Records appended since the file was last truncated, plus the
    /// starting sequence handed in at open — a monotone record sequence
    /// used to name snapshots.
    lsn: u64,
}

impl WalWriter {
    /// Open (creating if absent) the WAL for appending. `lsn` is the
    /// sequence number recovery established for the existing tail.
    pub fn open(dir: &Path, lsn: u64) -> io::Result<WalWriter> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { path, file, lsn })
    }

    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Append one record, stamped with the next LSN, and flush it to the
    /// OS. Returns the framed line's byte length (for the `wal.bytes`
    /// counter). A failed append truncates back to the pre-append length
    /// so a partial line cannot tear off later, successful records.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let json = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("wal encode: {e}")))?;
        let lsn = self.lsn + 1;
        let line = format!("{lsn} {} {:016x} {}\n", json.len(), fnv64(json.as_bytes()), json);
        let start = self.file.metadata()?.len();
        if let Err(e) = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
        {
            let _ = self.file.set_len(start);
            let _ = self.file.seek(SeekFrom::End(0));
            return Err(e);
        }
        self.lsn = lsn;
        Ok(line.len() as u64)
    }

    /// Fsync then truncate: called under all platform locks right after
    /// a snapshot at the current LSN has been persisted, making the WAL
    /// the empty tail of that snapshot.
    pub fn reset_after_snapshot(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
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
/// before the next is parsed, so recovery never holds more of the log
/// than one record beside the state it is rebuilding. Iteration ends
/// silently at a torn tail — short line, bad length, bad checksum — and
/// [`torn`](WalReader::torn) then says so; an I/O error is yielded once
/// and ends it too.
pub struct WalReader {
    /// `None` once the file is exhausted, torn or failed (or was absent).
    lines: Option<std::io::Split<BufReader<File>>>,
    torn: usize,
}

impl WalReader {
    /// Torn (ignored) lines met so far: 0, or 1 once the tail was reached
    /// and found torn.
    pub fn torn(&self) -> usize {
        self.torn
    }
}

impl Iterator for WalReader {
    type Item = io::Result<(u64, WalRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.lines.as_mut()?.next()?.map(|line| parse_line(&line)) {
            Ok(Some(record)) => Some(Ok(record)),
            // Torn or corrupt: everything from here on is past the
            // acknowledged prefix.
            Ok(None) => {
                self.torn += 1;
                self.lines = None;
                None
            }
            Err(e) => {
                self.lines = None;
                Some(Err(e))
            }
        }
    }
}

/// Open a WAL file for replay. A missing file reads as empty.
pub fn read_wal(path: &Path) -> io::Result<WalReader> {
    let lines = match File::open(path) {
        Ok(f) => Some(BufReader::new(f).split(b'\n')),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    Ok(WalReader { lines, torn: 0 })
}

fn parse_line(line: &[u8]) -> Option<(u64, WalRecord)> {
    let text = std::str::from_utf8(line).ok()?;
    let (lsn, rest) = text.split_once(' ')?;
    let (len, rest) = rest.split_once(' ')?;
    let (sum, json) = rest.split_once(' ')?;
    let lsn: u64 = lsn.parse().ok()?;
    let len: usize = len.parse().ok()?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    if json.len() != len || fnv64(json.as_bytes()) != sum {
        return None;
    }
    serde_json::from_str(json).ok().map(|r| (lsn, r))
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    vec![1.0, 2.0],
                    3,
                    None,
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
                        vec![4.0],
                        0,
                        Some("timeout".into()),
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
        let mut wal = WalWriter::open(&dir, 0).unwrap();
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
            panic!("wrong op at 6: {:?}", back[6].1.op());
        };
        assert_eq!(record.times_ms, vec![1.0, 2.0]);
        let WalRecord::TasksEnqueued { tasks, .. } = &back[4].1 else {
            panic!()
        };
        assert_eq!(tasks[0].id, TaskId(1 << 32));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_replay_at_acknowledged_prefix() {
        let dir = tmp_dir("torn");
        let mut wal = WalWriter::open(&dir, 0).unwrap();
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

    #[test]
    fn reset_after_snapshot_empties_the_log() {
        let dir = tmp_dir("reset");
        let mut wal = WalWriter::open(&dir, 0).unwrap();
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
