//! Checkpointing: the full platform state as one JSONL file.
//!
//! A snapshot bounds recovery time — replay starts from the latest
//! snapshot instead of the beginning of history. The format is
//! line-oriented so huge states stream out without building one giant
//! JSON value: a `meta` line (snapshot LSN), then one line per item in
//! restore order, then an `end` marker that proves the file is whole.
//! Every line kind is one row of the [`SnapshotLine`] table, told apart
//! by `"t"`: the writer describes the state through it, borrowing every
//! item, and the reader decodes each line straight off its text and
//! applies it through the functions that apply the records of the log.
//!
//! Written to a temp file and atomically renamed into place as
//! `snapshot-<lsn>.jsonl`; the directory is fsynced so the rename
//! survives a crash. Readers pick the highest LSN present; older
//! snapshots are pruned after a new one lands.

use super::wal::fnv_fold;
use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::pool::{PoolEntry, QueryPool};
use crate::project::{Comment, ExperimentId, Project, ProjectId};
use crate::queue::Task;
use crate::results::ResultRecord;
use crate::shard::{GlobalShard, ProjectShard};
use crate::user::{ContributorKey, UserId};
use serde::text::TextSink;
use serde::Serialize;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

serde::tagged! {
    /// One line of a checkpoint: the item of state it restores. Written
    /// borrowing the state — a checkpoint copies no task, pool entry or
    /// result — and read owning what it holds.
    #[derive(Debug, Clone)]
    pub enum SnapshotLine<'a> by "t" {
        /// First: the LSN the checkpoint was taken at.
        Meta { "lsn" => lsn: u64, "projects" => projects: usize } = "meta",
        User {
            "email" => email: Cow<'a, str>,
            "id" => id: UserId,
            "nickname" => nickname: Cow<'a, str>,
        } = "user",
        /// A contributor key; the issue counter is a line of its own.
        Key { "key" => key: Cow<'a, ContributorKey>, "user" => user: UserId } = "key",
        KeyCounter { "value" => value: u64 } = "key_counter",
        Dbms { "entry" => entry: Cow<'a, DbmsEntry> } = "dbms",
        Host { "entry" => entry: Cow<'a, HostEntry> } = "host",
        Project {
            "comments" => comments: Cow<'a, [Comment]>,
            "contributors" => contributors: Cow<'a, BTreeSet<UserId>>,
            "dbms_labels" => dbms_labels: Cow<'a, [String]>,
            "hosts" => hosts: Cow<'a, [String]>,
            "id" => id: ProjectId,
            "owner" => owner: UserId,
            "synopsis" => synopsis: Cow<'a, str>,
            "taken_down" => taken_down: bool [default],
            "title" => title: Cow<'a, str>,
            "visibility" => visibility: Visibility,
        } = "project",
        Experiment {
            "baseline_sql" => baseline_sql: Cow<'a, str>,
            "dialect" => dialect: Option<Cow<'a, str>> [omit],
            /// The pool's grammar rendered back to the DSL.
            "grammar" => grammar: String,
            "id" => id: ExperimentId,
            "pool_cap" => pool_cap: usize,
            "project" => project: ProjectId,
            "template_cap" => template_cap: usize,
            "title" => title: Cow<'a, str>,
        } = "experiment",
        PoolEntry {
            "entry" => entry: Cow<'a, PoolEntry>,
            "experiment" => experiment: ExperimentId,
            "project" => project: ProjectId,
        } = "pool_entry",
        Task("task" => Cow<'a, Task>) = "task",
        Result("record" => Cow<'a, ResultRecord>) = "result",
        /// Last: the file is whole.
        End = "end",
    }
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {}", msg.into()))
}

/// Where the lines of one snapshot go — the file, or the fingerprint —
/// and the buffer each line is written into first (reused; a line is one
/// item, never large).
struct Lines<W> {
    out: W,
    buf: String,
}

impl<W: Write> Lines<W> {
    fn line(&mut self, line: SnapshotLine<'_>) -> io::Result<()> {
        self.buf.clear();
        line.serialize(&mut TextSink::new(&mut self.buf));
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes())
    }
}

/// Write a snapshot of the given state at `lsn`. The caller must hold
/// every shard lock (the state must not move under the writer). Returns
/// the final snapshot path.
pub fn write_snapshot(
    dir: &Path,
    lsn: u64,
    global: &GlobalShard,
    shards: &[&ProjectShard],
) -> io::Result<PathBuf> {
    let tmp = dir.join(format!("snapshot-{lsn:020}.tmp"));
    let path = dir.join(format!("snapshot-{lsn:020}.jsonl"));
    let mut out = Lines {
        out: BufWriter::new(File::create(&tmp)?),
        buf: String::new(),
    };

    out.line(SnapshotLine::Meta { lsn, projects: shards.len() })?;
    write_state(&mut out, global, shards)?;
    out.line(SnapshotLine::End)?;
    let mut out = out.out;
    out.flush()?;
    out.into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?
        .sync_all()?;
    fs::rename(&tmp, &path)?;
    // Fsync the directory so the rename itself is durable.
    File::open(dir)?.sync_all()?;
    Ok(path)
}

/// The state's lines, in restore order: users, keys, the key counter,
/// the catalogs, then per project its line, its experiments with their
/// pool entries, its tasks and its results.
fn write_state<W: Write>(
    out: &mut Lines<W>,
    global: &GlobalShard,
    shards: &[&ProjectShard],
) -> io::Result<()> {
    for u in global.users.users() {
        out.line(SnapshotLine::User {
            email: u.email_for_legal_contact().into(),
            id: u.id,
            nickname: u.nickname.as_str().into(),
        })?;
    }
    // In key order: equal states checkpoint to equal bytes.
    let mut keys: Vec<_> = global.users.keys().collect();
    keys.sort_unstable();
    for (key, user) in keys {
        out.line(SnapshotLine::Key { key: Cow::Borrowed(key), user })?;
    }
    out.line(SnapshotLine::KeyCounter { value: global.users.key_counter() })?;
    for entry in global.catalogs.dbms_entries() {
        out.line(SnapshotLine::Dbms { entry: Cow::Borrowed(entry) })?;
    }
    for entry in global.catalogs.host_entries() {
        out.line(SnapshotLine::Host { entry: Cow::Borrowed(entry) })?;
    }

    for shard in shards {
        let p = &shard.project;
        out.line(SnapshotLine::Project {
            comments: p.comments.as_slice().into(),
            contributors: Cow::Borrowed(&p.contributors),
            dbms_labels: p.dbms_labels.as_slice().into(),
            hosts: p.hosts.as_slice().into(),
            id: p.id,
            owner: p.owner,
            synopsis: p.synopsis.as_str().into(),
            taken_down: p.taken_down,
            title: p.title.as_str().into(),
            visibility: p.visibility,
        })?;
        for e in &p.experiments {
            out.line(SnapshotLine::Experiment {
                baseline_sql: e.baseline_sql.as_str().into(),
                dialect: e.pool.dialect().map(Cow::Borrowed),
                grammar: e.pool.grammar().to_string(),
                id: e.id,
                pool_cap: e.pool.pool_cap(),
                project: p.id,
                template_cap: e.pool.template_cap(),
                title: e.title.as_str().into(),
            })?;
            for entry in e.pool.entries() {
                out.line(SnapshotLine::PoolEntry {
                    entry: Cow::Borrowed(entry),
                    experiment: e.id,
                    project: p.id,
                })?;
            }
        }
        for task in shard.queue.tasks() {
            out.line(SnapshotLine::Task(Cow::Borrowed(task)))?;
        }
        for record in shard.results.all() {
            out.line(SnapshotLine::Result(Cow::Borrowed(record)))?;
        }
    }

    Ok(())
}

/// The newest complete snapshot in `dir`, as `(path, lsn)`.
pub fn latest_snapshot(dir: &Path) -> io::Result<Option<(PathBuf, u64)>> {
    let mut best: Option<(PathBuf, u64)> = None;
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(lsn) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| lsn > *b) {
            best = Some((entry.path(), lsn));
        }
    }
    Ok(best)
}

/// Remove snapshots (and stray temp files) older than `keep_lsn`.
pub fn prune_older(dir: &Path, keep_lsn: u64) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
            .is_some_and(|lsn| lsn < keep_lsn)
            || name.ends_with(".tmp");
        if stale {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Load a snapshot back into state parts, each line through the
/// functions that apply the records of the log. Restore order inside the
/// file matches write order, so they see ids arrive densely.
pub fn read_snapshot(path: &Path) -> io::Result<(GlobalShard, Vec<ProjectShard>)> {
    let mut global = GlobalShard {
        users: crate::user::UserRegistry::new(),
        catalogs: crate::catalog::Catalogs::new(),
    };
    let mut shards: Vec<ProjectShard> = Vec::new();
    let mut ended = false;

    for text in BufReader::new(File::open(path)?).lines() {
        let text = text?;
        if text.is_empty() {
            continue;
        }
        let line = serde_json::from_str(&text).map_err(|e| corrupt(format!("bad line: {e}")))?;
        match line {
            SnapshotLine::Meta { .. } => {}
            SnapshotLine::User { email, id, nickname } => {
                global
                    .users
                    .add_user(id, nickname.into_owned(), email.into_owned())
                    .map_err(corrupt)?;
            }
            // The counter comes as its own line; 0 here, raised later.
            SnapshotLine::Key { key, user } => global.users.add_key(key.into_owned(), user, 0),
            SnapshotLine::KeyCounter { value } => global.users.raise_key_counter(value),
            SnapshotLine::Dbms { entry } => {
                global.catalogs.add_dbms(entry.into_owned()).map_err(|e| corrupt(e.to_string()))?;
            }
            SnapshotLine::Host { entry } => {
                global.catalogs.add_host(entry.into_owned()).map_err(|e| corrupt(e.to_string()))?;
            }
            SnapshotLine::Project {
                comments,
                contributors,
                dbms_labels,
                hosts,
                id,
                owner,
                synopsis,
                taken_down,
                title,
                visibility,
            } => {
                if id.0 as usize != shards.len() + 1 {
                    return Err(corrupt(format!("project #{} out of order", id.0)));
                }
                let mut p = Project::new(id, title, synopsis, owner, visibility);
                p.contributors = contributors.into_owned();
                p.comments = comments.into_owned();
                p.dbms_labels = dbms_labels.into_owned();
                p.hosts = hosts.into_owned();
                p.taken_down = taken_down;
                shards.push(ProjectShard::new(p));
            }
            SnapshotLine::Experiment {
                baseline_sql,
                dialect,
                grammar,
                id,
                pool_cap,
                project,
                template_cap,
                title,
            } => {
                let shard = shard_mut(&mut shards, project)?;
                let pool = QueryPool::from_dsl(&grammar, template_cap, pool_cap, dialect.map(Cow::into_owned))
                    .map_err(corrupt)?;
                shard.project.add_experiment(id, title.into_owned(), baseline_sql.into_owned(), pool);
            }
            SnapshotLine::PoolEntry { entry, experiment, project } => {
                shard_mut(&mut shards, project)?
                    .project
                    .experiment_mut(experiment)
                    .map_err(|e| corrupt(e.to_string()))?
                    .pool
                    .extend([entry.into_owned()])
                    .map_err(corrupt)?;
            }
            SnapshotLine::Task(task) => {
                let task = task.into_owned();
                shard_mut(&mut shards, task.project)?.queue.add([task]).map_err(corrupt)?;
            }
            SnapshotLine::Result(record) => {
                let record = record.into_owned();
                shard_mut(&mut shards, ProjectId(record.project))?.file_result(record);
            }
            SnapshotLine::End => ended = true,
        }
    }
    if !ended {
        return Err(corrupt("missing end marker (truncated snapshot)"));
    }
    Ok((global, shards))
}

fn shard_mut(shards: &mut [ProjectShard], id: ProjectId) -> io::Result<&mut ProjectShard> {
    if id.0 == 0 {
        return Err(corrupt("project id 0"));
    }
    shards
        .get_mut((id.0 - 1) as usize)
        .ok_or_else(|| corrupt(format!("item for unknown project #{}", id.0)))
}

/// The state's fingerprint: FNV-1a over the lines a checkpoint of it
/// holds between its `meta` and `end` lines — so two states with equal
/// fingerprints checkpoint to the same bytes.
pub fn state_fingerprint(global: &GlobalShard, shards: &[&ProjectShard]) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0 = fnv_fold(self.0, bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut out = Lines {
        out: Fnv(0xcbf29ce484222325),
        buf: String::new(),
    };
    write_state(&mut out, global, shards).expect("hashing cannot fail");
    out.out.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalogs, Visibility};
    use crate::user::UserRegistry;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sqalpel-snap-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated() -> (GlobalShard, Vec<ProjectShard>) {
        let mut users = UserRegistry::new();
        let (owner, worker) = (UserId(1), UserId(2));
        users.add_user(owner, "mlk".into(), "mlk@cwi.nl".into()).unwrap();
        users.add_user(worker, "pk".into(), "pk@cwi.nl".into()).unwrap();
        for _ in 0..3 {
            let (key, counter) = users.next_key(worker).unwrap();
            users.add_key(key, worker, counter);
        }
        let (key, _) = users.next_key(worker).unwrap();

        let mut project = Project::new(
            ProjectId(1),
            "nation-study",
            "TPC-H nation walk",
            owner,
            Visibility::Public,
        );
        project.contributors.insert(worker);
        project.dbms_labels.push("rowstore-2.0".into());
        project.hosts.push("bench-server".into());
        let baseline = "select count(*) from nation where n_name = 'BRAZIL'";
        let (id, pool) = project.new_experiment(owner, baseline, None, 1000, 100).unwrap();
        project.add_experiment(id, "nation".into(), baseline.into(), pool);
        let exp = &mut project.experiments[0];
        let mut rng = sqalpel_grammar::seeded_rng(42);
        exp.pool
            .walk(|d| {
                d.seed_baseline()?;
                d.add_random(4, &mut rng)
            })
            .unwrap();

        let mut shard = ProjectShard::new(project);
        let queries: Vec<_> = shard.project.experiments[0]
            .pool
            .entries()
            .iter()
            .map(|e| (e.id, e.sql.as_str().into()))
            .collect();
        let dbms = ["rowstore-2.0".to_string(), "colstore-5.1".into()];
        let tasks = shard.queue.new_tasks(ProjectId(1), ExperimentId(0), &queries, &dbms, &["bench-server".into()]);
        shard.queue.add(tasks).unwrap();
        let task = shard.queue.checkout("rowstore-2.0", "bench-server").unwrap();
        shard.queue.claim(task, key.clone(), None).unwrap();
        shard.queue.complete(task, &key, None).unwrap();
        let task = shard.queue.checkout("colstore-5.1", "bench-server").unwrap();
        shard.queue.claim(task, key, Some(3)).unwrap();
        (
            GlobalShard {
                users,
                catalogs: Catalogs::bootstrap(),
            },
            vec![shard],
        )
    }

    #[test]
    fn snapshot_round_trips_full_state() {
        let dir = tmp_dir("roundtrip");
        let (global, shards) = populated();
        let refs: Vec<&ProjectShard> = shards.iter().collect();
        let path = write_snapshot(&dir, 7, &global, &refs).unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap(), (path.clone(), 7));

        let (g2, s2) = read_snapshot(&path).unwrap();
        assert_eq!(g2.users.len(), global.users.len());
        assert_eq!(g2.users.key_counter(), global.users.key_counter());
        assert_eq!(
            g2.catalogs.dbms_entries().len(),
            global.catalogs.dbms_entries().len()
        );
        assert_eq!(s2.len(), 1);
        let (a, b) = (&shards[0], &s2[0]);
        assert_eq!(b.project.title, a.project.title);
        assert_eq!(b.project.contributors, a.project.contributors);
        assert_eq!(
            b.project.experiments[0].pool.len(),
            a.project.experiments[0].pool.len()
        );
        assert_eq!(b.queue.summary(), a.queue.summary());
        // A held claim keeps its holder and its nonce.
        let states = |s: &ProjectShard| s.queue.tasks().iter().map(|t| t.state.clone()).collect::<Vec<_>>();
        assert_eq!(states(b), states(a));
        assert_eq!(b.queue.id_base(), a.queue.id_base());
        assert_eq!(b.results.len(), a.results.len());
        assert_eq!(
            state_fingerprint(&g2, &s2.iter().collect::<Vec<_>>()),
            state_fingerprint(&global, &refs)
        );
        // Keys are written in key order, whatever order the map holds.
        let text = std::fs::read_to_string(&path).unwrap();
        let keys: Vec<&str> = text.lines().filter(|l| l.contains(r#""t":"key""#)).collect();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        // The fingerprint hashes those lines: any change to them shows.
        let mut changed = read_snapshot(&path).unwrap();
        changed.1[0].project.comments.push(Comment { author: UserId(1), text: "x".into() });
        assert_ne!(
            state_fingerprint(&changed.0, &changed.1.iter().collect::<Vec<_>>()),
            state_fingerprint(&global, &refs)
        );

        // A newer snapshot wins; pruning removes the older one.
        let path2 = write_snapshot(&dir, 9, &global, &refs).unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().1, 9);
        prune_older(&dir, 9).unwrap();
        assert!(!path.exists());
        assert!(path2.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = tmp_dir("truncated");
        let (global, shards) = populated();
        let refs: Vec<&ProjectShard> = shards.iter().collect();
        let path = write_snapshot(&dir, 1, &global, &refs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop the end marker.
        let cut = text.rfind("{\"").unwrap();
        std::fs::write(&path, &text[..cut]).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("end marker"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp_dir("empty");
        assert!(latest_snapshot(&dir).unwrap().is_none());
        assert!(latest_snapshot(Path::new("/nonexistent-state-dir"))
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
