//! Checkpointing: the full platform state as one JSONL file.
//!
//! A snapshot bounds recovery time — replay starts from the latest
//! snapshot instead of the beginning of history. The format is
//! line-oriented so huge states stream out without building one giant
//! JSON value: a `meta` line (snapshot LSN), then one line per item in
//! restore order, then an `end` marker that proves the file is whole.
//!
//! Written to a temp file and atomically renamed into place as
//! `snapshot-<lsn>.jsonl`; the directory is fsynced so the rename
//! survives a crash. Readers pick the highest LSN present; older
//! snapshots are pruned after a new one lands.

use super::wal::fnv_fold;
use crate::pool::{PoolEntry, QueryPool};
use crate::project::{Comment, ExperimentId, Project, ProjectId};
use crate::queue::Task;
use crate::results::ResultRecord;
use crate::shard::{GlobalShard, ProjectShard};
use crate::user::{ContributorKey, UserId};
use serde::text::TextSink;
use serde::{Deserialize, Sink, Value};
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

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
    /// One line: a JSON object whose members `describe` writes — its
    /// `"t"` tag among them, in key order like the rest (the sink
    /// contract of the `serde` stand-in).
    fn line(&mut self, describe: impl FnOnce(&mut TextSink)) -> io::Result<()> {
        self.buf.clear();
        let mut s = TextSink::new(&mut self.buf);
        s.begin_object();
        describe(&mut s);
        s.end_object();
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

    out.line(|s| {
        s.field("lsn", &lsn);
        s.field("projects", &shards.len());
        s.field("t", "meta");
    })?;
    write_state(&mut out, global, shards)?;
    out.line(|s| s.field("t", "end"))?;
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
        out.line(|s| {
            s.field("email", u.email_for_legal_contact());
            s.field("id", &u.id.0);
            s.field("nickname", &u.nickname);
            s.field("t", "user");
        })?;
    }
    // In key order: equal states checkpoint to equal bytes.
    let mut keys: Vec<_> = global.users.keys().collect();
    keys.sort_unstable();
    for (key, user) in keys {
        out.line(|s| {
            s.field("key", &key.0);
            s.field("t", "key");
            s.field("user", &user.0);
        })?;
    }
    out.line(|s| {
        s.field("t", "key_counter");
        s.field("value", &global.users.key_counter());
    })?;
    for entry in global.catalogs.dbms_entries() {
        out.line(|s| {
            s.field("entry", entry);
            s.field("t", "dbms");
        })?;
    }
    for entry in global.catalogs.host_entries() {
        out.line(|s| {
            s.field("entry", entry);
            s.field("t", "host");
        })?;
    }

    for shard in shards {
        let p = &shard.project;
        out.line(|s| {
            s.key("comments");
            s.begin_array();
            for c in &p.comments {
                s.begin_object();
                s.field("author", &c.author.0);
                s.field("text", &c.text);
                s.end_object();
            }
            s.end_array();
            s.key("contributors");
            s.begin_array();
            for u in &p.contributors {
                s.int(u.0 as i64);
            }
            s.end_array();
            s.field("dbms_labels", &p.dbms_labels);
            s.field("hosts", &p.hosts);
            s.field("id", &p.id.0);
            s.field("owner", &p.owner.0);
            s.field("synopsis", &p.synopsis);
            s.field("t", "project");
            s.field("taken_down", &p.taken_down);
            s.field("title", &p.title);
            s.field("visibility", &p.visibility);
        })?;

        for e in &p.experiments {
            out.line(|s| {
                s.field("baseline_sql", &e.baseline_sql);
                if let Some(d) = e.pool.dialect() {
                    s.field("dialect", d);
                }
                s.field("grammar", &e.pool.grammar().to_string());
                s.field("id", &e.id.0);
                s.field("pool_cap", &e.pool.pool_cap());
                s.field("project", &p.id.0);
                s.field("t", "experiment");
                s.field("template_cap", &e.pool.template_cap());
                s.field("title", &e.title);
            })?;
            for entry in e.pool.entries() {
                out.line(|s| {
                    s.field("entry", entry);
                    s.field("experiment", &e.id.0);
                    s.field("project", &p.id.0);
                    s.field("t", "pool_entry");
                })?;
            }
        }
        for task in shard.queue.tasks() {
            out.line(|s| {
                s.field("t", "task");
                s.field("task", task);
            })?;
        }
        for record in shard.results.all() {
            out.line(|s| {
                s.field("record", record);
                s.field("t", "result");
            })?;
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

/// Load a snapshot back into state parts, through the functions that
/// apply the records of the log. Restore order inside the file matches
/// write order, so they see ids arrive densely.
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
        let v: Value = serde_json::from_str(&text)
            .map_err(|e| corrupt(format!("bad line: {e}")))?;
        let num = |k: &str| u64::from_value(&v[k]).map_err(|e| corrupt(format!("{k}: {e}")));
        let text_field = |k: &str| {
            v[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| corrupt(format!("missing {k}")))
        };
        match v["t"].as_str().ok_or_else(|| corrupt("untagged line"))? {
            "meta" => {}
            "user" => {
                global
                    .users
                    .add_user(UserId(num("id")?), text_field("nickname")?, text_field("email")?)
                    .map_err(corrupt)?;
            }
            "key" => {
                // Counter comes as its own line; 0 here, raised later.
                let key = ContributorKey(text_field("key")?.into());
                global.users.add_key(key, UserId(num("user")?), 0);
            }
            "key_counter" => {
                global.users.raise_key_counter(num("value")?);
            }
            "dbms" => {
                let entry = crate::catalog::DbmsEntry::from_value(&v["entry"]).map_err(corrupt)?;
                global.catalogs.add_dbms(entry).map_err(|e| corrupt(e.to_string()))?;
            }
            "host" => {
                let entry = crate::catalog::HostEntry::from_value(&v["entry"]).map_err(corrupt)?;
                global.catalogs.add_host(entry).map_err(|e| corrupt(e.to_string()))?;
            }
            "project" => {
                let id = ProjectId(num("id")?);
                if id.0 as usize != shards.len() + 1 {
                    return Err(corrupt(format!("project #{} out of order", id.0)));
                }
                let mut p = Project::new(
                    id,
                    text_field("title")?,
                    text_field("synopsis")?,
                    UserId(num("owner")?),
                    crate::catalog::Visibility::from_value(&v["visibility"]).map_err(corrupt)?,
                );
                for u in v["contributors"].as_array().ok_or_else(|| corrupt("missing contributors"))? {
                    let user = UserId::from_value(u).map_err(|e| corrupt(format!("contributor: {e}")))?;
                    p.contributors.insert(user);
                }
                for c in v["comments"].as_array().ok_or_else(|| corrupt("missing comments"))? {
                    p.comments.push(Comment {
                        author: UserId::from_value(&c["author"]).map_err(|e| corrupt(format!("author: {e}")))?,
                        text: c["text"].as_str().ok_or_else(|| corrupt("bad comment"))?.to_string(),
                    });
                }
                for l in v["dbms_labels"].as_array().ok_or_else(|| corrupt("missing dbms_labels"))? {
                    p.dbms_labels.push(l.as_str().ok_or_else(|| corrupt("bad label"))?.to_string());
                }
                for h in v["hosts"].as_array().ok_or_else(|| corrupt("missing hosts"))? {
                    p.hosts.push(h.as_str().ok_or_else(|| corrupt("bad host"))?.to_string());
                }
                p.taken_down = v["taken_down"].as_bool().unwrap_or(false);
                shards.push(ProjectShard::new(p));
            }
            "experiment" => {
                let shard = shard_mut(&mut shards, ProjectId(num("project")?))?;
                let pool = QueryPool::from_dsl(
                    &text_field("grammar")?,
                    num("template_cap")? as usize,
                    num("pool_cap")? as usize,
                    v["dialect"].as_str().map(str::to_string),
                )
                .map_err(corrupt)?;
                shard.project.add_experiment(
                    ExperimentId(num("id")?),
                    text_field("title")?,
                    text_field("baseline_sql")?,
                    pool,
                );
            }
            "pool_entry" => {
                let shard = shard_mut(&mut shards, ProjectId(num("project")?))?;
                let exp = ExperimentId(num("experiment")?);
                let entry = PoolEntry::from_value(&v["entry"]).map_err(corrupt)?;
                shard
                    .project
                    .experiment_mut(exp)
                    .map_err(|e| corrupt(e.to_string()))?
                    .pool
                    .extend([entry])
                    .map_err(corrupt)?;
            }
            "task" => {
                let task = Task::from_value(&v["task"]).map_err(corrupt)?;
                let shard = shard_mut(&mut shards, task.project)?;
                shard.queue.add([task]).map_err(corrupt)?;
            }
            "result" => {
                let record = ResultRecord::from_value(&v["record"]).map_err(corrupt)?;
                let shard = shard_mut(&mut shards, ProjectId(record.project))?;
                shard.file_result(record);
            }
            "end" => {
                ended = true;
            }
            other => return Err(corrupt(format!("unknown tag {other:?}"))),
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
        shard.queue.claim(task, key.clone()).unwrap();
        shard.queue.complete(task, &key, None).unwrap();
        let task = shard.queue.checkout("colstore-5.1", "bench-server").unwrap();
        shard.queue.claim(task, key).unwrap();
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
