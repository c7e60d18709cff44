//! Boot-time recovery: latest snapshot + WAL tail → platform state.
//!
//! Replay applies each [`WalRecord`] as the physical outcome it logged,
//! in log order, against plain (un-locked) state parts — recovery is
//! single-threaded, locks come afterwards when the parts are wrapped in
//! a [`crate::shard::ShardedState`]. [`apply`] only routes a record: the
//! part it changes applies it ([`Apply`]) with the function the live
//! server applied it with after logging it. It streams: a record is read,
//! applied **by value** — its strings move into the state, and a task or
//! result re-shares the texts its neighbours already hold — and dropped
//! before the next is parsed, so the memory high-water mark of a boot is
//! the recovered state plus one record, not the state plus the log.
//! Replay errors mean a corrupt log (records that contradict the state
//! they claim to extend) and abort recovery rather than guessing.

use super::snapshot::{latest_snapshot, read_snapshot};
use super::wal::{read_wal, Part, WalRecord, WAL_FILE};
use crate::catalog::Catalogs;
use crate::shard::{Apply, GlobalShard, ProjectShard};
use crate::user::UserRegistry;
use std::io;
use std::path::Path;

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("recovery: {}", msg.into()))
}

/// The state a state directory recovered to.
pub struct RecoveredState {
    pub global: GlobalShard,
    pub shards: Vec<ProjectShard>,
    /// True when the directory held neither snapshot nor WAL records —
    /// the server should run its usual bootstrap (demo data etc.).
    pub fresh: bool,
    /// LSN of the snapshot replay started from (0 = none).
    pub snapshot_lsn: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// WAL records skipped because the snapshot already contained them
    /// (a crash landed between persisting the snapshot and truncating
    /// the log).
    pub skipped_records: u64,
    /// Sequence number the reopened WAL continues from.
    pub next_lsn: u64,
    /// Torn lines discarded at the WAL tail.
    pub torn_records: usize,
    /// Byte length of the WAL's intact records: where the reopened log
    /// continues, whatever torn bytes lie behind it.
    pub wal_len: u64,
}

/// Recover platform state from `dir`. An empty or missing directory
/// yields a fresh state (bootstrap catalogs, no users, no projects).
pub fn recover(dir: &Path) -> io::Result<RecoveredState> {
    let (mut global, mut shards, snapshot_lsn) = match latest_snapshot(dir)? {
        Some((path, lsn)) => {
            let (g, s) = read_snapshot(&path)?;
            (g, s, lsn)
        }
        None => (
            GlobalShard {
                users: UserRegistry::new(),
                catalogs: Catalogs::bootstrap(),
            },
            Vec::new(),
            0,
        ),
    };

    let mut wal = read_wal(&dir.join(WAL_FILE))?;
    let mut replayed_records = 0u64;
    let mut skipped_records = 0u64;
    let mut last_lsn = snapshot_lsn;
    for item in &mut wal {
        let (lsn, record) = item?;
        if lsn <= snapshot_lsn {
            // The crash landed after the snapshot was persisted but
            // before the WAL truncation reached disk: the record's
            // effect is already inside the snapshot.
            skipped_records += 1;
            continue;
        }
        if lsn <= last_lsn {
            return Err(corrupt(format!(
                "wal lsn {lsn} out of order (after {last_lsn})"
            )));
        }
        apply(record, &mut global, &mut shards).map_err(corrupt)?;
        last_lsn = lsn;
        replayed_records += 1;
    }

    Ok(RecoveredState {
        fresh: snapshot_lsn == 0 && replayed_records == 0 && shards.is_empty() && global.users.is_empty(),
        global,
        shards,
        snapshot_lsn,
        replayed_records,
        skipped_records,
        next_lsn: last_lsn,
        torn_records: wal.torn(),
        wal_len: wal.intact_len(),
    })
}

/// Apply one WAL record to the state parts, consuming it: route it to
/// the part it changes ([`WalRecord::part`]), which applies it with the
/// function the live server applied it with.
pub fn apply(
    record: WalRecord,
    global: &mut GlobalShard,
    shards: &mut Vec<ProjectShard>,
) -> Result<(), String> {
    match record.part() {
        None => Ok(()),
        Some(Part::Global) => global.apply(record),
        Some(Part::ShardMap) => {
            shards.push(ProjectShard::created(record, shards.len())?);
            Ok(())
        }
        Some(Part::Project(project)) => project
            .0
            .checked_sub(1)
            .and_then(|i| shards.get_mut(i as usize))
            .ok_or(format!("record for unknown project #{}", project.0))?
            .apply(record),
    }
}

#[cfg(test)]
mod tests {
    use super::super::wal::WalWriter;
    use super::super::Durability;
    use super::*;
    use crate::catalog::Visibility;
    use crate::driver::RunOutcome;
    use sqalpel_grammar::Grammar;
    use crate::queue::{TaskId, TaskState};
    use crate::results;
    use crate::user::{ContributorKey, UserId};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sqalpel-recover-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_dir_recovers_fresh() {
        let dir = tmp_dir("fresh");
        let rec = recover(&dir).unwrap();
        assert!(rec.fresh);
        assert!(rec.shards.is_empty());
        assert!(rec.global.catalogs.dbms("rowstore-2.0").is_some());
        assert_eq!(rec.next_lsn, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A miniature history: user, key, project, experiment, pool, queue,
    /// one claimed, one reported — written straight to the WAL.
    fn write_history(dir: &Path) -> ContributorKey {
        let key = ContributorKey("ck_demo".into());
        let grammar =
            Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let mut pool = crate::pool::QueryPool::new(grammar.clone(), 1000, 100).unwrap();
        pool.walk(|d| d.seed_baseline()).unwrap();
        let entry = pool.entries()[0].clone();
        let base = 1u64 << 32;

        let mut wal = WalWriter::open(dir, 0, 0).unwrap();
        let records = vec![
            WalRecord::UserRegistered {
                id: UserId(1),
                nickname: "mlk".into(),
                email: "mlk@cwi.nl".into(),
            },
            WalRecord::KeyIssued {
                user: UserId(1),
                key: key.clone(),
                counter: 1,
            },
            WalRecord::ProjectCreated {
                id: crate::project::ProjectId(1),
                owner: UserId(1),
                title: "nation".into(),
                synopsis: "s".into(),
                visibility: Visibility::Public,
            },
            WalRecord::TargetsSet {
                project: crate::project::ProjectId(1),
                dbms_labels: vec!["rowstore-2.0".into()],
                hosts: vec!["bench-server".into()],
            },
            WalRecord::ExperimentAdded {
                project: crate::project::ProjectId(1),
                id: crate::project::ExperimentId(0),
                title: "nation".into(),
                baseline_sql: "select count(*) from nation where n_name = 'BRAZIL'".into(),
                grammar: grammar.to_string(),
                template_cap: 1000,
                pool_cap: 100,
                dialect: None,
            },
            WalRecord::PoolExtended {
                project: crate::project::ProjectId(1),
                experiment: crate::project::ExperimentId(0),
                entries: vec![entry.clone()],
            },
            WalRecord::TasksEnqueued {
                project: crate::project::ProjectId(1),
                tasks: vec![
                    crate::queue::Task {
                        id: TaskId(base),
                        project: crate::project::ProjectId(1),
                        experiment: crate::project::ExperimentId(0),
                        query: entry.id,
                        sql: entry.sql.as_str().into(),
                        dbms_label: "rowstore-2.0".into(),
                        host: "bench-server".into(),
                        state: TaskState::Queued,
                        started: None,
                    },
                    crate::queue::Task {
                        id: TaskId(base + 1),
                        project: crate::project::ProjectId(1),
                        experiment: crate::project::ExperimentId(0),
                        query: entry.id,
                        sql: entry.sql.as_str().into(),
                        dbms_label: "colstore-5.1".into(),
                        host: "bench-server".into(),
                        state: TaskState::Queued,
                        started: None,
                    },
                ],
            },
            WalRecord::TaskClaimed {
                task: TaskId(base),
                key: key.clone(),
                claim: None,
            },
            WalRecord::ReportAccepted {
                task: TaskId(base),
                key: key.clone(),
                error: None,
                record: results::record(
                    TaskId(base),
                    crate::project::ProjectId(1),
                    crate::project::ExperimentId(0),
                    entry.id,
                    "rowstore-2.0",
                    "bench-server",
                    &key,
                    RunOutcome { times_ms: vec![1.0, 2.0, 3.0], rows: 5, ..RunOutcome::default() },
                ),
            },
            WalRecord::TaskClaimed {
                task: TaskId(base + 1),
                key: key.clone(),
                claim: Some(2),
            },
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        key
    }

    #[test]
    fn wal_only_replay_rebuilds_everything() {
        let dir = tmp_dir("replay");
        let key = write_history(&dir);
        let rec = recover(&dir).unwrap();
        assert!(!rec.fresh);
        assert_eq!(rec.replayed_records, 10);
        assert_eq!(rec.next_lsn, 10);

        assert_eq!(rec.global.users.resolve_key(&key), Some(UserId(1)));
        let shard = &rec.shards[0];
        assert_eq!(shard.project.title, "nation");
        assert_eq!(shard.project.experiments[0].pool.len(), 1);
        let s = shard.queue.summary();
        assert_eq!((s.finished, s.running, s.queued), (1, 1, 0));
        // The in-flight claim is re-held: idempotent re-hand-out works.
        assert!(shard
            .queue
            .running_claim(&key, "colstore-5.1", "bench-server", Some(2))
            .is_some());
        assert_eq!(shard.results.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_equals_wal_only() {
        let dir = tmp_dir("snap-tail");
        let key = write_history(&dir);
        let wal_only = recover(&dir).unwrap();

        // Re-open through the Durability handle, snapshot, then log two
        // more records: replay must continue from the snapshot.
        let (dur, rec) = Durability::open(&dir).unwrap();
        dur.snapshot(&rec.global, &rec.shards.iter().collect::<Vec<_>>())
            .unwrap();
        let base = 1u64 << 32;
        dur.log(&WalRecord::ReportAccepted {
            task: TaskId(base + 1),
            key: key.clone(),
            error: Some("boom".into()),
            record: results::record(
                TaskId(base + 1),
                crate::project::ProjectId(1),
                crate::project::ExperimentId(0),
                crate::pool::QueryId(0),
                "colstore-5.1",
                "bench-server",
                &key,
                RunOutcome { error: Some("boom".into()), ..RunOutcome::default() },
            ),
        })
        .unwrap();
        dur.log(&WalRecord::ResultHidden {
            project: crate::project::ProjectId(1),
            index: 1,
            hidden: true,
        })
        .unwrap();
        drop(dur);

        let rec2 = recover(&dir).unwrap();
        assert_eq!(rec2.snapshot_lsn, 10);
        assert_eq!(rec2.replayed_records, 2);
        assert_eq!(rec2.next_lsn, 12);
        let shard = &rec2.shards[0];
        let s = shard.queue.summary();
        assert_eq!((s.finished, s.failed, s.running), (1, 1, 0));
        assert_eq!(shard.results.len(), 2);
        assert!(shard.results.all()[1].hidden);
        // Users/catalogs carried through the snapshot.
        assert_eq!(
            rec2.global.users.len(),
            wal_only.global.users.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_snapshot_is_skipped_not_replayed() {
        let dir = tmp_dir("stale-wal");
        write_history(&dir);
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();

        let (dur, rec) = Durability::open(&dir).unwrap();
        dur.snapshot(&rec.global, &rec.shards.iter().collect::<Vec<_>>())
            .unwrap();
        drop(dur);
        // Crash window: the snapshot rename + dir fsync made it to disk
        // but the WAL truncation did not — the full pre-snapshot log is
        // still there next to the snapshot that already contains it.
        std::fs::write(dir.join(WAL_FILE), &wal_bytes).unwrap();

        let rec2 = recover(&dir).unwrap();
        assert_eq!(rec2.snapshot_lsn, 10);
        assert_eq!(rec2.skipped_records, 10, "stale prefix ignored");
        assert_eq!(rec2.replayed_records, 0);
        assert_eq!(rec2.next_lsn, 10);
        let s = rec2.shards[0].queue.summary();
        assert_eq!((s.finished, s.running), (1, 1));
        assert_eq!(rec2.shards[0].results.len(), 1, "no duplicated report");

        // Life goes on past the stale tail: a record logged after the
        // reopen replays on the next boot while the prefix stays skipped.
        let (dur, _rec) = Durability::open(&dir).unwrap();
        dur.log(&WalRecord::ResultHidden {
            project: crate::project::ProjectId(1),
            index: 0,
            hidden: true,
        })
        .unwrap();
        drop(dur);
        let rec3 = recover(&dir).unwrap();
        assert_eq!((rec3.skipped_records, rec3.replayed_records), (10, 1));
        assert_eq!(rec3.next_lsn, 11);
        assert!(rec3.shards[0].results.all()[0].hidden);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contradictory_replay_is_rejected() {
        let dir = tmp_dir("contradict");
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        // A claim for a task that was never enqueued.
        wal.append(&WalRecord::ProjectCreated {
            id: crate::project::ProjectId(1),
            owner: UserId(1),
            title: "x".into(),
            synopsis: "y".into(),
            visibility: Visibility::Public,
        })
        .unwrap();
        wal.append(&WalRecord::TaskClaimed {
            task: TaskId(1u64 << 32),
            key: ContributorKey("ck_x".into()),
            claim: None,
        })
        .unwrap();
        drop(wal);
        assert!(recover(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
