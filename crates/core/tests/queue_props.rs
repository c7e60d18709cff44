//! The queue's counts are the scans they replaced.
//!
//! `TaskQueue` answers "how many tasks per state" and "does this
//! experiment have anything claimable or in flight left" from counts it
//! maintains on every transition; the scans over all tasks that used to
//! answer them live on here, as the oracle. Random sequences of every
//! queue operation — over several experiments, targets and contributors,
//! legal and illegal alike — are checked after each step. The same
//! sequence is then taken through both recovery paths (snapshot →
//! restore, WAL → streamed replay), which must arrive at the same counts.

use proptest::prelude::*;
use sqalpel_core::durability::{read_snapshot, recover, write_snapshot, WalWriter};
use sqalpel_core::results::record;
use sqalpel_core::RunOutcome;
use sqalpel_core::{
    Catalogs, ContributorKey, ExperimentId, GlobalShard, Project, ProjectId, ProjectShard,
    QueryId, QueueSummary, TaskId, TaskQueue, TaskState, UserId, UserRegistry, Visibility,
    WalRecord,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const PROJECT: ProjectId = ProjectId(1);
const BASE: u64 = 1 << 32;
const EXPERIMENTS: u64 = 3;
const QUERIES: u64 = 5;
const TARGETS: [(&str, &str); 3] = [
    ("rowstore-2.0", "bench-server"),
    ("colstore-5.1", "bench-server"),
    ("rowstore-2.0", "raspberry-pi"),
];
const KEYS: usize = 3;

/// Deterministically expand a seed into op tuples (the vendored
/// proptest has no collection strategies; same idiom as metrics_props).
fn ops_from_seed(seed: u64, len: usize) -> Vec<(u8, u8, u8, u8)> {
    let mut x = seed | 1;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as u8
    };
    (0..len).map(|_| (next(), next(), next(), next())).collect()
}

fn key(n: u8) -> ContributorKey {
    ContributorKey(format!("ck_{}", n as usize % KEYS).into())
}

/// Enqueue one query for one target, the way the server does: decide
/// the tasks, then add them. `None` when the combination was queued.
fn enqueue(q: &mut TaskQueue, e: ExperimentId, query: QueryId, sql: &str, dbms: &str, host: &str) -> Option<TaskId> {
    let tasks = q.new_tasks(PROJECT, e, &[(query, Arc::from(sql))], &[dbms.into()], &[host.into()]);
    let id = tasks.first().map(|t| t.id);
    q.add(tasks).unwrap();
    id
}

// ------------------------------------------------------------ the oracle

/// `summary()` as it was computed before the counts: one pass over
/// every task.
fn scan_summary(q: &TaskQueue) -> QueueSummary {
    let mut s = QueueSummary::default();
    for t in q.tasks() {
        match t.state {
            TaskState::Queued => s.queued += 1,
            TaskState::Running { .. } => s.running += 1,
            TaskState::Done => s.finished += 1,
            TaskState::Failed(_) => s.failed += 1,
            TaskState::TimedOut => s.timed_out += 1,
        }
    }
    s
}

/// The deleted `experiment_drained` scan, as a count.
fn scan_open(q: &TaskQueue, experiment: ExperimentId) -> usize {
    q.tasks()
        .iter()
        .filter(|t| {
            t.experiment == experiment
                && matches!(t.state, TaskState::Queued | TaskState::Running { .. })
        })
        .count()
}

fn scan_queued_for(q: &TaskQueue, dbms: &str, host: &str) -> BTreeSet<TaskId> {
    q.tasks()
        .iter()
        .filter(|t| t.state == TaskState::Queued && &*t.dbms_label == dbms && &*t.host == host)
        .map(|t| t.id)
        .collect()
}

/// Every answer the queue gives from its bookkeeping, against the scans.
fn check_against_scans(q: &TaskQueue) {
    prop_assert_eq!(q.summary(), scan_summary(q));
    for e in 0..EXPERIMENTS + 1 {
        let e = ExperimentId(e);
        prop_assert_eq!(q.open_tasks(PROJECT, e), scan_open(q, e), "experiment {}", e.0);
    }
    // No other project has anything open here.
    prop_assert_eq!(q.open_tasks(ProjectId(2), ExperimentId(0)), 0);
    for (dbms, host) in TARGETS {
        // As a set: a task claimed by id and later requeued is listed
        // at both of its ready positions until a checkout passes them.
        let listed: BTreeSet<TaskId> = q.queued_for(dbms, host).into_iter().collect();
        prop_assert_eq!(listed, scan_queued_for(q, dbms, host), "{}/{}", dbms, host);
    }
    prop_assert!(q.queued_for("no-such-dbms", "bench-server").is_empty());
}

/// The same comparison between two queues (the original and a recovered
/// one): counts, and the state of every task.
fn check_same_counts(a: &TaskQueue, b: &TaskQueue) {
    check_against_scans(b);
    prop_assert_eq!(a.summary(), b.summary());
    for e in 0..EXPERIMENTS {
        let e = ExperimentId(e);
        prop_assert_eq!(a.open_tasks(PROJECT, e), b.open_tasks(PROJECT, e));
    }
    prop_assert_eq!(a.tasks().len(), b.tasks().len());
    for (x, y) in a.tasks().iter().zip(b.tasks()) {
        prop_assert_eq!((x.id, &x.state, &x.sql), (y.id, &y.state, &y.sql));
    }
    for (dbms, host) in TARGETS {
        let (qa, qb) = (a.queued_for(dbms, host), b.queued_for(dbms, host));
        prop_assert_eq!(
            qa.into_iter().collect::<BTreeSet<_>>(),
            qb.into_iter().collect::<BTreeSet<_>>()
        );
    }
}

fn tmp_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sqalpel-queue-props-{tag}-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn project() -> Project {
    Project::new(PROJECT, "queue", "queue props", UserId(1), Visibility::Public)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn counts_equal_scans_after_every_step(seed in any::<u64>(), len in 1usize..160) {
        let ops = ops_from_seed(seed, len);
        let mut q = TaskQueue::with_base(BASE);
        // What a server would have logged for the accepted operations.
        let mut log: Vec<WalRecord> = vec![WalRecord::ProjectCreated {
            id: PROJECT,
            owner: UserId(1),
            title: "queue".into(),
            synopsis: "queue props".into(),
            visibility: Visibility::Public,
        }];
        check_against_scans(&q);

        for (action, a, b, c) in ops {
            // Any id the queue has allocated, plus a few it has not.
            let some_id = TaskId(BASE + a as u64 % (q.tasks().len() as u64 + 2));
            let (dbms, host) = TARGETS[b as usize % TARGETS.len()];
            match action % 10 {
                // Enqueue (dedup turns repeats into no-ops). Several
                // actions, so queues grow past a handful of tasks.
                0..=2 => {
                    let (e, qid) = (a as u64 % EXPERIMENTS, c as u64 % QUERIES);
                    let sql = format!("select {qid} from t{e}");
                    if let Some(id) = enqueue(&mut q, ExperimentId(e), QueryId(qid), &sql, dbms, host) {
                        log.push(WalRecord::TasksEnqueued {
                            project: PROJECT,
                            tasks: vec![q.task(id).unwrap().clone()],
                        });
                    }
                }
                // The server's hand-out: the checked-out task, claimed.
                3 => {
                    if let Some(id) = q.checkout(dbms, host) {
                        let t = q.task(id).unwrap();
                        prop_assert_eq!((&*t.dbms_label, &*t.host), (dbms, host));
                        let claim = (a % 3 != 0).then_some(a as u64 % 4);
                        q.claim(id, key(c), claim).unwrap();
                        log.push(WalRecord::TaskClaimed { task: id, key: key(c), claim });
                    }
                }
                4 => {
                    if q.claim(some_id, key(c), None).is_ok() {
                        log.push(WalRecord::TaskClaimed { task: some_id, key: key(c), claim: None });
                    }
                }
                5 | 6 => {
                    let error = (action % 10 == 6).then(|| format!("boom {a}"));
                    if q.complete(some_id, &key(c), error.clone()).is_ok() {
                        let t = q.task(some_id).unwrap();
                        log.push(WalRecord::ReportAccepted {
                            task: some_id,
                            key: key(c),
                            error: error.clone(),
                            record: record(
                                t.id, t.project, t.experiment, t.query, &t.dbms_label,
                                &t.host, &key(c),
                                RunOutcome { times_ms: vec![1.0], rows: 1, error, ..Default::default() },
                            ),
                        });
                    }
                }
                7 => {
                    // Everything running is stuck at a zero timeout,
                    // nothing at an hour.
                    let timeout = if a % 4 == 0 { Duration::from_secs(3600) } else { Duration::ZERO };
                    let running = scan_summary(&q).running;
                    let reaped = q.stuck(timeout);
                    prop_assert_eq!(reaped.len(), if timeout.is_zero() { running } else { 0 });
                    prop_assert!(reaped.windows(2).all(|w| w[0] < w[1]), "id order");
                    for &id in &reaped {
                        q.time_out(id).unwrap();
                    }
                    if !reaped.is_empty() {
                        log.push(WalRecord::TasksReaped { project: PROJECT, tasks: reaped });
                    }
                }
                8 => {
                    if q.requeue(some_id).is_ok() {
                        log.push(WalRecord::TaskRequeued { task: some_id });
                    }
                }
                // The replay of a reap, on a task in any state: only a
                // running one moves.
                _ => {
                    let was_running = q
                        .task(some_id)
                        .is_ok_and(|t| matches!(t.state, TaskState::Running { .. }));
                    if q.time_out(some_id).is_ok() && was_running {
                        prop_assert_eq!(&q.task(some_id).unwrap().state, &TaskState::TimedOut);
                        log.push(WalRecord::TasksReaped { project: PROJECT, tasks: vec![some_id] });
                    }
                }
            }
            check_against_scans(&q);
        }

        // Snapshot -> restore: the real file format, read back.
        let dir = tmp_dir("snap", seed);
        let global = GlobalShard { users: UserRegistry::new(), catalogs: Catalogs::bootstrap() };
        let mut shard = ProjectShard::new(project());
        shard.queue.add(q.tasks().iter().cloned()).unwrap();
        check_same_counts(&q, &shard.queue);
        let path = write_snapshot(&dir, 1, &global, &[&shard]).unwrap();
        let (_, shards) = read_snapshot(&path).unwrap();
        check_same_counts(&q, &shards[0].queue);
        std::fs::remove_dir_all(&dir).unwrap();

        // WAL -> replay: the accepted operations, streamed back.
        let dir = tmp_dir("wal", seed);
        let mut wal = WalWriter::open(&dir, 0, 0).unwrap();
        for r in &log {
            wal.append(r).unwrap();
        }
        drop(wal);
        let recovered = recover(&dir).unwrap();
        prop_assert_eq!(recovered.replayed_records, log.len() as u64);
        check_same_counts(&q, &recovered.shards[0].queue);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `time_out` (a reap, live or replayed) on tasks in every state: only a
/// running task moves, and the counts follow it.
#[test]
fn time_out_counts_only_running_tasks() {
    let mut q = TaskQueue::with_base(BASE);
    let (dbms, host) = TARGETS[0];
    for qid in 0..4 {
        enqueue(&mut q, ExperimentId(0), QueryId(qid), "select 1 from t", dbms, host).unwrap();
    }
    let k = key(0);
    let done = q.checkout(dbms, host).unwrap();
    q.claim(done, k.clone(), None).unwrap();
    q.complete(done, &k, None).unwrap();
    let running = q.checkout(dbms, host).unwrap();
    q.claim(running, k, None).unwrap();
    for id in [done, running, TaskId(BASE + 2)] {
        q.time_out(id).unwrap();
    }
    assert!(q.time_out(TaskId(BASE + 99)).is_err());
    assert_eq!(
        q.summary(),
        QueueSummary { queued: 2, running: 0, finished: 1, failed: 0, timed_out: 1 }
    );
    assert_eq!(q.summary(), scan_summary(&q));
    assert_eq!(q.open_tasks(PROJECT, ExperimentId(0)), 2);
}
