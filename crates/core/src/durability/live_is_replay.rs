//! The live state is the replay of its own log, and an op that returns
//! `Err` changed nothing — also when the append that would have logged it
//! fails.
//!
//! A test-only flag on [`super::WalWriter`] fails the next append before
//! it writes a byte. Four regression tests fail the first of two calls
//! that once left a state directory `SqalpelServer::open` refused; the
//! wall runs random sequences of every op that logs, with one append
//! failure at a random step, and after every op compares the live state
//! with what its directory recovers to. Who holds what is said once, by
//! the queues, so after every op each user's in-flight count must also
//! equal a recount of the `Running` tasks their keys hold — on the live
//! server and on the recovered one — and a retried claim must resume the
//! same task on both. The same sequence, minus the step that failed, must
//! end on an in-memory server in the same state.

use super::recover;
use crate::admission::AdmissionConfig;
use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::RunOutcome;
use crate::error::PlatformResult;
use crate::pool::Strategy;
use crate::project::{ExperimentId, ProjectId};
use crate::queue::TaskId;
use crate::server::SqalpelServer;
use crate::user::{ContributorKey, UserId};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqalpel-live-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-memory server over the state `dir` recovers to, its in-flight
/// counts recounted as `SqalpelServer::open` recounts them.
fn recovered(dir: &Path) -> SqalpelServer {
    let r = recover(dir).unwrap_or_else(|e| panic!("recovery: {e}"));
    SqalpelServer::from_recovered(r, AdmissionConfig::default())
}

/// The live state equals its directory's, and the directory reopens to
/// it; the reopened server.
fn reopen(server: SqalpelServer, dir: &Path) -> SqalpelServer {
    let live = server.state_fingerprint();
    assert_eq!(live, recovered(dir).state_fingerprint());
    drop(server);
    let reopened = SqalpelServer::open(dir).unwrap_or_else(|e| panic!("reopen: {e}"));
    assert_eq!(reopened.state_fingerprint(), live);
    reopened
}

const GRAMMAR: &str = sqalpel_grammar::FIG1_GRAMMAR;
const TARGETS: [(&str, &str); 3] = [
    ("rowstore-2.0", "bench-server"),
    ("colstore-5.1", "bench-server"),
    ("rowstore-2.0", "raspberry-pi"),
];

fn outcome(error: bool) -> RunOutcome {
    RunOutcome {
        times_ms: vec![1.5, 2.0],
        rows: 3,
        error: error.then(|| "boom".to_string()),
        load_before: Default::default(),
        load_after: Default::default(),
        extras: serde_json::Value::Null,
        fingerprint: None,
        profile: None,
    }
}

/// An owner, a contributor with a key, and a public project over
/// [`TARGETS`] with one experiment on the Figure 1 grammar.
fn project(server: &SqalpelServer) -> (UserId, ContributorKey, ProjectId, ExperimentId) {
    let owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
    let worker = server.register_user("pk", "pk@cwi.nl").unwrap();
    let key = server.issue_key(worker).unwrap();
    let project = server
        .create_project(owner, "nation", "the Figure 1 space", Visibility::Public)
        .unwrap();
    let labels = |i: usize| TARGETS.iter().map(move |t| [t.0, t.1][i].to_string());
    let (mut dbms, mut hosts): (Vec<String>, Vec<String>) =
        (labels(0).collect(), labels(1).collect());
    dbms.dedup();
    hosts.sort();
    hosts.dedup();
    server.set_targets(project, owner, dbms, hosts).unwrap();
    server.invite(project, owner, worker).unwrap();
    let grammar = sqalpel_grammar::Grammar::parse(GRAMMAR).unwrap();
    let exp = server
        .add_experiment(
            project,
            owner,
            "nation",
            "select 1",
            Some(grammar),
            1000,
            40,
        )
        .unwrap();
    (owner, key, project, exp)
}

// ------------------------------------------- the four bricking sequences
//
// Each fails the first call's append, makes the second call, and reopens
// the directory before it looks at what the second call did: a server
// that kept the first call's change logged a second record its replay
// cannot apply.

#[test]
fn a_failed_registration_leaves_no_user_behind() {
    let dir = tmp_dir("register");
    let server = SqalpelServer::open(&dir).unwrap();
    server.fail_next_append(true);
    assert!(server.register_user("mlk", "mlk@cwi.nl").is_err());
    let second = server.register_user("pk", "pk@cwi.nl");
    let server = reopen(server, &dir);
    assert_eq!(second.unwrap(), UserId(1));
    assert!(server.register_user("mlk", "mlk@cwi.nl").is_ok());
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_enqueue_leaves_no_task_to_claim() {
    let dir = tmp_dir("enqueue");
    let server = SqalpelServer::open(&dir).unwrap();
    let (owner, key, project, exp) = project(&server);
    server.seed_pool(project, exp, owner, 3, 7).unwrap();
    server.fail_next_append(true);
    assert!(server.enqueue_experiment(project, exp, owner).is_err());
    let (dbms, host) = TARGETS[0];
    let claimed = server.request_task(&key, dbms, host);
    let server = reopen(server, &dir);
    assert!(claimed.unwrap().is_none());
    assert_eq!(server.queue_summary().total(), 0);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_seed_leaves_no_entry_to_morph() {
    let dir = tmp_dir("seed");
    let server = SqalpelServer::open(&dir).unwrap();
    let (owner, _, project, exp) = project(&server);
    server.fail_next_append(true);
    assert!(server.seed_pool(project, exp, owner, 3, 7).is_err());
    let morphed = server.morph_pool(project, exp, owner, None, 8, 11);
    let server = reopen(server, &dir);
    assert!(morphed.is_err(), "the pool is empty");
    let entries = server.with_project_view(project, owner, |p| p.experiments[0].pool.len());
    assert_eq!(entries.unwrap(), 0);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_reap_leaves_its_tasks_running() {
    let dir = tmp_dir("reap");
    let server = SqalpelServer::open(&dir).unwrap();
    let (owner, key, project, exp) = project(&server);
    server.seed_pool(project, exp, owner, 3, 7).unwrap();
    server.enqueue_experiment(project, exp, owner).unwrap();
    let (dbms, host) = TARGETS[0];
    let task = server.request_task(&key, dbms, host).unwrap().unwrap();
    server.fail_next_append(true);
    let reaped = server.reap_stuck(Duration::ZERO);
    assert_eq!(server.metrics().snapshot().counter("wal.errors"), Some(1));
    let requeued = server.requeue(task.id);
    let server = reopen(server, &dir);
    assert!(reaped.is_empty());
    assert!(requeued.is_err(), "the task still runs");
    assert_eq!(server.queue_summary().running, 1);
    // Its holder can still report it.
    server.report_result(&key, task.id, outcome(false)).unwrap();
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------------------- the wall

/// Deterministically expand a seed into op tuples (the vendored proptest
/// has no collection strategies; same idiom as `queue_props`).
fn ops_from_seed(seed: u64, len: usize) -> Vec<[u8; 4]> {
    let mut x = seed | 1;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u8
    };
    (0..len).map(|_| [next(), next(), next(), next()]).collect()
}

/// What the ops of one sequence have made so far, to draw arguments
/// from: ids that exist, and — one past the end of each list — one that
/// does not.
#[derive(Default)]
struct Made {
    users: Vec<UserId>,
    keys: Vec<ContributorKey>,
    projects: Vec<ProjectId>,
    experiments: Vec<(ProjectId, ExperimentId)>,
    /// Tasks handed out, with the key they went to.
    claims: Vec<(TaskId, ContributorKey)>,
}

fn pick<T: Clone>(items: &[T], n: u8, missing: T) -> T {
    items
        .get(n as usize % (items.len() + 1))
        .cloned()
        .unwrap_or(missing)
}

/// What one op did, as far as the wall checks it.
#[derive(Debug, PartialEq)]
enum Did {
    Ok,
    Err,
    /// `reap_stuck`, which reports what it reaped instead of failing.
    Reaped(usize),
}

fn did<T>(r: PlatformResult<T>) -> Did {
    if r.is_ok() {
        Did::Ok
    } else {
        Did::Err
    }
}

/// Op 13's stand-in on a server that is not to claim: the cursor a
/// failed hand-out advanced, advanced without a claim.
fn advance_cursor(server: &SqalpelServer, m: &Made, [_, a, ..]: [u8; 4]) {
    let key = pick(&m.keys, a, ContributorKey("ck_none".into()));
    assert!(server.request_task(&key, "none", "none").unwrap().is_none());
}

/// The nonces the wall claims under, and none.
const NONCES: [Option<u64>; 6] = [None, Some(0), Some(1), Some(2), Some(3), Some(4)];

/// The live server and the one its directory recovers to agree on who
/// holds what: each side's in-flight counts are its queues' recount, and
/// every key's retry of every target and nonce resumes the same task.
fn holds_agree(live: &SqalpelServer, rec: &SqalpelServer, m: &Made) {
    let inflight = live.admission().inflight();
    prop_assert_eq!(&inflight, &live.recount_inflight(), "live counts against the live queues");
    prop_assert_eq!(&inflight, &rec.admission().inflight(), "live counts against the recovered queues");
    for key in &m.keys {
        for (dbms, host) in TARGETS {
            for nonce in NONCES {
                prop_assert_eq!(
                    live.held_claim(key, dbms, host, nonce).map(|t| t.id),
                    rec.held_claim(key, dbms, host, nonce).map(|t| t.id),
                    "a retry of {:?} under {:?} on {}/{}", key, nonce, dbms, host
                );
            }
        }
    }
}

/// Run one op on `server`, recording what it made in `m`.
fn step(server: &SqalpelServer, m: &mut Made, [op, a, b, c]: [u8; 4]) -> Did {
    let user = |n: u8| pick(&m.users, n, UserId(99));
    let owner_of = |p: ProjectId| UserId(p.0 % 3 + 1);
    match op % 24 {
        0 => {
            let email = if c % 8 == 0 {
                "nobody".to_string()
            } else {
                format!("u{a}@x.io")
            };
            let r = server.register_user(&format!("u{}", a % 12), &email);
            if let Ok(id) = r {
                m.users.push(id);
            }
            did(r)
        }
        1 => {
            let r = server.issue_key(user(a));
            if let Ok(key) = &r {
                m.keys.push(key.clone());
            }
            did(r)
        }
        2 => did(server.add_dbms(DbmsEntry {
            name: format!("db{}", a % 3),
            version: "1".into(),
            vendor: "v".into(),
            settings: Default::default(),
            visibility: if b % 2 == 0 {
                Visibility::Public
            } else {
                Visibility::Private
            },
        })),
        3 => did(server.add_host(HostEntry {
            name: format!("host{}", a % 3),
            cpu: "c".into(),
            cores: 2,
            ram_gb: 4,
            os: "linux".into(),
            visibility: Visibility::Public,
        })),
        4 => {
            // Owners are users 1-3 in turn, so a project's owner is known.
            let owner = owner_of(ProjectId(m.projects.len() as u64 + 1));
            let visibility = if a % 4 == 0 {
                Visibility::Private
            } else {
                Visibility::Public
            };
            let r = server.create_project(owner, &format!("p{a}"), "s", visibility);
            if let Ok(id) = r {
                m.projects.push(id);
            }
            did(r)
        }
        5 => {
            let p = pick(&m.projects, a, ProjectId(99));
            let actor = if c % 4 == 0 { user(c) } else { owner_of(p) };
            did(server.invite(p, actor, user(b)))
        }
        6 => {
            let p = pick(&m.projects, a, ProjectId(99));
            let mut dbms: Vec<String> = TARGETS
                .iter()
                .take(1 + b as usize % 3)
                .map(|t| t.0.into())
                .collect();
            if c % 5 == 0 {
                dbms.push(format!("db{}-1", c % 3));
            }
            let hosts = vec!["bench-server".into(), "raspberry-pi".into()];
            did(server.set_targets(p, owner_of(p), dbms, hosts))
        }
        7 => {
            let p = pick(&m.projects, a, ProjectId(99));
            did(server.comment(p, user(b), &format!("comment {c}")))
        }
        8 => {
            // Rare: a taken-down project hands nothing out any more.
            if a % 6 != 0 {
                return Did::Ok;
            }
            did(server.take_down(pick(&m.projects, b, ProjectId(99))))
        }
        9 => {
            let p = pick(&m.projects, a, ProjectId(99));
            let actor = if c % 4 == 0 { user(c) } else { owner_of(p) };
            let grammar = sqalpel_grammar::Grammar::parse(GRAMMAR).unwrap();
            let cap = 6 + b as usize % 30;
            let r = server.add_experiment(
                p,
                actor,
                &format!("e{b}"),
                "select 1",
                Some(grammar),
                1000,
                cap,
            );
            if let Ok(e) = r {
                m.experiments.push((p, e));
            }
            did(r)
        }
        10 | 11 => {
            let (p, e) = pick(&m.experiments, a, (ProjectId(99), ExperimentId(9)));
            did(server.seed_pool(p, e, owner_of(p), b as usize % 5, c as u64))
        }
        12 | 13 => {
            let (p, e) = pick(&m.experiments, a, (ProjectId(99), ExperimentId(9)));
            let strategy = [
                None,
                Some(Strategy::Alter),
                Some(Strategy::Expand),
                Some(Strategy::Prune),
            ][b as usize % 4];
            did(server.morph_pool(p, e, owner_of(p), strategy, 1 + c as usize % 4, c as u64))
        }
        14 => {
            let (p, e) = pick(&m.experiments, a, (ProjectId(99), ExperimentId(9)));
            did(server.enqueue_experiment(p, e, owner_of(p)))
        }
        15..=17 => {
            let key = pick(&m.keys, a, ContributorKey("ck_none".into()));
            let (dbms, host) = TARGETS[b as usize % TARGETS.len()];
            let nonce = (c % 3 != 0).then_some(c as u64 % 5);
            let r = server.request_task_claimed(&key, dbms, host, nonce);
            if let Ok(Some(task)) = &r {
                if !m.claims.iter().any(|(t, _)| *t == task.id) {
                    m.claims.push((task.id, key));
                }
            }
            did(r)
        }
        18 | 19 => {
            let (task, key) = pick(
                &m.claims,
                a,
                (TaskId(1 << 32), ContributorKey("ck_none".into())),
            );
            // Now and then another key, or a retry of a report filed.
            let key = if c % 7 == 0 {
                pick(&m.keys, b, key)
            } else {
                key
            };
            did(server.report_result(&key, task, outcome(b % 5 == 0)))
        }
        20 => {
            // One batch of one key's claims in one project: a batch that
            // spans projects commits per project.
            let Some((first, key)) = m.claims.get(a as usize % m.claims.len().max(1)).cloned()
            else {
                return did(server.report_batch(&ContributorKey("ck_none".into()), &[]));
            };
            let project = crate::shard::project_of_task(first);
            let reports: Vec<(TaskId, RunOutcome)> = m
                .claims
                .iter()
                .filter(|(t, k)| *k == key && crate::shard::project_of_task(*t) == project)
                .take(1 + b as usize % 4)
                .map(|(t, _)| (*t, outcome(c % 3 == 0)))
                .collect();
            did(server.report_batch(&key, &reports))
        }
        21 => {
            let timeout = if a % 3 == 0 {
                Duration::from_secs(3600)
            } else {
                Duration::ZERO
            };
            Did::Reaped(server.reap_stuck(timeout).len())
        }
        22 => {
            let (task, _) = pick(
                &m.claims,
                a,
                (TaskId(1 << 32), ContributorKey("ck_none".into())),
            );
            did(server.requeue(task))
        }
        _ => {
            let p = pick(&m.projects, a, ProjectId(99));
            let actor = if c % 5 == 0 { user(c) } else { owner_of(p) };
            did(server.hide_result(p, actor, b as usize % 6, c % 2 == 0))
        }
    }
}

/// The ops every sequence starts from: three users, keys, a project with
/// an experiment, seeded and enqueued.
fn prelude() -> Vec<[u8; 4]> {
    let mut ops = vec![
        [0, 1, 0, 1],
        [0, 2, 0, 1],
        [0, 3, 0, 1],
        [1, 1, 0, 0],
        [1, 2, 0, 0],
    ];
    ops.extend([
        [4, 1, 0, 0],
        [6, 0, 2, 1],
        [5, 0, 2, 1],
        [9, 0, 20, 1],
        [10, 0, 4, 3],
        [14, 0, 0, 0],
    ]);
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_live_state_is_the_replay_of_its_log(seed in any::<u64>(), len in 20usize..70, fail_at in 0usize..70) {
        let mut ops = prelude();
        ops.extend(ops_from_seed(seed, len));
        let dir = tmp_dir(&format!("wall-{seed:x}"));
        let durable = SqalpelServer::open(&dir).unwrap();
        let mut made = Made::default();
        let mut failed: Option<usize> = None;
        let start = prelude().len();
        for (i, &op) in ops.iter().enumerate() {
            // One append fails: the first one at or after `fail_at` made
            // by an op other than a reap (which reports no error; its
            // failure is a regression test of its own).
            let inject = failed.is_none() && i >= start + fail_at % len && op[0] % 24 != 21;
            durable.fail_next_append(inject);
            let before = durable.state_fingerprint();
            let outcome = step(&durable, &mut made, op);
            if inject && !durable.append_failure_pending() {
                failed = Some(i);
                prop_assert_eq!(&outcome, &Did::Err, "op {:?} at step {} lost its append", op, i);
                prop_assert_eq!(durable.state_fingerprint(), before, "a failed op changed the state");
            }
            let rec = recovered(&dir);
            prop_assert_eq!(durable.state_fingerprint(), rec.state_fingerprint(), "after op {:?} at step {}", op, i);
            holds_agree(&durable, &rec, &made);
            if op[0] % 7 == 0 {
                durable.snapshot_now().unwrap();
            }
        }
        durable.fail_next_append(false);

        // The same sequence in memory, without the step that failed.
        let memory = SqalpelServer::new();
        let mut made_in_memory = Made::default();
        for (i, &op) in ops.iter().enumerate() {
            if Some(i) == failed {
                if op[0] % 24 >= 15 && op[0] % 24 <= 17 {
                    advance_cursor(&memory, &made_in_memory, op);
                }
                continue;
            }
            step(&memory, &mut made_in_memory, op);
        }
        prop_assert_eq!(memory.state_fingerprint(), durable.state_fingerprint());
        prop_assert_eq!(memory.admission().inflight(), durable.admission().inflight());
        drop(durable);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
