//! Property and e2e tests for server-push notifications.
//!
//! The delivery contract under test: every enqueue that adds work while
//! a subscription is parked yields **exactly one** `QueueReady` per live
//! subscription — never to closed or never-subscribed connections — and
//! that contract holds under arbitrary interleavings with claims and
//! reports. On top of the hub, the worker-pool e2e proves the point of
//! it all: push-subscribed workers never empty-poll (`queue.empty_polls`
//! stays flat at zero) and drain late work no slower than pollers.

use proptest::prelude::*;
use sqalpel_core::{
    AdmissionConfig, ContributorKey, DriverConfig, ExperimentDriver, LoadAvg, MockConnector,
    Notification, PlatformError, PollPolicy, ProjectId, PushHub, RunOutcome, SqalpelServer,
    Visibility, Worker,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const DBMS: &str = "rowstore-2.0";
const HOST: &str = "bench-server";
const SQL: &str = "select count(*) from nation where n_name = 'BRAZIL'";

/// Deterministically expand a seed into op tuples (the vendored
/// proptest has no collection strategies; same idiom as metrics_props).
fn ops_from_seed(seed: u64, len: usize) -> Vec<(u8, u8)> {
    let mut x = seed | 1;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as u8
    };
    (0..len).map(|_| (next(), next())).collect()
}

fn fake_outcome() -> RunOutcome {
    RunOutcome {
        times_ms: vec![1.0],
        rows: 1,
        error: None,
        load_before: LoadAvg::default(),
        load_after: LoadAvg::default(),
        extras: serde_json::Value::Null,
        fingerprint: None,
        profile: None,
    }
}

fn driver() -> ExperimentDriver<MockConnector> {
    ExperimentDriver::new(
        MockConnector {
            label: DBMS.into(),
            fail_pattern: None,
            spin: 0,
            rows: 1,
        },
        DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 1").unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hub against a reference model under arbitrary interleavings
    /// of subscribe / unsubscribe / notify / drain: every publish lands
    /// exactly once on every subscription live at publish time, closed
    /// subscriptions receive (and drain) nothing, and re-subscribing
    /// starts from a clean slate.
    #[test]
    fn hub_fanout_matches_reference_model(seed in any::<u64>(), len in 1usize..150) {
        let ops = ops_from_seed(seed, len);
        let hub = PushHub::new();
        let mut live: Vec<u64> = Vec::new();
        let mut closed: Vec<u64> = Vec::new();
        let mut expected: HashMap<u64, Vec<Notification>> = HashMap::new();
        let mut published = 0u64;
        for (action, x) in ops {
            match action % 5 {
                0 => {
                    let id = hub.subscribe(&format!("ck_{}", x % 3));
                    prop_assert!(!expected.contains_key(&id), "ids are never reused");
                    live.push(id);
                    expected.insert(id, Vec::new());
                }
                1 => {
                    if !live.is_empty() {
                        let id = live.remove(x as usize % live.len());
                        hub.unsubscribe(id);
                        expected.remove(&id);
                        closed.push(id);
                    }
                }
                2 | 3 => {
                    published += 1;
                    let n = Notification::QueueReady { project: ProjectId(published) };
                    hub.notify(&n);
                    for id in &live {
                        expected.get_mut(id).unwrap().push(n.clone());
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live[x as usize % live.len()];
                        prop_assert_eq!(
                            hub.drain(id),
                            std::mem::take(expected.get_mut(&id).unwrap())
                        );
                    }
                }
            }
            // A closed subscription never accumulates anything.
            for id in &closed {
                prop_assert_eq!(hub.drain(*id), Vec::new());
            }
            prop_assert_eq!(hub.subscriber_count(), live.len());
        }
        // Final drain: exactly what the model says is pending, in order.
        for id in &live {
            prop_assert_eq!(&hub.drain(*id), expected.get(id).unwrap());
        }
    }

    /// The full server: enqueues and requeues interleaved with claims,
    /// reports and subscription churn. Every enqueue that added tasks
    /// must deliver exactly one `QueueReady` to each subscription parked
    /// at that moment; claims and reports deliver none (reports may add
    /// `ExperimentFinished`, counted separately and never attributed to
    /// closed subscriptions).
    #[test]
    fn enqueues_notify_each_parked_subscription_exactly_once(
        seed in any::<u64>(),
        len in 1usize..60,
    ) {
        let ops = ops_from_seed(seed, len);
        let server = SqalpelServer::with_admission(AdmissionConfig {
            max_inflight_per_user: 1_000,
            max_queued_per_project: 100_000,
        });
        let owner = server.register_user("owner", "o@x.test").unwrap();
        let project = server
            .create_project(owner, "push", "push props", Visibility::Public)
            .unwrap();
        server
            .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
            .unwrap();
        let exp = server
            .add_experiment(project, owner, "nation", SQL, None, 1_000, 100)
            .unwrap();
        server.seed_pool(project, exp, owner, 3, 7).unwrap();
        let key = server.issue_key(owner).unwrap();
        let hub = server.push_hub();

        // Reference model: per live subscription, how many QueueReady
        // copies it must have been sent.
        let mut live: Vec<u64> = Vec::new();
        let mut sent_ready: HashMap<u64, u64> = HashMap::new();
        let mut claimed: Vec<sqalpel_core::Task> = Vec::new();
        for (action, x) in ops {
            match action % 8 {
                0 | 1 => {
                    let id = hub.subscribe(&format!("sub_{}", x % 4));
                    live.push(id);
                    sent_ready.insert(id, 0);
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.remove(x as usize % live.len());
                        hub.unsubscribe(id);
                        sent_ready.remove(&id);
                    }
                }
                // Enqueue: iff it added tasks (re-enqueueing an already
                // fully queued pool adds none and must stay silent),
                // every parked subscription gets exactly one QueueReady.
                3 | 4 => {
                    let n = server.enqueue_experiment(project, exp, owner).unwrap();
                    if n > 0 {
                        for id in &live {
                            *sent_ready.get_mut(id).unwrap() += 1;
                        }
                    }
                }
                // Claim: delivers nothing.
                5 => {
                    if let Ok(Some(t)) = server.request_task(&key, DBMS, HOST) {
                        claimed.push(t);
                    }
                }
                // Report: may add ExperimentFinished, never QueueReady.
                6 => {
                    if let Some(t) = claimed.pop() {
                        server.report_result(&key, t.id, fake_outcome()).unwrap();
                    }
                }
                // Requeue of a claimed task: also a QueueReady to every
                // parked subscription (and the task goes back to Queued,
                // releasing our claim).
                _ => {
                    if let Some(t) = claimed.pop() {
                        match server.requeue(t.id) {
                            Ok(()) => {
                                for id in &live {
                                    *sent_ready.get_mut(id).unwrap() += 1;
                                }
                            }
                            Err(PlatformError::Invalid(_)) => {}
                            Err(e) => panic!("requeue: {e}"),
                        }
                    }
                }
            }
        }
        for id in &live {
            let got = hub.drain(*id);
            let ready = got
                .iter()
                .filter(|n| matches!(n, Notification::QueueReady { .. }))
                .count() as u64;
            prop_assert_eq!(
                ready,
                sent_ready[id],
                "subscription {} QueueReady count diverged",
                id
            );
            // Whatever else arrived can only be ExperimentFinished.
            for n in got {
                prop_assert!(matches!(
                    n,
                    Notification::QueueReady { .. } | Notification::ExperimentFinished { .. }
                ));
            }
        }
    }
}

fn experiment_on(server: &SqalpelServer) -> usize {
    let owner = server.register_user("owner", "o@x.test").unwrap();
    let project = server
        .create_project(owner, "e2e", "push e2e", Visibility::Public)
        .unwrap();
    server
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = server
        .add_experiment(project, owner, "nation", SQL, None, 1_000, 100)
        .unwrap();
    server.seed_pool(project, exp, owner, 6, 42).unwrap();
    server.enqueue_experiment(project, exp, owner).unwrap()
}

/// `ExperimentFinished` is promised "when an experiment's last task goes
/// terminal" — a timeout is terminal too. Reaping the last running tasks
/// of an experiment delivers exactly one notification (however many
/// tasks the sweep took), reaping while others are still open delivers
/// none, and a requeued task that then completes finishes it once more.
#[test]
fn reaping_the_last_task_finishes_the_experiment_once() {
    const WIDE_SQL: &str =
        "select n_name, n_regionkey from nation where n_regionkey = 1 and n_name = 'BRAZIL'";
    let server = SqalpelServer::new();
    let owner = server.register_user("owner", "o@x.test").unwrap();
    let project = server
        .create_project(owner, "reap", "push reap", Visibility::Public)
        .unwrap();
    server
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = server
        .add_experiment(project, owner, "first", WIDE_SQL, None, 1_000, 100)
        .unwrap();
    server.seed_pool(project, exp, owner, 5, 42).unwrap();
    let n = server.enqueue_experiment(project, exp, owner).unwrap();
    assert!(n >= 3, "{n} tasks");
    let key = server.issue_key(owner).unwrap();
    let hub = server.push_hub();
    let sub = hub.subscribe("watcher");
    let finished = |got: &[Notification]| {
        got.iter()
            .filter(|n| matches!(n, Notification::ExperimentFinished { .. }))
            .count()
    };

    // Two tasks stay in flight, the rest are reported: not finished yet.
    let mut held = Vec::new();
    while let Some(t) = server
        .request_task_claimed(&key, DBMS, HOST, Some(held.len() as u64))
        .unwrap()
    {
        held.push(t);
    }
    assert_eq!(held.len(), n);
    for t in held.drain(2..) {
        server.report_result(&key, t.id, fake_outcome()).unwrap();
    }
    assert_eq!(finished(&hub.drain(sub)), 0);

    // A sweep that finds nothing stuck says nothing.
    assert!(server.reap_stuck(Duration::from_secs(3600)).is_empty());
    assert_eq!(finished(&hub.drain(sub)), 0);

    // The sweep that times out both: one notification, not two.
    let reaped = server.reap_stuck(Duration::ZERO);
    assert_eq!(reaped.len(), 2);
    let got = hub.drain(sub);
    assert_eq!(finished(&got), 1, "{got:?}");
    assert_eq!(server.queue_summary().timed_out, 2);

    // Requeue one (QueueReady, experiment open again), run it to the
    // end: finished once more.
    server.requeue(reaped[0]).unwrap();
    let again = server.request_task(&key, DBMS, HOST).unwrap().unwrap();
    assert_eq!(again.id, reaped[0]);
    assert_eq!(finished(&hub.drain(sub)), 0);
    server.report_result(&key, again.id, fake_outcome()).unwrap();
    assert_eq!(finished(&hub.drain(sub)), 1);

    // Per experiment, not per sweep: with the first experiment down to
    // one running task and a second one freshly queued, the sweep that
    // takes that task finishes the first and says nothing of the second.
    server.requeue(reaped[1]).unwrap();
    let last = server.request_task(&key, DBMS, HOST).unwrap().unwrap();
    let exp2 = server
        .add_experiment(project, owner, "second", WIDE_SQL, None, 1_000, 100)
        .unwrap();
    server.seed_pool(project, exp2, owner, 5, 3).unwrap();
    assert!(server.enqueue_experiment(project, exp2, owner).unwrap() >= 2);
    hub.drain(sub);
    assert_eq!(server.reap_stuck(Duration::ZERO), vec![last.id]);
    assert_eq!(
        hub.drain(sub),
        vec![Notification::ExperimentFinished {
            project,
            experiment: last.experiment,
        }]
    );

    // Reaping a task whose experiment still has one queued: silent.
    let first_of_two = server.request_task(&key, DBMS, HOST).unwrap().unwrap();
    assert_eq!(first_of_two.experiment, exp2);
    assert_eq!(server.reap_stuck(Duration::ZERO), vec![first_of_two.id]);
    assert_eq!(hub.drain(sub), Vec::new());
}

fn short_policy(push: bool) -> PollPolicy {
    PollPolicy {
        max_empty_polls: 3,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(100),
        jitter: 0.5,
        push,
    }
}

/// The e2e point of server push: workers subscribed before their first
/// poll never empty-poll — `queue.empty_polls` stays flat at zero while
/// they drain work enqueued *after* they parked — and their misses show
/// up as `queue.parked_polls` instead.
#[test]
fn pushed_workers_never_empty_poll() {
    use sqalpel_core::run_worker_pool;
    let server = SqalpelServer::new();
    let owner = server.register_user("owner", "o@x.test").unwrap();
    let project = server
        .create_project(owner, "late", "late work", Visibility::Public)
        .unwrap();
    server
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = server
        .add_experiment(project, owner, "nation", SQL, None, 1_000, 100)
        .unwrap();
    server.seed_pool(project, exp, owner, 6, 42).unwrap();
    let keys: Vec<ContributorKey> = (0..3).map(|_| server.issue_key(owner).unwrap()).collect();

    let total = std::thread::scope(|scope| {
        let enqueue = scope.spawn(|| {
            // Enqueue only after the workers have parked.
            std::thread::sleep(Duration::from_millis(30));
            server.enqueue_experiment(project, exp, owner).unwrap()
        });
        let workers = keys
            .iter()
            .map(|k| Worker::new(k.clone(), driver()))
            .collect();
        let report = run_worker_pool(&server, workers, short_policy(true));
        let total = enqueue.join().unwrap();
        assert_eq!(report.completed(), total, "late work fully drained over push");
        total
    });

    let m = server.metrics();
    assert_eq!(
        m.counter("queue.empty_polls"),
        0,
        "push-subscribed workers must never count as empty-pollers"
    );
    assert!(
        m.counter("queue.parked_polls") > 0,
        "their misses land on queue.parked_polls instead"
    );
    assert!(m.counter("pool.parks") > 0, "workers actually parked");
    assert_eq!(m.counter("pool.backoffs"), 0, "no jittered backoff sleeps on the push path");
    let _ = total;
}

/// Push must not be slower than polling at draining the same workload —
/// the subscribed pool's wall clock stays within a generous factor of
/// the polling pool's (generous because CI timing is noisy; the real
/// claim is "no pathological regression", not a microbenchmark).
#[test]
fn pushed_drain_latency_no_worse_than_polling() {
    use sqalpel_core::run_worker_pool;
    let run = |push: bool| -> Duration {
        let server = SqalpelServer::new();
        let total = experiment_on(&server);
        let owner = sqalpel_core::UserId(1);
        let keys: Vec<ContributorKey> =
            (0..3).map(|_| server.issue_key(owner).unwrap()).collect();
        let workers = keys
            .iter()
            .map(|k| Worker::new(k.clone(), driver()))
            .collect();
        let started = Instant::now();
        let report = run_worker_pool(&server, workers, short_policy(push));
        assert_eq!(report.completed(), total);
        started.elapsed()
    };
    let polled = run(false);
    let pushed = run(true);
    assert!(
        pushed <= polled * 4 + Duration::from_secs(1),
        "pushed drain ({pushed:?}) pathologically slower than polling ({polled:?})"
    );
}
