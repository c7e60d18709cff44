//! The contributor loop, written once: the paper's `sqalpel.py` cycle
//! (claim a task, run it, report the result) as [`contribute`], against
//! any [`Platform`] — an in-process [`crate::SqalpelServer`] or a remote
//! one through a [`crate::wire::WireClient`]. [`run_worker_pool`] runs it
//! on one scoped thread per [`Worker`].
//!
//! The loop is honest about contention: a report for a task the
//! moderator reaped and requeued mid-run is **rejected** (the re-claimed
//! run owns the result now); the worker counts it and moves on, so the
//! queue's at-most-one-result-per-run invariant holds however workers
//! race.

use crate::driver::{Connector, ExperimentDriver, RunOutcome};
use crate::error::{PlatformError, PlatformResult};
use crate::queue::{Task, TaskId};
use crate::server::Platform;
use crate::user::ContributorKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How a worker waits when the platform hands it nothing.
///
/// An empty poll need not mean the study is over: queues refill as
/// moderators enqueue and the reaper requeues, and admission control can
/// throttle a worker for a while. So a worker backs off exponentially
/// from `base` up to `cap`, each sleep scaled by a random factor in
/// `[1 - jitter, 1]` so a fleet does not wake in lockstep, and exits
/// after `max_empty_polls` consecutive empty polls. The default budget
/// is `0`: drain and terminate.
#[derive(Debug, Clone)]
pub struct PollPolicy {
    /// Consecutive empty polls tolerated before the worker exits.
    pub max_empty_polls: u32,
    /// First backoff sleep.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`.
    pub jitter: f64,
    /// Park on server-push notifications instead of backoff sleeps. Each
    /// worker opens a [`crate::Platform::subscribe_push`] channel and
    /// blocks on it (up to `cap` per wait) whenever the queue hands it
    /// nothing; a notification re-polls immediately without spending the
    /// empty-poll budget. Falls back to the jittered backoff when the
    /// platform offers no push channel.
    pub push: bool,
}

impl Default for PollPolicy {
    fn default() -> Self {
        PollPolicy {
            max_empty_polls: 0,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            jitter: 0.5,
            push: false,
        }
    }
}

impl PollPolicy {
    /// The default curve with `max_empty_polls` retries, parked on
    /// server push: the budget is only spent on waits that time out with
    /// no notification.
    pub fn pushed(max_empty_polls: u32) -> Self {
        PollPolicy {
            max_empty_polls,
            push: true,
            ..Default::default()
        }
    }

    /// The jittered sleep before retry number `attempt` (0-based). `rng`
    /// is a caller-owned xorshift64* state, advanced per draw.
    pub fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
        let capped = exp.min(self.cap);
        let mut x = *rng | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - self.jitter * unit;
        Duration::from_nanos((capped.as_nanos() as f64 * scale) as u64)
    }
}

/// A fresh jitter seed per call: a process-wide call count mixed with
/// the clock, so workers started together — in one pool or in separate
/// processes — still draw different backoff schedules.
fn jitter_seed() -> u64 {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    (CALLS.fetch_add(1, Ordering::Relaxed) + 1)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(nanos)
        | 1
}

/// A contributor: an identity plus the driver (owning its connector)
/// that executes tasks on that contributor's behalf.
pub struct Worker<C: Connector> {
    pub key: ContributorKey,
    pub driver: ExperimentDriver<C>,
}

impl<C: Connector> Worker<C> {
    pub fn new(key: ContributorKey, driver: ExperimentDriver<C>) -> Self {
        Worker { key, driver }
    }
}

/// What one [`contribute`] call did.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Index of the worker in the submitted pool (`0` outside a pool).
    pub worker: usize,
    /// Tasks executed and successfully reported.
    pub completed: usize,
    /// Tasks whose report the platform refused — for example because the
    /// task was reaped as stuck and reassigned while this worker ran it.
    pub rejected: usize,
    /// Wall-clock from the worker's first claim to its last report.
    pub wall: Duration,
    /// The claim error that stopped the loop, if one did; `None` when
    /// the queue simply ran out of work.
    pub error: Option<PlatformError>,
}

/// Outcome of draining the queue with a worker pool.
#[derive(Debug, Clone)]
pub struct PoolReport {
    pub workers: Vec<WorkerReport>,
    /// Wall-clock of the whole drain.
    pub wall: Duration,
}

impl PoolReport {
    /// Tasks executed and successfully reported across all workers.
    pub fn completed(&self) -> usize {
        self.workers.iter().map(|w| w.completed).sum()
    }

    /// Reports the server refused across all workers.
    pub fn rejected(&self) -> usize {
        self.workers.iter().map(|w| w.rejected).sum()
    }
}

/// Run the contributor loop for one worker until the platform has no
/// more work for its `(dbms, host)` target: claim up to `round` tasks,
/// run each with the worker's driver, report them, repeat.
///
/// - **Claiming.** With `round = 1` each claim carries no nonce, so a
///   retried claim resumes whatever the key holds for the target. A
///   larger round claims under nonces 1, 2, … (fresh for the life of the
///   call), which lets the key hold a whole round at once. An empty or
///   `Throttled` claim ends a round early, and so does a task the round
///   already holds coming back.
/// - **Reporting.** A round of one goes as `report_result`, a larger
///   round as one `report_batch`. A refused report counts its tasks in
///   [`WorkerReport::rejected`] and the loop goes on.
/// - **Waiting.** When a round comes back empty the worker waits as
///   `policy` says — parked on push or a jittered backoff — and gives up
///   after `policy.max_empty_polls` consecutive empty waits.
/// - **Errors.** Any other claim error ends the loop: the tasks already
///   claimed in the round are run and reported first, so none is left
///   holding an in-flight slot, and the error lands in
///   [`WorkerReport::error`].
///
/// `observe` sees every reported round: its tasks, their outcomes and
/// the report's result (record indices, one per task).
pub fn contribute<C: Connector, P: Platform + ?Sized>(
    platform: &P,
    worker: &Worker<C>,
    policy: &PollPolicy,
    round: usize,
    mut observe: impl FnMut(&[Task], &[(TaskId, RunOutcome)], &PlatformResult<Vec<u64>>),
) -> WorkerReport {
    let began = Instant::now();
    let metrics = platform.metrics();
    let config = worker.driver.config();
    let round = round.max(1);
    let (mut completed, mut rejected, mut error) = (0, 0, None);
    let mut rng = jitter_seed();
    let mut nonce = 0u64;
    let mut empty_polls = 0u32;
    // Subscribe before the first poll so no enqueue can slip between
    // "queue looked empty" and "parked".
    let mut waiter = if policy.push {
        platform.subscribe_push(&worker.key)
    } else {
        None
    };
    loop {
        let mut tasks = Vec::with_capacity(round);
        while tasks.len() < round {
            let claim = (round > 1).then(|| {
                nonce += 1;
                nonce
            });
            match platform.claim(&worker.key, &config.dbms_label, &config.host, claim) {
                // A nonce claim also resumes a task the key holds under
                // no nonce, so that task can come back within a round.
                Ok(Some(task)) if tasks.iter().any(|t: &Task| t.id == task.id) => break,
                Ok(Some(task)) => tasks.push(task),
                Ok(None) | Err(PlatformError::Throttled(_)) => break,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if tasks.is_empty() {
            if error.is_some() || empty_polls >= policy.max_empty_polls {
                break;
            }
            match waiter.as_mut() {
                Some(waiter) => {
                    if let Some(metrics) = metrics {
                        metrics.incr("pool.parks");
                    }
                    match waiter.wait(policy.cap) {
                        // Woken: re-poll right away; a raced hand-out
                        // just parks again, budget untouched.
                        Ok(Some(_)) => {}
                        // Timed out or the channel broke: spend budget
                        // like an empty poll.
                        Ok(None) | Err(_) => empty_polls += 1,
                    }
                }
                None => {
                    if let Some(metrics) = metrics {
                        metrics.incr("pool.backoffs");
                    }
                    std::thread::sleep(policy.backoff(empty_polls, &mut rng));
                    empty_polls += 1;
                }
            }
            continue;
        }
        empty_polls = 0;
        let reports: Vec<(TaskId, RunOutcome)> = tasks
            .iter()
            .map(|task| {
                let started = Instant::now();
                let outcome = worker.driver.run(&task.sql);
                if let Some(metrics) = metrics {
                    metrics.observe_nanos("pool.task_nanos", started.elapsed().as_nanos() as u64);
                }
                (task.id, outcome)
            })
            .collect();
        let result = match reports.as_slice() {
            [(id, outcome)] if round == 1 => platform
                .report_result(&worker.key, *id, outcome)
                .map(|index| vec![index as u64]),
            _ => platform.report_batch(&worker.key, &reports),
        };
        let name = if result.is_ok() {
            completed += tasks.len();
            "pool.tasks_completed"
        } else {
            rejected += tasks.len();
            "pool.tasks_rejected"
        };
        if let Some(metrics) = metrics {
            metrics.add(name, tasks.len() as u64);
        }
        observe(&tasks, &reports, &result);
        if error.is_some() {
            break;
        }
    }
    WorkerReport { worker: 0, completed, rejected, wall: began.elapsed(), error }
}

/// Drain a platform's queue with a pool of scoped worker threads, each
/// running [`contribute`] with a round of one until the platform hands
/// it no more work. Returns per-worker and overall wall-clock so callers
/// can measure dispatch speedup.
pub fn run_worker_pool<C: Connector, P: Platform + ?Sized>(
    platform: &P,
    workers: Vec<Worker<C>>,
    policy: PollPolicy,
) -> PoolReport {
    let start = Instant::now();
    let policy = &policy;
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(idx, w)| {
                scope.spawn(move || WorkerReport {
                    worker: idx,
                    ..contribute(platform, &w, policy, 1, |_, _, _| {})
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    PoolReport {
        workers,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Visibility;
    use crate::driver::{DriverConfig, MockConnector};
    use crate::project::{ExperimentId, ProjectId};
    use crate::server::SqalpelServer;
    use crate::user::UserId;

    fn setup() -> (SqalpelServer, UserId, UserId, ProjectId, ExperimentId) {
        let server = SqalpelServer::new();
        let owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
        let contrib = server.register_user("pk", "pk@monetdb.com").unwrap();
        let project = server
            .create_project(owner, "pool-study", "worker pool tests", Visibility::Public)
            .unwrap();
        server
            .set_targets(
                project,
                owner,
                vec!["rowstore-2.0".into()],
                vec!["bench-server".into()],
            )
            .unwrap();
        server.invite(project, owner, contrib).unwrap();
        let exp = server
            .add_experiment(
                project,
                owner,
                "nation filter",
                "select n_name, n_regionkey from nation \
                 where n_regionkey = 1 and n_name = 'BRAZIL'",
                None,
                1000,
                100,
            )
            .unwrap();
        server.seed_pool(project, exp, owner, 5, 42).unwrap();
        (server, owner, contrib, project, exp)
    }

    fn mock_worker(server: &SqalpelServer, contrib: UserId, spin: u64) -> Worker<MockConnector> {
        let key = server.issue_key(contrib).unwrap();
        let driver = ExperimentDriver::new(
            MockConnector {
                label: "rowstore-2.0".into(),
                fail_pattern: None,
                spin,
                rows: 1,
            },
            DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 2")
                .unwrap(),
        );
        Worker::new(key, driver)
    }

    #[test]
    fn pool_drains_the_queue() {
        let (server, owner, contrib, project, exp) = setup();
        server.morph_pool(project, exp, owner, None, 12, 3).unwrap();
        let total = server.enqueue_experiment(project, exp, owner).unwrap();
        assert!(total >= 4);

        let workers = (0..4)
            .map(|_| mock_worker(&server, contrib, 1000))
            .collect();
        let report = run_worker_pool(&server, workers, PollPolicy::default());

        assert_eq!(report.completed(), total);
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.workers.len(), 4);
        assert!(report.workers.iter().all(|w| w.wall <= report.wall));
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running, s.timed_out), (0, 0, 0));
        assert_eq!(s.finished + s.failed, total);

        // The pool instrumented the server's registry as it drained.
        let snap = server.metrics().snapshot();
        assert_eq!(snap.counter("pool.tasks_completed"), Some(total as u64));
        assert_eq!(snap.counter("pool.tasks_rejected"), None);
        assert_eq!(snap.histogram("pool.task_nanos").unwrap().count, total as u64);
        assert_eq!(
            snap.counter("server.report_result.accepted"),
            Some(total as u64)
        );
    }

    #[test]
    fn polling_policy_backs_off_and_picks_up_late_work() {
        let (server, owner, contrib, project, exp) = setup();

        // An empty queue with a zero-retry policy: one poll, then out.
        let report = run_worker_pool(
            &server,
            vec![mock_worker(&server, contrib, 0)],
            PollPolicy::default(),
        );
        assert_eq!(report.completed(), 0);
        let empty_before = server
            .metrics()
            .snapshot()
            .counter("queue.empty_polls")
            .unwrap_or(0);
        assert!(empty_before >= 1);

        // With a retry budget, the worker sleeps through the gap and
        // drains work enqueued after it started polling.
        let policy = PollPolicy {
            max_empty_polls: 50,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
            jitter: 0.5,
            push: false,
        };
        let total = std::thread::scope(|scope| {
            let enqueue = scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                server.enqueue_experiment(project, exp, owner).unwrap()
            });
            let report = run_worker_pool(&server, vec![mock_worker(&server, contrib, 0)], policy);
            let total = enqueue.join().expect("enqueue thread panicked");
            assert_eq!(report.completed(), total);
            total
        });
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running), (0, 0));
        assert_eq!(s.finished + s.failed, total);

        let snap = server.metrics().snapshot();
        assert!(
            snap.counter("pool.backoffs").unwrap_or(0) >= 1,
            "the worker waited at least once before the queue filled"
        );
        assert!(snap.counter("queue.empty_polls").unwrap_or(0) > empty_before);
    }

    #[test]
    fn bulk_rounds_drain_the_queue_as_batches() {
        let (server, owner, contrib, project, exp) = setup();
        server.morph_pool(project, exp, owner, None, 12, 3).unwrap();
        let total = server.enqueue_experiment(project, exp, owner).unwrap();

        let worker = mock_worker(&server, contrib, 0);
        let mut rounds = Vec::new();
        let report = contribute(
            &server,
            &worker,
            &PollPolicy::default(),
            4,
            |tasks, reports, result| {
                assert_eq!(tasks.len(), reports.len());
                assert_eq!(result.as_ref().unwrap().len(), tasks.len());
                rounds.push(tasks.len());
            },
        );
        assert_eq!((report.completed, report.rejected), (total, 0));
        assert!(report.error.is_none());
        assert_eq!(rounds.iter().sum::<usize>(), total);
        assert!(rounds.iter().all(|&n| n <= 4));
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running), (0, 0));
        // Every round of the bulk loop was one group commit, never a
        // per-record report.
        let snap = server.metrics().snapshot();
        assert_eq!(snap.counter("wal.group_commits"), Some(rounds.len() as u64));
        assert_eq!(snap.counter("server.report_result.accepted"), None);
    }

    #[test]
    fn a_task_held_under_no_nonce_is_reported_once_in_a_bulk_round() {
        let (server, owner, contrib, project, exp) = setup();
        let total = server.enqueue_experiment(project, exp, owner).unwrap();
        assert!(total > 1);
        let worker = mock_worker(&server, contrib, 0);
        // The key holds a task claimed without a nonce, which every nonce
        // claim of a bulk round would resume.
        let held = server
            .request_task(&worker.key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();

        let mut reported = Vec::new();
        let report = contribute(&server, &worker, &PollPolicy::default(), 32, |tasks, _, result| {
            assert!(result.is_ok());
            reported.extend(tasks.iter().map(|t| t.id));
        });
        assert_eq!((report.completed, report.rejected), (total, 0));
        assert_eq!(reported.iter().filter(|&&id| id == held.id).count(), 1);
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running), (0, 0));
    }

    /// A platform whose `fail_at`-th claim fails with a transport error.
    struct FailingClaim<'a> {
        server: &'a SqalpelServer,
        fail_at: usize,
        claims: std::sync::atomic::AtomicUsize,
    }

    impl Platform for FailingClaim<'_> {
        fn claim(
            &self,
            key: &ContributorKey,
            dbms_label: &str,
            host: &str,
            nonce: Option<u64>,
        ) -> PlatformResult<Option<Task>> {
            if self.claims.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_at {
                return Err(PlatformError::Transport("injected claim failure".into()));
            }
            self.server.claim(key, dbms_label, host, nonce)
        }

        fn report_result(
            &self,
            key: &ContributorKey,
            task_id: TaskId,
            outcome: &RunOutcome,
        ) -> PlatformResult<usize> {
            Platform::report_result(self.server, key, task_id, outcome)
        }

        fn report_batch(
            &self,
            key: &ContributorKey,
            reports: &[(TaskId, RunOutcome)],
        ) -> PlatformResult<Vec<u64>> {
            self.server.report_batch(key, reports)
        }
    }

    #[test]
    fn a_claim_error_reports_every_task_already_claimed() {
        const FAIL_AT: usize = 4;
        for round in [1, 32] {
            let (server, owner, contrib, project, exp) = setup();
            server.morph_pool(project, exp, owner, None, 12, 3).unwrap();
            let total = server.enqueue_experiment(project, exp, owner).unwrap();
            assert!(total > FAIL_AT);

            let platform = FailingClaim {
                server: &server,
                fail_at: FAIL_AT,
                claims: Default::default(),
            };
            let worker = mock_worker(&server, contrib, 0);
            let mut rounds = Vec::new();
            let report = contribute(
                &platform,
                &worker,
                &PollPolicy::default(),
                round,
                |tasks, _, result| {
                    assert!(result.is_ok());
                    rounds.push(tasks.len());
                },
            );

            // Every claim before the failing one was run and reported —
            // one by one, or as the one round the failure cut short —
            // and the failure stopped the loop.
            let expected = if round == 1 {
                vec![1; FAIL_AT - 1]
            } else {
                vec![FAIL_AT - 1]
            };
            assert_eq!(rounds, expected, "round {round}");
            assert_eq!((report.completed, report.rejected), (FAIL_AT - 1, 0));
            assert!(matches!(report.error, Some(PlatformError::Transport(_))));
            assert_eq!(platform.claims.load(Ordering::SeqCst), FAIL_AT);
            let s = server.queue_summary();
            assert_eq!(s.running, 0, "round {round}: no claim left holding a slot");
            assert_eq!(s.queued, total - (FAIL_AT - 1));
        }
    }

    #[test]
    fn backoff_grows_to_cap_and_jitters_below_it() {
        let policy = PollPolicy {
            max_empty_polls: 10,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter: 0.5,
            push: false,
        };
        let mut rng = jitter_seed();
        for attempt in 0..12 {
            let d = policy.backoff(attempt, &mut rng);
            let ceiling = policy.cap.min(policy.base * 1u32.checked_shl(attempt).unwrap_or(u32::MAX));
            assert!(d <= ceiling, "attempt {attempt}: {d:?} > {ceiling:?}");
            let floor = ceiling
                .mul_f64(1.0 - policy.jitter)
                .saturating_sub(Duration::from_nanos(2));
            assert!(d >= floor, "attempt {attempt}: {d:?} under jitter floor");
        }
        // Distinct seeds draw distinct schedules (the whole point of
        // jitter: workers must not wake in lockstep).
        let (mut a, mut b) = (1u64, 2u64);
        let da: Vec<_> = (0..4).map(|i| policy.backoff(i, &mut a)).collect();
        let db: Vec<_> = (0..4).map(|i| policy.backoff(i, &mut b)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn reaped_task_is_requeued_and_late_report_rejected() {
        let (server, _owner, contrib, project, exp) = setup();
        let total = server.enqueue_experiment(project, exp, _owner).unwrap();

        // A "stuck" contributor claims a task and never reports back...
        let stuck = mock_worker(&server, contrib, 0);
        let task = server
            .request_task(&stuck.key, "rowstore-2.0", "bench-server")
            .unwrap()
            .expect("a task to get stuck on");

        // ...so the moderator reaps and requeues it.
        let reaped = server.reap_stuck(Duration::ZERO);
        assert_eq!(reaped, vec![task.id]);
        server.requeue(task.id).unwrap();

        // A healthy pool drains everything, the requeued task included.
        let report = run_worker_pool(
            &server,
            vec![mock_worker(&server, contrib, 0)],
            PollPolicy::default(),
        );
        assert_eq!(report.completed(), total);
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running), (0, 0));

        // The stuck worker's report arrives too late: the re-claimed run
        // owns the result, so the server must refuse it.
        let outcome = stuck.driver.run(&task.sql);
        assert!(server.report_result(&stuck.key, task.id, outcome).is_err());
    }

    #[test]
    fn contended_pool_tolerates_mid_run_reaping() {
        let (server, owner, contrib, project, exp) = setup();
        server.morph_pool(project, exp, owner, None, 12, 5).unwrap();
        let total = server.enqueue_experiment(project, exp, owner).unwrap();

        // Reap with a zero timeout while workers are mid-task: claimed
        // tasks get yanked and requeued under the workers' feet.
        let report = std::thread::scope(|scope| {
            let reaper = scope.spawn(|| {
                let mut requeued = 0usize;
                for _ in 0..50 {
                    for id in server.reap_stuck(Duration::ZERO) {
                        if server.requeue(id).is_ok() {
                            requeued += 1;
                        }
                    }
                    std::thread::yield_now();
                }
                requeued
            });
            let workers = (0..3)
                .map(|_| mock_worker(&server, contrib, 20_000))
                .collect();
            let report = run_worker_pool(&server, workers, PollPolicy::default());
            reaper.join().expect("reaper panicked");
            report
        });

        // A task reaped in the instant between a worker's exit check and
        // the requeue can be left queued with nobody to claim it; a final
        // uncontended pass sweeps any such stragglers.
        let sweep = run_worker_pool(
            &server,
            vec![mock_worker(&server, contrib, 0)],
            PollPolicy::default(),
        );

        // Whatever interleaving happened: every task ended terminal, each
        // terminal state came from exactly one accepted report, and
        // rejections are exactly the reaped-and-reassigned races.
        assert!(report.completed() + sweep.completed() >= total);
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running, s.timed_out), (0, 0, 0));
        assert_eq!(s.finished + s.failed, total);
    }
}
