//! Property tests for admission control.
//!
//! The per-user in-flight bound is the platform's defense against a
//! contributor script stuck in a crash loop checking out the whole
//! queue. Two layers are exercised: the [`AdmissionControl`] count
//! against a reference model under arbitrary interleavings of reserves
//! and releases, and the full [`SqalpelServer`] hand-out/report/reap
//! cycle, where every path that moves a task out of `Running` (ok report,
//! error report, batch report, reaper) must return its slot.

use proptest::prelude::*;
use sqalpel_core::{
    AdmissionConfig, AdmissionControl, ContributorKey, LoadAvg, PlatformError, RunOutcome,
    SqalpelServer, Task, TaskId, UserId, Visibility,
};
use std::collections::HashMap;
use std::time::Duration;

const USERS: usize = 3;

/// Deterministically expand a seed into `len` op tuples (the vendored
/// proptest has no collection strategies; same idiom as metrics_props).
fn ops_from_seed(seed: u64, len: usize) -> Vec<(u8, u8, u8, u8)> {
    let mut x = seed | 1;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as u8
    };
    (0..len).map(|_| (next(), next(), next(), next())).collect()
}

fn fake_outcome(error: Option<String>) -> RunOutcome {
    RunOutcome {
        times_ms: vec![1.0],
        rows: 1,
        error,
        load_before: LoadAvg::default(),
        load_after: LoadAvg::default(),
        extras: serde_json::Value::Null,
        fingerprint: None,
        profile: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of reserves and releases by count against
    /// a reference model: per-user counts track exactly, never exceed the
    /// bound, `try_reserve` fails precisely at the bound, and a user with
    /// nothing in flight leaves no entry behind.
    #[test]
    fn bound_is_exact_under_arbitrary_interleavings(
        bound in 1usize..4,
        seed in any::<u64>(),
        len in 1usize..120,
    ) {
        let ops = ops_from_seed(seed, len);
        let adm = AdmissionControl::new(AdmissionConfig {
            max_inflight_per_user: bound,
            max_queued_per_project: 1_000,
        });
        let mut model = [0usize; USERS];
        for (action, u, x, _) in ops {
            let u = u as usize % USERS;
            let user = UserId(u as u64 + 1);
            if action % 2 == 0 {
                let res = adm.try_reserve(user);
                if model[u] >= bound {
                    prop_assert!(matches!(res, Err(PlatformError::Throttled(_))));
                } else {
                    prop_assert!(res.is_ok());
                    model[u] += 1;
                }
            } else {
                // An unused reservation, a report or a reap gives back
                // some slots; more than are held gives back what is.
                let n = x as usize % (bound + 2);
                adm.release(user, n);
                model[u] = model[u].saturating_sub(n);
            }
            for (u, &c) in model.iter().enumerate() {
                prop_assert_eq!(adm.inflight_of(UserId(u as u64 + 1)), c);
                prop_assert!(c <= bound);
            }
            prop_assert_eq!(adm.inflight().len(), model.iter().filter(|&&c| c > 0).count());
        }
    }

    /// Driving the whole server: claims beyond the bound are throttled
    /// (even through a fresh key of the same user), re-hand-out of an
    /// open claim consumes no extra slot, and every release path — ok
    /// report, error report, a batch report, the reaper — returns the
    /// slot, so a drained walk always ends with zero in-flight.
    #[test]
    fn server_releases_every_slot(
        bound in 1usize..3,
        n_contrib in 1usize..3,
        seed in any::<u64>(),
        len in 1usize..60,
    ) {
        let ops = ops_from_seed(seed, len);
        let server = SqalpelServer::with_admission(AdmissionConfig {
            max_inflight_per_user: bound,
            max_queued_per_project: 100_000,
        });
        let owner = server.register_user("owner", "o@x.test").unwrap();
        let project = server
            .create_project(owner, "props", "admission walk", Visibility::Public)
            .unwrap();
        server
            .set_targets(project, owner, vec!["rowstore-2.0".into()], vec!["bench-server".into()])
            .unwrap();
        let exp = server
            .add_experiment(
                project,
                owner,
                "nation",
                "select count(*) from nation where n_name = 'BRAZIL'",
                None,
                1_000,
                100,
            )
            .unwrap();
        server.seed_pool(project, exp, owner, 10, 7).unwrap();
        let total = server.enqueue_experiment(project, exp, owner).unwrap();

        let users: Vec<UserId> = (0..n_contrib)
            .map(|i| {
                let u = server
                    .register_user(&format!("c{i}"), &format!("c{i}@x.test"))
                    .unwrap();
                server.invite(project, owner, u).unwrap();
                u
            })
            .collect();
        // bound+1 keys per user: the bound spans a user's keys, and the
        // spare key proves a fresh key cannot sidestep it.
        let keys: Vec<Vec<ContributorKey>> = users
            .iter()
            .map(|&u| (0..bound + 1).map(|_| server.issue_key(u).unwrap()).collect())
            .collect();

        let mut ready = total;
        let mut held: HashMap<(usize, usize), Vec<Task>> = HashMap::new();
        let held_count = |held: &HashMap<(usize, usize), Vec<Task>>, u: usize| -> usize {
            (0..bound + 1).map(|k| held.get(&(u, k)).map_or(0, Vec::len)).sum()
        };
        for (action, ub, kb, _) in ops {
            let u = ub as usize % users.len();
            let k = kb as usize % (bound + 1);
            let user = users[u];
            let key = &keys[u][k];
            match action % 9 {
                // Claim (the most frequent op).
                0..=3 => {
                    let open = held.get(&(u, k)).and_then(|v| v.first().map(|t| t.id));
                    let res = server.request_task(key, "rowstore-2.0", "bench-server");
                    if let Some(open) = open {
                        // Idempotent re-hand-out: same task, no new slot.
                        prop_assert_eq!(res.unwrap().unwrap().id, open);
                    } else if held_count(&held, u) >= bound {
                        prop_assert!(matches!(res, Err(PlatformError::Throttled(_))));
                    } else if ready == 0 {
                        prop_assert!(res.unwrap().is_none());
                    } else {
                        let t = res.unwrap().unwrap();
                        ready -= 1;
                        held.entry((u, k)).or_default().push(t);
                    }
                }
                // Report, ok and error outcomes: both release.
                4 | 5 => {
                    if let Some(t) = held.entry((u, k)).or_default().pop() {
                        let err = (action == 5).then(|| "synthetic failure".to_string());
                        server.report_result(key, t.id, fake_outcome(err)).unwrap();
                    }
                }
                // Reap everything in flight (zero timeout).
                6 => {
                    let reaped = server.reap_stuck(Duration::ZERO);
                    let in_flight: usize = held.values().map(Vec::len).sum();
                    prop_assert_eq!(reaped.len(), in_flight);
                    held.clear();
                }
                // Everything the key holds, as one batch.
                7 => {
                    if let Some(tasks) = held.remove(&(u, k)) {
                        let reports: Vec<(TaskId, RunOutcome)> =
                            tasks.iter().map(|t| (t.id, fake_outcome(None))).collect();
                        prop_assert_eq!(server.report_batch(key, &reports).unwrap().len(), tasks.len());
                    }
                }
                // A brand-new key of a saturated user is still throttled.
                _ => {
                    if held_count(&held, u) >= bound {
                        let fresh = server.issue_key(user).unwrap();
                        let res = server.request_task(&fresh, "rowstore-2.0", "bench-server");
                        prop_assert!(matches!(res, Err(PlatformError::Throttled(_))));
                    }
                }
            }
            for (i, &user) in users.iter().enumerate() {
                let c = held_count(&held, i);
                prop_assert_eq!(server.admission().inflight_of(user), c);
                prop_assert!(c <= bound);
            }
        }
        // Drain whatever is still open; every slot must come back.
        let open: Vec<((usize, usize), Vec<Task>)> = held.drain().collect();
        for ((u, k), tasks) in open {
            for t in tasks {
                server.report_result(&keys[u][k], t.id, fake_outcome(None)).unwrap();
            }
        }
        for &user in &users {
            prop_assert_eq!(server.admission().inflight_of(user), 0);
        }
    }
}
