//! Property tests for admission control.
//!
//! The per-user in-flight bound is the platform's defense against a
//! contributor script stuck in a crash loop checking out the whole
//! queue. Two layers are exercised: the [`AdmissionControl`] ledger
//! against a reference model under arbitrary interleavings, and the
//! full [`SqalpelServer`] hand-out/report/reap cycle, where every
//! release path (ok report, error report, reaper) must return the slot.

use proptest::prelude::*;
use sqalpel_core::{
    AdmissionConfig, AdmissionControl, ContributorKey, LoadAvg, PlatformError, RunOutcome,
    SqalpelServer, Task, TaskId, UserId, Visibility,
};
use std::collections::HashMap;
use std::time::Duration;

const USERS: usize = 3;
const KEYS: usize = 2;

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

    /// Arbitrary interleavings of reserve/confirm/cancel, release by
    /// key, and release by task (the reaper's path) against a reference
    /// model: per-user counts track exactly, never exceed the bound,
    /// and `try_reserve` fails precisely at the bound.
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
        let key_of = |u: usize, k: usize| ContributorKey(format!("ck_{u}_{k}").into());
        let mut held: HashMap<(usize, usize), Vec<TaskId>> = HashMap::new();
        let count = |held: &HashMap<(usize, usize), Vec<TaskId>>, u: usize| -> usize {
            (0..KEYS).map(|k| held.get(&(u, k)).map_or(0, Vec::len)).sum()
        };
        let mut next_task = 0u64;
        for (action, u, k, x) in ops {
            let (u, k) = (u as usize % USERS, k as usize % KEYS);
            let user = UserId(u as u64 + 1);
            match action % 4 {
                // Claim: reserve, then confirm (x even) or cancel (the
                // shard sweep found nothing).
                0 | 1 => {
                    let res = adm.try_reserve(user);
                    if count(&held, u) >= bound {
                        prop_assert!(matches!(res, Err(PlatformError::Throttled(_))));
                    } else {
                        prop_assert!(res.is_ok());
                        if x % 2 == 0 {
                            next_task += 1;
                            let t = TaskId(next_task);
                            adm.confirm(&key_of(u, k), user, t, None);
                            held.entry((u, k)).or_default().push(t);
                        } else {
                            adm.cancel(user);
                        }
                    }
                }
                // Release by key: a held task if any, else a bogus id.
                2 => {
                    let slot = held.entry((u, k)).or_default();
                    if slot.is_empty() {
                        prop_assert!(!adm.release(&key_of(u, k), TaskId(u64::MAX)));
                    } else {
                        let t = slot.remove(x as usize % slot.len());
                        prop_assert!(adm.release(&key_of(u, k), t));
                        // Double release is a no-op.
                        prop_assert!(!adm.release(&key_of(u, k), t));
                    }
                }
                // Release by task alone: the reaper does not know the
                // holding key.
                _ => {
                    let mut all: Vec<((usize, usize), TaskId)> = held
                        .iter()
                        .flat_map(|(&uk, ts)| ts.iter().map(move |&t| (uk, t)))
                        .collect();
                    all.sort_by_key(|&(_, t)| t.0);
                    if all.is_empty() {
                        prop_assert!(!adm.release_any(TaskId(u64::MAX)));
                    } else {
                        let (uk, t) = all[x as usize % all.len()];
                        prop_assert!(adm.release_any(t));
                        held.get_mut(&uk).unwrap().retain(|&h| h != t);
                    }
                }
            }
            for u in 0..USERS {
                let c = count(&held, u);
                prop_assert_eq!(adm.inflight_of(UserId(u as u64 + 1)), c);
                prop_assert!(c <= bound);
            }
        }
    }

    /// Driving the whole server: claims beyond the bound are throttled
    /// (even through a fresh key of the same user), re-hand-out of an
    /// open claim consumes no extra slot, and every release path — ok
    /// report, error report, the reaper — returns the slot, so a
    /// drained walk always ends with zero in-flight.
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
            match action % 8 {
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
