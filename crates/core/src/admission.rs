//! Admission control: per-user in-flight bounds and per-project queue
//! quotas.
//!
//! A public platform hands benchmark tasks to strangers. Without a
//! bound, one contributor script stuck in a crash loop can check out the
//! entire queue and starve everyone else, and one moderator can enqueue
//! an experiment so large the server's memory becomes the limit. Two
//! caps police this:
//!
//! * **Per-user in-flight bound** — a user (across all of their
//!   contributor keys) may hold at most `max_inflight_per_user` tasks
//!   that are handed out but not yet reported. Excess `request_task`
//!   calls get [`PlatformError::Throttled`].
//! * **Per-project queue quota** — enqueueing past
//!   `max_queued_per_project` outstanding (non-terminal) tasks is
//!   rejected with `Throttled`.
//!
//! Only the count lives here. *Which* tasks a key holds is the queue's
//! record (a `Running` task names its holder and claim nonce), so the
//! count is the one thing this module adds: race-free across shards,
//! `try_reserve` atomically checks and increments the user's count
//! *before* the shard sweep begins, and [`release`](AdmissionControl::release)
//! gives slots back by number — one the sweep did not use, or the tasks a
//! report or a reap moved out of `Running`.

use crate::error::{PlatformError, PlatformResult};
use crate::user::UserId;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Tunable admission bounds.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Most tasks a single user may hold in flight at once.
    pub max_inflight_per_user: usize,
    /// Most outstanding (queued + running) tasks a project may carry.
    pub max_queued_per_project: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight_per_user: 64,
            max_queued_per_project: 100_000,
        }
    }
}

/// Cross-shard admission state. One small mutex over the in-flight count
/// per user: every operation is one hash-map probe, and it is the only
/// lock `request_task` takes before picking a shard. A user with nothing
/// in flight has no entry, so a long uptime serving many contributors
/// does not grow an entry per user ever seen.
pub struct AdmissionControl {
    config: AdmissionConfig,
    inflight: Mutex<HashMap<UserId, usize>>,
}

impl AdmissionControl {
    pub fn new(config: AdmissionConfig) -> Self {
        Self::with_inflight(config, HashMap::new())
    }

    /// Bounds over counts already held — recovery's recount of the
    /// `Running` tasks per user (no bound check: the bound was enforced
    /// when each hand-out was first acknowledged).
    pub fn with_inflight(config: AdmissionConfig, inflight: HashMap<UserId, usize>) -> Self {
        AdmissionControl {
            config,
            inflight: Mutex::new(inflight),
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Atomically claim an in-flight slot for `user`, or `Throttled` if
    /// the bound is already met. A slot the hand-out does not use goes
    /// back through [`release`](Self::release).
    pub fn try_reserve(&self, user: UserId) -> PlatformResult<()> {
        let mut inflight = self.inflight.lock();
        let count = inflight.entry(user).or_insert(0);
        if *count >= self.config.max_inflight_per_user {
            return Err(PlatformError::Throttled(format!(
                "user #{} already holds {} in-flight tasks (bound {})",
                user.0, count, self.config.max_inflight_per_user
            )));
        }
        *count += 1;
        Ok(())
    }

    /// Give back `n` of `user`'s slots.
    pub fn release(&self, user: UserId, n: usize) {
        let mut inflight = self.inflight.lock();
        if let Some(count) = inflight.get_mut(&user) {
            *count = count.saturating_sub(n);
            if *count == 0 {
                inflight.remove(&user);
            }
        }
    }

    /// Current in-flight count for a user.
    pub fn inflight_of(&self, user: UserId) -> usize {
        self.inflight.lock().get(&user).copied().unwrap_or(0)
    }

    /// Every user holding a slot, with how many: no entry is ever zero.
    pub fn inflight(&self) -> HashMap<UserId, usize> {
        self.inflight.lock().clone()
    }

    /// Enforce the per-project queue quota before enqueueing `adding`
    /// more tasks on top of `outstanding` ones.
    pub fn check_quota(&self, outstanding: usize, adding: usize) -> PlatformResult<()> {
        if outstanding + adding > self.config.max_queued_per_project {
            return Err(PlatformError::Throttled(format!(
                "project queue quota exceeded: {outstanding} outstanding + {adding} new > {}",
                self.config.max_queued_per_project
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AdmissionControl {
        AdmissionControl::new(AdmissionConfig {
            max_inflight_per_user: 2,
            max_queued_per_project: 10,
        })
    }

    #[test]
    fn reserve_release_cycle_enforces_bound() {
        let adm = small();
        let user = UserId(1);
        adm.try_reserve(user).unwrap();
        adm.try_reserve(user).unwrap();
        assert_eq!(adm.inflight_of(user), 2);
        assert!(matches!(
            adm.try_reserve(user),
            Err(PlatformError::Throttled(_))
        ));
        adm.release(user, 1);
        assert_eq!(adm.inflight_of(user), 1);
        adm.try_reserve(user).unwrap();
        // Another user's bound is their own.
        adm.try_reserve(UserId(2)).unwrap();
        adm.release(user, 2);
        assert_eq!(adm.inflight(), HashMap::from([(UserId(2), 1)]));
        // Releasing what is not held is a no-op, and leaves no residue.
        adm.release(user, 1);
        adm.release(UserId(2), 5);
        assert!(adm.inflight().is_empty());
    }

    #[test]
    fn recounted_slots_count_against_the_bound() {
        let adm = AdmissionControl::with_inflight(
            small().config(),
            HashMap::from([(UserId(3), 2)]),
        );
        assert_eq!(adm.inflight_of(UserId(3)), 2);
        assert!(adm.try_reserve(UserId(3)).is_err());
        adm.release(UserId(3), 1);
        adm.try_reserve(UserId(3)).unwrap();
    }

    #[test]
    fn quota_check() {
        let adm = small();
        adm.check_quota(4, 6).unwrap();
        assert!(matches!(
            adm.check_quota(5, 6),
            Err(PlatformError::Throttled(_))
        ));
        adm.check_quota(0, 10).unwrap();
    }
}
