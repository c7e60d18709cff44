//! Server-push notifications: the platform's "work is ready" signal.
//!
//! The contributor loop used to learn about new work only by polling
//! `request_task` and eating empty responses with jittered backoff. The
//! [`PushHub`] inverts that: a contributor *subscribes* (in-process via
//! [`crate::Platform::subscribe_push`], over the wire via the v2
//! `Subscribe` frame) and the server delivers a [`Notification`] the
//! moment the queue changes — `QueueReady` when tasks are enqueued or
//! requeued, `ExperimentFinished` when an experiment's last task goes
//! terminal. Subscribed workers park on the notification instead of
//! empty-polling.
//!
//! Delivery semantics: every notification is fanned out to **every**
//! subscription live at publish time, exactly once per subscription —
//! no dedup, no coalescing — and never to subscriptions that were
//! already closed. Notifications are a *hint*, not a hand-out: a woken
//! worker still calls `request_task` and may lose the race for the
//! task; correctness never depends on a notification arriving.

use crate::error::PlatformResult;
use crate::project::{ExperimentId, ProjectId};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One unsolicited server-to-contributor signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// Tasks were enqueued or requeued on this project's queue.
    QueueReady { project: ProjectId },
    /// The experiment's last outstanding task reached a terminal state —
    /// reported, or timed out by the reaper.
    ExperimentFinished {
        project: ProjectId,
        experiment: ExperimentId,
    },
}

struct Sub {
    pending: Vec<Notification>,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    subs: HashMap<u64, Sub>,
    /// Live subscription count per contributor key string, so the
    /// hand-out path can tell a push-parked worker from a poller.
    by_key: HashMap<String, usize>,
    /// Which key each subscription was opened under (for unsubscribe).
    key_of: HashMap<u64, String>,
}

/// Fan-out hub for [`Notification`]s. One per server; subscriptions are
/// cheap (a vec of pending notifications) and torn down explicitly by
/// [`PushHub::unsubscribe`] — a wire connection's death sweep or a
/// [`LocalWaiter`]'s drop.
///
/// Uses `std::sync` (not `parking_lot`) because in-process waiters park
/// on a [`Condvar`].
#[derive(Default)]
pub struct PushHub {
    inner: Mutex<Inner>,
    wake: Condvar,
}

impl PushHub {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a subscription under a contributor key. Returns the
    /// subscription id used by [`drain`](PushHub::drain) /
    /// [`wait`](PushHub::wait) / [`unsubscribe`](PushHub::unsubscribe).
    pub fn subscribe(&self, key: &str) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.subs.insert(id, Sub { pending: Vec::new() });
        *inner.by_key.entry(key.to_string()).or_insert(0) += 1;
        inner.key_of.insert(id, key.to_string());
        id
    }

    /// Close a subscription; its undrained notifications are dropped.
    /// Idempotent.
    pub fn unsubscribe(&self, id: u64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.subs.remove(&id).is_none() {
            return;
        }
        if let Some(key) = inner.key_of.remove(&id) {
            if let Some(n) = inner.by_key.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    inner.by_key.remove(&key);
                }
            }
        }
    }

    /// Whether any live subscription was opened under this key.
    pub fn is_subscribed(&self, key: &str) -> bool {
        self.inner.lock().unwrap().by_key.contains_key(key)
    }

    /// Live subscription count (tests / introspection).
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().unwrap().subs.len()
    }

    /// Publish a notification to every live subscription — one copy
    /// each, in publish order.
    pub fn notify(&self, n: &Notification) {
        let mut inner = self.inner.lock().unwrap();
        for sub in inner.subs.values_mut() {
            sub.pending.push(n.clone());
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Take every pending notification for a subscription without
    /// blocking (the wire server's per-sweep drain). Unknown ids drain
    /// empty.
    pub fn drain(&self, id: u64) -> Vec<Notification> {
        let mut inner = self.inner.lock().unwrap();
        match inner.subs.get_mut(&id) {
            Some(sub) => std::mem::take(&mut sub.pending),
            None => Vec::new(),
        }
    }

    /// Block until the subscription has a notification (popping the
    /// oldest) or the timeout elapses (`None`). Returns `None`
    /// immediately for a closed subscription.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<Notification> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            match inner.subs.get_mut(&id) {
                None => return None,
                Some(sub) if !sub.pending.is_empty() => return Some(sub.pending.remove(0)),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, result) = self.wake.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
            if result.timed_out() {
                // One last look under the lock before giving up.
                return match inner.subs.get_mut(&id) {
                    Some(sub) if !sub.pending.is_empty() => Some(sub.pending.remove(0)),
                    _ => None,
                };
            }
        }
    }
}

/// A parked contributor's handle on the push channel, abstracted over
/// the transport: in-process it wraps the server's [`PushHub`]
/// ([`LocalWaiter`]), over the wire it blocks on a dedicated subscribed
/// v2 connection.
pub trait PushWaiter: Send {
    /// Block until a notification arrives or the timeout elapses
    /// (`Ok(None)`). Errors mean the channel itself broke (remote
    /// connection torn down).
    fn wait(&mut self, timeout: Duration) -> PlatformResult<Option<Notification>>;
}

/// [`PushWaiter`] over an in-process [`PushHub`] subscription;
/// unsubscribes on drop.
pub struct LocalWaiter {
    hub: Arc<PushHub>,
    id: u64,
}

impl LocalWaiter {
    pub fn new(hub: Arc<PushHub>, key: &str) -> Self {
        let id = hub.subscribe(key);
        LocalWaiter { hub, id }
    }
}

impl PushWaiter for LocalWaiter {
    fn wait(&mut self, timeout: Duration) -> PlatformResult<Option<Notification>> {
        Ok(self.hub.wait(self.id, timeout))
    }
}

impl Drop for LocalWaiter {
    fn drop(&mut self) {
        self.hub.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_is_exactly_once_per_live_subscription() {
        let hub = PushHub::new();
        let a = hub.subscribe("ck_a");
        let b = hub.subscribe("ck_a");
        let n = Notification::QueueReady { project: ProjectId(1) };
        hub.notify(&n);
        hub.unsubscribe(b);
        let late = hub.subscribe("ck_b");
        hub.notify(&n);
        assert_eq!(hub.drain(a).len(), 2, "live for both publishes");
        assert_eq!(hub.drain(b).len(), 0, "closed subs drop pending");
        assert_eq!(hub.drain(late).len(), 1, "only post-subscribe publishes");
        assert!(hub.is_subscribed("ck_a"));
        hub.unsubscribe(a);
        assert!(!hub.is_subscribed("ck_a"));
        assert!(hub.is_subscribed("ck_b"));
    }

    #[test]
    fn wait_parks_until_notified_and_times_out_clean() {
        let hub = Arc::new(PushHub::new());
        let id = hub.subscribe("ck_w");
        assert_eq!(hub.wait(id, Duration::from_millis(5)), None);
        let h2 = Arc::clone(&hub);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            h2.notify(&Notification::QueueReady { project: ProjectId(7) });
        });
        let got = hub.wait(id, Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(got, Some(Notification::QueueReady { project: ProjectId(7) }));
        assert_eq!(hub.wait(999, Duration::from_millis(1)), None, "unknown id");
    }
}
