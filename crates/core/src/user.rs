//! User administration (paper §5.2).
//!
//! "A straightforward user administration is provided based on a unique
//! nickname and a valid email to reach out to its owner. Email addresses
//! are never exposed in the interface." Contributors run experiments under
//! a *contributor key* — "a separately supplied key to identify the source
//! of the results without disclosing the contributor's identity" (§3.3).

use crate::error::{PlatformError, PlatformResult};
use std::collections::HashMap;
use std::sync::Arc;

/// A unique, opaque user id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

/// A registered user. The email is deliberately private: it is used for
/// "legal interaction with the registered user" only.
#[derive(Debug, Clone)]
pub struct User {
    pub id: UserId,
    pub nickname: String,
    email: String,
}

impl User {
    /// The email is only reachable through this explicitly-named accessor,
    /// never through display paths.
    pub fn email_for_legal_contact(&self) -> &str {
        &self.email
    }
}

/// An anonymous key under which results are contributed. The text is
/// shared: the running task, the queue's index of held tasks and a
/// logged record hold one allocation between them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContributorKey(pub Arc<str>);

serde::newtype!(UserId(u64), ContributorKey(Arc<str>));

impl ContributorKey {
    /// Derive a stable, anonymous key for a user; the mapping back to the
    /// user is held only in the registry.
    fn derive(id: UserId, counter: u64) -> ContributorKey {
        // FNV-1a over the id/counter pair: stable, opaque, collision-free
        // enough for a registry that also checks uniqueness.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in id.0.to_le_bytes().into_iter().chain(counter.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        ContributorKey(format!("ck_{h:016x}").into())
    }
}

/// The user registry.
#[derive(Debug, Default)]
pub struct UserRegistry {
    users: Vec<User>,
    by_nickname: HashMap<String, UserId>,
    keys: HashMap<ContributorKey, UserId>,
    key_counter: u64,
}

impl UserRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The id registering `nickname` and `email` gets, or why it is
    /// refused: nicknames are unique, emails must look valid.
    pub fn next_user(&self, nickname: &str, email: &str) -> PlatformResult<UserId> {
        if nickname.trim().is_empty() {
            return Err(PlatformError::Invalid("empty nickname".into()));
        }
        if self.by_nickname.contains_key(nickname) {
            return Err(PlatformError::Invalid(format!(
                "nickname {nickname:?} is taken"
            )));
        }
        let at = email.find('@');
        if !matches!(at, Some(i) if i > 0 && i + 1 < email.len() && email[i + 1..].contains('.')) {
            return Err(PlatformError::Invalid(format!("invalid email {email:?}")));
        }
        Ok(UserId(self.users.len() as u64 + 1))
    }

    /// Add a registered user (`UserRegistered`). Ids arrive in
    /// registration order, so the dense id space stays dense.
    pub fn add_user(&mut self, id: UserId, nickname: String, email: String) -> Result<(), String> {
        let expect = self.users.len() as u64 + 1;
        if id.0 != expect {
            return Err(format!(
                "user #{} registered out of order (expected #{expect})",
                id.0
            ));
        }
        self.by_nickname.insert(nickname.clone(), id);
        self.users.push(User { id, nickname, email });
        Ok(())
    }

    pub fn get(&self, id: UserId) -> PlatformResult<&User> {
        id.0.checked_sub(1)
            .and_then(|i| self.users.get(i as usize))
            .filter(|u| u.id == id)
            .ok_or(PlatformError::UnknownUser(id.0))
    }

    pub fn by_nickname(&self, nickname: &str) -> Option<&User> {
        self.by_nickname
            .get(nickname)
            .and_then(|id| self.get(*id).ok())
    }

    /// The fresh anonymous key issuing one to `id` hands out, with the
    /// issue counter it is derived from.
    pub fn next_key(&self, id: UserId) -> PlatformResult<(ContributorKey, u64)> {
        self.get(id)?;
        let counter = self.key_counter + 1;
        Ok((ContributorKey::derive(id, counter), counter))
    }

    /// Add an issued key (`KeyIssued`). The registry counter advances
    /// past `counter`, so later keys never collide with this one.
    pub fn add_key(&mut self, key: ContributorKey, user: UserId, counter: u64) {
        self.keys.insert(key, user);
        self.raise_key_counter(counter);
    }

    /// Resolve a contributor key back to its owner (moderators only).
    pub fn resolve_key(&self, key: &ContributorKey) -> Option<UserId> {
        self.keys.get(key).copied()
    }

    pub fn len(&self) -> usize {
        self.users.len()
    }

    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// All users, for the snapshot writer. Emails still only leave
    /// through [`User::email_for_legal_contact`].
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All issued keys with their owners, for the snapshot writer.
    pub fn keys(&self) -> impl Iterator<Item = (&ContributorKey, UserId)> {
        self.keys.iter().map(|(k, id)| (k, *id))
    }

    pub fn key_counter(&self) -> u64 {
        self.key_counter
    }

    /// Advance the issue counter to at least `counter` (a checkpoint
    /// carries it as one value rather than per key).
    pub fn raise_key_counter(&mut self, counter: u64) {
        self.key_counter = self.key_counter.max(counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decide, then apply: what the server does with the record between.
    fn register(r: &mut UserRegistry, nickname: &str, email: &str) -> PlatformResult<UserId> {
        let id = r.next_user(nickname, email)?;
        r.add_user(id, nickname.into(), email.into()).unwrap();
        Ok(id)
    }

    fn issue(r: &mut UserRegistry, id: UserId) -> ContributorKey {
        let (key, counter) = r.next_key(id).unwrap();
        r.add_key(key.clone(), id, counter);
        key
    }

    #[test]
    fn register_and_lookup() {
        let mut r = UserRegistry::new();
        let id = register(&mut r, "mlk", "mlk@cwi.nl").unwrap();
        assert_eq!(r.get(id).unwrap().nickname, "mlk");
        assert_eq!(r.by_nickname("mlk").unwrap().id, id);
        assert!(r.by_nickname("nobody").is_none());
    }

    #[test]
    fn duplicate_nickname_rejected() {
        let mut r = UserRegistry::new();
        register(&mut r, "mlk", "a@b.io").unwrap();
        assert!(r.next_user("mlk", "c@d.io").is_err());
    }

    #[test]
    fn bad_emails_rejected() {
        let r = UserRegistry::new();
        for bad in ["", "plain", "@x.com", "a@", "a@nodot"] {
            assert!(r.next_user("u", bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn email_not_in_debug_of_nickname_paths() {
        let mut r = UserRegistry::new();
        let id = register(&mut r, "mlk", "secret@cwi.nl").unwrap();
        let user = r.get(id).unwrap();
        // The only path to the email is the explicitly-named accessor.
        assert_eq!(user.email_for_legal_contact(), "secret@cwi.nl");
        assert_eq!(user.nickname, "mlk");
    }

    #[test]
    fn contributor_keys_are_anonymous_but_resolvable() {
        let mut r = UserRegistry::new();
        let id = register(&mut r, "mlk", "a@b.io").unwrap();
        let k1 = issue(&mut r, id);
        let k2 = issue(&mut r, id);
        assert_ne!(k1, k2, "keys are per-issue, not per-user");
        assert!(!k1.0.contains("mlk"));
        assert_eq!(r.resolve_key(&k1), Some(id));
        assert_eq!(r.resolve_key(&ContributorKey("ck_bogus".into())), None);
        assert!(r.next_key(UserId(9)).is_err());
    }

    #[test]
    fn rebuilt_registry_issues_no_colliding_keys() {
        let mut r = UserRegistry::new();
        let a = register(&mut r, "a", "a@b.io").unwrap();
        let b = register(&mut r, "b", "b@b.io").unwrap();
        let k1 = issue(&mut r, a);
        let k2 = issue(&mut r, b);

        let mut back = UserRegistry::new();
        for u in r.users() {
            back.add_user(u.id, u.nickname.clone(), u.email_for_legal_contact().into())
                .unwrap();
        }
        for (k, owner) in r.keys() {
            // A checkpoint knows no per-key counter, only the registry's.
            back.add_key(k.clone(), owner, 0);
        }
        back.raise_key_counter(r.key_counter());
        assert_eq!(back.resolve_key(&k1), Some(a));
        assert_eq!(back.resolve_key(&k2), Some(b));
        assert_eq!(back.by_nickname("b").unwrap().id, b);
        assert_eq!(back.get(a).unwrap().email_for_legal_contact(), "a@b.io");
        // Fresh keys after recovery don't collide with replayed ones.
        let k3 = issue(&mut back, a);
        assert_ne!(k3, k1);
        assert_ne!(k3, k2);
        // An id out of order is a corrupt log.
        let mut bad = UserRegistry::new();
        assert!(bad.add_user(UserId(2), "x".into(), "x@y.io".into()).is_err());
    }

    #[test]
    fn unknown_user_errors() {
        let r = UserRegistry::new();
        assert!(r.get(UserId(9)).is_err());
    }
}
