//! The in-process sqalpel server — the SaaS façade of §5.1 without HTTP.
//!
//! "sqalpel is built as a client-server, web-based software platform for
//! developing, managing, and sharing experimental results." This module
//! provides the same operations as the web endpoints: user administration,
//! the catalogs, project/experiment management, pool extension, the task
//! hand-out loop used by the experiment driver, result collection and
//! moderation.
//!
//! State is sharded per project ([`ShardedState`]): each project's queue,
//! results and membership live behind their own lock, users and catalogs
//! in a small global shard, so contributors working distinct projects
//! never contend. Three orthogonal concerns wrap every mutation:
//!
//! * **Durability** — every mutating op has one shape. Under the owning
//!   lock it decides, changing nothing, what its [`WalRecord`] says;
//!   a server opened with [`SqalpelServer::open`] logs the record; then
//!   the record is applied with the function recovery replays it with
//!   ([`Apply`]). An op that returns `Err` changed nothing, and the live
//!   state is the replay of its own log. Durable servers take periodic
//!   snapshots and recover snapshot + WAL tail on the next open; `new()`
//!   stays purely in-memory (it applies the records without logging
//!   them).
//! * **Admission** — [`AdmissionControl`] bounds per-user in-flight
//!   hand-outs and per-project queue depth; violations surface as
//!   [`PlatformError::Throttled`]. It keeps counts only: which tasks a
//!   key holds is recorded once, by the queue (a `Running` task names
//!   its holder and claim nonce), and a report or reap gives back the
//!   slots of exactly the tasks its record moved out of `Running`.
//! * **Fairness** — `request_task` sweeps shards round-robin from a
//!   rotating cursor, so one project with a deep queue cannot starve the
//!   hand-out of the others.
//!
//! Lock order everywhere: global shard → shard map → project shard →
//! WAL. The admission mutex is leaf-level (never held across another
//! acquisition); slots are released after the shard lock drops, since
//! resolving a key to its user takes the global lock.

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::RunOutcome;
use crate::durability::{Durability, RecoveredState, WalRecord};
use crate::error::{PlatformError, PlatformResult};
use crate::metrics::MetricsRegistry;
use crate::pool::{PoolEntry, QueryId, Strategy};
use crate::project::{ExperimentId, Project, ProjectId, Role};
use crate::push::{LocalWaiter, Notification, PushHub, PushWaiter};
use crate::queue::{QueueSummary, Task, TaskId, TaskState};
use crate::results::{self, ResultRecord};
use crate::shard::{Apply, GlobalShard, ProjectShard, ShardedState};
use crate::user::{ContributorKey, UserId};
use serde::text::{TextSink, MAX_DEPTH};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The contribution surface of the platform — exactly what
/// [`crate::workers::contribute`] calls, abstracted over the transport.
/// [`SqalpelServer`] implements it in-process; [`crate::wire::WireClient`]
/// implements it over either wire protocol, so the one contributor loop
/// runs unchanged against both.
pub trait Platform: Send + Sync {
    /// Claim a queued task matching the contributor's target. `nonce`
    /// names the claim a retry resumes, as in
    /// [`SqalpelServer::request_task_claimed`]: `None` resumes any task
    /// the key holds for the target, `Some(n)` only one claimed under
    /// `n` (or under no nonce).
    fn claim(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
        nonce: Option<u64>,
    ) -> PlatformResult<Option<Task>>;

    /// Report the outcome of a claimed task; returns the index of the
    /// accepted result record.
    fn report_result(
        &self,
        key: &ContributorKey,
        task_id: TaskId,
        outcome: &RunOutcome,
    ) -> PlatformResult<usize>;

    /// Report many claimed tasks in one exchange; returns the record
    /// index of each report, in input order.
    fn report_batch(
        &self,
        key: &ContributorKey,
        reports: &[(TaskId, RunOutcome)],
    ) -> PlatformResult<Vec<u64>>;

    /// The platform's metrics registry, for the instrumented contributor
    /// loop. Remote implementations (the wire client) return `None` —
    /// their server keeps the registry.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// Open a push-notification channel under this contributor key, so a
    /// worker can park on "work is ready" instead of empty-polling.
    /// `None` means the platform (or transport) does not support push —
    /// callers fall back to polling with backoff.
    fn subscribe_push(&self, _key: &ContributorKey) -> Option<Box<dyn PushWaiter>> {
        None
    }
}

/// The platform server.
pub struct SqalpelServer {
    state: ShardedState,
    admission: AdmissionControl,
    /// `Some` when opened on a state directory; `new()` servers are
    /// purely in-memory.
    durability: Option<Durability>,
    /// Take a snapshot (and truncate the WAL) every this many logged
    /// records; `None` leaves snapshots to explicit `snapshot_now` calls.
    snapshot_every: Option<u64>,
    ops_since_snapshot: AtomicU64,
    snapshotting: AtomicBool,
    /// Whether `open` found an empty state directory (callers bootstrap
    /// demo data only then).
    fresh: bool,
    /// Sharded, so instrumentation never contends with the state locks.
    metrics: MetricsRegistry,
    /// Fan-out hub for server-push notifications (`QueueReady`,
    /// `ExperimentFinished`). Shared with the wire server, which drains
    /// subscriptions into v2 frames.
    push: Arc<PushHub>,
}

impl Default for SqalpelServer {
    fn default() -> Self {
        Self::new()
    }
}

impl SqalpelServer {
    /// A purely in-memory server with the built-in catalogs loaded.
    pub fn new() -> Self {
        Self::with_admission(AdmissionConfig::default())
    }

    /// An in-memory server with explicit admission bounds.
    pub fn with_admission(config: AdmissionConfig) -> Self {
        Self::assemble(ShardedState::new(), AdmissionControl::new(config), true)
    }

    /// An in-memory server over recovered state. Every `Running` task
    /// still counts against its holder's bound: the in-flight counts are
    /// recounted from the queues.
    pub(crate) fn from_recovered(recovered: RecoveredState, config: AdmissionConfig) -> Self {
        let inflight = inflight_by_user(&recovered.global, &recovered.shards);
        Self::assemble(
            ShardedState::from_parts(recovered.global, recovered.shards),
            AdmissionControl::with_inflight(config, inflight),
            recovered.fresh,
        )
    }

    fn assemble(state: ShardedState, admission: AdmissionControl, fresh: bool) -> Self {
        SqalpelServer {
            state,
            admission,
            durability: None,
            snapshot_every: None,
            ops_since_snapshot: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
            fresh,
            metrics: MetricsRegistry::new(),
            push: Arc::new(PushHub::new()),
        }
    }

    /// Open a durable server on a state directory: recover the latest
    /// snapshot plus the WAL tail, then log every further mutation.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Self::open_with(dir, AdmissionConfig::default(), None)
    }

    /// [`SqalpelServer::open`] with explicit admission bounds and an
    /// automatic snapshot interval (in logged records).
    pub fn open_with(
        dir: &Path,
        config: AdmissionConfig,
        snapshot_every: Option<u64>,
    ) -> io::Result<Self> {
        let started = Instant::now();
        let (durability, recovered) = Durability::open(dir)?;
        let recovery_nanos = started.elapsed().as_nanos() as u64;
        let (replayed, skipped) = (recovered.replayed_records, recovered.skipped_records);
        let mut server = Self::from_recovered(recovered, config);
        server.durability = Some(durability);
        server.snapshot_every = snapshot_every;
        server.metrics.add("wal.replayed_records", replayed);
        server.metrics.add("wal.skipped_records", skipped);
        server.metrics.add("wal.recovery_nanos", recovery_nanos);
        Ok(server)
    }

    /// Whether `open` found an empty state directory (no snapshot, no
    /// WAL) — callers seed demo data only on a fresh boot.
    pub fn recovered_fresh(&self) -> bool {
        self.fresh
    }

    /// The server's metrics registry (also served as `GET /v1/metrics`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The admission controller (read-only handles for tests/tools).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The push-notification hub. The wire server subscribes contributor
    /// connections here and drains their pending notifications into v2
    /// push frames.
    pub fn push_hub(&self) -> &Arc<PushHub> {
        &self.push
    }

    // --------------------------------------------------------- durability

    /// Append one record to the WAL (no-op on in-memory servers). Called
    /// while holding the lock that guards the state the record changes,
    /// so WAL order equals mutation order per lock domain.
    fn log(&self, record: &WalRecord) -> PlatformResult<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let bytes = d
            .log(record)
            .map_err(|e| PlatformError::Invalid(format!("durability: {e}")))?;
        self.metrics.incr("wal.records");
        self.metrics.add("wal.bytes", bytes);
        self.ops_since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Log a record the op decided under `state`'s lock, then apply it
    /// with the function replay applies it with. Nothing has changed
    /// when this returns `Err`.
    fn commit(&self, state: &mut impl Apply, record: WalRecord) -> PlatformResult<()> {
        self.log(&record)?;
        if let Err(e) = state.apply(record) {
            panic!("a record decided under its lock does not apply: {e}");
        }
        Ok(())
    }

    /// Snapshot the full state and truncate the WAL behind it. Takes
    /// read locks on the global shard, the shard map and every project
    /// shard (in lock order), which excludes all writers — the cut is
    /// consistent. Holding the *map* lock for the duration matters: a
    /// concurrent `create_project` (global read + map write) could
    /// otherwise install a shard and log records for it between the
    /// shard-list read and the WAL truncation, and the truncation would
    /// silently drop the acknowledged project.
    pub fn snapshot_now(&self) -> PlatformResult<u64> {
        let d = self.durability.as_ref().ok_or_else(|| {
            PlatformError::Invalid("server has no state directory".into())
        })?;
        let global = self.state.global.read();
        let lsn = self
            .state
            .with_shards_locked(|shards| {
                let guards: Vec<_> = shards.iter().map(|s| s.read()).collect();
                let refs: Vec<&ProjectShard> = guards.iter().map(|g| &**g).collect();
                d.snapshot(&global, &refs)
            })
            .map_err(|e| PlatformError::Invalid(format!("durability: {e}")))?;
        self.metrics.incr("wal.snapshots");
        self.ops_since_snapshot.store(0, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Fsync the WAL (graceful shutdown; per-record appends only flush
    /// to the OS).
    pub fn flush_wal(&self) -> io::Result<()> {
        match &self.durability {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Take the automatic snapshot if the interval has elapsed. Must be
    /// called with **no** state locks held.
    fn maybe_snapshot(&self) {
        let Some(every) = self.snapshot_every else {
            return;
        };
        if self.durability.is_none() || self.ops_since_snapshot.load(Ordering::Relaxed) < every {
            return;
        }
        if self
            .snapshotting
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        if self.snapshot_now().is_err() {
            self.metrics.incr("wal.snapshot_errors");
        }
        self.snapshotting.store(false, Ordering::Release);
    }

    // ------------------------------------------------------------- users

    pub fn register_user(&self, nickname: &str, email: &str) -> PlatformResult<UserId> {
        let mut g = self.state.global.write();
        let id = g.users.next_user(nickname, email)?;
        let record = WalRecord::UserRegistered {
            id,
            nickname: nickname.to_string(),
            email: email.to_string(),
        };
        self.commit(&mut *g, record)?;
        Ok(id)
    }

    pub fn issue_key(&self, user: UserId) -> PlatformResult<ContributorKey> {
        let mut g = self.state.global.write();
        let (key, counter) = g.users.next_key(user)?;
        self.commit(&mut *g, WalRecord::KeyIssued { user, key: key.clone(), counter })?;
        Ok(key)
    }

    // ----------------------------------------------------------- catalogs

    pub fn add_dbms(&self, entry: DbmsEntry) -> PlatformResult<()> {
        let mut g = self.state.global.write();
        g.catalogs.check_dbms(&entry)?;
        self.commit(&mut *g, WalRecord::DbmsAdded { entry })
    }

    pub fn add_host(&self, entry: HostEntry) -> PlatformResult<()> {
        let mut g = self.state.global.write();
        g.catalogs.check_host(&entry)?;
        self.commit(&mut *g, WalRecord::HostAdded { entry })
    }

    pub fn dbms_labels(&self) -> Vec<String> {
        self.state
            .global
            .read()
            .catalogs
            .dbms_entries()
            .iter()
            .map(|d| d.label())
            .collect()
    }

    // ----------------------------------------------------------- projects

    pub fn create_project(
        &self,
        owner: UserId,
        title: &str,
        synopsis: &str,
        visibility: Visibility,
    ) -> PlatformResult<ProjectId> {
        self.state.global.read().users.get(owner)?;
        self.state.create_project(|id| {
            let record = WalRecord::ProjectCreated {
                id,
                owner,
                title: title.to_string(),
                synopsis: synopsis.to_string(),
                visibility,
            };
            self.log(&record)?;
            Ok(record)
        })
    }

    fn with_shard<T>(
        &self,
        id: ProjectId,
        f: impl FnOnce(&mut ProjectShard) -> PlatformResult<T>,
    ) -> PlatformResult<T> {
        let shard = self.state.shard(id)?;
        let mut s = shard.write();
        f(&mut s)
    }

    pub fn invite(&self, project: ProjectId, owner: UserId, user: UserId) -> PlatformResult<()> {
        let shard = self.state.shard(project)?;
        // Lock order: global before shard.
        let g = self.state.global.read();
        g.users.get(user)?;
        let mut s = shard.write();
        s.project.require(owner, Role::Owner)?;
        self.commit(&mut *s, WalRecord::Invited { project, user })
    }

    /// Declare the DBMS/host targets of the project; public projects are
    /// checked against the catalogs (§4.2's publication rule). A failed
    /// check leaves the previous targets in place.
    pub fn set_targets(
        &self,
        project: ProjectId,
        actor: UserId,
        dbms_labels: Vec<String>,
        hosts: Vec<String>,
    ) -> PlatformResult<()> {
        let shard = self.state.shard(project)?;
        let g = self.state.global.read();
        let mut s = shard.write();
        s.project.require(actor, Role::Owner)?;
        s.project.check_targets(&g.catalogs, &dbms_labels, &hosts)?;
        let record = WalRecord::TargetsSet {
            project,
            dbms_labels,
            hosts,
        };
        self.commit(&mut *s, record)
    }

    /// Any registered user with at least read access may comment.
    pub fn comment(&self, project: ProjectId, author: UserId, text: &str) -> PlatformResult<()> {
        self.with_shard(project, |s| {
            s.project.require(author, Role::Reader)?;
            let text = text.to_string();
            self.commit(s, WalRecord::CommentAdded { project, author, text })
        })
    }

    /// Vendor notice-and-takedown (§4.3): results stop being served.
    pub fn take_down(&self, project: ProjectId) -> PlatformResult<()> {
        self.with_shard(project, |s| self.commit(s, WalRecord::TakenDown { project }))
    }

    /// The role a user holds on a project.
    pub fn role_of(&self, project: ProjectId, user: UserId) -> PlatformResult<Role> {
        Ok(self.state.shard(project)?.read().project.role_of(user))
    }

    // -------------------------------------------------------- experiments

    #[allow(clippy::too_many_arguments)]
    pub fn add_experiment(
        &self,
        project: ProjectId,
        actor: UserId,
        title: &str,
        baseline_sql: &str,
        grammar: Option<sqalpel_grammar::Grammar>,
        template_cap: usize,
        pool_cap: usize,
    ) -> PlatformResult<ExperimentId> {
        self.with_shard(project, |s| {
            let (id, pool) = s
                .project
                .new_experiment(actor, baseline_sql, grammar, template_cap, pool_cap)?;
            self.log(&WalRecord::ExperimentAdded {
                project,
                id,
                title: title.to_string(),
                baseline_sql: baseline_sql.to_string(),
                // The *resolved* grammar (hand-written or auto-converted),
                // rendered back to the DSL for replay. The pool built from
                // it here is added as it is, not built a second time.
                grammar: pool.grammar().to_string(),
                template_cap: pool.template_cap(),
                pool_cap: pool.pool_cap(),
                dialect: pool.dialect().map(str::to_string),
            })?;
            s.project
                .add_experiment(id, title.to_string(), baseline_sql.to_string(), pool);
            Ok(id)
        })
    }

    /// Seed the pool: baseline + `n_random` random-template queries.
    pub fn seed_pool(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        n_random: usize,
        seed: u64,
    ) -> PlatformResult<usize> {
        self.with_shard(project, |s| {
            s.project.require(actor, Role::Owner)?;
            let mut draft = s.project.experiment(experiment)?.pool.draft();
            draft.seed_baseline()?;
            let mut rng = sqalpel_grammar::seeded_rng(seed);
            let count = draft.add_random(n_random, &mut rng)?.len() + 1;
            let entries = draft.into_entries();
            self.extend_pool(s, experiment, entries)?;
            Ok(count)
        })
    }

    /// Log and add the entries a pool walk found, if it found any.
    fn extend_pool(
        &self,
        s: &mut ProjectShard,
        experiment: ExperimentId,
        entries: Vec<PoolEntry>,
    ) -> PlatformResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let project = s.project.id;
        self.commit(s, WalRecord::PoolExtended { project, experiment, entries })
    }

    /// Attach (or detach) a plan fingerprinter to an experiment's pool:
    /// from here on, morphed mutants whose canonical plan fingerprint the
    /// pool has already seen are pruned before they reach the task queue.
    ///
    /// The fingerprinter is an in-process closure and is **not** logged
    /// or restored: after recovery it must be re-attached. The dedup sets
    /// it fed are rebuilt from the persisted entries, so already-pruned
    /// duplicates stay pruned.
    pub fn set_pool_fingerprinter(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        f: Option<crate::pool::Fingerprinter>,
    ) -> PlatformResult<()> {
        self.with_shard(project, |s| {
            s.project.require(actor, Role::Owner)?;
            let exp = s.project.experiment_mut(experiment)?;
            exp.pool.set_fingerprinter(f);
            Ok(())
        })
    }

    /// Apply morphing steps; `strategy: None` uses the weighted walk.
    pub fn morph_pool(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        strategy: Option<Strategy>,
        steps: usize,
        seed: u64,
    ) -> PlatformResult<Vec<QueryId>> {
        self.with_shard(project, |s| {
            s.project.require(actor, Role::Owner)?;
            let mut draft = s.project.experiment(experiment)?.pool.draft();
            let mut rng = sqalpel_grammar::seeded_rng(seed);
            let mut added = Vec::new();
            for _ in 0..steps {
                let id = match strategy {
                    Some(st) => draft.morph(st, &mut rng)?,
                    None => draft.morph_auto(&mut rng)?,
                };
                added.extend(id);
            }
            // Log the physical entries (instantiated SQL), not the walk
            // that found them — replay needs no RNG.
            let entries = draft.into_entries();
            self.extend_pool(s, experiment, entries)?;
            Ok(added)
        })
    }

    /// Enqueue every pool query for every declared target combination.
    /// Returns the number of tasks created. Enqueueing past the
    /// per-project quota is refused with `Throttled`.
    pub fn enqueue_experiment(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
    ) -> PlatformResult<usize> {
        let n = self.enqueue_experiment_locked(project, experiment, actor)?;
        // Notify outside the shard lock: a parked worker woken here will
        // immediately call request_task, which takes the same lock.
        if n > 0 {
            self.push.notify(&Notification::QueueReady { project });
        }
        Ok(n)
    }

    fn enqueue_experiment_locked(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
    ) -> PlatformResult<usize> {
        self.with_shard(project, |s| {
            s.project.require(actor, Role::Owner)?;
            // One shared text per query; its targets' tasks all point at it.
            let entries: Vec<(QueryId, Arc<str>)> = s
                .project
                .experiment(experiment)?
                .pool
                .entries()
                .iter()
                .map(|e| (e.id, Arc::from(e.sql.as_str())))
                .collect();
            let (dbms_labels, hosts) = (&s.project.dbms_labels, &s.project.hosts);
            // Quota check against the upper bound (dedup may admit
            // fewer): refuse before deciding anything.
            let sum = s.queue.summary();
            let adding = entries.len() * dbms_labels.len() * hosts.len();
            if let Err(e) = self
                .admission
                .check_quota(sum.queued + sum.running, adding)
            {
                self.metrics.incr("admission.throttled");
                return Err(e);
            }
            // Built once: logged by reference, then moved into the queue.
            let tasks = s.queue.new_tasks(project, experiment, &entries, dbms_labels, hosts);
            let n = tasks.len();
            if n > 0 {
                self.commit(s, WalRecord::TasksEnqueued { project, tasks })?;
            }
            Ok(n)
        })
    }

    // ------------------------------------------------------- contribution

    /// The driver's "request a task" call: hand out a queued task matching
    /// the contributor's target, restricted to projects where the key's
    /// owner is (at least) a contributor.
    ///
    /// The claim is **idempotent**: if this key already holds a running
    /// task for the target (the response to an earlier claim was lost in
    /// transit and the client retried), that same task is handed out
    /// again instead of a second one.
    ///
    /// Hand-out is **fair across projects**: the sweep starts from a
    /// rotating cursor, so each call begins at a different shard.
    pub fn request_task(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
    ) -> PlatformResult<Option<Task>> {
        self.request_task_claimed(key, dbms_label, host, None)
    }

    /// [`request_task`](Self::request_task) with an explicit claim nonce.
    ///
    /// The nonce disambiguates *which* lost claim a retry resumes: with
    /// `claim: None` the key gets any task it already holds for the
    /// target (the legacy idempotent rule — one outstanding claim per
    /// target). With `claim: Some(n)` only a held task handed out under
    /// nonce `n` (or under no nonce) is re-handed out; otherwise the call
    /// checks out a *fresh* task, which is what lets a bulk client hold
    /// many tasks of the same target at once. The nonce is logged with
    /// the claim, so the rule holds across a restart.
    pub fn request_task_claimed(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
        claim: Option<u64>,
    ) -> PlatformResult<Option<Task>> {
        let out = self.metrics.time("server.request_task_nanos", || {
            self.metrics.incr("server.request_task");
            let user = self
                .state
                .global
                .read()
                .users
                .resolve_key(key)
                .ok_or_else(|| PlatformError::AccessDenied("unknown contributor key".into()))?;
            // Idempotent re-hand-out of a claim whose response was lost,
            // read from the queues: the one record of who holds what. A
            // user's count covers every task their keys hold, so with
            // nothing in flight there is nothing to look for.
            if self.admission.inflight_of(user) > 0 {
                if let Some(task) = self.held_claim(key, dbms_label, host, claim) {
                    self.metrics.incr("server.request_task.rehandout");
                    return Ok(Some(task));
                }
            }
            // Reserve the in-flight slot before touching any shard, so
            // the bound holds even with concurrent sweeps.
            if let Err(e) = self.admission.try_reserve(user) {
                self.metrics.incr("admission.throttled");
                return Err(e);
            }
            self.metrics.incr("admission.reserved");
            let shards = self.state.all_shards();
            if !shards.is_empty() {
                let start = self.state.next_cursor() % shards.len();
                for i in 0..shards.len() {
                    let shard = &shards[(start + i) % shards.len()];
                    let mut s = shard.write();
                    if s.project.role_of(user) < Role::Contributor || s.project.taken_down {
                        continue;
                    }
                    if let Some(id) = s.queue.checkout(dbms_label, host) {
                        // The record's key and nonce become the task's
                        // holder and the claim a retry resumes.
                        let record = WalRecord::TaskClaimed { task: id, key: key.clone(), claim };
                        if let Err(e) = self.commit(&mut *s, record) {
                            self.admission.release(user, 1);
                            return Err(e);
                        }
                        let task = s.queue.task(id).expect("claimed here").clone();
                        self.metrics.incr("shard.handouts");
                        return Ok(Some(task));
                    }
                }
            }
            self.admission.release(user, 1);
            // Push-subscribed workers park on notifications and only poll
            // when woken, so their misses are raced hand-outs, not the
            // busy-wait `queue.empty_polls` measures.
            if self.push.is_subscribed(&key.0) {
                self.metrics.incr("queue.parked_polls");
            } else {
                self.metrics.incr("queue.empty_polls");
            }
            Ok(None)
        });
        self.maybe_snapshot();
        out
    }

    /// The stored form of an accepted report — shared by the single and
    /// the batch path — plus the error text the queue completion needs.
    /// The record borrows what the task already holds (its target
    /// labels) and keeps `extras` as text. Folds the run's zone-map
    /// counters into `scan.chunks_*`, visible at GET /v1/metrics.
    fn accepted_record(
        &self,
        task: &Task,
        key: &ContributorKey,
        outcome: RunOutcome,
    ) -> (Option<String>, ResultRecord) {
        // Sized for the driver's four-key object, then cut to fit: two
        // allocations instead of a doubling ladder, and no slack stored.
        let mut extras = String::with_capacity(128);
        outcome.extras.serialize(&mut TextSink::new(&mut extras));
        extras.shrink_to_fit();
        let rec = ResultRecord {
            task: task.id.0,
            project: task.project.0,
            experiment: task.experiment.0,
            query: task.query.0,
            dbms_label: Arc::clone(&task.dbms_label),
            host: Arc::clone(&task.host),
            contributor: key.0.to_string(),
            times_ms: outcome.times_ms,
            rows: outcome.rows,
            error: outcome.error,
            load_before: outcome.load_before,
            load_after: outcome.load_after,
            extras,
            hidden: false,
            fingerprint: outcome.fingerprint,
            profile: outcome.profile,
        };
        if let Some(profile) = &rec.profile {
            let (scanned, skipped) = profile.iter().fold((0, 0), |(a, b), op| {
                (a + op.chunks_scanned, b + op.chunks_skipped)
            });
            if scanned > 0 {
                self.metrics.add("scan.chunks_scanned", scanned);
            }
            if skipped > 0 {
                self.metrics.add("scan.chunks_skipped", skipped);
            }
        }
        (rec.error.clone(), rec)
    }

    /// What a report of `task_id` by `key` is, decided under its shard's
    /// lock before anything is logged: fresh (`None`) when the key holds
    /// the task and the outcome can be logged; a retry of the record this
    /// key already filed (`Some(index)`); otherwise refused with the typed
    /// error `queue.complete` would raise. A task the key holds is always
    /// a fresh report, even if the key filed one before — it failed, was
    /// requeued and re-claimed by the same key.
    fn judge_report(
        &self,
        s: &ProjectShard,
        key: &ContributorKey,
        task_id: TaskId,
        outcome: &RunOutcome,
    ) -> PlatformResult<Option<usize>> {
        let task = s.queue.task(task_id)?;
        if task.state.holder() == Some(key) {
            require_loggable(task_id, outcome)?;
            return Ok(None);
        }
        if let Some(existing) = s.results.index_of(task_id, &key.0) {
            self.metrics.incr("server.report_result.duplicate");
            return Ok(Some(existing));
        }
        Err(match &task.state {
            TaskState::Running { .. } => PlatformError::AccessDenied(format!(
                "task #{} belongs to another contributor",
                task_id.0
            )),
            other => PlatformError::Invalid(format!(
                "task #{} is not running (state {other:?})",
                task_id.0
            )),
        })
    }

    /// The task a claim under nonce `claim` resumes: one `key` already
    /// holds for the target ([`TaskQueue::running_claim`](crate::queue::TaskQueue::running_claim)),
    /// looked up by key in each shard's queue.
    pub(crate) fn held_claim(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
        claim: Option<u64>,
    ) -> Option<Task> {
        self.state.with_shards_locked(|shards| {
            shards
                .iter()
                .find_map(|s| s.read().queue.running_claim(key, dbms_label, host, claim).cloned())
        })
    }

    /// Give back the in-flight slots of `n` tasks of `key` that a
    /// committed record moved out of `Running`. Called with no shard lock
    /// held, as resolving a key to its user takes the global lock.
    fn release_slots(&self, key: &ContributorKey, n: usize) {
        if let Some(user) = self.state.global.read().users.resolve_key(key) {
            self.admission.release(user, n);
            self.metrics.add("admission.released", n as u64);
        }
    }

    /// The driver's "report back" call.
    ///
    /// Reports are **idempotent per (task, contributor)**: if this key
    /// already filed a record for the task (a retry after a lost
    /// response), the original record's index is returned and nothing is
    /// double-counted. A report for a task that was reaped and re-claimed
    /// by someone else is still refused.
    pub fn report_result(
        &self,
        key: &ContributorKey,
        task_id: TaskId,
        outcome: RunOutcome,
    ) -> PlatformResult<usize> {
        let out = self.metrics.time("server.report_result_nanos", || {
            let shard = self.state.shard_of_task(task_id)?;
            let mut s = shard.write();
            if let Some(existing) = self.judge_report(&s, key, task_id, &outcome)? {
                return Ok(existing);
            }
            // Borrowed, not cloned: a report needs four ids and two labels
            // of its task, not a copy of the SQL.
            let task = s.queue.task(task_id).expect("judged above");
            let (project, experiment) = (task.project, task.experiment);
            let (error, record) = self.accepted_record(task, key, outcome);
            // One combined record: the queue completion and the stored
            // result apply together. If the append fails, the task stays
            // Running and its admission slot stays held, so the
            // contributor's retry can complete it once the log is
            // writable again.
            let record = WalRecord::ReportAccepted { task: task_id, key: key.clone(), error, record };
            self.commit(&mut *s, record)?;
            let idx = s.results.len() - 1;
            let drained = experiment_drained(&s, experiment);
            drop(s);
            self.release_slots(key, 1);
            self.metrics.incr("shard.reports");
            self.metrics.incr("server.report_result.accepted");
            if drained {
                self.push.notify(&Notification::ExperimentFinished {
                    project,
                    experiment,
                });
            }
            Ok(idx)
        });
        self.maybe_snapshot();
        out
    }

    /// Accept a whole batch of reports from one contributor in a single
    /// group commit per shard. Returns the accepted record index of each
    /// report, in input order — duplicates (retries of an already-acked
    /// batch) resolve to their original indices.
    ///
    /// The batch is **all-or-nothing per shard**: every report is
    /// validated under the shard lock before anything is logged or
    /// mutated, and the fresh ones ride one
    /// [`WalRecord::ReportBatchAccepted`] append+flush — the group
    /// commit. A batch spanning projects commits per shard in first-
    /// appearance order; a later shard's refusal leaves earlier shards
    /// committed (their reports re-resolve as duplicates on retry).
    pub fn report_batch(
        &self,
        key: &ContributorKey,
        reports: &[(TaskId, RunOutcome)],
    ) -> PlatformResult<Vec<u64>> {
        let out = self.metrics.time("server.report_batch_nanos", || {
            let mut indices = vec![0u64; reports.len()];
            // Group input positions by owning project, preserving order.
            let mut groups: Vec<(ProjectId, Vec<usize>)> = Vec::new();
            for (pos, (task_id, _)) in reports.iter().enumerate() {
                let project = crate::shard::project_of_task(*task_id);
                match groups.iter_mut().find(|(p, _)| *p == project) {
                    Some((_, positions)) => positions.push(pos),
                    None => groups.push((project, vec![pos])),
                }
            }
            let mut finished: Vec<(ProjectId, ExperimentId)> = Vec::new();
            for (project, positions) in groups {
                let shard = self.state.shard(project)?;
                let mut s = shard.write();
                // Validate the whole group before mutating anything.
                let mut fresh: Vec<usize> = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for &pos in &positions {
                    let (task_id, outcome) = &reports[pos];
                    if !seen.insert(task_id.0) {
                        return Err(PlatformError::Invalid(format!(
                            "task #{} appears twice in one batch",
                            task_id.0
                        )));
                    }
                    match self.judge_report(&s, key, *task_id, outcome)? {
                        Some(existing) => indices[pos] = existing as u64,
                        None => fresh.push(pos),
                    }
                }
                if fresh.is_empty() {
                    continue; // pure retry: everything resolved as duplicates
                }
                let mut items: Vec<(TaskId, Option<String>, ResultRecord)> =
                    Vec::with_capacity(fresh.len());
                let mut experiments: Vec<ExperimentId> = Vec::new();
                for &pos in &fresh {
                    let (task_id, outcome) = &reports[pos];
                    // Borrow, don't clone: the task's SQL text is dead
                    // weight here and a bulk batch holds hundreds.
                    let task = s.queue.task(*task_id).expect("validated above");
                    let (error, rec) = self.accepted_record(task, key, outcome.clone());
                    if !experiments.contains(&task.experiment) {
                        experiments.push(task.experiment);
                    }
                    items.push((*task_id, error, rec));
                }
                // The group commit: every fresh report of this shard in
                // ONE framed append+flush, so the whole batch becomes
                // durable — and applies — atomically.
                let first = s.results.len();
                let record = WalRecord::ReportBatchAccepted { key: key.clone(), items };
                self.commit(&mut *s, record)?;
                self.metrics.incr("wal.group_commits");
                for (i, &pos) in fresh.iter().enumerate() {
                    indices[pos] = (first + i) as u64;
                }
                for experiment in experiments {
                    if experiment_drained(&s, experiment) {
                        finished.push((project, experiment));
                    }
                }
                drop(s);
                self.release_slots(key, fresh.len());
                self.metrics.add("shard.reports", fresh.len() as u64);
                self.metrics.add("server.report_batch.accepted", fresh.len() as u64);
            }
            // Notify outside every shard lock.
            for (project, experiment) in finished {
                self.push.notify(&Notification::ExperimentFinished {
                    project,
                    experiment,
                });
            }
            Ok(indices)
        });
        self.maybe_snapshot();
        out
    }

    /// Reap stuck runs (moderator cron). An experiment whose last open
    /// task timed out is finished: its subscribers hear so, once. A shard
    /// whose record cannot be logged reaps nothing (`wal.errors` counts
    /// it).
    pub fn reap_stuck(&self, timeout: Duration) -> Vec<TaskId> {
        let mut all = Vec::new();
        let mut finished: Vec<(ProjectId, ExperimentId)> = Vec::new();
        for shard in self.state.all_shards() {
            let mut s = shard.write();
            let stuck = s.queue.stuck(timeout);
            if stuck.is_empty() {
                continue;
            }
            let project = s.project.id;
            // Every stuck task is running: the reap takes its slot back.
            let holders: Vec<ContributorKey> = stuck
                .iter()
                .filter_map(|&t| s.queue.task(t).ok()?.state.holder().cloned())
                .collect();
            let record = WalRecord::TasksReaped { project, tasks: stuck.clone() };
            if self.commit(&mut *s, record).is_err() {
                self.metrics.incr("wal.errors");
                continue;
            }
            for &t in &stuck {
                let experiment = s.queue.task(t).expect("just reaped here").experiment;
                if experiment_drained(&s, experiment) && !finished.contains(&(project, experiment)) {
                    finished.push((project, experiment));
                }
            }
            drop(s);
            for key in &holders {
                self.release_slots(key, 1);
            }
            all.extend(stuck);
        }
        // Notify outside every shard lock.
        for (project, experiment) in finished {
            self.push.notify(&Notification::ExperimentFinished {
                project,
                experiment,
            });
        }
        all
    }

    pub fn requeue(&self, task: TaskId) -> PlatformResult<()> {
        let shard = self.state.shard_of_task(task)?;
        let project = {
            let mut s = shard.write();
            s.queue.check_requeue(task)?;
            self.commit(&mut *s, WalRecord::TaskRequeued { task })?;
            s.project.id
        };
        // The task is claimable again: wake parked workers (lock released
        // first — they will immediately request_task against this shard).
        self.push.notify(&Notification::QueueReady { project });
        Ok(())
    }

    /// Task counts aggregated over every shard.
    pub fn queue_summary(&self) -> QueueSummary {
        let mut total = QueueSummary::default();
        for shard in self.state.all_shards() {
            let s = shard.read().queue.summary();
            total.queued += s.queued;
            total.running += s.running;
            total.finished += s.finished;
            total.failed += s.failed;
            total.timed_out += s.timed_out;
        }
        total
    }

    // ------------------------------------------------------------ results

    /// Results of a project as seen by `viewer`: owners and contributors
    /// see everything, readers only non-hidden records, and taken-down
    /// projects serve nothing.
    pub fn results_for(
        &self,
        project: ProjectId,
        viewer: UserId,
    ) -> PlatformResult<Vec<ResultRecord>> {
        let shard = self.state.shard(project)?;
        let s = shard.read();
        let records = visible_results(&s, viewer)?.cloned().collect();
        Ok(records)
    }

    /// Hide or unhide one result. `index` is shard-local (the index
    /// `report_result` returned).
    pub fn hide_result(
        &self,
        project: ProjectId,
        actor: UserId,
        index: usize,
        hidden: bool,
    ) -> PlatformResult<()> {
        self.with_shard(project, |s| {
            s.project.require(actor, Role::Owner)?;
            if index >= s.results.len() {
                return Err(PlatformError::Invalid(format!("no result #{index}")));
            }
            self.commit(s, WalRecord::ResultHidden { project, index, hidden })
        })
    }

    /// The CSV of what [`results_for`](Self::results_for) would return,
    /// written from the stored records without copying them first.
    pub fn export_csv(&self, project: ProjectId, viewer: UserId) -> PlatformResult<String> {
        let shard = self.state.shard(project)?;
        let s = shard.read();
        let csv = results::to_csv(visible_results(&s, viewer)?);
        Ok(csv)
    }

    /// Results of a project keyed off a contributor key instead of a user
    /// id — the wire client's view, where the key is the only credential.
    pub fn results_for_key(
        &self,
        project: ProjectId,
        key: &ContributorKey,
    ) -> PlatformResult<Vec<ResultRecord>> {
        let viewer = self
            .state
            .global
            .read()
            .users
            .resolve_key(key)
            .ok_or_else(|| PlatformError::AccessDenied("unknown contributor key".into()))?;
        self.results_for(project, viewer)
    }

    /// Read-only access to a project for report rendering.
    pub fn with_project_view<T>(
        &self,
        project: ProjectId,
        viewer: UserId,
        f: impl FnOnce(&Project) -> T,
    ) -> PlatformResult<T> {
        let shard = self.state.shard(project)?;
        let s = shard.read();
        if s.project.role_of(viewer) < Role::Reader {
            return Err(PlatformError::AccessDenied(format!(
                "project #{} is private",
                project.0
            )));
        }
        Ok(f(&s.project))
    }
}

#[cfg(test)]
impl SqalpelServer {
    /// The state's fingerprint ([`crate::durability::state_fingerprint`]).
    pub(crate) fn state_fingerprint(&self) -> u64 {
        let global = self.state.global.read();
        self.state.with_shards_locked(|shards| {
            let guards: Vec<_> = shards.iter().map(|s| s.read()).collect();
            let refs: Vec<&ProjectShard> = guards.iter().map(|g| &**g).collect();
            crate::durability::state_fingerprint(&global, &refs)
        })
    }

    /// In-flight tasks per user, recounted from the queues.
    pub(crate) fn recount_inflight(&self) -> HashMap<UserId, usize> {
        let global = self.state.global.read();
        self.state.with_shards_locked(|shards| {
            let guards: Vec<_> = shards.iter().map(|s| s.read()).collect();
            inflight_by_user(&global, guards.iter().map(|g| &**g))
        })
    }

    /// Make the next WAL append fail, or stop it from failing.
    pub(crate) fn fail_next_append(&self, fail: bool) {
        self.durability.as_ref().expect("a durable server").fail_next_append(fail);
    }

    /// Whether an append failure is still waiting for its append.
    pub(crate) fn append_failure_pending(&self) -> bool {
        self.durability.as_ref().is_some_and(Durability::append_failure_pending)
    }
}

/// The stored results of a shard's project that `viewer` may see — the
/// access rule behind `results_for` and `export_csv`.
fn visible_results(
    s: &ProjectShard,
    viewer: UserId,
) -> PlatformResult<impl Iterator<Item = &ResultRecord>> {
    let role = s.project.role_of(viewer);
    if role < Role::Reader {
        return Err(PlatformError::AccessDenied(format!(
            "project #{} is private",
            s.project.id.0
        )));
    }
    if s.project.taken_down {
        return Err(PlatformError::Publication(format!(
            "project #{} was taken down",
            s.project.id.0
        )));
    }
    Ok(s.results
        .all()
        .iter()
        .filter(move |r| role >= Role::Contributor || !r.hidden))
}

/// Whether an experiment has no claimable or in-flight task left in this
/// shard's queue — the `ExperimentFinished` trigger. A lookup: the queue
/// counts open tasks per experiment as they change state.
fn experiment_drained(s: &ProjectShard, experiment: ExperimentId) -> bool {
    s.queue.open_tasks(s.project.id, experiment) == 0
}

/// How deep a report's `extras` may nest. A record embeds it at most four
/// containers down — a batch item's `record` in the log, a report's
/// `outcome` in a v1 batch body — and every text holding it must stay
/// within the [`MAX_DEPTH`] its readers take.
const EXTRAS_DEPTH: usize = MAX_DEPTH - 4;

/// Refuse a report the log could not read back, before anything is
/// logged. JSON has no NaN or infinity, so the log line would print a
/// non-finite time or load average as `null`, pass its checksum and never
/// decode again. And `extras` deeper than [`EXTRAS_DEPTH`] would make a
/// line no reader takes: a v2 frame carries it as a JSON text of its own,
/// read to the full [`MAX_DEPTH`], and an in-process caller builds its own.
fn require_loggable(task: TaskId, outcome: &RunOutcome) -> PlatformResult<()> {
    let loads = [outcome.load_before, outcome.load_after];
    let mut numbers = outcome
        .times_ms
        .iter()
        .copied()
        .chain(loads.iter().flat_map(|l| [l.one, l.five, l.fifteen]));
    let refused = if !numbers.all(f64::is_finite) {
        "a non-finite time or load average"
    } else if !nests_within(&outcome.extras, EXTRAS_DEPTH) {
        "extras nested too deep"
    } else {
        return Ok(());
    };
    Err(PlatformError::Invalid(format!("report for task #{} carries {refused}", task.0)))
}

/// Whether no path into `v` opens more than `left` containers.
fn nests_within(v: &Value, left: usize) -> bool {
    match v {
        Value::Array(items) => left > 0 && items.iter().all(|x| nests_within(x, left - 1)),
        Value::Object(map) => left > 0 && map.values().all(|x| nests_within(x, left - 1)),
        _ => true,
    }
}

/// In-flight tasks per user: the `Running` tasks their keys hold,
/// recounted from the queues. Admission's counts equal it whenever no op
/// stands between its commit and its release.
fn inflight_by_user<'a>(
    global: &GlobalShard,
    shards: impl IntoIterator<Item = &'a ProjectShard>,
) -> HashMap<UserId, usize> {
    let mut inflight = HashMap::new();
    for shard in shards {
        for (key, held) in shard.queue.holders() {
            if let Some(user) = global.users.resolve_key(key) {
                *inflight.entry(user).or_default() += held;
            }
        }
    }
    inflight
}

impl Platform for SqalpelServer {
    fn claim(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
        nonce: Option<u64>,
    ) -> PlatformResult<Option<Task>> {
        self.request_task_claimed(key, dbms_label, host, nonce)
    }

    fn report_result(
        &self,
        key: &ContributorKey,
        task_id: TaskId,
        outcome: &RunOutcome,
    ) -> PlatformResult<usize> {
        SqalpelServer::report_result(self, key, task_id, outcome.clone())
    }

    fn report_batch(
        &self,
        key: &ContributorKey,
        reports: &[(TaskId, RunOutcome)],
    ) -> PlatformResult<Vec<u64>> {
        SqalpelServer::report_batch(self, key, reports)
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(SqalpelServer::metrics(self))
    }

    fn subscribe_push(&self, key: &ContributorKey) -> Option<Box<dyn PushWaiter>> {
        Some(Box::new(LocalWaiter::new(Arc::clone(&self.push), &key.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, EngineConnector, ExperimentDriver};
    use sqalpel_engine::{Database, RowStore};
    use std::sync::Arc;

    fn setup() -> (SqalpelServer, UserId, UserId, ProjectId, ExperimentId) {
        setup_on(SqalpelServer::new())
    }

    fn setup_on(server: SqalpelServer) -> (SqalpelServer, UserId, UserId, ProjectId, ExperimentId) {
        let owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
        let contrib = server.register_user("pk", "pk@monetdb.com").unwrap();
        let project = server
            .create_project(owner, "nation-study", "TPC-H nation micro-benchmark", Visibility::Public)
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
                "select n_name, n_regionkey from nation where n_regionkey = 1 and n_name = 'BRAZIL'",
                None,
                1000,
                100,
            )
            .unwrap();
        server.seed_pool(project, exp, owner, 5, 42).unwrap();
        (server, owner, contrib, project, exp)
    }

    #[test]
    fn full_contribution_loop() {
        let (server, _owner, contrib, project, exp) = setup();
        let n = server.enqueue_experiment(project, exp, _owner).unwrap();
        assert!(n >= 2);
        let key = server.issue_key(contrib).unwrap();

        let db = Arc::new(Database::tpch(0.001, 42));
        let driver = ExperimentDriver::new(
            EngineConnector::new(Arc::new(RowStore::new(db))),
            DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 3").unwrap(),
        );
        let mut done = 0;
        while let Some(task) = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
        {
            let outcome = driver.run(&task.sql);
            server.report_result(&key, task.id, outcome).unwrap();
            done += 1;
        }
        assert_eq!(done, n);
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running, s.timed_out), (0, 0, 0));
        assert_eq!(s.finished + s.failed, n);
        let results = server.results_for(project, contrib).unwrap();
        assert_eq!(results.len(), n);
        assert!(results.iter().all(|r| r.times_ms.len() == 3 || r.error.is_some()));
    }

    #[test]
    fn strangers_cannot_request_tasks() {
        let (server, owner, _c, project, exp) = setup();
        server.enqueue_experiment(project, exp, owner).unwrap();
        let stranger = server.register_user("eve", "eve@x.io").unwrap();
        let key = server.issue_key(stranger).unwrap();
        // Reader role is not enough to contribute.
        assert!(server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .is_none());
        // Unknown keys are rejected outright.
        assert!(server
            .request_task(&ContributorKey("ck_fake".into()), "rowstore-2.0", "bench-server")
            .is_err());
    }

    #[test]
    fn private_projects_invisible_to_strangers() {
        let server = SqalpelServer::new();
        let owner = server.register_user("mlk", "a@b.io").unwrap();
        let stranger = server.register_user("eve", "e@x.io").unwrap();
        let project = server
            .create_project(owner, "secret", "private study", Visibility::Private)
            .unwrap();
        assert!(server.results_for(project, stranger).is_err());
        assert!(server
            .with_project_view(project, stranger, |p| p.title.clone())
            .is_err());
        assert!(server
            .with_project_view(project, owner, |p| p.title.clone())
            .is_ok());
    }

    #[test]
    fn only_the_owner_invites() {
        let (server, owner, contrib, project, _exp) = setup();
        let members = || {
            server
                .with_project_view(project, owner, |p| p.contributors.iter().copied().collect::<Vec<_>>())
                .unwrap()
        };
        let eve = server.register_user("eve", "eve@x.io").unwrap();
        assert!(matches!(
            server.invite(project, contrib, eve),
            Err(PlatformError::AccessDenied(_))
        ));
        assert_eq!(members(), vec![contrib], "a refused invite changes nothing");
        // Idempotent; the owner never becomes a contributor.
        server.invite(project, owner, contrib).unwrap();
        server.invite(project, owner, owner).unwrap();
        assert_eq!(members(), vec![contrib]);
        assert_eq!(server.role_of(project, owner).unwrap(), Role::Owner);
        server.invite(project, owner, eve).unwrap();
        assert_eq!(members(), vec![contrib, eve]);
    }

    #[test]
    fn comments_respect_visibility() {
        let server = SqalpelServer::new();
        let owner = server.register_user("mlk", "a@b.io").unwrap();
        let stranger = server.register_user("eve", "e@x.io").unwrap();
        let public = server.create_project(owner, "open", "public study", Visibility::Public).unwrap();
        let private = server.create_project(owner, "secret", "private study", Visibility::Private).unwrap();
        let comments = |p| {
            server
                .with_project_view(p, owner, |p| p.comments.iter().map(|c| c.text.clone()).collect::<Vec<_>>())
                .unwrap()
        };
        server.comment(public, stranger, "nice work").unwrap();
        assert!(matches!(
            server.comment(private, stranger, "sneaky"),
            Err(PlatformError::AccessDenied(_))
        ));
        assert!(comments(private).is_empty(), "a refused comment changes nothing");
        server.invite(private, owner, stranger).unwrap();
        server.comment(private, stranger, "now allowed").unwrap();
        assert_eq!(comments(private), vec!["now allowed".to_string()]);
        assert_eq!(comments(public), vec!["nice work".to_string()]);
    }

    #[test]
    fn hidden_results_invisible_to_readers() {
        let (server, owner, contrib, project, exp) = setup();
        server.enqueue_experiment(project, exp, owner).unwrap();
        let key = server.issue_key(contrib).unwrap();
        let db = Arc::new(Database::tpch(0.001, 42));
        let driver = ExperimentDriver::new(
            EngineConnector::new(Arc::new(RowStore::new(db))),
            DriverConfig::parse("dbms = rowstore-2.0").unwrap(),
        );
        let task = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();
        let idx = server
            .report_result(&key, task.id, driver.run(&task.sql))
            .unwrap();
        server.hide_result(project, owner, idx, true).unwrap();

        let reader = server.register_user("reader", "r@x.io").unwrap();
        assert_eq!(server.results_for(project, reader).unwrap().len(), 0);
        // Contributors still see it.
        assert_eq!(server.results_for(project, contrib).unwrap().len(), 1);
    }

    #[test]
    fn takedown_stops_serving_results() {
        let (server, owner, _c, project, _exp) = setup();
        server.take_down(project).unwrap();
        assert!(matches!(
            server.results_for(project, owner),
            Err(PlatformError::Publication(_))
        ));
    }

    #[test]
    fn public_project_cannot_target_private_dbms() {
        let (server, owner, _c, project, _exp) = setup();
        server
            .add_dbms(DbmsEntry {
                name: "secretdb".into(),
                version: "9".into(),
                vendor: "acme".into(),
                settings: Default::default(),
                visibility: Visibility::Private,
            })
            .unwrap();
        let err = server
            .set_targets(project, owner, vec!["secretdb-9".into()], vec!["bench-server".into()])
            .unwrap_err();
        assert!(matches!(err, PlatformError::Publication(_)));
        // The failed call left the previous targets intact.
        let labels = server
            .with_project_view(project, owner, |p| p.dbms_labels.clone())
            .unwrap();
        assert_eq!(labels, vec!["rowstore-2.0".to_string()]);
    }

    #[test]
    fn morphing_extends_pool() {
        let (server, owner, _c, project, exp) = setup();
        let added = server
            .morph_pool(project, exp, owner, None, 20, 7)
            .unwrap();
        assert!(!added.is_empty());
        let n = server
            .with_project_view(project, owner, |p| {
                p.experiment(exp).unwrap().pool.len()
            })
            .unwrap();
        assert!(n >= 6 + added.len());
    }

    #[test]
    fn concurrent_contributors_drain_the_queue() {
        let (server, owner, contrib, project, exp) = setup();
        server.morph_pool(project, exp, owner, None, 10, 3).unwrap();
        let total = server.enqueue_experiment(project, exp, owner).unwrap();
        let db = Arc::new(Database::tpch(0.001, 42));

        let workers: Vec<_> = (0..4)
            .map(|_| {
                let key = server.issue_key(contrib).unwrap();
                let driver = ExperimentDriver::new(
                    EngineConnector::new(Arc::new(RowStore::new(Arc::clone(&db)))),
                    DriverConfig::parse(
                        "dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 2",
                    )
                    .unwrap(),
                );
                crate::workers::Worker::new(key, driver)
            })
            .collect();
        let report = crate::workers::run_worker_pool(&server, workers, Default::default());

        assert_eq!(report.completed(), total);
        assert_eq!(report.rejected(), 0);
        assert!(report.workers.iter().all(|w| w.wall <= report.wall));
        let s = server.queue_summary();
        assert_eq!((s.queued, s.running), (0, 0));
    }

    #[test]
    fn retried_claims_and_reports_are_idempotent() {
        let (server, owner, contrib, _project, exp) = setup();
        let n = server.enqueue_experiment(_project, exp, owner).unwrap();
        assert!(n >= 2);
        let key = server.issue_key(contrib).unwrap();

        // A claim whose response was "lost": the retry hands out the very
        // same task instead of a second one.
        let first = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();
        let retry = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();
        assert_eq!(retry.id, first.id);
        assert_eq!(server.queue_summary().running, 1);

        // A report whose response was "lost": the retry returns the same
        // record index and files nothing new.
        let db = Arc::new(Database::tpch(0.001, 42));
        let driver = ExperimentDriver::new(
            EngineConnector::new(Arc::new(RowStore::new(db))),
            DriverConfig::parse("dbms = rowstore-2.0\nrepetitions = 2").unwrap(),
        );
        let outcome = driver.run(&first.sql);
        let idx = server.report_result(&key, first.id, outcome.clone()).unwrap();
        let idx_retry = server.report_result(&key, first.id, outcome).unwrap();
        assert_eq!(idx, idx_retry);
        let results = server.results_for(_project, contrib).unwrap();
        assert_eq!(results.len(), 1, "no double-counted report");

        // A different key still cannot touch the completed task.
        let other = server.issue_key(contrib).unwrap();
        let late = RunOutcome {
            times_ms: vec![1.0],
            rows: 0,
            error: None,
            load_before: Default::default(),
            load_after: Default::default(),
            extras: serde_json::Value::Null,
            fingerprint: None,
            profile: None,
        };
        assert!(server.report_result(&other, first.id, late).is_err());
    }

    fn fake_outcome() -> RunOutcome {
        RunOutcome {
            times_ms: vec![1.0],
            rows: 1,
            error: None,
            load_before: Default::default(),
            load_after: Default::default(),
            extras: serde_json::Value::Null,
            fingerprint: None,
            profile: None,
        }
    }

    #[test]
    fn inflight_bound_throttles_request_task() {
        let (server, owner, contrib, project, exp) = setup_on(SqalpelServer::with_admission(
            AdmissionConfig {
                max_inflight_per_user: 1,
                max_queued_per_project: 100_000,
            },
        ));
        // Two targets so the second request is not an idempotent
        // re-hand-out of the first claim.
        server
            .set_targets(
                project,
                owner,
                vec!["rowstore-2.0".into(), "colstore-5.1".into()],
                vec!["bench-server".into()],
            )
            .unwrap();
        server.enqueue_experiment(project, exp, owner).unwrap();
        let key = server.issue_key(contrib).unwrap();

        let first = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();
        // The held claim is re-handed out, not double-counted...
        let retry = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();
        assert_eq!(retry.id, first.id);
        // ...but a second *distinct* hand-out exceeds the bound.
        assert!(matches!(
            server.request_task(&key, "colstore-5.1", "bench-server"),
            Err(PlatformError::Throttled(_))
        ));
        // Reporting releases the slot.
        server.report_result(&key, first.id, fake_outcome()).unwrap();
        assert!(server
            .request_task(&key, "colstore-5.1", "bench-server")
            .unwrap()
            .is_some());
    }

    #[test]
    fn project_quota_throttles_enqueue() {
        let (server, owner, _c, project, exp) = setup_on(SqalpelServer::with_admission(
            AdmissionConfig {
                max_inflight_per_user: 64,
                max_queued_per_project: 3,
            },
        ));
        // The seeded pool (6 entries × 1 target) exceeds a quota of 3.
        let err = server.enqueue_experiment(project, exp, owner).unwrap_err();
        assert!(matches!(err, PlatformError::Throttled(_)));
        assert_eq!(server.queue_summary().queued, 0, "refused before enqueueing");
    }

    #[test]
    fn handout_rotates_across_projects() {
        let (server, owner, contrib, p1, e1) = setup();
        // A second project with the same shape and membership.
        let p2 = server
            .create_project(owner, "second", "another study", Visibility::Public)
            .unwrap();
        server
            .set_targets(p2, owner, vec!["rowstore-2.0".into()], vec!["bench-server".into()])
            .unwrap();
        server.invite(p2, owner, contrib).unwrap();
        let e2 = server
            .add_experiment(p2, owner, "copy", "select n_name from nation", None, 1000, 100)
            .unwrap();
        server.seed_pool(p2, e2, owner, 5, 42).unwrap();
        server.enqueue_experiment(p1, e1, owner).unwrap();
        server.enqueue_experiment(p2, e2, owner).unwrap();

        let key = server.issue_key(contrib).unwrap();
        let mut projects_seen = std::collections::BTreeSet::new();
        for _ in 0..2 {
            let task = server
                .request_task(&key, "rowstore-2.0", "bench-server")
                .unwrap()
                .unwrap();
            projects_seen.insert(task.project);
            server.report_result(&key, task.id, fake_outcome()).unwrap();
        }
        assert_eq!(
            projects_seen.len(),
            2,
            "round-robin cursor alternates shards while both have work"
        );
    }

    #[test]
    fn durable_server_recovers_across_reopen() {
        let dir = std::env::temp_dir().join(format!("sqalpel-server-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let key;
        let held;
        let total;
        {
            let server = SqalpelServer::open(&dir).unwrap();
            assert!(server.recovered_fresh());
            let (server, owner, contrib, project, exp) = setup_on(server);
            total = server.enqueue_experiment(project, exp, owner).unwrap();
            key = server.issue_key(contrib).unwrap();
            held = server
                .request_task(&key, "rowstore-2.0", "bench-server")
                .unwrap()
                .unwrap();
            server
                .report_result(&key, held.id, fake_outcome())
                .unwrap();
            let second = server
                .request_task(&key, "rowstore-2.0", "bench-server")
                .unwrap()
                .unwrap();
            assert_ne!(second.id, held.id);
            // Crash: the server is dropped without snapshot or shutdown.
        }

        let server = SqalpelServer::open(&dir).unwrap();
        assert!(!server.recovered_fresh());
        let s = server.queue_summary();
        assert_eq!(
            (s.finished + s.failed, s.running, s.queued),
            (1, 1, total - 2),
            "one acked report, one open claim, the rest still queued"
        );
        // The open claim is re-handed out idempotently, and counts
        // against its holder's bound.
        assert_eq!(server.admission().inflight_of(UserId(2)), 1);
        let again = server
            .request_task(&key, "rowstore-2.0", "bench-server")
            .unwrap()
            .unwrap();
        assert_eq!(again.state.holder(), Some(&key));
        assert_eq!(server.queue_summary().running, 1);

        // A snapshot truncates the WAL; a third open recovers from it.
        server.snapshot_now().unwrap();
        drop(server);
        let server = SqalpelServer::open(&dir).unwrap();
        assert!(!server.recovered_fresh());
        assert_eq!(server.queue_summary().running, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Claim nonces 1 and 2 hand out tasks `a` and `b`; the state dir is
    /// reopened — from its log, or from a checkpoint taken first. A retry
    /// of nonce 2 must still get `b`, and a fresh nonce 3 a task that is
    /// neither: a reopen that forgot the nonces handed `a` to both, and a
    /// bulk uploader then reported `a` twice in one batch.
    fn claim_nonces_survive_a_reopen(tag: &str, checkpoint: bool) {
        let dir = std::env::temp_dir().join(format!("sqalpel-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let claim = |server: &SqalpelServer, key: &ContributorKey, nonce: u64| {
            server
                .request_task_claimed(key, "rowstore-2.0", "bench-server", Some(nonce))
                .unwrap()
                .unwrap()
                .id
        };
        let (key, contrib, a, b);
        {
            let (server, owner, user, project, exp) = setup_on(SqalpelServer::open(&dir).unwrap());
            server.enqueue_experiment(project, exp, owner).unwrap();
            (key, contrib) = (server.issue_key(user).unwrap(), user);
            a = claim(&server, &key, 1);
            b = claim(&server, &key, 2);
            assert_ne!(a, b, "two nonces, two tasks");
            assert_eq!(claim(&server, &key, 1), a);
            if checkpoint {
                server.snapshot_now().unwrap();
            }
        }
        let server = SqalpelServer::open(&dir).unwrap();
        assert_eq!(server.admission().inflight_of(contrib), 2);
        assert_eq!(claim(&server, &key, 2), b, "a retried nonce gets its task back");
        assert_eq!(claim(&server, &key, 1), a);
        let c = claim(&server, &key, 3);
        assert!(c != a && c != b, "a fresh nonce gets a fresh task");
        assert_eq!(server.admission().inflight_of(contrib), 3);
        // One claim each, reported together: the batch is accepted whole.
        let reports: Vec<(TaskId, RunOutcome)> = [a, b, c].iter().map(|&t| (t, fake_outcome())).collect();
        assert_eq!(server.report_batch(&key, &reports).unwrap().len(), 3);
        assert_eq!(server.admission().inflight_of(contrib), 0);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_nonces_survive_a_reopen_from_the_log() {
        claim_nonces_survive_a_reopen("nonce-log", false);
    }

    #[test]
    fn claim_nonces_survive_a_reopen_from_the_checkpoint() {
        claim_nonces_survive_a_reopen("nonce-checkpoint", true);
    }

    /// Regression: a snapshot must hold the shard-map lock for its whole
    /// cut. Without it, a concurrent `create_project` can append its
    /// `ProjectCreated` record between the shard-list read and the WAL
    /// truncation — the snapshot then misses the project and the
    /// truncation drops its record, silently losing an acked creation.
    #[test]
    fn snapshot_racing_project_creation_loses_nothing() {
        let dir = std::env::temp_dir().join(format!(
            "sqalpel-server-snap-race-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let total = 50u64;
        let owner;
        {
            let server = SqalpelServer::open(&dir).unwrap();
            owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    for _ in 0..40 {
                        server.snapshot_now().unwrap();
                    }
                });
                sc.spawn(|| {
                    for i in 0..total {
                        server
                            .create_project(owner, &format!("p{i}"), "s", Visibility::Public)
                            .unwrap();
                    }
                });
            });
        }
        let server = SqalpelServer::open(&dir).unwrap();
        for i in 1..=total {
            assert_eq!(
                server.role_of(ProjectId(i), owner).unwrap(),
                Role::Owner,
                "acked project #{i} survived the racing snapshots"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
