//! The execution queue (paper §5.5).
//!
//! "Each query is ran against a single DBMS + host combination. The
//! execution status is tracked in a queue, which enables killing queries
//! that got stuck or when the results of an experiment are not delivered
//! within a specified timeout interval."
//!
//! Hand-out is served from an index keyed by `(dbms_label, host)` — the
//! target a contributor asks for — so `request_task` touches only the
//! tasks it could actually hand out instead of scanning the whole queue.
//! A second index tracks the running tasks per contributor key. It is
//! the platform's one record of who holds what: a retried claim is
//! re-handed from it (idempotent retry, an O(1) lookup by key), and
//! admission control recounts its in-flight bound from it after recovery.
//!
//! Bookkeeping is O(1) too. Every state change of a stored task goes
//! through one function (`set_state`), which keeps two sets of counts
//! exact: tasks per state ([`TaskQueue::summary`]) and open — `Queued` or
//! `Running` — tasks per experiment ([`TaskQueue::open_tasks`], the
//! `ExperimentFinished` trigger). Neither is ever recomputed by a scan;
//! `tests/queue_props.rs` keeps the scans as the oracle.
//!
//! Texts are stored once: the tasks of one query share one `sql`
//! allocation, and every task of a target shares the target's
//! `dbms_label` and `host` (the queue interns targets; the `seen` and
//! `ready` indexes are keyed by the interned id, so a lookup builds no
//! string).

use crate::error::{PlatformError, PlatformResult};
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId};
use crate::user::ContributorKey;
use serde::{Codec, Deserialize, Reader, Serialize, Sink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

serde::newtype!(TaskId(u64));

serde::tagged! {
    /// Lifecycle of a queued execution.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TaskState by "kind" {
        Queued = "queued",
        /// Handed to a contributor; kept with the hand-out time so stuck
        /// runs can be reaped. `claim` is the nonce the hand-out answered:
        /// a retry under it gets this task back. `None` — a claim made
        /// without one, or logged before claims kept their nonce — matches
        /// any retry.
        Running {
            "claim" => claim: Option<u64> [omit],
            "contributor" => contributor: ContributorKey,
        } = "running",
        Done = "done",
        /// The contributor reported a failure.
        Failed("error" => String) = "failed",
        /// Reaped after exceeding the delivery timeout.
        TimedOut = "timed_out",
    }
}

impl TaskState {
    /// Claimable or in flight: the task still stands between its
    /// experiment and `ExperimentFinished`.
    pub fn is_open(&self) -> bool {
        matches!(self, TaskState::Queued | TaskState::Running { .. })
    }

    /// The key a running task is handed to.
    pub fn holder(&self) -> Option<&ContributorKey> {
        match self {
            TaskState::Running { contributor, .. } => Some(contributor),
            _ => None,
        }
    }
}

serde::object! {
    /// One (query, DBMS, host) execution.
    #[derive(Debug, Clone)]
    pub struct Task {
        /// Shared with the queue's interned target, as is `host`.
        "dbms_label" => pub dbms_label: Arc<str>,
        "experiment" => pub experiment: ExperimentId,
        "host" => pub host: Arc<str>,
        "id" => pub id: TaskId,
        "project" => pub project: ProjectId,
        "query" => pub query: QueryId,
        /// Shared by the tasks of one query (one per DBMS x host target).
        "sql" => pub sql: Arc<str>,
        "state" => pub state: TaskState,
    } server_only {
        /// Set when the task is handed out. It feeds the stuck-run
        /// reaper; not carried on the wire.
        pub started: Option<Instant>,
    }
}

/// Point `text` at `shared`'s allocation when the two read the same.
pub(crate) fn share(text: &mut Arc<str>, shared: &Arc<str>) {
    if !Arc::ptr_eq(text, shared) && **text == **shared {
        *text = Arc::clone(shared);
    }
}

/// An array of tasks — a logged enqueue — read keeping each text once: a
/// freshly decoded task owns its `sql`, `dbms_label` and `host`, the
/// tasks of one query follow each other, so each takes over its
/// predecessor's allocation where the two read the same.
pub(crate) struct SharedTexts;

impl Codec<Vec<Task>> for SharedTexts {
    fn write<S: Sink>(tasks: &Vec<Task>, s: &mut S) {
        tasks.serialize(s)
    }
    fn read(r: &mut Reader<'_>) -> Result<Vec<Task>, String> {
        let mut tasks: Vec<Task> = Vec::new();
        r.begin_array()?;
        while r.element()? {
            let mut task = Task::deserialize(r)?;
            if let Some(prev) = tasks.last() {
                share(&mut task.sql, &prev.sql);
                share(&mut task.dbms_label, &prev.dbms_label);
                share(&mut task.host, &prev.host);
            }
            tasks.push(task);
        }
        Ok(tasks)
    }
}

serde::object! {
    /// Named per-state task counts — the queue dashboard line, also
    /// served verbatim as `GET /v1/queue/summary`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct QueueSummary {
        "failed" => pub failed: usize,
        "finished" => pub finished: usize,
        "queued" => pub queued: usize,
        "running" => pub running: usize,
        "timed_out" => pub timed_out: usize,
    }
}

impl QueueSummary {
    /// Every task ever enqueued.
    pub fn total(&self) -> usize {
        self.queued + self.running + self.finished + self.failed + self.timed_out
    }

    /// Tasks that reached a terminal state (an accepted report or a reap).
    pub fn terminal(&self) -> usize {
        self.finished + self.failed + self.timed_out
    }

    /// The count a task in `state` is tallied under.
    fn slot(&mut self, state: &TaskState) -> &mut usize {
        match state {
            TaskState::Queued => &mut self.queued,
            TaskState::Running { .. } => &mut self.running,
            TaskState::Done => &mut self.finished,
            TaskState::Failed(_) => &mut self.failed,
            TaskState::TimedOut => &mut self.timed_out,
        }
    }
}

/// One interned (dbms_label, host) target and its hand-out deque.
#[derive(Debug)]
struct Target {
    dbms_label: Arc<str>,
    host: Arc<str>,
    /// Queued task ids, FIFO. Entries are discarded lazily — an id whose
    /// task is no longer `Queued` is skipped (and dropped) at pop time,
    /// so `claim` by id never has to search the deque.
    ready: VecDeque<TaskId>,
}

/// The server-side task queue.
#[derive(Debug, Default)]
pub struct TaskQueue {
    tasks: Vec<Task>,
    /// First task id this queue hands out. Per-project shards carve the
    /// id space by project (`project << 32`), so a task id alone names
    /// its owning shard; a standalone queue uses base 0.
    id_base: u64,
    /// The targets tasks were enqueued for, in first-seen order; the
    /// position is the interned id. A project declares a handful (its
    /// DBMS x host product), so lookup is a scan of a short vector.
    targets: Vec<Target>,
    /// Dedup: each (experiment, query, target) is queued once.
    seen: HashSet<(ProjectId, ExperimentId, QueryId, usize)>,
    /// Running tasks per contributor, for idempotent claim retries and
    /// the stuck-run reaper.
    running: HashMap<ContributorKey, Vec<TaskId>>,
    /// Tasks per state. Invariant: equals a recount over `tasks`.
    counts: QueueSummary,
    /// Open (`Queued | Running`) tasks per experiment. Invariant: equals
    /// a recount over `tasks`; an experiment with no entry has none.
    open: HashMap<(ProjectId, ExperimentId), usize>,
}

impl TaskQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue whose ids start at `base` instead of 0.
    pub fn with_base(base: u64) -> Self {
        TaskQueue {
            id_base: base,
            ..Self::default()
        }
    }

    /// Slot of `id` in this queue, or `UnknownTask` if the id is outside
    /// the queue's allocated range.
    fn slot(&self, id: TaskId) -> PlatformResult<usize> {
        let idx = id.0.wrapping_sub(self.id_base) as usize;
        if id.0 < self.id_base || idx >= self.tasks.len() {
            return Err(PlatformError::UnknownTask(id.0));
        }
        Ok(idx)
    }

    fn target_of(&self, dbms_label: &str, host: &str) -> Option<usize> {
        self.targets
            .iter()
            .position(|t| &*t.dbms_label == dbms_label && &*t.host == host)
    }

    fn intern_target(&mut self, dbms_label: &Arc<str>, host: &Arc<str>) -> usize {
        self.target_of(dbms_label, host).unwrap_or_else(|| {
            self.targets.push(Target {
                dbms_label: Arc::clone(dbms_label),
                host: Arc::clone(host),
                ready: VecDeque::new(),
            });
            self.targets.len() - 1
        })
    }

    /// The ready deque a stored task belongs to.
    fn ready_of(&mut self, idx: usize) -> &mut VecDeque<TaskId> {
        let task = &self.tasks[idx];
        let target = self
            .target_of(&task.dbms_label, &task.host)
            .expect("a stored task's target is interned");
        &mut self.targets[target].ready
    }

    /// Append a task in whatever state it is in, indexing and counting
    /// it under its interned target.
    fn push(&mut self, mut task: Task, target: usize) {
        task.started = None;
        match &task.state {
            TaskState::Queued => self.targets[target].ready.push_back(task.id),
            TaskState::Running { contributor, .. } => {
                self.hold(task.id, contributor);
                task.started = Some(Instant::now());
            }
            _ => {}
        }
        *self.counts.slot(&task.state) += 1;
        if task.state.is_open() {
            *self.open.entry((task.project, task.experiment)).or_default() += 1;
        }
        self.tasks.push(task);
    }

    /// The one place a stored task changes state, so the per-state and
    /// per-experiment counts can never drift from the tasks. Returns the
    /// state the task left.
    fn set_state(&mut self, idx: usize, to: TaskState) -> TaskState {
        let task = &mut self.tasks[idx];
        let from = std::mem::replace(&mut task.state, to);
        *self.counts.slot(&from) -= 1;
        *self.counts.slot(&task.state) += 1;
        if from.is_open() != task.state.is_open() {
            let open = self.open.entry((task.project, task.experiment)).or_default();
            if from.is_open() {
                *open -= 1;
            } else {
                *open += 1;
            }
        }
        from
    }

    /// The tasks enqueueing `queries` for every target of `dbms_labels` ×
    /// `hosts` adds: each (experiment, query, target) not queued yet,
    /// once, numbered from the queue's next id. A query's tasks share its
    /// text, a target's tasks their labels (the queue's, when it knows
    /// the target). Nothing changes until [`add`](Self::add) takes them.
    pub fn new_tasks(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        queries: &[(QueryId, Arc<str>)],
        dbms_labels: &[String],
        hosts: &[String],
    ) -> Vec<Task> {
        let mut targets: Vec<(Option<usize>, Arc<str>, Arc<str>)> = Vec::new();
        for d in dbms_labels {
            for h in hosts {
                if targets.iter().any(|(_, td, th)| **td == **d && **th == **h) {
                    continue;
                }
                targets.push(match self.target_of(d, h) {
                    Some(t) => (Some(t), Arc::clone(&self.targets[t].dbms_label), Arc::clone(&self.targets[t].host)),
                    None => (None, d.as_str().into(), h.as_str().into()),
                });
            }
        }
        let mut tasks = Vec::with_capacity(queries.len() * targets.len());
        for (query, sql) in queries {
            for (known, dbms_label, host) in &targets {
                if known.is_some_and(|t| self.seen.contains(&(project, experiment, *query, t))) {
                    continue;
                }
                tasks.push(Task {
                    id: TaskId(self.id_base + (self.tasks.len() + tasks.len()) as u64),
                    project,
                    experiment,
                    query: *query,
                    sql: Arc::clone(sql),
                    dbms_label: Arc::clone(dbms_label),
                    host: Arc::clone(host),
                    state: TaskState::Queued,
                    started: None,
                });
            }
        }
        tasks
    }

    /// Add enqueued tasks (`TasksEnqueued`), in id order, in whatever
    /// state each is in. A `Running` task starts its hand-out clock now —
    /// after recovery the reaper measures from the restart, which
    /// `started` being server-side state makes unavoidable. Texts are
    /// shared as [`new_tasks`](Self::new_tasks) shares them: the labels
    /// with the interned target, the SQL with the preceding task's when
    /// equal (the targets of one query are enqueued back to back).
    pub fn add(&mut self, tasks: impl IntoIterator<Item = Task>) -> Result<(), String> {
        for mut task in tasks {
            let expect = self.id_base + self.tasks.len() as u64;
            if task.id.0 != expect {
                return Err(format!(
                    "task #{} added out of order (expected #{expect})",
                    task.id.0
                ));
            }
            let target = self.intern_target(&task.dbms_label, &task.host);
            task.dbms_label = Arc::clone(&self.targets[target].dbms_label);
            task.host = Arc::clone(&self.targets[target].host);
            if let Some(prev) = self.tasks.last() {
                share(&mut task.sql, &prev.sql);
            }
            self.seen
                .insert((task.project, task.experiment, task.query, target));
            self.push(task, target);
        }
        Ok(())
    }

    fn hold(&mut self, id: TaskId, contributor: &ContributorKey) {
        match self.running.get_mut(contributor) {
            Some(held) => held.push(id),
            None => {
                self.running.insert(contributor.clone(), vec![id]);
            }
        }
    }

    /// The next queued task for the given target — which task the
    /// `sqalpel.py` interaction ("call the webserver, requesting a query
    /// from the pool") would be handed. Stale ids at the head of the
    /// target's ready deque are dropped on the way; nothing else changes
    /// until [`claim`](Self::claim).
    pub fn checkout(&mut self, dbms_label: &str, host: &str) -> Option<TaskId> {
        let target = self.target_of(dbms_label, host)?;
        let base = self.id_base;
        let bucket = &mut self.targets[target].ready;
        while let Some(&id) = bucket.front() {
            if self.tasks[(id.0 - base) as usize].state == TaskState::Queued {
                return Some(id);
            }
            bucket.pop_front();
        }
        None
    }

    /// Queued task ids for a target, oldest first. The server applies its
    /// project-role filter over these before claiming one; only tasks that
    /// could be handed out for this exact target are visited.
    pub fn queued_for(&self, dbms_label: &str, host: &str) -> Vec<TaskId> {
        match self.target_of(dbms_label, host) {
            Some(target) => self.targets[target]
                .ready
                .iter()
                .copied()
                .filter(|id| self.tasks[(id.0 - self.id_base) as usize].state == TaskState::Queued)
                .collect(),
            None => Vec::new(),
        }
    }

    /// A task this contributor already holds for the target that a claim
    /// under nonce `claim` resumes, if any — the idempotent answer to a
    /// retried claim whose original response was lost in transit. With no
    /// nonce any held task of the target answers; with nonce `n`, one
    /// handed out under `n` or under no nonce.
    pub fn running_claim(
        &self,
        contributor: &ContributorKey,
        dbms_label: &str,
        host: &str,
        claim: Option<u64>,
    ) -> Option<&Task> {
        self.running.get(contributor)?.iter().find_map(|id| {
            let t = &self.tasks[(id.0 - self.id_base) as usize];
            let resumes = match &t.state {
                TaskState::Running { claim: held, contributor: c } => {
                    c == contributor && (claim.is_none() || held.is_none() || *held == claim)
                }
                _ => false,
            };
            (resumes && &*t.dbms_label == dbms_label && &*t.host == host).then_some(t)
        })
    }

    /// How many tasks each contributor key holds.
    pub fn holders(&self) -> impl Iterator<Item = (&ContributorKey, usize)> {
        self.running.iter().map(|(key, held)| (key, held.len()))
    }

    /// Hand a queued task to a contributor under a claim nonce
    /// (`TaskClaimed`): key and nonce move into the task's state. A task
    /// at the head of its ready deque leaves it, as
    /// [`checkout`](Self::checkout) found it there.
    pub fn claim(&mut self, id: TaskId, contributor: ContributorKey, claim: Option<u64>) -> PlatformResult<()> {
        let idx = self.slot(id)?;
        if self.tasks[idx].state != TaskState::Queued {
            return Err(PlatformError::Invalid(format!(
                "task #{} is not queued",
                id.0
            )));
        }
        let ready = self.ready_of(idx);
        if ready.front() == Some(&id) {
            ready.pop_front();
        }
        self.hold(id, &contributor);
        self.set_state(idx, TaskState::Running { claim, contributor });
        self.tasks[idx].started = Some(Instant::now());
        Ok(())
    }

    pub fn task(&self, id: TaskId) -> PlatformResult<&Task> {
        let idx = self.slot(id)?;
        Ok(&self.tasks[idx])
    }

    fn drop_running(&mut self, id: TaskId, contributor: &ContributorKey) {
        if let Some(held) = self.running.get_mut(contributor) {
            // swap_remove, not retain: a bulk contributor holds hundreds
            // of tasks, and completing each must not rewrite the whole
            // held list every time.
            if let Some(pos) = held.iter().position(|&t| t == id) {
                held.swap_remove(pos);
            }
            if held.is_empty() {
                self.running.remove(contributor);
            }
        }
    }

    /// Mark a running task finished (successfully or not). Only the
    /// contributor holding the task may complete it.
    pub fn complete(
        &mut self,
        id: TaskId,
        contributor: &ContributorKey,
        error: Option<String>,
    ) -> PlatformResult<()> {
        let idx = self.slot(id)?;
        match &self.tasks[idx].state {
            TaskState::Running { contributor: c, .. } if c == contributor => {
                self.set_state(
                    idx,
                    match error {
                        None => TaskState::Done,
                        Some(e) => TaskState::Failed(e),
                    },
                );
                self.drop_running(id, contributor);
                Ok(())
            }
            TaskState::Running { .. } => Err(PlatformError::AccessDenied(format!(
                "task #{} belongs to another contributor",
                id.0
            ))),
            other => Err(PlatformError::Invalid(format!(
                "task #{} is not running (state {other:?})",
                id.0
            ))),
        }
    }

    /// The running tasks older than `timeout`, in id order: what the
    /// reaper times out. Visits the running tasks only.
    pub fn stuck(&self, timeout: Duration) -> Vec<TaskId> {
        let now = Instant::now();
        let mut stuck: Vec<TaskId> = self
            .running
            .values()
            .flatten()
            .copied()
            .filter(|id| {
                self.tasks[(id.0 - self.id_base) as usize]
                    .started
                    .is_some_and(|started| now.duration_since(started) >= timeout)
            })
            .collect();
        stuck.sort_unstable();
        stuck
    }

    /// Time a task out (`TasksReaped`): a running task becomes `TimedOut`
    /// (visible for inspection) and is NOT requeued — the moderator
    /// decides about re-runs. A task in any other state stays as it is.
    pub fn time_out(&mut self, id: TaskId) -> PlatformResult<()> {
        let idx = self.slot(id)?;
        if matches!(self.tasks[idx].state, TaskState::Running { .. }) {
            if let TaskState::Running { contributor, .. } = self.set_state(idx, TaskState::TimedOut) {
                self.drop_running(id, &contributor);
            }
            self.tasks[idx].started = None;
        }
        Ok(())
    }

    /// Whether a task may be requeued: it timed out or failed.
    pub fn check_requeue(&self, id: TaskId) -> PlatformResult<()> {
        match self.task(id)?.state {
            TaskState::TimedOut | TaskState::Failed(_) => Ok(()),
            _ => Err(PlatformError::Invalid(format!(
                "task #{} is not requeueable",
                id.0
            ))),
        }
    }

    /// Requeue a timed-out or failed task (`TaskRequeued`, a moderator
    /// action).
    pub fn requeue(&mut self, id: TaskId) -> PlatformResult<()> {
        self.check_requeue(id)?;
        let idx = self.slot(id)?;
        self.set_state(idx, TaskState::Queued);
        self.tasks[idx].started = None;
        self.ready_of(idx).push_back(id);
        Ok(())
    }

    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    pub fn id_base(&self) -> u64 {
        self.id_base
    }

    /// Count of tasks per state.
    pub fn summary(&self) -> QueueSummary {
        self.counts
    }

    /// Open (`Queued | Running`) tasks of one experiment: zero means it
    /// has nothing claimable or in flight left.
    pub fn open_tasks(&self, project: ProjectId, experiment: ExperimentId) -> usize {
        self.open.get(&(project, experiment)).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ContributorKey {
        ContributorKey(format!("ck_{n}").into())
    }

    /// Decide, then apply: one query for one target.
    fn enqueue(q: &mut TaskQueue, project: u64, query: u64, sql: &str, dbms: &str) -> Option<TaskId> {
        let queries = [(QueryId(query), Arc::from(sql))];
        let tasks = q.new_tasks(
            ProjectId(project),
            ExperimentId(0),
            &queries,
            &[dbms.into()],
            &["bench-server".into()],
        );
        let id = tasks.first().map(|t| t.id);
        q.add(tasks).unwrap();
        id
    }

    fn checkout(q: &mut TaskQueue, k: &ContributorKey, dbms: &str, host: &str) -> Option<Task> {
        let id = q.checkout(dbms, host)?;
        q.claim(id, k.clone(), None).unwrap();
        Some(q.task(id).unwrap().clone())
    }

    fn queue_with_two() -> TaskQueue {
        let mut q = TaskQueue::new();
        enqueue(&mut q, 1, 0, "select 1 from t", "rowstore-2.0").unwrap();
        enqueue(&mut q, 1, 1, "select 2 from t", "rowstore-2.0").unwrap();
        q
    }

    #[test]
    fn enqueue_dedups_combinations() {
        let mut q = queue_with_two();
        assert!(enqueue(&mut q, 1, 0, "select 1 from t", "rowstore-2.0").is_none());
        // Same query, different target: allowed.
        assert!(enqueue(&mut q, 1, 0, "select 1 from t", "colstore-5.1").is_some());
        // One call: each target once, each query's tasks sharing its text.
        let queries = [(QueryId(7), Arc::from("select 7 from t")), (QueryId(0), Arc::from("select 1 from t"))];
        let labels = ["rowstore-2.0".to_string(), "rowstore-2.0".into(), "colstore-5.1".into()];
        let tasks = q.new_tasks(ProjectId(1), ExperimentId(0), &queries, &labels, &["bench-server".into()]);
        let ids: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![3, 4], "query 0 is queued for both targets already");
        assert!(Arc::ptr_eq(&tasks[0].sql, &tasks[1].sql));
        assert_eq!(q.tasks().len(), 3, "deciding adds nothing");
        q.add(tasks).unwrap();
        assert_eq!(q.summary().queued, 5);
    }

    #[test]
    fn checkout_assigns_matching_target_only() {
        let mut q = queue_with_two();
        assert!(checkout(&mut q, &key(1), "colstore-5.1", "bench-server").is_none());
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        assert_eq!(t.query, QueryId(0));
        // A checkout alone hands nothing out.
        assert_eq!(q.checkout("rowstore-2.0", "bench-server"), Some(TaskId(1)));
        assert_eq!(q.checkout("rowstore-2.0", "bench-server"), Some(TaskId(1)));
        let t2 = checkout(&mut q, &key(2), "rowstore-2.0", "bench-server").unwrap();
        assert_eq!(t2.query, QueryId(1));
        assert!(checkout(&mut q, &key(3), "rowstore-2.0", "bench-server").is_none());
    }

    #[test]
    fn ready_index_tracks_queued_tasks() {
        let mut q = queue_with_two();
        assert_eq!(q.queued_for("rowstore-2.0", "bench-server").len(), 2);
        assert!(q.queued_for("colstore-5.1", "bench-server").is_empty());
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        assert_eq!(q.queued_for("rowstore-2.0", "bench-server"), vec![TaskId(1)]);
        // A claim by id of a task behind the head leaves a stale index
        // entry that a later checkout silently discards.
        q.claim(TaskId(1), key(2), None).unwrap();
        assert!(q.queued_for("rowstore-2.0", "bench-server").is_empty());
        assert!(q.checkout("rowstore-2.0", "bench-server").is_none());
        assert!(q.claim(TaskId(1), key(3), None).is_err(), "not queued");
        // Completion + requeue puts the id back.
        q.complete(t.id, &key(1), Some("boom".into())).unwrap();
        q.requeue(t.id).unwrap();
        assert_eq!(q.queued_for("rowstore-2.0", "bench-server"), vec![t.id]);
    }

    #[test]
    fn running_claim_returns_held_task() {
        let mut q = queue_with_two();
        assert!(q.running_claim(&key(1), "rowstore-2.0", "bench-server", None).is_none());
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        let held = q.running_claim(&key(1), "rowstore-2.0", "bench-server", None).unwrap();
        assert_eq!(held.id, t.id);
        // Wrong target or wrong key: no re-claim.
        assert!(q.running_claim(&key(1), "colstore-5.1", "bench-server", None).is_none());
        assert!(q.running_claim(&key(2), "rowstore-2.0", "bench-server", None).is_none());
        // Completion clears the hold.
        q.complete(t.id, &key(1), None).unwrap();
        assert!(q.running_claim(&key(1), "rowstore-2.0", "bench-server", None).is_none());
    }

    #[test]
    fn running_claim_resumes_by_nonce() {
        let mut q = queue_with_two();
        let resumed = |q: &TaskQueue, claim| {
            q.running_claim(&key(1), "rowstore-2.0", "bench-server", claim).map(|t| t.id)
        };
        q.claim(TaskId(0), key(1), Some(1)).unwrap();
        q.claim(TaskId(1), key(1), Some(2)).unwrap();
        assert_eq!(resumed(&q, Some(1)), Some(TaskId(0)));
        assert_eq!(resumed(&q, Some(2)), Some(TaskId(1)));
        assert_eq!(resumed(&q, Some(3)), None, "a fresh nonce resumes nothing");
        assert!(resumed(&q, None).is_some(), "no nonce: any held task");
        // The nonce rides the task's state through a rebuild.
        let mut rebuilt = TaskQueue::new();
        rebuilt.add(q.tasks().iter().cloned()).unwrap();
        assert_eq!(resumed(&rebuilt, Some(2)), Some(TaskId(1)));
        // A claim without a nonce (or logged before claims kept one)
        // answers every nonce.
        let mut q = queue_with_two();
        q.claim(TaskId(0), key(1), None).unwrap();
        assert_eq!(resumed(&q, Some(7)), Some(TaskId(0)));
        assert_eq!(q.holders().collect::<Vec<_>>(), vec![(&key(1), 1)]);
    }

    #[test]
    fn complete_success_and_failure() {
        let mut q = queue_with_two();
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        q.complete(t.id, &key(1), None).unwrap();
        assert_eq!(q.task(t.id).unwrap().state, TaskState::Done);

        let t2 = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        q.complete(t2.id, &key(1), Some("syntax error".into()))
            .unwrap();
        assert!(matches!(
            q.task(t2.id).unwrap().state,
            TaskState::Failed(_)
        ));
        assert_eq!(
            q.summary(),
            QueueSummary { queued: 0, running: 0, finished: 1, failed: 1, timed_out: 0 }
        );
    }

    #[test]
    fn foreign_contributor_cannot_complete() {
        let mut q = queue_with_two();
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        assert!(matches!(
            q.complete(t.id, &key(2), None),
            Err(PlatformError::AccessDenied(_))
        ));
    }

    #[test]
    fn completing_a_queued_task_is_invalid() {
        let mut q = queue_with_two();
        assert!(q.complete(TaskId(0), &key(1), None).is_err());
        assert!(q.complete(TaskId(99), &key(1), None).is_err());
    }

    #[test]
    fn stuck_tasks_time_out_and_are_requeueable() {
        let mut q = queue_with_two();
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        // Zero timeout: immediately stuck; an hour: not yet.
        assert!(q.stuck(Duration::from_secs(3600)).is_empty());
        let stuck = q.stuck(Duration::ZERO);
        assert_eq!(stuck, vec![t.id]);
        assert_eq!(q.summary().running, 1, "finding stuck tasks changes nothing");
        q.time_out(t.id).unwrap();
        assert_eq!(q.task(t.id).unwrap().state, TaskState::TimedOut);
        // The timed-out task is no longer held, so no idempotent re-claim.
        assert!(q.running_claim(&key(1), "rowstore-2.0", "bench-server", None).is_none());
        // A late completion attempt fails.
        assert!(q.complete(t.id, &key(1), None).is_err());
        // Moderator requeues.
        q.requeue(t.id).unwrap();
        assert_eq!(q.task(t.id).unwrap().state, TaskState::Queued);
        // Done tasks cannot be requeued.
        let t2 = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        q.complete(t2.id, &key(1), None).unwrap();
        assert!(q.check_requeue(t2.id).is_err());
        assert!(q.requeue(t2.id).is_err());
        // Timing out a task that is not running changes nothing.
        q.time_out(t2.id).unwrap();
        assert_eq!(q.task(t2.id).unwrap().state, TaskState::Done);
    }

    #[test]
    fn based_queue_allocates_offset_ids_and_rejects_foreign_ids() {
        let base = 7u64 << 32;
        let mut q = TaskQueue::with_base(base);
        let id = enqueue(&mut q, 7, 0, "select 1 from t", "rowstore-2.0").unwrap();
        assert_eq!(id, TaskId(base));
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        assert_eq!(t.id, id);
        // Ids below the base or past the end are unknown, not a panic.
        assert!(matches!(q.task(TaskId(0)), Err(PlatformError::UnknownTask(0))));
        assert!(q.task(TaskId(base + 1)).is_err());
        assert!(q.complete(TaskId(3), &key(1), None).is_err());
        q.complete(id, &key(1), None).unwrap();
        assert_eq!(q.task(id).unwrap().state, TaskState::Done);
    }

    #[test]
    fn add_rebuilds_indexes_and_orders() {
        let mut q = queue_with_two();
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        let mut rebuilt = TaskQueue::new();
        rebuilt.add(q.tasks().iter().cloned()).unwrap();
        // The running hold and the ready index both survive the rebuild.
        assert_eq!(
            rebuilt
                .running_claim(&key(1), "rowstore-2.0", "bench-server", None)
                .unwrap()
                .id,
            t.id
        );
        assert_eq!(rebuilt.queued_for("rowstore-2.0", "bench-server"), vec![TaskId(1)]);
        assert_eq!(rebuilt.summary(), q.summary());
        // Out-of-order ids are a corrupt log, reported typed.
        let mut bad = TaskQueue::new();
        assert!(bad.add([q.task(TaskId(1)).unwrap().clone()]).is_err());
    }

    #[test]
    fn task_and_summary_round_trip() {
        let mut q = queue_with_two();
        let t = checkout(&mut q, &key(1), "rowstore-2.0", "bench-server").unwrap();
        let text = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&text).unwrap();
        assert_eq!(back.id, t.id);
        assert_eq!(back.sql, t.sql);
        assert_eq!(back.state, t.state);
        assert!(back.started.is_none(), "hand-out time is server-side only");

        for state in [
            TaskState::Queued,
            TaskState::Done,
            TaskState::Failed("x, y".into()),
            TaskState::TimedOut,
        ] {
            let text = serde_json::to_string(&state).unwrap();
            let back: TaskState = serde_json::from_str(&text).unwrap();
            assert_eq!(back, state);
        }

        let s = q.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: QueueSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.total(), 2);
        assert_eq!(s.terminal(), 0);
    }
}
