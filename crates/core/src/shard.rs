//! Per-project shards of the platform state.
//!
//! The single `RwLock<State>` the server grew up with serialized every
//! operation — a contributor reporting a result for project A blocked a
//! moderator morphing project B's pool. Multi-tenant state is naturally
//! partitioned by project, so each project now lives in its own
//! [`ProjectShard`] behind its own lock: the project record, its task
//! queue and its result store. Users and the catalogs — small, shared,
//! read-mostly — stay in one [`GlobalShard`].
//!
//! Task ids carve up the id space by shard: the owning project sits in
//! the high 32 bits ([`TASK_PROJECT_SHIFT`]) and the shard-local
//! sequence in the low 32, so a task id alone routes a report to its
//! shard without any cross-shard lookup.
//!
//! Each shard applies the [`WalRecord`]s that change it ([`Apply`]): the
//! server, after logging a record under the shard's lock, and recovery,
//! replaying it, call the same function — so the live state is the replay
//! of its own log.

use crate::catalog::Catalogs;
use crate::durability::WalRecord;
use crate::error::{PlatformError, PlatformResult};
use crate::pool::QueryPool;
use crate::project::{Comment, Project, ProjectId};
use crate::queue::{share, TaskId, TaskQueue};
use crate::results::{ResultRecord, ResultStore};
use crate::user::{ContributorKey, UserRegistry};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bits the owning project id occupies in a task id.
pub const TASK_PROJECT_SHIFT: u32 = 32;

/// The shard a task id belongs to.
pub fn project_of_task(id: TaskId) -> ProjectId {
    ProjectId(id.0 >> TASK_PROJECT_SHIFT)
}

/// The first task id of a project's shard.
pub fn task_id_base(project: ProjectId) -> u64 {
    project.0 << TASK_PROJECT_SHIFT
}

/// A part of the state that [`WalRecord`]s change.
pub trait Apply {
    /// Apply a record that was decided against this part (live) or read
    /// from the log (replay); its [`WalRecord::part`] must be this part.
    /// An error means the record contradicts the state: a corrupt log.
    fn apply(&mut self, record: WalRecord) -> Result<(), String>;
}

/// Users and catalogs: shared by every project, mutated rarely.
#[derive(Debug)]
pub struct GlobalShard {
    pub users: UserRegistry,
    pub catalogs: Catalogs,
}

impl Apply for GlobalShard {
    fn apply(&mut self, record: WalRecord) -> Result<(), String> {
        match record {
            WalRecord::UserRegistered { id, nickname, email } => self.users.add_user(id, nickname, email),
            WalRecord::KeyIssued { user, key, counter } => {
                self.users.add_key(key, user, counter);
                Ok(())
            }
            WalRecord::DbmsAdded { entry } => self.catalogs.add_dbms(entry).map_err(|e| e.to_string()),
            WalRecord::HostAdded { entry } => self.catalogs.add_host(entry).map_err(|e| e.to_string()),
            other => unreachable!("a record for {:?} applied to the users and catalogs", other.part()),
        }
    }
}

/// Everything owned by one project: the project record (experiments,
/// pools, membership), its task queue and its results.
#[derive(Debug)]
pub struct ProjectShard {
    pub project: Project,
    pub queue: TaskQueue,
    pub results: ResultStore,
}

impl ProjectShard {
    pub fn new(project: Project) -> Self {
        let queue = TaskQueue::with_base(task_id_base(project.id));
        ProjectShard {
            project,
            queue,
            results: ResultStore::new(),
        }
    }

    /// The shard a `ProjectCreated` record makes, the shard map holding
    /// `len` shards: ids are dense, so the record's must be the next.
    pub fn created(record: WalRecord, len: usize) -> Result<ProjectShard, String> {
        let WalRecord::ProjectCreated { id, owner, title, synopsis, visibility } = record else {
            return Err("not a project creation".into());
        };
        if id.0 as usize != len + 1 {
            return Err(format!("project #{} created out of order", id.0));
        }
        Ok(ProjectShard::new(Project::new(id, title, synopsis, owner, visibility)))
    }

    /// A report accepted: its task completes, its record is filed.
    fn accept(
        &mut self,
        task: TaskId,
        key: &ContributorKey,
        error: Option<String>,
        record: ResultRecord,
    ) -> Result<(), String> {
        self.queue.complete(task, key, error).map_err(|e| e.to_string())?;
        self.file_result(record);
        Ok(())
    }

    /// File a result with its target labels shared with its task's — the
    /// sharing a report sets up and a log line cannot carry.
    pub fn file_result(&mut self, mut record: ResultRecord) -> usize {
        if let Ok(task) = self.queue.task(TaskId(record.task)) {
            share(&mut record.dbms_label, &task.dbms_label);
            share(&mut record.host, &task.host);
        }
        self.results.push(record)
    }
}

impl Apply for ProjectShard {
    fn apply(&mut self, record: WalRecord) -> Result<(), String> {
        let p = &mut self.project;
        match record {
            WalRecord::Invited { user, .. } => {
                if user != p.owner {
                    p.contributors.insert(user);
                }
            }
            // No publication check: it passed when the record was decided,
            // and the catalogs replay in the same order.
            WalRecord::TargetsSet { dbms_labels, hosts, .. } => {
                p.dbms_labels = dbms_labels;
                p.hosts = hosts;
            }
            WalRecord::CommentAdded { author, text, .. } => p.comments.push(Comment { author, text }),
            WalRecord::TakenDown { .. } => p.taken_down = true,
            WalRecord::ExperimentAdded {
                id,
                title,
                baseline_sql,
                grammar,
                template_cap,
                pool_cap,
                dialect,
                ..
            } => {
                let pool = QueryPool::from_dsl(&grammar, template_cap, pool_cap, dialect)?;
                p.add_experiment(id, title, baseline_sql, pool);
            }
            WalRecord::PoolExtended { experiment, entries, .. } => p
                .experiment_mut(experiment)
                .map_err(|e| e.to_string())?
                .pool
                .extend(entries)?,
            WalRecord::TasksEnqueued { tasks, .. } => self.queue.add(tasks)?,
            WalRecord::TaskClaimed { task, key, claim } => self.queue.claim(task, key, claim).map_err(|e| e.to_string())?,
            WalRecord::ReportAccepted { task, key, error, record } => self.accept(task, &key, error, record)?,
            // One group commit applies as its reports, in upload order.
            WalRecord::ReportBatchAccepted { key, items } => {
                for (task, error, record) in items {
                    self.accept(task, &key, error, record)?;
                }
            }
            WalRecord::TasksReaped { tasks, .. } => {
                for task in tasks {
                    self.queue.time_out(task).map_err(|e| e.to_string())?;
                }
            }
            WalRecord::TaskRequeued { task } => self.queue.requeue(task).map_err(|e| e.to_string())?,
            WalRecord::ResultHidden { index, hidden, .. } => {
                if !self.results.set_hidden(index, hidden) {
                    return Err(format!("hidden flag for unknown result #{index}"));
                }
            }
            other => unreachable!("a record for {:?} applied to a project", other.part()),
        }
        Ok(())
    }
}

/// The shard map. Project ids are dense (1-based), so the map is a
/// vector of `Arc`'d shards: readers clone the `Arc` under a brief map
/// read lock, then work against only the shard's own lock.
pub struct ShardedState {
    pub global: RwLock<GlobalShard>,
    shards: RwLock<Vec<Arc<RwLock<ProjectShard>>>>,
    /// Rotating start position for fair round-robin hand-out across
    /// projects in `request_task`.
    cursor: AtomicUsize,
}

impl Default for ShardedState {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedState {
    /// Fresh state with the built-in catalogs loaded.
    pub fn new() -> Self {
        ShardedState {
            global: RwLock::new(GlobalShard {
                users: UserRegistry::new(),
                catalogs: Catalogs::bootstrap(),
            }),
            shards: RwLock::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Reassemble state from recovered parts. Shards must be in project
    /// id order (1, 2, ...).
    pub fn from_parts(global: GlobalShard, shards: Vec<ProjectShard>) -> Self {
        ShardedState {
            global: RwLock::new(global),
            shards: RwLock::new(
                shards
                    .into_iter()
                    .map(|s| Arc::new(RwLock::new(s)))
                    .collect(),
            ),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Install a new project's shard — the one change to the shard map.
    /// `commit` gets the next id under the map write lock and returns the
    /// `ProjectCreated` record it logged, so creations reach the log in id
    /// order; on error the id is never allocated.
    pub fn create_project<E>(
        &self,
        commit: impl FnOnce(ProjectId) -> Result<WalRecord, E>,
    ) -> Result<ProjectId, E> {
        let mut shards = self.shards.write();
        let id = ProjectId(shards.len() as u64 + 1);
        let shard = ProjectShard::created(commit(id)?, shards.len())
            .expect("a creation decided for the next id installs");
        shards.push(Arc::new(RwLock::new(shard)));
        Ok(id)
    }

    pub fn shard(&self, id: ProjectId) -> PlatformResult<Arc<RwLock<ProjectShard>>> {
        let shards = self.shards.read();
        if id.0 == 0 {
            return Err(PlatformError::UnknownProject(id.0));
        }
        shards
            .get((id.0 - 1) as usize)
            .cloned()
            .ok_or(PlatformError::UnknownProject(id.0))
    }

    /// Route a task id to its owning shard.
    pub fn shard_of_task(&self, task: TaskId) -> PlatformResult<Arc<RwLock<ProjectShard>>> {
        self.shard(project_of_task(task))
            .map_err(|_| PlatformError::UnknownTask(task.0))
    }

    /// A point-in-time snapshot of the shard list (cheap `Arc` clones).
    pub fn all_shards(&self) -> Vec<Arc<RwLock<ProjectShard>>> {
        self.shards.read().clone()
    }

    /// Run `f` against the shard list while holding the map read lock
    /// for the whole call. Project creation needs the map write lock, so
    /// no shard can be installed — nor records for it logged — while `f`
    /// runs; the snapshotter's consistency cut depends on this.
    pub fn with_shards_locked<T>(&self, f: impl FnOnce(&[Arc<RwLock<ProjectShard>>]) -> T) -> T {
        f(&self.shards.read())
    }

    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// The next round-robin start offset for a fair hand-out sweep.
    pub fn next_cursor(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Visibility;
    use crate::user::UserId;

    fn create(state: &ShardedState, title: &str) -> ProjectId {
        state
            .create_project(|id| {
                Ok::<_, ()>(WalRecord::ProjectCreated {
                    id,
                    owner: UserId(1),
                    title: title.into(),
                    synopsis: "s".into(),
                    visibility: Visibility::Public,
                })
            })
            .unwrap()
    }

    #[test]
    fn task_ids_route_to_their_shard() {
        let state = ShardedState::new();
        let p1 = create(&state, "a");
        let p2 = create(&state, "b");
        assert!(state.create_project(|_| Err(())).is_err());
        assert_eq!((p1, p2), (ProjectId(1), ProjectId(2)));
        assert_eq!(state.shard_count(), 2);

        let base2 = task_id_base(p2);
        assert_eq!(project_of_task(TaskId(base2)), p2);
        assert_eq!(project_of_task(TaskId(base2 + 41)), p2);
        let shard = state.shard_of_task(TaskId(base2 + 7)).unwrap();
        assert_eq!(shard.read().project.id, p2);
        assert_eq!(shard.read().queue.id_base(), base2);

        // Unknown routes fail typed, including project 0 (no shard).
        assert!(state.shard(ProjectId(0)).is_err());
        assert!(state.shard(ProjectId(3)).is_err());
        assert!(matches!(
            state.shard_of_task(TaskId(99 << TASK_PROJECT_SHIFT)),
            Err(PlatformError::UnknownTask(_))
        ));
    }

    #[test]
    fn a_creation_out_of_order_is_refused() {
        let created = |id| WalRecord::ProjectCreated {
            id: ProjectId(id),
            owner: UserId(1),
            title: "t".into(),
            synopsis: "s".into(),
            visibility: Visibility::Public,
        };
        assert!(ProjectShard::created(created(1), 0).is_ok());
        assert!(ProjectShard::created(created(3), 1).is_err());
        assert!(ProjectShard::created(WalRecord::TaskRequeued { task: TaskId(0) }, 0).is_err());
    }

    #[test]
    fn cursor_rotates() {
        let state = ShardedState::new();
        let a = state.next_cursor();
        let b = state.next_cursor();
        assert_eq!(b, a + 1);
    }
}
