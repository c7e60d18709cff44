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

use crate::catalog::Catalogs;
use crate::error::{PlatformError, PlatformResult};
use crate::project::{Project, ProjectId};
use crate::queue::{TaskId, TaskQueue};
use crate::results::{ResultRecord, ResultStore};
use crate::user::UserRegistry;
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

/// Users and catalogs: shared by every project, mutated rarely.
#[derive(Debug)]
pub struct GlobalShard {
    pub users: UserRegistry,
    pub catalogs: Catalogs,
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

    /// File a result during recovery, sharing its target labels with its
    /// task's again — the sharing `report_result` set up and the log
    /// could not carry.
    pub fn restore_result(&mut self, mut record: ResultRecord) -> usize {
        if let Ok(task) = self.queue.task(TaskId(record.task)) {
            if task.dbms_label == record.dbms_label && task.host == record.host {
                record.dbms_label = Arc::clone(&task.dbms_label);
                record.host = Arc::clone(&task.host);
            }
        }
        self.results.push(record)
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

    /// Allocate the next project id and install its shard. The builder
    /// runs under the map write lock, so id allocation and installation
    /// are atomic.
    pub fn add_project(&self, build: impl FnOnce(ProjectId) -> Project) -> ProjectId {
        let mut shards = self.shards.write();
        let id = ProjectId(shards.len() as u64 + 1);
        shards.push(Arc::new(RwLock::new(ProjectShard::new(build(id)))));
        id
    }

    /// Like [`ShardedState::add_project`], but runs a fallible `log`
    /// callback between building the project and installing its shard —
    /// still under the map write lock, so the WAL sees project creations
    /// in id order. On error the id is never allocated.
    pub fn add_project_with<E>(
        &self,
        build: impl FnOnce(ProjectId) -> Project,
        log: impl FnOnce(&Project) -> Result<(), E>,
    ) -> Result<ProjectId, E> {
        let mut shards = self.shards.write();
        let id = ProjectId(shards.len() as u64 + 1);
        let project = build(id);
        log(&project)?;
        shards.push(Arc::new(RwLock::new(ProjectShard::new(project))));
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

    #[test]
    fn task_ids_route_to_their_shard() {
        let state = ShardedState::new();
        let p1 = state.add_project(|id| {
            Project::new(id, "a", "s", UserId(1), Visibility::Public)
        });
        let p2 = state.add_project(|id| {
            Project::new(id, "b", "s", UserId(1), Visibility::Public)
        });
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
    fn cursor_rotates() {
        let state = ShardedState::new();
        let a = state.next_cursor();
        let b = state.next_cursor();
        assert_eq!(b, a + 1);
    }
}
