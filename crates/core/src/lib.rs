//! # sqalpel-core
//!
//! The sqalpel performance platform: everything around the grammar
//! machinery that the paper's SaaS provides — users and anonymous
//! contributor keys, the DBMS/host catalogs, projects with GitHub-style
//! access control, the query pool with its alter/expand/prune morphing
//! walk, the task queue with stuck-run reaping, the `sqalpel.py`-style
//! experiment driver, the raw results table with moderation, and the
//! analytics behind the paper's figures.
//!
//! ```
//! use sqalpel_core::{SqalpelServer, Visibility};
//!
//! let server = SqalpelServer::new();
//! let owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
//! let project = server
//!     .create_project(owner, "demo", "quickstart", Visibility::Public)
//!     .unwrap();
//! let exp = server
//!     .add_experiment(project, owner, "nation", 
//!         "select count(*) from nation where n_name = 'BRAZIL'",
//!         None, 1000, 100)
//!     .unwrap();
//! let seeded = server.seed_pool(project, exp, owner, 5, 42).unwrap();
//! assert!(seeded >= 1);
//! ```

pub mod admission;
pub mod analytics;
pub mod bootstrap;
pub mod catalog;
pub mod driver;
pub mod durability;
pub mod error;
pub mod metrics;
pub mod pool;
pub mod project;
pub mod push;
pub mod queue;
pub mod reports;
pub mod results;
pub mod server;
pub mod shard;
pub mod user;
pub mod wire;
pub mod workers;

pub use admission::{AdmissionConfig, AdmissionControl};
pub use bootstrap::{bootstrap_server, Bootstrap};
pub use durability::{recover, Durability, RecoveredState, WalRecord};
pub use catalog::{Catalogs, DbmsEntry, HostEntry, Visibility};
pub use driver::{
    Connector, DriverConfig, EngineConnector, ExperimentDriver, MockConnector, OperatorProfile,
    RunOutcome,
};
pub use error::{PlatformError, PlatformResult};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use pool::{Fingerprinter, Guidance, Origin, PoolEntry, QueryId, QueryPool, Strategy};
pub use project::{Experiment, ExperimentId, Project, ProjectId, Role};
pub use push::{LocalWaiter, Notification, PushHub, PushWaiter};
pub use queue::{QueueSummary, Task, TaskId, TaskQueue, TaskState};
pub use results::{LoadAvg, ResultRecord, ResultStore};
pub use server::{Platform, SqalpelServer};
pub use shard::{GlobalShard, ProjectShard, ShardedState};
pub use user::{ContributorKey, User, UserId, UserRegistry};
pub use wire::{
    CacheStatus, ErrorCode, ExecBackend, ExecOutcome, Proto, RetryPolicy, V2Config, V2Server,
    WireClient, WireClientBuilder, WireConfig, WireServer,
};
pub use workers::{contribute, run_worker_pool, PollPolicy, PoolReport, Worker, WorkerReport};
