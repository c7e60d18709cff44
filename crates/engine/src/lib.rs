//! # sqalpel-engine
//!
//! Two in-memory SQL engines over shared columnar storage — the *target
//! systems* that the sqalpel platform benchmarks discriminatively.
//!
//! | system | execution model | arithmetic | joins |
//! |---|---|---|---|
//! | [`RowStore`] 2.0 | tuple-at-a-time, pipelined | `f64`, unguarded | hash |
//! | [`RowStore`] 1.4 | tuple-at-a-time, pipelined | `f64`, unguarded | nested loop |
//! | [`ColStore`] 5.1 | column-at-a-time, fully materialized | `i128` fixed-point, overflow-guarded | hash |
//!
//! The engines share a SQL front-end ([`sqalpel_sql`]), storage
//! ([`storage`]), a deterministic planner ([`plan`]) and row-level
//! semantics ([`eval`]), so answers agree to floating-point tolerance —
//! but their *cost models* differ exactly where real row stores and
//! column stores (the paper's MonetDB) differ, which is what makes
//! discriminative queries exist.
//!
//! ```
//! use sqalpel_engine::{ColStore, Database, Dbms, RowStore};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::tpch(0.001, 42));
//! let row = RowStore::new(db.clone());
//! let col = ColStore::new(db);
//! let sql = "select count(*) from lineitem where l_quantity < 24";
//! let a = row.execute(sql).unwrap();
//! let b = col.execute(sql).unwrap();
//! assert!(a.approx_eq(&b, 1e-9));
//! ```

pub mod codec;
pub mod dbms;
pub mod error;
pub mod eval;
pub mod exec_col;
pub mod exec_row;
pub mod ir;
pub mod morsel;
pub mod output;
pub mod plan;
pub mod plan_cache;
pub mod profile;
pub mod result;
pub mod storage;
pub mod value;

pub use dbms::{for_label, AnalyzedPlan, ColStore, Dbms, RowStore, DEFAULT_BUDGET};
pub use error::{EngineError, EngineResult};
pub use ir::Explain;
pub use plan_cache::{CacheOutcome, FpExecution, PlanCache, PlanCacheStats};
pub use profile::{NodeMetrics, OpProfile, ProfileShard, Profiler};
pub use result::ResultSet;
pub use storage::{Database, Table};
pub use value::Value;
