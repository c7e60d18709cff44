//! The typed logical IR shared by both engines.
//!
//! Binding (`crates/engine/src/plan.rs`) lowers the parser's name-based
//! [`sqalpel_sql::ast::Expr`] into [`Expr`]: column references are resolved
//! to *slots* (positions in the schema of the plan node the expression is
//! evaluated against) with an inferred [`Ty`], names that do not resolve
//! locally become explicit [`Expr::Outer`] references (resolved by climbing
//! the runtime environment chain, which is how correlated subqueries work),
//! and `ORDER BY` aliases become [`Expr::OutputCol`] references into the
//! projected output row.
//!
//! On top of the IR sit the [`unnest`] pass (subquery conjuncts become
//! semi, anti and group joins, per block, as it is bound), the [`rewrite`]
//! rules (fixed point, deterministic order), the cost-based join-order optimizer ([`stats`] load-time
//! column statistics, the [`cost`] cardinality/cost estimator, the
//! [`memo`] DP plan enumerator), and the [`mod@explain`] renderer with its
//! canonical, join-order-invariant plan fingerprint.

pub mod bind;
pub mod cost;
pub mod explain;
pub mod expr;
pub mod memo;
pub mod rewrite;
pub mod stats;
pub mod unnest;

pub use explain::{explain, explain_analyze, explain_estimates, Explain};
pub use expr::{Expr, Ty};
