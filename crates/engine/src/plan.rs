//! Logical planning shared by both engines.
//!
//! The planner binds a parsed [`Query`] against a [`Database`] and produces
//! a [`BoundQuery`]: a relational *core* (scans, joins, filters) plus the
//! declarative tail (projection, grouping, having, ordering, limit) that
//! each engine executes in its own style. Binding lowers every expression
//! into the typed IR ([`crate::ir::Expr`]): column names become slots into
//! the schema of the plan node the expression is evaluated against, with
//! inferred [`Ty`]s; unresolved names become explicit outer references.
//!
//! The binder places no predicate: each block joins its `FROM` items in
//! `FROM` order by keyless inner joins and puts its `WHERE` conjuncts in
//! one filter over them — the ones holding a subquery in a second filter
//! on top. An inner `JOIN ... ON` keeps its whole `ON` as the join's
//! residual; a `LEFT JOIN`'s equalities between its two sides are its
//! keys. With the rewriter on, every `SELECT` block first goes through
//! the unnesting pass (`crate::ir::unnest`): `[NOT] EXISTS`, `[NOT] IN`
//! and correlated scalar-aggregate conjuncts of its `WHERE` become semi,
//! anti and group joins — plan nodes like any other, so everything below
//! sees them. Then the rule-based rewriter (`crate::ir::rewrite`) runs to
//! a fixed point — constant folding, predicate pushdown through joins and
//! into derived tables/CTEs, duplicate conjunct elimination,
//! trivial-filter elimination — followed by projection pruning, so scans
//! materialize only live columns. Last, on every bind, the placement
//! pass (`crate::ir::memo`) puts each conjunct of an inner-join region at
//! its lowest covering join, as a hash key where it is an equality
//! between the join's two sides, on the join order it searched for or,
//! with the optimizer off, on the tree as bound. A subquery the unnesting
//! pass left in place (its shape is outside what the pass proves
//! equivalent, or the rewriter is off) is bound all the same, once,
//! while its block is: its body is planned as a query of its own and
//! kept in the [`ir::expr::Subquery`] node, and the predicate holding it
//! is never moved into a join: its correlation needs the full row in
//! scope.

use crate::error::{EngineError, EngineResult};
use crate::ir::bind::{bind_expr, bind_order_key};
use crate::ir::{self, Ty};
use crate::storage::{ColumnType, Database, Table};
use sqalpel_sql::ast::{self, Expr, Query, Select, SelectItem, TableRef};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One column of a plan node's output: the relation binding it came from,
/// its name, and its inferred type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColMeta {
    pub binding: String,
    pub name: String,
    pub ty: Ty,
}

/// An ordered list of output columns.
pub type Schema = Vec<ColMeta>;

fn ty_of(ct: ColumnType) -> Ty {
    match ct {
        ColumnType::Int => Ty::Int,
        ColumnType::Decimal(_) => Ty::Decimal,
        ColumnType::Str => Ty::Str,
        ColumnType::Date => Ty::Date,
        ColumnType::Float => Ty::Float,
    }
}

/// Plan-level join kinds. `Inner` and `LeftOuter` are what SQL can spell;
/// `Semi` and `Anti` exist only in plans — the unnesting pass produces
/// them from `[NOT] EXISTS` / `[NOT] IN`. Both emit each left row at most
/// once, in probe order, with the left schema only: `Semi` the rows with
/// at least one match (after the residual), `Anti` the rows with none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    Semi,
    Anti,
}

impl JoinKind {
    /// Whether right-side columns are part of the join's output schema.
    pub fn emits_right(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::LeftOuter)
    }

    /// The operator word EXPLAIN renders after `join`.
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::LeftOuter => "left outer",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
        }
    }
}

impl From<ast::JoinKind> for JoinKind {
    fn from(k: ast::JoinKind) -> Self {
        match k {
            ast::JoinKind::Inner => JoinKind::Inner,
            ast::JoinKind::LeftOuter => JoinKind::LeftOuter,
        }
    }
}

/// The relational core: scans, joins and filters. All predicates are typed
/// IR bound against the schema of the node they are evaluated on: `Filter`
/// predicates against the input schema, `Join` equi keys against their own
/// side, the join residual against the concatenated schema.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scan of a stored table under a binding (alias or table name).
    /// `live` lists the materialized column indices (projection pruning
    /// shrinks it; slot `i` of the scan schema is column `live[i]`).
    Scan {
        table: Arc<Table>,
        binding: String,
        live: Vec<usize>,
    },
    /// Scan of a derived table (`(select ...) alias`).
    Derived {
        query: Box<BoundQuery>,
        binding: String,
    },
    /// Scan of a CTE, materialized once per execution.
    Cte {
        name: String,
        binding: String,
        schema: Schema,
    },
    /// Row filter.
    Filter { input: Box<Plan>, predicate: ir::Expr },
    /// Join with hash keys (`equi`) and an optional residual predicate
    /// evaluated on candidate matches. Empty `equi` means a cross join.
    /// The residual is always bound against left ++ right, also for the
    /// kinds whose output is the left schema alone.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        equi: Vec<(ir::Expr, ir::Expr)>,
        residual: Option<ir::Expr>,
    },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan { table, binding, live } => live
                .iter()
                .map(|&i| {
                    let c = &table.columns[i];
                    ColMeta {
                        binding: binding.clone(),
                        name: c.name.clone(),
                        ty: ty_of(c.data.column_type()),
                    }
                })
                .collect(),
            Plan::Derived { query, binding } => query
                .items
                .iter()
                .map(|it| ColMeta {
                    binding: binding.clone(),
                    name: it.name.clone(),
                    ty: it.ty,
                })
                .collect(),
            Plan::Cte { schema, .. } => schema.clone(),
            Plan::Filter { input, .. } => input.schema(),
            Plan::Join {
                left, right, kind, ..
            } => {
                let mut s = left.schema();
                if kind.emits_right() {
                    s.extend(right.schema());
                }
                s
            }
        }
    }

    /// The stored column behind output slot `slot` — `(table, column
    /// index, null_padded)` — when the slot reaches a scan through filters
    /// and joins only. `null_padded` says it crossed the null-padded side
    /// of an outer join on the way; stored columns themselves hold no
    /// NULLs.
    pub fn stored_column(&self, slot: usize) -> Option<(&Table, usize, bool)> {
        match self {
            Plan::Scan { table, live, .. } => Some((table, live[slot], false)),
            Plan::Derived { .. } | Plan::Cte { .. } => None,
            Plan::Filter { input, .. } => input.stored_column(slot),
            Plan::Join {
                left, right, kind, ..
            } => {
                let left_width = left.width();
                if slot < left_width {
                    left.stored_column(slot)
                } else {
                    let (table, column, padded) = right.stored_column(slot - left_width)?;
                    Some((table, column, padded || *kind == JoinKind::LeftOuter))
                }
            }
        }
    }

    /// The number of output columns: `schema().len()` without building
    /// the schema.
    pub fn width(&self) -> usize {
        match self {
            Plan::Scan { live, .. } => live.len(),
            Plan::Derived { query, .. } => query.items.len(),
            Plan::Cte { schema, .. } => schema.len(),
            Plan::Filter { input, .. } => input.width(),
            Plan::Join {
                left, right, kind, ..
            } => left.width() + if kind.emits_right() { right.width() } else { 0 },
        }
    }

    /// The set of relation bindings visible in this node's output.
    pub fn bindings(&self) -> BTreeSet<String> {
        self.schema().into_iter().map(|c| c.binding).collect()
    }
}

/// One projected output column.
#[derive(Debug, Clone)]
pub struct OutputItem {
    pub expr: ir::Expr,
    pub name: String,
    pub ty: Ty,
}

/// A fully bound query, ready for either executor. All expressions are
/// typed IR bound against the core schema (`ORDER BY` keys may instead be
/// [`ir::Expr::OutputCol`] references into `items`).
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// CTEs in definition order (each may reference earlier ones).
    pub ctes: Vec<(String, BoundQuery)>,
    pub core: Plan,
    pub items: Vec<OutputItem>,
    pub distinct: bool,
    pub group_by: Vec<ir::Expr>,
    pub having: Option<ir::Expr>,
    /// `(key, descending)` pairs.
    pub order_by: Vec<(ir::Expr, bool)>,
    pub limit: Option<u64>,
    /// True when the query computes aggregates (with or without GROUP BY).
    pub aggregated: bool,
    /// One line per subquery the unnesting pass left in place in this
    /// block, saying how it will run and why (`per-row: under OR`,
    /// `cached: uncorrelated scalar`). EXPLAIN prints them; nothing else
    /// reads them. Empty when the rewriter is off.
    pub subquery_notes: Vec<String>,
}

impl BoundQuery {
    /// Names of the output columns, in order.
    pub fn output_names(&self) -> Vec<String> {
        self.items.iter().map(|i| i.name.clone()).collect()
    }

    /// `(name, type)` of the output columns, in order.
    pub fn output_schema(&self) -> Vec<(String, Ty)> {
        self.items.iter().map(|i| (i.name.clone(), i.ty)).collect()
    }

    /// Visit every expression of the query — its CTE bodies and derived
    /// tables included, the bodies of its subqueries not — with the schema
    /// it is evaluated against, built only if the visitor asks for it: CTE
    /// bodies first, then the core top-down (a filter's predicate before
    /// its input; a join's keys and residual before its left and right
    /// inputs), then the tail.
    pub fn each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a ir::Expr, &dyn Fn() -> Schema)) {
        for (_, body) in &self.ctes {
            body.each_expr(f);
        }
        each_plan_expr(&self.core, f);
        let tail = self.items.iter().map(|it| &it.expr);
        let tail = tail.chain(&self.group_by).chain(&self.having);
        for e in tail.chain(self.order_by.iter().map(|(k, _)| k)) {
            f(e, &|| self.core.schema());
        }
    }
}

fn each_plan_expr<'a>(p: &'a Plan, f: &mut dyn FnMut(&'a ir::Expr, &dyn Fn() -> Schema)) {
    match p {
        Plan::Scan { .. } | Plan::Cte { .. } => {}
        Plan::Derived { query, .. } => query.each_expr(f),
        Plan::Filter { input, predicate } => {
            f(predicate, &|| input.schema());
            each_plan_expr(input, f);
        }
        Plan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            for (l, r) in equi {
                f(l, &|| left.schema());
                f(r, &|| right.schema());
            }
            if let Some(res) = residual {
                f(res, &|| [left.schema(), right.schema()].concat());
            }
            each_plan_expr(left, f);
            each_plan_expr(right, f);
        }
    }
}

/// Planner state: the database plus CTE names visible during binding.
/// One planner binds a whole statement, subquery bodies included.
pub struct Planner<'a> {
    db: &'a Database,
    /// CTE name → output schema, for scans that target a CTE.
    ctes: Vec<(String, Vec<(String, Ty)>)>,
    /// Whether to run the rewrite rules + projection pruning after binding.
    rewrite: bool,
    /// Whether the placement pass searches for a join order, or keeps
    /// the tree as bound.
    optimize: bool,
    /// Observed cardinalities fed back from a prior profiled run.
    hints: ir::cost::CardHints,
    /// Group-join derived tables named so far (`$sq1`, `$sq2`, ...).
    derived_seq: usize,
}

impl<'a> Planner<'a> {
    pub fn new(db: &'a Database) -> Self {
        Planner {
            db,
            ctes: Vec::new(),
            rewrite: true,
            optimize: true,
            hints: ir::cost::CardHints::default(),
            derived_seq: 0,
        }
    }

    /// Toggle the rewriter (on by default). With it off the binder output
    /// runs unrewritten and unpruned, its predicates placed — the
    /// configuration the rewriter-equivalence suite compares against.
    pub fn with_rewrite(mut self, on: bool) -> Self {
        self.rewrite = on;
        self
    }

    /// Toggle the cost-based join-order search (on by default). Off, every
    /// inner-join region keeps its join tree as bound — `FROM` order,
    /// explicit `JOIN`s as written; predicates are placed either way. It
    /// is independent of the rewriter: equivalence suites can hold one
    /// fixed while toggling the other.
    pub fn with_optimize(mut self, on: bool) -> Self {
        self.optimize = on;
        self
    }

    /// Supply observed cardinalities (from EXPLAIN ANALYZE feedback) to
    /// the join-order search.
    pub fn with_hints(mut self, hints: ir::cost::CardHints) -> Self {
        self.hints = hints;
        self
    }

    /// Bind a parsed query — unnesting each block's subquery conjuncts as
    /// it is bound, unless the rewriter is off — then (unless disabled)
    /// rewrite and prune it, and place its predicates. The statement has
    /// no enclosing scope, so a name that escapes its outermost block —
    /// from the block itself or from a subquery body in it — is an
    /// [`EngineError::UnknownColumn`] here, not when a row reaches it.
    pub fn bind(&mut self, q: &Query) -> EngineResult<BoundQuery> {
        let mut bq = self.bind_query(q)?;
        let escaping = ir::unnest::escaping_refs(&bq).unwrap_or_default();
        if let Some(name) = escaping.first() {
            return Err(EngineError::UnknownColumn(name.to_string()));
        }
        self.finish(&mut bq, &self.hints);
        Ok(bq)
    }

    /// The whole-tree passes of [`Self::bind`], under `hints`. A subquery
    /// body left in place gets them as a query of its own, with no hints
    /// (the statement's observed cardinalities are about its own nodes).
    pub(crate) fn finish(&self, bq: &mut BoundQuery, hints: &ir::cost::CardHints) {
        if self.rewrite {
            ir::rewrite::rewrite(bq);
            ir::rewrite::prune(bq);
        }
        ir::memo::optimize(bq, hints, self.optimize);
    }

    /// Whether the rewriter, and with it the unnesting pass, is on.
    pub(crate) fn rewrites(&self) -> bool {
        self.rewrite
    }

    /// A binding name no SQL text can spell, for a derived table the
    /// unnesting pass introduces.
    pub(crate) fn fresh_derived_binding(&mut self) -> String {
        self.derived_seq += 1;
        format!("$sq{}", self.derived_seq)
    }

    /// Bind one query block tree without the whole-tree passes of
    /// [`Self::bind`]. Each block comes back with its subqueries bound —
    /// with the rewriter on, the conjuncts it could unnest already joins.
    pub(crate) fn bind_query(&mut self, q: &Query) -> EngineResult<BoundQuery> {
        let cte_depth = self.ctes.len();
        let mut bound_ctes = Vec::with_capacity(q.ctes.len());
        for cte in &q.ctes {
            let bound = self.bind_query(&cte.query)?;
            self.ctes.push((cte.name.clone(), bound.output_schema()));
            bound_ctes.push((cte.name.clone(), bound));
        }
        let result = self.bind_select(&q.body, q, bound_ctes);
        self.ctes.truncate(cte_depth);
        result
    }

    fn bind_select(
        &mut self,
        s: &Select,
        q: &Query,
        ctes: Vec<(String, BoundQuery)>,
    ) -> EngineResult<BoundQuery> {
        if s.from.is_empty() {
            return Err(EngineError::Unsupported(
                "queries without a FROM clause".into(),
            ));
        }
        // 1. The FROM items, joined in FROM order by keyless inner joins.
        let mut from = s.from.iter();
        let mut current = self.bind_table_ref(from.next().expect("non-empty FROM"))?;
        for item in from {
            current = Plan::Join {
                left: Box::new(current),
                right: Box::new(self.bind_table_ref(item)?),
                kind: JoinKind::Inner,
                equi: Vec::new(),
                residual: None,
            };
        }

        // 2. WHERE: one filter over the FROM tree, and the conjuncts that
        // hold a subquery in a second filter on top, where the unnesting
        // pass looks for them. Where each plain conjunct runs is the
        // placement pass's decision (`ir::memo`), not the binder's.
        if let Some(selection) = &s.selection {
            let predicate = bind_expr(selection, &current.schema())?;
            let (with_subquery, plain): (Vec<ir::Expr>, Vec<ir::Expr>) = predicate
                .conjuncts()
                .into_iter()
                .cloned()
                .partition(ir::Expr::contains_subquery);
            for conjuncts in [plain, with_subquery] {
                if let Some(predicate) = ir::Expr::conjoin(conjuncts) {
                    current = Plan::Filter {
                        input: Box::new(current),
                        predicate,
                    };
                }
            }
        }

        // 3. Projection items, lowered against the core schema.
        let core_schema = current.schema();
        let mut items: Vec<OutputItem> = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    for (slot, col) in core_schema.iter().enumerate() {
                        items.push(OutputItem {
                            expr: ir::Expr::Col { slot, ty: col.ty },
                            name: col.name.clone(),
                            ty: col.ty,
                        });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = bind_expr(expr, &core_schema)?;
                    let name = alias.clone().unwrap_or_else(|| default_name(expr));
                    let ty = bound.ty();
                    // Disambiguate colliding *derived* names with a
                    // positional suffix: two unaliased expressions with the
                    // same printed form must not produce duplicate output
                    // names (they make derived-table schemas ambiguous).
                    let name = if alias.is_none() && items.iter().any(|it| it.name == name) {
                        let mut candidate = format!("{}_{}", name, items.len() + 1);
                        while items.iter().any(|it| it.name == candidate) {
                            candidate.push('_');
                        }
                        candidate
                    } else {
                        name
                    };
                    items.push(OutputItem { expr: bound, name, ty });
                }
            }
        }

        let group_by = s
            .group_by
            .iter()
            .map(|e| bind_expr(e, &core_schema))
            .collect::<EngineResult<Vec<_>>>()?;
        let having = s
            .having
            .as_ref()
            .map(|h| bind_expr(h, &core_schema))
            .transpose()?;
        let item_names: Vec<String> = items.iter().map(|i| i.name.clone()).collect();
        let order_by = q
            .order_by
            .iter()
            .map(|o| Ok((bind_order_key(&o.expr, &core_schema, &item_names)?, o.desc)))
            .collect::<EngineResult<Vec<_>>>()?;

        let aggregated = !group_by.is_empty()
            || items.iter().any(|i| i.expr.contains_aggregate())
            || having.as_ref().is_some_and(|h| h.contains_aggregate());

        let mut bq = BoundQuery {
            ctes,
            core: current,
            items,
            distinct: s.distinct,
            group_by,
            having,
            order_by,
            limit: q.limit,
            aggregated,
            subquery_notes: Vec::new(),
        };
        ir::unnest::unnest(self, &mut bq);
        Ok(bq)
    }

    fn bind_table_ref(&mut self, t: &TableRef) -> EngineResult<Plan> {
        match t {
            TableRef::Table { name, alias } => {
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                // CTEs shadow stored tables.
                if let Some((_, cols)) = self.ctes.iter().rev().find(|(n, _)| n == name) {
                    let schema = cols
                        .iter()
                        .map(|(c, ty)| ColMeta {
                            binding: binding.clone(),
                            name: c.clone(),
                            ty: *ty,
                        })
                        .collect();
                    return Ok(Plan::Cte {
                        name: name.clone(),
                        binding,
                        schema,
                    });
                }
                let table = self.db.table(name)?.clone();
                let live = (0..table.columns.len()).collect();
                Ok(Plan::Scan { table, binding, live })
            }
            TableRef::Subquery { query, alias } => {
                let bound = self.bind_query(query)?;
                Ok(Plan::Derived {
                    query: Box::new(bound),
                    binding: alias.clone(),
                })
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let left = self.bind_table_ref(left)?;
                let right = self.bind_table_ref(right)?;
                let mut schema = left.schema();
                let left_width = schema.len();
                schema.extend(right.schema());
                let on = bind_expr(on, &schema)?;
                let kind = JoinKind::from(*kind);
                // An inner join's ON is a WHERE conjunct like any other:
                // the placement pass takes it from the residual. A left
                // join's equalities between its two sides are its keys.
                let right_width = schema.len() - left_width;
                let mut equi = Vec::new();
                let mut residual = Vec::new();
                for c in on.conjuncts() {
                    let key = match kind {
                        JoinKind::LeftOuter if !c.contains_subquery() => {
                            ir::memo::split_sides(c, 0, left_width, left_width, right_width)
                        }
                        _ => None,
                    };
                    match key {
                        Some(pair) => equi.push(pair),
                        None => residual.push(c.clone()),
                    }
                }
                Ok(Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind,
                    equi,
                    residual: ir::Expr::conjoin(residual),
                })
            }
        }
    }
}

/// Derive an output name for an unaliased select item: the bare column
/// name for column refs, the canonical SQL text otherwise.
pub fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.column.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqalpel_sql::parse_query;

    /// Full pipeline: bind + rewrite + prune (what the engines execute).
    fn plan(sql: &str) -> BoundQuery {
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sql).unwrap();
        Planner::new(&db).bind(&q).unwrap()
    }

    /// Binder output only — for tests asserting binder-level shapes.
    fn plan_raw(sql: &str) -> BoundQuery {
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sql).unwrap();
        Planner::new(&db)
            .with_rewrite(false)
            .with_optimize(false)
            .bind(&q)
            .unwrap()
    }

    #[test]
    fn scan_schema_carries_binding() {
        let b = plan_raw("select n_name from nation");
        let schema = b.core.schema();
        assert_eq!(schema[1].binding, "nation");
        assert_eq!(schema[1].name, "n_name");
        assert_eq!(schema[1].ty, Ty::Str);
        assert_eq!(schema[0].ty, Ty::Int);
    }

    #[test]
    fn pruned_scan_keeps_only_live_columns() {
        let b = plan("select n_name from nation");
        let schema = b.core.schema();
        assert_eq!(schema.len(), 1, "{schema:?}");
        assert_eq!(schema[0].name, "n_name");
        assert!(matches!(&b.items[0].expr, ir::Expr::Col { slot: 0, .. }));
    }

    #[test]
    fn alias_becomes_binding() {
        let b = plan_raw("select l.l_tax from lineitem l");
        assert!(b.core.bindings().contains("l"));
    }

    #[test]
    fn single_table_predicates_are_pushed_down() {
        let b = plan_raw(
            "select n_name from nation, region \
             where n_regionkey = r_regionkey and r_name = 'EUROPE'",
        );
        // The join must have a filtered scan on its right side.
        match &b.core {
            Plan::Join { right, equi, .. } => {
                assert_eq!(equi.len(), 1);
                assert!(matches!(**right, Plan::Filter { .. }));
            }
            other => panic!("expected join at top, got {other:?}"),
        }
    }

    #[test]
    fn equi_join_keys_extracted() {
        let b = plan_raw(
            "select c_name from customer, orders, lineitem \
             where c_custkey = o_custkey and l_orderkey = o_orderkey",
        );
        // Two joins, each with one equi key pair, no residual filter left.
        match &b.core {
            Plan::Join { left, equi, .. } => {
                assert_eq!(equi.len(), 1);
                assert!(matches!(**left, Plan::Join { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subquery_predicates_stay_residual_until_unnested() {
        let sql = "select s_name from supplier \
                   where s_suppkey in (select ps_suppkey from partsupp) and s_nationkey = 3";
        // The binder keeps the conjunct, body unbound, in the top filter.
        match &plan_raw(sql).core {
            Plan::Filter { predicate, .. } => assert!(predicate.contains_subquery()),
            other => panic!("{other:?}"),
        }
        // The full pipeline turns it into a semi join and sinks the plain
        // conjunct below it.
        match &plan(sql).core {
            Plan::Join {
                left, kind, equi, ..
            } => {
                assert_eq!(*kind, JoinKind::Semi);
                assert_eq!(equi.len(), 1);
                assert!(matches!(**left, Plan::Filter { .. }), "{left:?}");
            }
            other => panic!("{other:?}"),
        }
        // A shape the unnesting pass does not take stays where it was.
        match &plan(
            "select s_name from supplier where s_nationkey = 3 \
             or s_suppkey in (select ps_suppkey from partsupp)",
        )
        .core
        {
            Plan::Filter { predicate, .. } => assert!(predicate.contains_subquery()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_expands_to_all_columns() {
        let b = plan("select * from nation");
        assert_eq!(b.items.len(), 4);
        assert_eq!(b.items[0].name, "n_nationkey");
    }

    #[test]
    fn aliases_and_default_names() {
        let b = plan("select n_name as nation_name, count(*) from nation group by n_name");
        assert_eq!(b.items[0].name, "nation_name");
        assert_eq!(b.items[1].name, "count(*)");
        assert!(b.aggregated);
    }

    #[test]
    fn duplicate_default_names_get_positional_suffixes() {
        let b = plan_raw("select count(*), count(*), n_name, n_name from nation group by n_name");
        assert_eq!(b.items[0].name, "count(*)");
        assert_eq!(b.items[1].name, "count(*)_2");
        assert_eq!(b.items[2].name, "n_name");
        assert_eq!(b.items[3].name, "n_name_4");
        // Aliased duplicates are the user's choice and stay untouched.
        let b = plan_raw("select n_name as x, n_regionkey as x from nation");
        assert_eq!(b.items[0].name, "x");
        assert_eq!(b.items[1].name, "x");
    }

    #[test]
    fn order_by_alias_binds_to_output_column() {
        let b = plan_raw(
            "select n_regionkey as k, count(*) as n from nation group by n_regionkey order by n desc, n_regionkey",
        );
        assert!(matches!(b.order_by[0], (ir::Expr::OutputCol(1), true)));
        assert!(matches!(b.order_by[1], (ir::Expr::Col { .. }, false)));
    }

    #[test]
    fn aggregation_detected_without_group_by() {
        let b = plan("select sum(l_quantity) from lineitem");
        assert!(b.aggregated);
        let b2 = plan("select l_quantity from lineitem");
        assert!(!b2.aggregated);
    }

    #[test]
    fn left_outer_join_on_split() {
        for b in [
            plan_raw(
                "select c_custkey from customer left outer join orders \
                 on c_custkey = o_custkey and o_comment not like '%x%'",
            ),
            // The ON-residual of an outer join affects *matching*, not
            // filtering — the rewriter must leave it on the join.
            plan(
                "select c_custkey from customer left outer join orders \
                 on c_custkey = o_custkey and o_comment not like '%x%'",
            ),
        ] {
            match &b.core {
                Plan::Join {
                    kind,
                    equi,
                    residual,
                    ..
                } => {
                    assert_eq!(*kind, JoinKind::LeftOuter);
                    assert_eq!(equi.len(), 1);
                    assert!(residual.is_some());
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn cte_scan_resolves() {
        let b = plan(
            "with r as (select n_regionkey as k, count(*) as n from nation group by n_regionkey) \
             select k from r where n > 3",
        );
        assert_eq!(b.ctes.len(), 1);
        let mut found = false;
        fn walk(p: &Plan, found: &mut bool) {
            match p {
                Plan::Cte { name, .. } if name == "r" => *found = true,
                Plan::Filter { input, .. } => walk(input, found),
                Plan::Join { left, right, .. } => {
                    walk(left, found);
                    walk(right, found);
                }
                _ => {}
            }
        }
        walk(&b.core, &mut found);
        assert!(found, "expected a CTE scan in {:?}", b.core);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let db = Database::tpch(0.001, 42);
        let q = parse_query("select x from missing_table").unwrap();
        assert!(matches!(
            Planner::new(&db).bind(&q),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn no_from_clause_unsupported() {
        let db = Database::tpch(0.001, 42);
        let q = parse_query("select 1").unwrap();
        assert!(matches!(
            Planner::new(&db).bind(&q),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn all_tpch_queries_bind() {
        let db = Database::tpch(0.001, 42);
        for (name, sql) in sqalpel_sql::tpch::all_queries() {
            let q = parse_query(sql).unwrap();
            Planner::new(&db)
                .bind(&q)
                .unwrap_or_else(|e| panic!("{name} failed to bind: {e}"));
        }
    }

    #[test]
    fn derived_table_schema_uses_alias() {
        let b = plan(
            "select c_count from (select c_custkey, count(*) as c_count \
             from customer group by c_custkey) t",
        );
        let schema = b.core.schema();
        assert!(schema.iter().all(|c| c.binding == "t"));
        assert_eq!(schema[1].name, "c_count");
        assert_eq!(schema[1].ty, Ty::Int);
    }
}
