//! Result shaping shared by both executors: ORDER BY key computation,
//! DISTINCT, sorting and LIMIT.
//!
//! The two engines differ in how they *produce* rows (pipelined tuples vs
//! materialized columns); the declarative tail they apply to the produced
//! rows is the same SQL semantics, implemented once here.

use crate::error::EngineResult;
use crate::eval::{EvalCtx, Prepared, Scope};
use crate::ir::Expr;
use crate::plan::BoundQuery;
use crate::value::{ArithMode, Key, Value};

/// One prepared `ORDER BY` key. Aliases were bound to output-column
/// references at plan time ([`Expr::OutputCol`]); anything else evaluates
/// in the row environment.
pub enum SortKey<'a> {
    Output(usize),
    Expr(Prepared<'a>),
}

/// Prepare the `ORDER BY` keys of `bq` once per execution.
pub fn prepare_sort_keys<'a>(
    bq: &'a BoundQuery,
    scope: Scope<'a>,
    mode: ArithMode,
    agg_keys: &[String],
) -> Vec<SortKey<'a>> {
    bq.order_by
        .iter()
        .map(|(key, _)| match key {
            Expr::OutputCol(i) => SortKey::Output(*i),
            other => SortKey::Expr(Prepared::new(other, scope, mode, agg_keys)),
        })
        .collect()
}

/// Compute sort key values for one output row.
pub fn sort_keys(
    keys: &[SortKey<'_>],
    out: &[Value],
    row: &[Value],
    ctx: &EvalCtx<'_>,
) -> EngineResult<Vec<Value>> {
    keys.iter()
        .map(|key| match key {
            SortKey::Output(i) => Ok(out[*i].clone()),
            SortKey::Expr(e) => e.eval(row, ctx),
        })
        .collect()
}

/// Total order for sorting: NULLs last, numerics by value, then by type.
pub fn sort_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_null(), b.is_null()) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Greater,
        (false, true) => return Ordering::Less,
        _ => {}
    }
    match crate::value::compare(a, b) {
        Ok(Some(o)) => o,
        _ => a.type_name().cmp(b.type_name()),
    }
}

/// Shared tail: DISTINCT, ORDER BY, LIMIT over produced rows.
pub fn finish_rows(
    bq: &BoundQuery,
    mut produced: Vec<(Vec<Value>, Vec<Value>)>,
) -> EngineResult<Vec<Vec<Value>>> {
    if bq.distinct {
        let mut seen: std::collections::HashSet<Vec<Key>> = std::collections::HashSet::new();
        let mut deduped = Vec::with_capacity(produced.len());
        for (row, keys) in produced {
            let image: EngineResult<Vec<Key>> = row.iter().map(|v| v.key()).collect();
            if seen.insert(image?) {
                deduped.push((row, keys));
            }
        }
        produced = deduped;
    }
    if !bq.order_by.is_empty() {
        produced.sort_by(|(_, ka), (_, kb)| {
            for (i, (_, desc)) in bq.order_by.iter().enumerate() {
                let o = sort_cmp(&ka[i], &kb[i]);
                let o = if *desc { o.reverse() } else { o };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut rows: Vec<Vec<Value>> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(n) = bq.limit {
        rows.truncate(n as usize);
    }
    Ok(rows)
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_cmp_nulls_last() {
        use std::cmp::Ordering;
        assert_eq!(sort_cmp(&Value::Null, &Value::Int(1)), Ordering::Greater);
        assert_eq!(sort_cmp(&Value::Int(1), &Value::Null), Ordering::Less);
        assert_eq!(sort_cmp(&Value::Null, &Value::Null), Ordering::Equal);
        assert_eq!(sort_cmp(&Value::Int(1), &Value::Int(2)), Ordering::Less);
    }

    #[test]
    fn sort_cmp_mixed_types_fall_back_to_type_name() {
        // Must not panic on incomparable values.
        let _ = sort_cmp(&Value::Int(1), &Value::Str("a".into()));
    }
}
