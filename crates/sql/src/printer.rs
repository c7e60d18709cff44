//! Canonical SQL rendering.
//!
//! Every AST node implements [`std::fmt::Display`], producing a single-line
//! canonical form: uppercase keywords, lowercase identifiers, single
//! spaces, explicit parentheses only where grouping requires them. The
//! canonical form is what the platform stores, dedups on, and diffs.

use crate::ast::*;
use std::fmt::{self, Write as _};

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.ctes.is_empty() {
            f.write_str("WITH ")?;
            for (i, cte) in self.ctes.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{} AS ({})", cte.name, cte.query)?;
            }
            f.write_char(' ')?;
        }
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, item) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", item.expr)?;
                if item.desc {
                    f.write_str(" DESC")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(sel) = &self.selection {
            write!(f, " WHERE {sel}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_char('*'),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias } => {
                f.write_str(name)?;
                if let Some(a) = alias {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            TableRef::Subquery { query, alias } => write!(f, "({query}) {alias}"),
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let kw = match kind {
                    JoinKind::Inner => "JOIN",
                    JoinKind::LeftOuter => "LEFT OUTER JOIN",
                };
                write!(f, "{left} {kw} {right} ON {on}")
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Integer(i) => write!(f, "{i}"),
            // Always with a point, so it reads back as the literal it is.
            Literal::Decimal { raw, scale } => {
                let sign = if *raw < 0 { "-" } else { "" };
                let scale = usize::from(*scale);
                let digits = format!("{:0>width$}", raw.unsigned_abs(), width = scale + 1);
                let (int, frac) = digits.split_at(digits.len() - scale);
                write!(f, "{sign}{int}.{frac:0<1}")
            }
            Literal::Float(d) if d.fract() == 0.0 => write!(f, "{d:.1}"),
            Literal::Float(d) => write!(f, "{d}"),
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Date(d) => write!(f, "DATE '{d}'"),
            Literal::Interval { value, unit } => {
                write!(f, "INTERVAL '{value}' {}", unit.sql().to_uppercase())
            }
            Literal::Null => f.write_str("NULL"),
        }
    }
}

/// Binding power used to decide parenthesization when printing.
fn power(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            op if op.is_comparison() => 4,
            BinOp::Plus | BinOp::Minus | BinOp::Concat => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
            _ => 4,
        },
        Expr::Unary { op: UnaryOp::Not, .. } => 3,
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Like { .. }
        | Expr::IsNull { .. } => 4,
        _ => 10,
    }
}

/// Write `child`, parenthesized if it binds looser than `parent_power`.
fn child(f: &mut fmt::Formatter<'_>, e: &Expr, parent_power: u8) -> fmt::Result {
    if power(e) < parent_power {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Wildcard => f.write_char('*'),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    f.write_char('-')?;
                    child(f, expr, 7)
                }
                UnaryOp::Not => {
                    f.write_str("NOT ")?;
                    child(f, expr, 4)
                }
            },
            Expr::Binary { left, op, right } => {
                let p = power(self);
                child(f, left, p)?;
                match op {
                    BinOp::And => f.write_str(" AND ")?,
                    BinOp::Or => f.write_str(" OR ")?,
                    other => write!(f, " {} ", other.sql())?,
                }
                // Right child at p+1 keeps left-associative chains unparenthesized
                // while forcing parens on same-power right nesting (a - (b - c)).
                child(f, right, p + 1)
            }
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                child(f, expr, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" BETWEEN ")?;
                child(f, low, 5)?;
                f.write_str(" AND ")?;
                child(f, high, 5)
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                child(f, expr, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_char(')')
            }
            Expr::InSubquery {
                expr,
                negated,
                query,
            } => {
                child(f, expr, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                write!(f, " IN ({query})")
            }
            Expr::Exists { negated, query } => {
                if *negated {
                    f.write_str("NOT ")?;
                }
                write!(f, "EXISTS ({query})")
            }
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                child(f, expr, 5)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" LIKE ")?;
                child(f, pattern, 5)
            }
            Expr::IsNull { expr, negated } => {
                child(f, expr, 5)?;
                if *negated {
                    f.write_str(" IS NOT NULL")
                } else {
                    f.write_str(" IS NULL")
                }
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                f.write_str("CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_branch {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_char(')')
            }
            Expr::Extract { field, expr } => {
                write!(f, "EXTRACT({} FROM {expr})", field.sql().to_uppercase())
            }
            Expr::Substring {
                expr,
                start,
                length,
            } => {
                write!(f, "SUBSTRING({expr} FROM {start}")?;
                if let Some(l) = length {
                    write!(f, " FOR {l}")?;
                }
                f.write_char(')')
            }
            Expr::Subquery(q) => write!(f, "({q})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse_expr, parse_query};

    /// Parse → print → parse must be a fixpoint.
    fn round_trip(sql: &str) -> String {
        let q = parse_query(sql).unwrap();
        let printed = q.to_string();
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(q, q2, "round trip changed the AST for {sql:?}");
        printed
    }

    #[test]
    fn simple_round_trip() {
        let p = round_trip("select n_name from nation where n_name = 'BRAZIL'");
        assert_eq!(p, "SELECT n_name FROM nation WHERE n_name = 'BRAZIL'");
    }

    #[test]
    fn parenthesizes_or_under_and() {
        let p = round_trip("select 1 from t where a = 1 and (b = 2 or c = 3)");
        assert!(p.contains("AND (b = 2 OR c = 3)"), "{p}");
    }

    #[test]
    fn no_spurious_parens_in_and_chain() {
        let p = round_trip("select 1 from t where a = 1 and b = 2 and c = 3");
        assert!(p.contains("WHERE a = 1 AND b = 2 AND c = 3"), "{p}");
    }

    #[test]
    fn arithmetic_parens() {
        let p = parse_expr("l_extendedprice * (1 - l_discount)")
            .unwrap()
            .to_string();
        assert_eq!(p, "l_extendedprice * (1 - l_discount)");
        let q = parse_expr("(a + b) * c").unwrap().to_string();
        assert_eq!(q, "(a + b) * c");
        let r = parse_expr("a - (b - c)").unwrap().to_string();
        assert_eq!(r, "a - (b - c)");
        let s = parse_expr("a - b - c").unwrap().to_string();
        assert_eq!(s, "a - b - c");
    }

    #[test]
    fn case_round_trip() {
        round_trip(
            "select sum(case when p_type like 'PROMO%' then l_extendedprice else 0 end) \
             from lineitem, part where l_partkey = p_partkey",
        );
    }

    #[test]
    fn full_clause_round_trip() {
        let p = round_trip(
            "with r as (select 1 as x from t) select a, count(*) as n from t1 u, r \
             left outer join t2 on a = b where c between 1 and 2 group by a \
             having count(*) > 3 order by n desc, a limit 5",
        );
        assert!(p.starts_with("WITH r AS ("), "{p}");
        assert!(p.ends_with("LIMIT 5"), "{p}");
    }

    #[test]
    fn date_interval_literals() {
        let p = parse_expr("date '1994-01-01' + interval '3' month")
            .unwrap()
            .to_string();
        assert_eq!(p, "DATE '1994-01-01' + INTERVAL '3' MONTH");
    }

    #[test]
    fn not_exists_round_trip() {
        round_trip(
            "select 1 from orders where not exists (select * from lineitem \
             where l_orderkey = o_orderkey)",
        );
    }

    #[test]
    fn decimal_prints_reparseable() {
        let p = parse_expr("x > 0.05").unwrap().to_string();
        assert_eq!(p, "x > 0.05");
        let q = parse_expr("x > 7.0").unwrap().to_string();
        assert_eq!(q, "x > 7.0");
    }

    /// A decimal literal prints its exact digits, with a point, and so
    /// reads back as the literal it was — also where an `f64` would have
    /// rounded it or dropped its point — and one past `i128` prints as
    /// the float it is, still with a point.
    #[test]
    fn a_decimal_literal_reads_back_as_itself() {
        let p = round_trip(
            "select 1000000000000000.0, 12345678901234567.89, -9007199254740993.0, \
             0.00000000000000000001, 1.50, 2e3, 1e40",
        );
        assert_eq!(
            p,
            "SELECT 1000000000000000.0, 12345678901234567.89, -9007199254740993.0, \
             0.00000000000000000001, 1.5, 2000.0, \
             10000000000000000303786028427003666890752.0"
        );
    }

    /// Every literal that parses prints back as itself; one past the
    /// largest `f64` does not parse: as an infinite float it would print
    /// as `inf`, which reads back as a column.
    #[test]
    fn a_literal_past_every_float_does_not_print_as_inf() {
        for text in [
            "1e308",
            "1.7976931348623157e308",
            "-1e308",
            "1e400",
            "-1.8e308",
        ] {
            let sql = format!("select {text}");
            match parse_query(&sql) {
                Ok(_) => {
                    round_trip(&sql);
                }
                Err(e) => assert!(e.to_string().contains("out of range"), "{text}: {e}"),
            }
        }
        assert!(parse_query("select 1e400").is_err());
    }
}
