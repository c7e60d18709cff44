//! Recursive-descent SQL parser.
//!
//! Entry point: [`parse_query`] (or [`Parser::new`] + [`Parser::query`] for
//! streaming use). Operator precedence, lowest to highest:
//! `OR` < `AND` < `NOT` < comparisons / `IS` / `IN` / `BETWEEN` / `LIKE`
//! < `+ - ||` < `* / %` < unary minus < primary.

use crate::ast::*;
use crate::error::{ParseError, ParseResult, Pos};
use crate::lexer::Lexer;
use crate::token::{is_reserved, Spanned, Token};

/// Parse a single SQL query (a trailing `;` is allowed).
pub fn parse_query(src: &str) -> ParseResult<Query> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.accept(&Token::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

/// Parse an expression in isolation (used by tests and the grammar
/// converter when re-validating snippets).
pub fn parse_expr(src: &str) -> ParseResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

pub struct Parser {
    tokens: Vec<Spanned>,
    idx: usize,
}

impl Parser {
    pub fn new(src: &str) -> ParseResult<Self> {
        Ok(Parser {
            tokens: Lexer::tokenize(src)?,
            idx: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.idx.min(self.tokens.len() - 1)].token
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        &self.tokens[(self.idx + n).min(self.tokens.len() - 1)].token
    }

    fn pos(&self) -> Pos {
        self.tokens[self.idx.min(self.tokens.len() - 1)].pos
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.idx.min(self.tokens.len() - 1)].token.clone();
        if self.idx < self.tokens.len() - 1 {
            self.idx += 1;
        }
        t
    }

    /// Consume the token if it matches; return whether it did.
    fn accept(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consume the keyword if present; return whether it was.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> ParseResult<()> {
        if self.accept(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> ParseResult<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", kw.to_uppercase(), self.peek())))
        }
    }

    fn expect_eof(&mut self) -> ParseResult<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), msg)
    }

    fn identifier(&mut self, what: &str) -> ParseResult<String> {
        match self.peek() {
            Token::Word(w) if !is_reserved(w) => {
                let w = w.clone();
                self.bump();
                Ok(w)
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    // ---------------------------------------------------------------- query

    pub fn query(&mut self) -> ParseResult<Query> {
        let mut ctes = Vec::new();
        if self.accept_kw("with") {
            loop {
                let name = self.identifier("CTE name")?;
                self.expect_kw("as")?;
                self.expect(&Token::LParen)?;
                let query = self.query()?;
                self.expect(&Token::RParen)?;
                ctes.push(Cte { name, query });
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        let body = self.select()?;
        let mut order_by = Vec::new();
        if self.accept_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.accept_kw("desc") {
                    true
                } else {
                    self.accept_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.accept_kw("limit") {
            match self.bump() {
                Token::Integer(n) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found {other}"))),
            }
        } else {
            None
        };
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
        })
    }

    fn select(&mut self) -> ParseResult<Select> {
        self.expect_kw("select")?;
        let distinct = self.accept_kw("distinct");
        self.accept_kw("all");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.accept(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.accept_kw("from") {
            loop {
                from.push(self.table_ref()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.accept_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.accept_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.accept_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> ParseResult<SelectItem> {
        if self.accept(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.expr()?;
        let alias = if self.accept_kw("as") {
            Some(self.identifier("alias")?)
        } else {
            match self.peek() {
                Token::Word(w) if !is_reserved(w) => {
                    let w = w.clone();
                    self.bump();
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ----------------------------------------------------------- table refs

    fn table_ref(&mut self) -> ParseResult<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.accept_kw("left") {
                self.accept_kw("outer");
                self.expect_kw("join")?;
                JoinKind::LeftOuter
            } else if self.peek().is_keyword("inner")
                || self.peek().is_keyword("join")
            {
                self.accept_kw("inner");
                self.expect_kw("join")?;
                JoinKind::Inner
            } else {
                return Ok(left);
            };
            let right = self.table_primary()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
    }

    fn table_primary(&mut self) -> ParseResult<TableRef> {
        if self.accept(&Token::LParen) {
            let query = self.query()?;
            self.expect(&Token::RParen)?;
            self.accept_kw("as");
            let alias = self.identifier("derived-table alias")?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.identifier("table name")?;
        let alias = if self.accept_kw("as") {
            Some(self.identifier("alias")?)
        } else {
            match self.peek() {
                Token::Word(w) if !is_reserved(w) => {
                    let w = w.clone();
                    self.bump();
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---------------------------------------------------------- expressions

    pub fn expr(&mut self) -> ParseResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> ParseResult<Expr> {
        let mut left = self.and_expr()?;
        while self.accept_kw("or") {
            let right = self.and_expr()?;
            left = Expr::or(left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> ParseResult<Expr> {
        let mut left = self.not_expr()?;
        while self.accept_kw("and") {
            let right = self.not_expr()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> ParseResult<Expr> {
        if self.accept_kw("not") {
            let inner = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> ParseResult<Expr> {
        let left = self.additive()?;
        // Postfix predicate forms: IS [NOT] NULL, [NOT] BETWEEN/IN/LIKE.
        if self.accept_kw("is") {
            let negated = self.accept_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek().is_keyword("not")
            && (self.peek_ahead(1).is_keyword("between")
                || self.peek_ahead(1).is_keyword("in")
                || self.peek_ahead(1).is_keyword("like"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.accept_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            });
        }
        if self.accept_kw("in") {
            self.expect(&Token::LParen)?;
            if self.peek().is_keyword("select") || self.peek().is_keyword("with") {
                let query = self.query()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    negated,
                    query: Box::new(query),
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                negated,
                list,
            });
        }
        if self.accept_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                negated,
                pattern: Box::new(pattern),
            });
        }
        if negated {
            return Err(self.err("expected BETWEEN, IN or LIKE after NOT"));
        }
        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::NotEq => BinOp::NotEq,
            Token::Lt => BinOp::Lt,
            Token::LtEq => BinOp::LtEq,
            Token::Gt => BinOp::Gt,
            Token::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn additive(&mut self) -> ParseResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Plus,
                Token::Minus => BinOp::Minus,
                Token::Concat => BinOp::Concat,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn multiplicative(&mut self) -> ParseResult<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn unary(&mut self) -> ParseResult<Expr> {
        if self.accept(&Token::Minus) {
            // Fold a minus directly into a numeric literal so that the
            // canonical printer round-trips (`-1` parses back to the
            // negative literal it was printed from).
            match self.peek().clone() {
                Token::Integer(n) => {
                    self.bump();
                    return Ok(Expr::int(-n));
                }
                Token::Decimal(Literal::Decimal { raw, scale }) => {
                    self.bump();
                    return Ok(Expr::Literal(Literal::Decimal { raw: -raw, scale }));
                }
                Token::Decimal(Literal::Float(d)) => {
                    self.bump();
                    return Ok(Expr::Literal(Literal::Float(-d)));
                }
                _ => {}
            }
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.accept(&Token::Plus);
        self.primary()
    }

    fn primary(&mut self) -> ParseResult<Expr> {
        match self.peek().clone() {
            Token::Integer(n) => {
                self.bump();
                Ok(Expr::int(n))
            }
            Token::Decimal(l) => {
                self.bump();
                Ok(Expr::Literal(l))
            }
            Token::String(s) => {
                self.bump();
                Ok(Expr::str(s))
            }
            Token::LParen => {
                self.bump();
                if self.peek().is_keyword("select") || self.peek().is_keyword("with") {
                    let q = self.query()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Subquery(Box::new(q)))
                } else {
                    let e = self.expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(e)
                }
            }
            Token::Word(w) => self.word_primary(&w),
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    fn word_primary(&mut self, w: &str) -> ParseResult<Expr> {
        // Typed literals and special forms first.
        if w.eq_ignore_ascii_case("date") {
            if let Token::String(_) = self.peek_ahead(1) {
                self.bump();
                if let Token::String(s) = self.bump() {
                    return Ok(Expr::date(s));
                }
                unreachable!("peeked string");
            }
        }
        if w.eq_ignore_ascii_case("interval") {
            self.bump();
            let value = match self.bump() {
                Token::String(s) => s
                    .trim()
                    .parse::<i64>()
                    .map_err(|e| self.err(format!("bad interval value: {e}")))?,
                Token::Integer(n) => n,
                other => return Err(self.err(format!("expected interval value, found {other}"))),
            };
            let unit = self.interval_unit()?;
            return Ok(Expr::Literal(Literal::Interval { value, unit }));
        }
        if w.eq_ignore_ascii_case("null") {
            self.bump();
            return Ok(Expr::Literal(Literal::Null));
        }
        if w.eq_ignore_ascii_case("case") {
            return self.case_expr();
        }
        if w.eq_ignore_ascii_case("exists") {
            self.bump();
            self.expect(&Token::LParen)?;
            let q = self.query()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Exists {
                negated: false,
                query: Box::new(q),
            });
        }
        if w.eq_ignore_ascii_case("extract") && self.peek_ahead(1) == &Token::LParen {
            self.bump();
            self.bump();
            let field = self.interval_unit()?;
            self.expect_kw("from")?;
            let e = self.expr()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Extract {
                field,
                expr: Box::new(e),
            });
        }
        if w.eq_ignore_ascii_case("substring") && self.peek_ahead(1) == &Token::LParen {
            self.bump();
            self.bump();
            let e = self.expr()?;
            let (start, length) = if self.accept_kw("from") {
                let s = self.expr()?;
                let l = if self.accept_kw("for") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                (s, l)
            } else {
                self.expect(&Token::Comma)?;
                let s = self.expr()?;
                let l = if self.accept(&Token::Comma) {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                (s, l)
            };
            self.expect(&Token::RParen)?;
            return Ok(Expr::Substring {
                expr: Box::new(e),
                start: Box::new(start),
                length,
            });
        }
        // Function call?
        if self.peek_ahead(1) == &Token::LParen && !is_reserved(w) {
            let name = w.to_string();
            self.bump();
            self.bump();
            let distinct = self.accept_kw("distinct");
            let mut args = Vec::new();
            if !self.accept(&Token::RParen) {
                loop {
                    if self.accept(&Token::Star) {
                        args.push(Expr::Wildcard);
                    } else {
                        args.push(self.expr()?);
                    }
                    if !self.accept(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            return Ok(Expr::Function {
                name,
                distinct,
                args,
            });
        }
        if is_reserved(w) {
            return Err(self.err(format!("unexpected keyword {}", w.to_uppercase())));
        }
        // Column reference, possibly qualified.
        let first = w.to_string();
        self.bump();
        if self.peek() == &Token::Period {
            self.bump();
            let col = self.identifier("column name")?;
            return Ok(Expr::Column(ColumnRef::qualified(first, col)));
        }
        Ok(Expr::Column(ColumnRef::bare(first)))
    }

    fn interval_unit(&mut self) -> ParseResult<IntervalUnit> {
        match self.bump() {
            Token::Word(u) if u.eq_ignore_ascii_case("day") => Ok(IntervalUnit::Day),
            Token::Word(u) if u.eq_ignore_ascii_case("month") => Ok(IntervalUnit::Month),
            Token::Word(u) if u.eq_ignore_ascii_case("year") => Ok(IntervalUnit::Year),
            other => Err(self.err(format!("expected interval unit, found {other}"))),
        }
    }

    fn case_expr(&mut self) -> ParseResult<Expr> {
        self.bump(); // CASE
        let operand = if self.peek().is_keyword("when") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.accept_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let result = self.expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.accept_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse_query("SELECT n_name FROM nation WHERE n_name = 'BRAZIL'").unwrap();
        assert_eq!(q.body.items.len(), 1);
        assert_eq!(q.body.from, vec![TableRef::table("nation")]);
        assert!(q.body.selection.is_some());
    }

    #[test]
    fn count_star() {
        let q = parse_query("select count(*) from nation").unwrap();
        match &q.body.items[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Function { name, args, .. } => {
                    assert_eq!(name, "count");
                    assert_eq!(args, &vec![Expr::Wildcard]);
                }
                other => panic!("expected function, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_group_order_limit() {
        let q = parse_query(
            "select l_returnflag, sum(l_quantity) as sum_qty from lineitem \
             group by l_returnflag having sum(l_quantity) > 100 \
             order by l_returnflag desc limit 10",
        )
        .unwrap();
        assert_eq!(q.body.group_by.len(), 1);
        assert!(q.body.having.is_some());
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn date_and_interval_arithmetic() {
        let e =
            parse_expr("l_shipdate < date '1994-01-01' + interval '1' year").unwrap();
        match e {
            Expr::Binary { op: BinOp::Lt, right, .. } => match *right {
                Expr::Binary { op: BinOp::Plus, left, right } => {
                    assert_eq!(*left, Expr::date("1994-01-01"));
                    assert_eq!(
                        *right,
                        Expr::Literal(Literal::Interval {
                            value: 1,
                            unit: IntervalUnit::Year
                        })
                    );
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_and_or() {
        let e = parse_expr("a = 1 or b = 2 and c = 3").unwrap();
        // OR at top, AND binds tighter.
        match e {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary { op: BinOp::Plus, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_in_like_not() {
        let e = parse_expr(
            "l_discount between 0.05 and 0.07 and p_size in (1, 2, 3) \
             and p_type not like '%BRASS' and o_comment is not null",
        )
        .unwrap();
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 4);
        assert!(matches!(parts[0], Expr::Between { negated: false, .. }));
        assert!(matches!(parts[1], Expr::InList { list, .. } if list.len() == 3));
        assert!(matches!(parts[2], Expr::Like { negated: true, .. }));
        assert!(matches!(parts[3], Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn exists_and_in_subquery() {
        let q = parse_query(
            "select o_orderpriority from orders where exists (select * from lineitem \
             where l_orderkey = o_orderkey) and o_orderkey not in (select l_orderkey from lineitem)",
        )
        .unwrap();
        let sel = q.body.selection.unwrap();
        let parts = sel.conjuncts();
        assert!(matches!(parts[0], Expr::Exists { negated: false, .. }));
        assert!(matches!(parts[1], Expr::InSubquery { negated: true, .. }));
    }

    #[test]
    fn not_exists_via_unary_not() {
        let e = parse_expr("not exists (select * from nation)").unwrap();
        assert!(matches!(e, Expr::Unary { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn scalar_subquery() {
        let e = parse_expr("ps_supplycost = (select min(ps_supplycost) from partsupp)").unwrap();
        match e {
            Expr::Binary { right, .. } => assert!(matches!(*right, Expr::Subquery(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_table() {
        let q = parse_query(
            "select avg(c_count) from (select count(o_orderkey) as c_count from orders \
             group by o_custkey) as c_orders",
        )
        .unwrap();
        assert!(matches!(&q.body.from[0], TableRef::Subquery { alias, .. } if alias == "c_orders"));
    }

    #[test]
    fn left_outer_join() {
        let q = parse_query(
            "select c_custkey from customer left outer join orders \
             on c_custkey = o_custkey and o_comment not like '%special%'",
        )
        .unwrap();
        assert!(matches!(
            &q.body.from[0],
            TableRef::Join { kind: JoinKind::LeftOuter, .. }
        ));
    }

    #[test]
    fn case_searched_and_simple() {
        let e = parse_expr(
            "sum(case when nation = 'BRAZIL' then volume else 0 end) / sum(volume)",
        )
        .unwrap();
        assert!(e.contains_aggregate());
        let simple = parse_expr("case x when 1 then 'a' else 'b' end").unwrap();
        assert!(matches!(simple, Expr::Case { operand: Some(_), .. }));
    }

    #[test]
    fn extract_and_substring() {
        let e = parse_expr("extract(year from l_shipdate)").unwrap();
        assert!(matches!(e, Expr::Extract { field: IntervalUnit::Year, .. }));
        let s = parse_expr("substring(c_phone from 1 for 2)").unwrap();
        assert!(matches!(s, Expr::Substring { length: Some(_), .. }));
        let s2 = parse_expr("substring(c_phone, 1, 2)").unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn with_clause() {
        let q = parse_query(
            "with revenue as (select l_suppkey as supplier_no, \
             sum(l_extendedprice * (1 - l_discount)) as total_revenue from lineitem \
             group by l_suppkey) select s_suppkey from supplier, revenue \
             where s_suppkey = supplier_no",
        )
        .unwrap();
        assert_eq!(q.ctes.len(), 1);
        assert_eq!(q.ctes[0].name, "revenue");
    }

    #[test]
    fn aliases_with_and_without_as() {
        let q = parse_query("select l.l_tax t from lineitem as l").unwrap();
        match &q.body.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("t")),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.body.from[0], TableRef::aliased("lineitem", "l"));
    }

    #[test]
    fn count_distinct() {
        let e = parse_expr("count(distinct ps_suppkey)").unwrap();
        assert!(matches!(e, Expr::Function { distinct: true, .. }));
    }

    #[test]
    fn unary_minus_folds_into_literals() {
        let e = parse_expr("-5 + 3").unwrap();
        match e {
            Expr::Binary { left, op: BinOp::Plus, .. } => {
                assert_eq!(*left, Expr::int(-5));
            }
            other => panic!("{other:?}"),
        }
        // Non-literal operands keep the unary node.
        assert!(matches!(
            parse_expr("-x").unwrap(),
            Expr::Unary { op: UnaryOp::Neg, .. }
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("select 1 from nation nonsense nonsense").is_err());
        assert!(parse_query("select from").is_err());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_query("select 1 from").unwrap_err();
        assert!(err.pos.line >= 1);
    }

    #[test]
    fn keywords_cannot_be_table_names() {
        assert!(parse_query("select 1 from select").is_err());
    }
}
