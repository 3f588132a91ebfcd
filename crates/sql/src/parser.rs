//! SQL parser: recursive descent over the token stream.
//!
//! The dialect covers what the paper's workloads need: DDL (CREATE/DROP
//! TABLE, CREATE INDEX), DML (INSERT/UPDATE/DELETE), SELECT with joins,
//! WHERE, GROUP BY + aggregates, ORDER BY, LIMIT, and explicit
//! transactions.

use crate::expr::{BinOp, Expr};
use crate::lexer::{tokenize, Token};
use crate::value::{ColumnType, Datum};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// A scalar expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`, if present.
        alias: Option<String>,
    },
    /// An aggregate call; `arg` is `None` for `COUNT(*)`.
    Agg {
        /// The function.
        func: AggFunc,
        /// The argument, absent for `COUNT(*)`.
        arg: Option<Expr>,
        /// `AS alias`, if present.
        alias: Option<String>,
    },
}

/// A joined table.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// The ON condition.
    pub on: Expr,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// Base table and alias (`None` for table-less SELECT).
    pub from: Option<(String, Option<String>)>,
    /// INNER JOINs, left-deep in order.
    pub joins: Vec<Join>,
    /// WHERE clause.
    pub filter: Option<Expr>,
    /// GROUP BY expressions (column names at parse time).
    pub group_by: Vec<Expr>,
    /// ORDER BY keys with descending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns: name, type, nullable.
        columns: Vec<(String, ColumnType, bool)>,
        /// Primary-key column names.
        primary_key: Vec<String>,
    },
    /// CREATE INDEX.
    CreateIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
        /// Indexed column names.
        columns: Vec<String>,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// INSERT.
    Insert {
        /// Table name.
        table: String,
        /// Target columns (empty = all, in ordinal order).
        columns: Vec<String>,
        /// Row value expressions.
        values: Vec<Vec<Expr>>,
    },
    /// SELECT.
    Select(SelectStmt),
    /// UPDATE.
    Update {
        /// Table name.
        table: String,
        /// SET assignments.
        sets: Vec<(String, Expr)>,
        /// WHERE clause.
        filter: Option<Expr>,
    },
    /// DELETE.
    Delete {
        /// Table name.
        table: String,
        /// WHERE clause.
        filter: Option<Expr>,
    },
    /// ANALYZE: collect statistics for one table.
    Analyze {
        /// Table name.
        table: String,
    },
    /// EXPLAIN: render the chosen plan for a SELECT without running it.
    Explain(SelectStmt),
    /// BEGIN.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
}

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Statement, String> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if p.pos != p.tokens.len() {
        return Err(format!("trailing tokens after statement: {:?}", p.peek()));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), String> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if let Some(Token::Sym(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), String> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(format!("expected {sym:?}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    fn statement(&mut self) -> Result<Statement, String> {
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("index") {
                return self.create_index();
            }
            return Err("expected TABLE or INDEX after CREATE".into());
        }
        if self.eat_kw("drop") {
            self.expect_kw("table")?;
            return Ok(Statement::DropTable { name: self.ident()? });
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("select") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, filter });
        }
        if self.eat_kw("analyze") {
            return Ok(Statement::Analyze { table: self.ident()? });
        }
        if self.eat_kw("explain") {
            self.expect_kw("select")?;
            return Ok(Statement::Explain(self.select()?));
        }
        if self.eat_kw("begin") {
            self.eat_kw("transaction");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            return Ok(Statement::Rollback);
        }
        Err(format!("unrecognized statement start: {:?}", self.peek()))
    }

    fn create_table(&mut self) -> Result<Statement, String> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        let mut primary_key: Vec<String> = Vec::new();
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                self.expect_sym("(")?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            } else {
                let col = self.ident()?;
                let ty = match self.ident()?.as_str() {
                    "int" | "integer" | "bigint" => ColumnType::Int,
                    "float" | "double" | "decimal" | "numeric" | "real" => ColumnType::Float,
                    "string" | "text" | "varchar" | "char" => ColumnType::String,
                    "bool" | "boolean" => ColumnType::Bool,
                    other => return Err(format!("unknown type {other}")),
                };
                let mut nullable = true;
                loop {
                    if self.eat_kw("not") {
                        self.expect_kw("null")?;
                        nullable = false;
                    } else if self.eat_kw("primary") {
                        self.expect_kw("key")?;
                        primary_key.push(col.clone());
                        nullable = false;
                    } else if self.eat_kw("null") {
                        nullable = true;
                    } else {
                        break;
                    }
                }
                columns.push((col, ty, nullable));
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        if primary_key.is_empty() {
            return Err("table requires a PRIMARY KEY".into());
        }
        Ok(Statement::CreateTable { name, columns, primary_key })
    }

    fn create_index(&mut self) -> Result<Statement, String> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex { name, table, columns })
    }

    fn insert(&mut self) -> Result<Statement, String> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_sym("(") {
            loop {
                columns.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
        }
        self.expect_kw("values")?;
        let mut values = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            values.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, values })
    }

    fn update(&mut self) -> Result<Statement, String> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, sets, filter })
    }

    fn select(&mut self) -> Result<SelectStmt, String> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_kw("from") {
            let table = self.ident()?;
            let alias = self.maybe_alias();
            from = Some((table, alias));
            while self.eat_kw("join") || {
                if self.eat_kw("inner") {
                    self.expect_kw("join")?;
                    true
                } else {
                    false
                }
            } {
                let table = self.ident()?;
                let alias = self.maybe_alias();
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(Join { table, alias, on });
            }
        }
        let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => return Err(format!("expected LIMIT count, found {other:?}")),
            }
        } else {
            None
        };
        Ok(SelectStmt { items, from, joins, filter, group_by, order_by, limit })
    }

    fn maybe_alias(&mut self) -> Option<String> {
        if self.eat_kw("as") {
            return self.ident().ok();
        }
        // A bare identifier that is not a clause keyword is an alias.
        if let Some(Token::Ident(s)) = self.peek() {
            const KEYWORDS: &[&str] =
                &["join", "inner", "on", "where", "group", "order", "limit", "set", "values"];
            if !KEYWORDS.contains(&s.as_str()) {
                let s = s.clone();
                self.pos += 1;
                return Some(s);
            }
        }
        None
    }

    fn select_item(&mut self) -> Result<SelectItem, String> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Star);
        }
        // Aggregate?
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.as_str() {
                "count" => Some(AggFunc::Count),
                "sum" => Some(AggFunc::Sum),
                "avg" => Some(AggFunc::Avg),
                "min" => Some(AggFunc::Min),
                "max" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::Sym("(")) {
                    self.pos += 2;
                    let arg = if self.eat_sym("*") {
                        if func != AggFunc::Count {
                            return Err("only COUNT accepts *".into());
                        }
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect_sym(")")?;
                    let alias = if self.eat_kw("as") { Some(self.ident()?) } else { None };
                    return Ok(SelectItem::Agg { func, arg, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") { Some(self.ident()?) } else { None };
        Ok(SelectItem::Expr { expr, alias })
    }

    // Expression parsing: precedence climbing.
    fn expr(&mut self) -> Result<Expr, String> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, String> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Bin(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, String> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Bin(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, String> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, String> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Sym("=")) => Some(BinOp::Eq),
            Some(Token::Sym("!=")) => Some(BinOp::Ne),
            Some(Token::Sym("<")) => Some(BinOp::Lt),
            Some(Token::Sym("<=")) => Some(BinOp::Le),
            Some(Token::Sym(">")) => Some(BinOp::Gt),
            Some(Token::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, String> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("+")) => BinOp::Add,
                Some(Token::Sym("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, String> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("*")) => BinOp::Mul,
                Some(Token::Sym("/")) => BinOp::Div,
                Some(Token::Sym("%")) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, String> {
        if self.eat_sym("-") {
            let e = self.unary_expr()?;
            return Ok(match e {
                Expr::Literal(Datum::Int(i)) => Expr::Literal(Datum::Int(-i)),
                Expr::Literal(Datum::Float(f)) => Expr::Literal(Datum::Float(-f)),
                other => {
                    Expr::Bin(BinOp::Sub, Box::new(Expr::Literal(Datum::Int(0))), Box::new(other))
                }
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr, String> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Datum::Int(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Datum::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Datum::Str(s))),
            Some(Token::Param(n)) => Ok(Expr::Param(n)),
            Some(Token::Sym("(")) => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => match name.as_str() {
                "true" => Ok(Expr::Literal(Datum::Bool(true))),
                "false" => Ok(Expr::Literal(Datum::Bool(false))),
                "null" => Ok(Expr::Literal(Datum::Null)),
                _ => {
                    if self.eat_sym(".") {
                        let col = self.ident()?;
                        Ok(Expr::Name(format!("{name}.{col}")))
                    } else {
                        Ok(Expr::Name(name))
                    }
                }
            },
            other => Err(format!("unexpected token in expression: {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_inline_and_composite_pk() {
        let s = parse(
            "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name STRING NOT NULL, w_ytd FLOAT)",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns, primary_key } => {
                assert_eq!(name, "warehouse");
                assert_eq!(columns.len(), 3);
                assert_eq!(primary_key, vec!["w_id"]);
                assert!(!columns[0].2, "pk not nullable");
                assert!(!columns[1].2);
                assert!(columns[2].2);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("CREATE TABLE d (a INT, b INT, c STRING, PRIMARY KEY (a, b))").unwrap();
        match s {
            Statement::CreateTable { primary_key, .. } => {
                assert_eq!(primary_key, vec!["a", "b"])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { table, columns, values } => {
                assert_eq!(table, "t");
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(values.len(), 2);
                assert_eq!(values[1][0], Expr::Literal(Datum::Int(2)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_full_clause_set() {
        let s = parse(
            "SELECT d_id, SUM(amount) AS total FROM orders WHERE d_id >= 1 AND d_id < 10 \
             GROUP BY d_id ORDER BY total DESC LIMIT 5",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert!(matches!(sel.items[1], SelectItem::Agg { func: AggFunc::Sum, .. }));
                assert!(sel.filter.is_some());
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].1, "descending");
                assert_eq!(sel.limit, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_join_with_aliases() {
        let s = parse(
            "SELECT o.o_id, c.c_name FROM orders o JOIN customer AS c ON o.o_c_id = c.c_id \
             WHERE o.o_id = 5",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from, Some(("orders".into(), Some("o".into()))));
                assert_eq!(sel.joins.len(), 1);
                assert_eq!(sel.joins[0].alias, Some("c".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_delete_txn() {
        assert!(matches!(parse("BEGIN").unwrap(), Statement::Begin));
        assert!(matches!(parse("COMMIT;").unwrap(), Statement::Commit));
        assert!(matches!(parse("ROLLBACK").unwrap(), Statement::Rollback));
        let s = parse("UPDATE t SET a = a + 1, b = 'z' WHERE a = $1").unwrap();
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.unwrap().references_params());
            }
            other => panic!("{other:?}"),
        }
        let s = parse("DELETE FROM t WHERE a < 3").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn expression_precedence() {
        let s = parse("SELECT 1 + 2 * 3").unwrap();
        match s {
            Statement::Select(sel) => match &sel.items[0] {
                SelectItem::Expr { expr, .. } => {
                    let v = expr.eval(&[], &[]).unwrap();
                    assert_eq!(v, Datum::Int(7));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_star_and_unary_minus() {
        let s = parse("SELECT COUNT(*), -5 FROM t").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(
                    sel.items[0],
                    SelectItem::Agg { func: AggFunc::Count, arg: None, .. }
                ));
                assert!(matches!(
                    sel.items[1],
                    SelectItem::Expr { expr: Expr::Literal(Datum::Int(-5)), .. }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_and_explain() {
        let s = parse("ANALYZE stock").unwrap();
        assert_eq!(s, Statement::Analyze { table: "stock".into() });
        let s = parse("EXPLAIN SELECT i_id FROM item WHERE i_price < 10.0").unwrap();
        match s {
            Statement::Explain(sel) => {
                assert!(sel.filter.is_some());
                assert_eq!(sel.from, Some(("item".into(), None)));
            }
            other => panic!("{other:?}"),
        }
        // EXPLAIN only covers SELECT.
        assert!(parse("EXPLAIN UPDATE t SET a = 1").is_err());
        assert!(parse("ANALYZE").is_err());
    }

    #[test]
    fn errors() {
        // "SELECT FROM" parses as a bare column named "from" and is
        // rejected at binding time, like several real engines.
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("CREATE TABLE t (a INT)").is_err(), "pk required");
        assert!(parse("SELECT 1 extra garbage ,").is_err());
        assert!(parse("SUM(*)").is_err());
    }
}
