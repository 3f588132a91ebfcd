//! TPC-H-lite (§6.1.2).
//!
//! The evaluation focuses on two queries at scale factor 10 (downscaled
//! here): **Q1**, a full table scan with aggregation — the worst case for
//! the separated SQL/KV architecture because every scanned byte crosses
//! the process boundary — and a **Q9-style** query whose plan relies on
//! index (lookup) joins, making Serverless and Traditional roughly equal.

use std::cell::Cell;
use std::rc::Rc;

use crate::driver::{stmt, stmt_params, Step, TxnFactory};
use crdb_sql::value::Datum;

/// Scale parameters.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Rows in `lineitem`.
    pub lineitems: u64,
    /// Rows in `part` (and `supplier`).
    pub parts: u64,
    /// Rows in `orders`.
    pub orders: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig { lineitems: 600, parts: 40, orders: 150 }
    }
}

/// DDL for the TPC-H-lite schema.
pub fn schema() -> Vec<&'static str> {
    vec![
        "CREATE TABLE part (p_partkey INT PRIMARY KEY, p_name STRING, p_retailprice FLOAT)",
        "CREATE TABLE supplier (s_suppkey INT PRIMARY KEY, s_name STRING, s_nationkey INT)",
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_custkey INT, o_orderyear INT)",
        "CREATE TABLE lineitem (l_orderkey INT, l_linenumber INT, l_partkey INT, \
         l_suppkey INT, l_quantity FLOAT, l_extendedprice FLOAT, l_discount FLOAT, \
         l_returnflag STRING, l_linestatus STRING, l_shipdate INT, \
         PRIMARY KEY (l_orderkey, l_linenumber))",
    ]
}

/// Deterministic load statements.
pub fn load_statements(config: &TpchConfig) -> Vec<String> {
    let mut out = Vec::new();
    let batch = |rows: Vec<String>, table: &str, out: &mut Vec<String>| {
        for chunk in rows.chunks(50) {
            out.push(format!("INSERT INTO {table} VALUES {}", chunk.join(", ")));
        }
    };
    batch(
        (1..=config.parts)
            .map(|i| format!("({i}, 'part-{i}', {}.0)", 10 + (i * 17) % 900))
            .collect(),
        "part",
        &mut out,
    );
    batch(
        (1..=config.parts).map(|i| format!("({i}, 'supp-{i}', {})", i % 25)).collect(),
        "supplier",
        &mut out,
    );
    batch(
        (1..=config.orders).map(|i| format!("({i}, {}, {})", i % 100, 1992 + (i % 7))).collect(),
        "orders",
        &mut out,
    );
    batch(
        (1..=config.lineitems)
            .map(|i| {
                let orderkey = 1 + i % config.orders;
                let line = 1 + (i / config.orders);
                format!(
                    "({orderkey}, {line}, {}, {}, {}.0, {}.0, 0.0{}, '{}', '{}', {})",
                    1 + i % config.parts,
                    1 + i % config.parts,
                    1 + i % 50,
                    100 + (i * 31) % 900,
                    i % 9,
                    match i % 3 {
                        0 => "A",
                        1 => "N",
                        _ => "R",
                    },
                    if i % 2 == 0 { "F" } else { "O" },
                    10_000 + (i % 2_500)
                )
            })
            .collect(),
        "lineitem",
        &mut out,
    );
    out
}

/// TPC-H Q1 (lite): full scan of lineitem with grouped aggregation.
pub fn q1_sql() -> &'static str {
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
     SUM(l_extendedprice) AS sum_base_price, AVG(l_quantity) AS avg_qty, \
     AVG(l_extendedprice) AS avg_price, COUNT(*) AS count_order \
     FROM lineitem WHERE l_shipdate <= $1 \
     GROUP BY l_returnflag, l_linestatus \
     ORDER BY l_returnflag, l_linestatus"
}

/// TPC-H Q9-style (lite): joins before aggregation; the lookup joins keep
/// per-row KV traffic point-shaped.
pub fn q9_sql() -> &'static str {
    "SELECT s.s_nationkey, o.o_orderyear, SUM(l.l_extendedprice) AS amount \
     FROM lineitem l \
     JOIN part p ON l.l_partkey = p.p_partkey \
     JOIN supplier s ON l.l_suppkey = s.s_suppkey \
     JOIN orders o ON l.l_orderkey = o.o_orderkey \
     GROUP BY s.s_nationkey, o.o_orderyear \
     ORDER BY amount DESC"
}

/// A factory running Q1 repeatedly.
pub fn q1_factory() -> TxnFactory {
    Rc::new(move |_worker| {
        let steps: Rc<Vec<Step>> = Rc::new(vec![stmt_params(q1_sql(), vec![Datum::Int(12_000)])]);
        ("q1".to_string(), steps)
    })
}

/// A factory running Q9 repeatedly.
pub fn q9_factory() -> TxnFactory {
    Rc::new(move |_worker| {
        let steps: Rc<Vec<Step>> = Rc::new(vec![stmt(q9_sql())]);
        ("q9".to_string(), steps)
    })
}

/// A factory alternating Q1 and Q9.
pub fn mixed_factory() -> TxnFactory {
    let counter = Cell::new(0u64);
    Rc::new(move |_worker| {
        let n = counter.get();
        counter.set(n + 1);
        if n.is_multiple_of(2) {
            (
                "q1".to_string(),
                Rc::new(vec![stmt_params(q1_sql(), vec![Datum::Int(12_000)])]) as Rc<Vec<Step>>,
            )
        } else {
            ("q9".to_string(), Rc::new(vec![stmt(q9_sql())]) as Rc<Vec<Step>>)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ScriptCtx;

    #[test]
    fn load_counts() {
        let cfg = TpchConfig { lineitems: 120, parts: 10, orders: 30 };
        let stmts = load_statements(&cfg);
        // Each statement inserts at most 50 rows.
        assert!(stmts.len() >= (120 + 10 + 10 + 30) / 50);
        assert!(stmts.iter().all(|s| s.starts_with("INSERT INTO")));
    }

    #[test]
    fn q1_parses_and_is_aggregation() {
        let stmt = crdb_sql::parser::parse(q1_sql()).expect("q1 parses");
        match stmt {
            crdb_sql::parser::Statement::Select(s) => {
                assert_eq!(s.group_by.len(), 2);
                assert!(s.filter.is_some());
                assert!(s.items.len() >= 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn q9_parses_with_three_joins() {
        let stmt = crdb_sql::parser::parse(q9_sql()).expect("q9 parses");
        match stmt {
            crdb_sql::parser::Statement::Select(s) => {
                assert_eq!(s.joins.len(), 3);
                assert_eq!(s.group_by.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn factories_produce_single_statement_scripts() {
        let f = q1_factory();
        let (label, steps) = f(0);
        assert_eq!(label, "q1");
        assert_eq!(steps.len(), 1);
        let (sql, params) = steps[0](&ScriptCtx::default());
        assert!(sql.contains("lineitem"));
        assert_eq!(params.len(), 1);
    }
}
