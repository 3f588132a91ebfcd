//! Workloads for the evaluation (§6).
//!
//! Self-contained equivalents of the benchmarks the paper runs from the
//! CockroachDB binary, scaled to simulation size but preserving the
//! transaction mixes and access patterns:
//!
//! - [`tpcc`] — TPC-C-lite: the full schema shape (warehouse, district,
//!   customer, item, stock, orders, order_line) with New-Order, Payment
//!   and Order-Status transactions; stock think-time configuration for
//!   tpmC measurement and a "no wait" mode for noisy neighbors (§6.6).
//! - [`tpch`] — TPC-H-lite: a `lineitem`-centric schema with Q1 (full
//!   scan + aggregation) and Q9-style multi-join, the two queries §6.1.2
//!   analyzes.
//! - [`ycsb`] — YCSB-lite point read/update mixes with skewed keys.
//! - [`trace`] — synthetic diurnal/bursty load traces standing in for the
//!   production tenant activity of Figs. 8 and 9.
//! - [`driver`] — the closed-loop driver: per-worker connections, script
//!   (multi-statement transaction) execution with retry-on-conflict, think
//!   times, and latency/throughput statistics.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod driver;
pub mod executors;
pub mod tpcc;
pub mod tpch;
pub mod trace;
pub mod ycsb;

pub use driver::{Driver, DriverConfig, SqlExecutor, TxnStats};
pub use executors::{DedicatedExecutor, ServerlessExecutor};

/// `ANALYZE` statements for every table of a schema, derived from its
/// `CREATE TABLE` statements. Run after loading so the cost-based planner
/// starts from fresh statistics instead of defaults.
pub fn analyze_statements(schema: &[&str]) -> Vec<String> {
    schema
        .iter()
        .filter_map(|s| s.strip_prefix("CREATE TABLE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(|t| format!("ANALYZE {t}"))
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn analyze_statements_cover_every_table() {
        let stmts = super::analyze_statements(&super::tpcc::schema());
        assert_eq!(stmts.len(), 7, "one ANALYZE per TPC-C table");
        assert!(stmts.contains(&"ANALYZE warehouse".to_string()));
        assert!(stmts.contains(&"ANALYZE order_line".to_string()));
        // CREATE INDEX statements in a schema are skipped.
        let with_index = ["CREATE TABLE t (a INT PRIMARY KEY)", "CREATE INDEX i ON t (a)"];
        assert_eq!(super::analyze_statements(&with_index), vec!["ANALYZE t".to_string()]);
    }
}
