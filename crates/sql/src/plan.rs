//! Cost-based logical planning.
//!
//! The planner binds names, extracts KV spans from primary-key (or
//! secondary-index) constraints, enumerates scan candidates (full scan /
//! equality seek / range seek per index, lookup vs hash join direction)
//! and costs them with `ANALYZE` statistics from the catalog, producing
//! the [`PlanNode`] tree the executor walks. Span endpoints stay as
//! expressions so one prepared plan serves every parameter binding
//! ("same query, same plan" — §6.7). The cost model is integer-only
//! (u64) so plan choice can never depend on float rounding, and
//! candidates are enumerated in a fixed order with strict-`<`
//! replacement, so ties break deterministically toward the primary
//! index.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::coord::SqlError;
use crate::expr::{resolve_name, BinOp, Expr};
use crate::parser::{AggFunc, SelectItem, SelectStmt, Statement};
use crate::schema::{Column, IndexDescriptor, TableDescriptor, PRIMARY_INDEX_ID};
use crate::stats::TableStatistics;
use crate::value::{ColumnType, Datum};

/// The per-tenant table catalog (a cache of `system.descriptor` plus the
/// `ANALYZE` statistics stored beside the descriptors).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, TableDescriptor>,
    stats: BTreeMap<u64, TableStatistics>,
    next_table_id: u64,
    force_full_scan: bool,
}

/// First table ID for user tables (lower IDs are reserved for system
/// tables, mirroring CockroachDB).
pub const FIRST_USER_TABLE_ID: u64 = 100;

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            tables: BTreeMap::new(),
            stats: BTreeMap::new(),
            next_table_id: FIRST_USER_TABLE_ID,
            force_full_scan: false,
        }
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&TableDescriptor> {
        self.tables.get(name)
    }

    /// The table a statement names, or the typed error that makes
    /// `SqlNode` refresh its descriptors once and try again.
    pub fn require(&self, name: &str) -> Result<TableDescriptor, SqlError> {
        self.table(name).cloned().ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Registers a descriptor (from DDL or a system.descriptor read).
    pub fn install(&mut self, desc: TableDescriptor) {
        self.next_table_id = self.next_table_id.max(desc.id + 1);
        self.tables.insert(desc.name.clone(), desc);
    }

    /// Removes a table (and its statistics).
    pub fn remove(&mut self, name: &str) -> Option<TableDescriptor> {
        let desc = self.tables.remove(name);
        if let Some(d) = &desc {
            self.stats.remove(&d.id);
        }
        desc
    }

    /// Allocates the next table ID.
    pub fn allocate_table_id(&mut self) -> u64 {
        let id = self.next_table_id;
        self.next_table_id += 1;
        id
    }

    /// All descriptors.
    pub fn tables(&self) -> impl Iterator<Item = &TableDescriptor> {
        self.tables.values()
    }

    /// Statistics for a table, if `ANALYZE` has run.
    pub fn stats(&self, table_id: u64) -> Option<&TableStatistics> {
        self.stats.get(&table_id)
    }

    /// Installs statistics (from `ANALYZE` or a catalog load).
    pub fn install_stats(&mut self, stats: TableStatistics) {
        self.stats.insert(stats.table_id, stats);
    }

    /// When set, the planner ignores every index and plans unconstrained
    /// primary full scans with the whole predicate as a residual filter.
    /// Used by differential tests and benches as the oracle plan.
    pub fn set_force_full_scan(&mut self, force: bool) {
        self.force_full_scan = force;
    }

    /// Whether full scans are being forced (see [`Self::set_force_full_scan`]).
    pub fn force_full_scan(&self) -> bool {
        self.force_full_scan
    }
}

/// A bound on a key span, to be evaluated with parameters at execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBound {
    /// The bound expression.
    pub expr: Expr,
    /// Whether the bound is inclusive.
    pub inclusive: bool,
}

/// How a scan constrains its index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanConstraint {
    /// Equality-constrained leading index columns, in index order.
    pub eq_prefix: Vec<Expr>,
    /// Optional range on the next index column.
    pub lower: Option<SpanBound>,
    /// Optional upper range bound.
    pub upper: Option<SpanBound>,
}

/// An executable plan node. The row scope of each node is tracked in
/// `scope` (qualified column names) for tests and EXPLAIN-style output.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Literal rows (FROM-less SELECT).
    Values {
        /// Row expressions.
        rows: Vec<Vec<Expr>>,
        /// Output names.
        scope: Vec<String>,
    },
    /// Table scan via primary key or a secondary index.
    Scan {
        /// The table.
        table: TableDescriptor,
        /// The chosen index (`PRIMARY_INDEX_ID` for the primary).
        index_id: u64,
        /// Columns of the chosen index (empty for primary).
        index_cols: Vec<usize>,
        /// Span constraint.
        constraint: ScanConstraint,
        /// Residual filter applied after the scan.
        filter: Option<Expr>,
        /// Row limit pushed down from an enclosing `LIMIT` (only set
        /// when no residual filter or sort sits in between).
        limit: Option<u64>,
        /// Output scope (qualified `alias.col` names).
        scope: Vec<String>,
    },
    /// Nested lookup join: for each left row, batched point-lookups of
    /// the right table's primary key.
    LookupJoin {
        /// Left input.
        input: Box<PlanNode>,
        /// Right table.
        table: TableDescriptor,
        /// Left scope ordinals supplying the right PK, in PK order.
        left_key_cols: Vec<usize>,
        /// Residual ON predicate over the joined scope.
        residual: Option<Expr>,
        /// Output scope.
        scope: Vec<String>,
    },
    /// Hash join on a single equality pair.
    HashJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Left scope ordinal.
        left_col: usize,
        /// Right scope ordinal.
        right_col: usize,
        /// Residual ON predicate over the joined scope.
        residual: Option<Expr>,
        /// Output scope.
        scope: Vec<String>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Predicate.
        predicate: Expr,
    },
    /// Scalar projection.
    Project {
        /// Input.
        input: Box<PlanNode>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output names.
        scope: Vec<String>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input.
        input: Box<PlanNode>,
        /// Group-key expressions (over input scope).
        group: Vec<Expr>,
        /// Aggregates: function and argument.
        aggs: Vec<(AggFunc, Option<Expr>)>,
        /// Output names (group names then agg names).
        scope: Vec<String>,
        /// Mapping from SELECT-item order to output columns.
        output_map: Vec<usize>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<PlanNode>,
        /// Keys: output ordinal + descending flag.
        keys: Vec<(usize, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Box<PlanNode>,
        /// Maximum rows.
        n: u64,
    },
}

impl PlanNode {
    /// The output scope of this node.
    pub fn scope(&self) -> Vec<String> {
        match self {
            PlanNode::Values { scope, .. }
            | PlanNode::Scan { scope, .. }
            | PlanNode::LookupJoin { scope, .. }
            | PlanNode::HashJoin { scope, .. }
            | PlanNode::Project { scope, .. }
            | PlanNode::Aggregate { scope, .. } => scope.clone(),
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => input.scope(),
        }
    }
}

/// A planned statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A row-returning query.
    Query(PlanNode),
    /// INSERT: evaluated rows are written through the row codec.
    Insert {
        /// Target table.
        table: TableDescriptor,
        /// Row expressions aligned with table columns (defaults filled).
        rows: Vec<Vec<Expr>>,
    },
    /// UPDATE: scan, then rewrite matching rows.
    Update {
        /// The scan producing target rows.
        scan: Box<PlanNode>,
        /// Target table.
        table: TableDescriptor,
        /// Assignments: column ordinal → expression over the scan scope.
        sets: Vec<(usize, Expr)>,
    },
    /// DELETE: scan, then remove matching rows.
    Delete {
        /// The scan producing target rows.
        scan: Box<PlanNode>,
        /// Target table.
        table: TableDescriptor,
    },
    /// CREATE TABLE.
    CreateTable(TableDescriptor),
    /// CREATE INDEX (descriptor updated, backfill performed).
    CreateIndex {
        /// Updated descriptor including the new index.
        table: TableDescriptor,
        /// The new index.
        index: IndexDescriptor,
    },
    /// DROP TABLE.
    DropTable(TableDescriptor),
    /// ANALYZE: scan the primary index and persist table statistics.
    Analyze(TableDescriptor),
    /// EXPLAIN: the rendered plan of a SELECT, one line per node.
    Explain {
        /// Indented plan-tree lines with integer cost annotations.
        lines: Vec<String>,
    },
}

/// Plans a parsed statement against a catalog.
pub fn plan_statement(catalog: &mut Catalog, stmt: &Statement) -> Result<Plan, SqlError> {
    match stmt {
        Statement::Begin | Statement::Commit | Statement::Rollback => {
            Err(SqlError::Plan("transaction control is run by the session, not planned".into()))
        }
        Statement::CreateTable { name, columns, primary_key } => {
            if catalog.table(name).is_some() {
                return Err(SqlError::Plan(format!("table {name} already exists")));
            }
            let cols: Vec<Column> = columns
                .iter()
                .map(|(n, ty, nullable)| Column {
                    name: n.clone(),
                    ty: *ty,
                    nullable: *nullable && !primary_key.contains(n),
                })
                .collect();
            let mut pk = Vec::new();
            for pkcol in primary_key {
                let i = cols
                    .iter()
                    .position(|c| &c.name == pkcol)
                    .ok_or_else(|| SqlError::Plan(format!("unknown pk column {pkcol}")))?;
                pk.push(i);
            }
            let desc = TableDescriptor {
                id: catalog.allocate_table_id(),
                name: name.clone(),
                columns: cols,
                primary_key: pk,
                indexes: Vec::new(),
            };
            Ok(Plan::CreateTable(desc))
        }
        Statement::CreateIndex { name, table, columns } => {
            let desc = catalog.require(table)?;
            let mut cols = Vec::new();
            for c in columns {
                cols.push(
                    desc.column_index(c)
                        .ok_or_else(|| SqlError::Plan(format!("unknown column {c}")))?,
                );
            }
            let index = IndexDescriptor {
                id: desc.indexes.iter().map(|i| i.id).max().unwrap_or(PRIMARY_INDEX_ID) + 1,
                name: name.clone(),
                columns: cols,
            };
            let mut updated = desc;
            updated.indexes.push(index.clone());
            Ok(Plan::CreateIndex { table: updated, index })
        }
        Statement::DropTable { name } => {
            let desc = catalog.require(name)?;
            Ok(Plan::DropTable(desc))
        }
        Statement::Insert { table, columns, values } => {
            let desc = catalog.require(table)?;
            let target: Vec<usize> = if columns.is_empty() {
                (0..desc.columns.len()).collect()
            } else {
                let mut t = Vec::new();
                for c in columns {
                    t.push(
                        desc.column_index(c)
                            .ok_or_else(|| SqlError::Plan(format!("unknown column {c}")))?,
                    );
                }
                t
            };
            let mut rows = Vec::with_capacity(values.len());
            for v in values {
                if v.len() != target.len() {
                    return Err(SqlError::Plan(format!(
                        "INSERT has {} values for {} columns",
                        v.len(),
                        target.len()
                    )));
                }
                let mut row: Vec<Expr> =
                    vec![Expr::Literal(crate::value::Datum::Null); desc.columns.len()];
                for (expr, &col) in v.iter().zip(&target) {
                    if let Some(slot) = row.get_mut(col) {
                        *slot = expr.clone();
                    }
                }
                rows.push(row);
            }
            Ok(Plan::Insert { table: desc, rows })
        }
        Statement::Select(sel) => Ok(Plan::Query(plan_select(catalog, sel)?)),
        Statement::Analyze { table } => {
            let desc = catalog.require(table)?;
            Ok(Plan::Analyze(desc))
        }
        Statement::Explain(sel) => {
            let node = plan_select(catalog, sel)?;
            Ok(Plan::Explain { lines: explain_plan(catalog, &node) })
        }
        Statement::Update { table, sets, filter } => {
            let desc = catalog.require(table)?;
            let scan = plan_table_scan(catalog, &desc, None, filter.clone())?;
            let scope = scan.scope();
            let mut bound_sets = Vec::new();
            for (col, e) in sets {
                let i = desc
                    .column_index(col)
                    .ok_or_else(|| SqlError::Plan(format!("unknown column {col}")))?;
                let mut e = e.clone();
                e.bind(&scope).map_err(SqlError::Plan)?;
                bound_sets.push((i, e));
            }
            Ok(Plan::Update { scan: Box::new(scan), table: desc, sets: bound_sets })
        }
        Statement::Delete { table, filter } => {
            let desc = catalog.require(table)?;
            let scan = plan_table_scan(catalog, &desc, None, filter.clone())?;
            Ok(Plan::Delete { scan: Box::new(scan), table: desc })
        }
    }
}

/// Splits an expression into its top-level AND conjuncts.
fn conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Bin(BinOp::And, l, r) => {
            let mut out = conjuncts(*l);
            out.extend(conjuncts(*r));
            out
        }
        other => vec![other],
    }
}

/// A comparison `col <op> value-expr` extracted from a conjunct.
struct ColCmp {
    col: usize,
    op: BinOp,
    value: Expr,
}

fn as_col_cmp(e: &Expr, scope: &[String]) -> Option<ColCmp> {
    if let Expr::Bin(op, l, r) = e {
        let flip = |op: BinOp| match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        };
        let is_value = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
        if let Expr::Name(n) = l.as_ref() {
            if is_value(r) {
                if let Ok(col) = resolve_name(scope, n) {
                    return Some(ColCmp { col, op: *op, value: (**r).clone() });
                }
            }
        }
        if let Expr::Name(n) = r.as_ref() {
            if is_value(l) {
                if let Ok(col) = resolve_name(scope, n) {
                    return Some(ColCmp { col, op: flip(*op), value: (**l).clone() });
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Cost model. All integer arithmetic: plan choice must be bit-stable
// across runs and platforms, so no floats enter the comparison.
// ---------------------------------------------------------------------

/// Cost of streaming one row out of a scan.
const COST_PER_ROW: u64 = 10;
/// Extra cost per row of a secondary-index plan (the PK lookup join back
/// into the primary index) or of a lookup-join probe.
const COST_PER_LOOKUP: u64 = 20;
/// Fixed cost of positioning a scan (per seek).
const SEEK_COST: u64 = 20;
/// Per-row cost of materializing and hashing the build side of a hash
/// join. In the separated architecture every build-side byte crosses the
/// SQL/KV process boundary and is held in pod memory, so this is charged
/// well above streaming.
const COST_PER_HASH_BUILD: u64 = 200;
/// Assumed table cardinality when `ANALYZE` has not run.
const DEFAULT_ROW_COUNT: u64 = 1000;
/// Without statistics, each equality column is assumed to divide the row
/// count by this much.
const DEFAULT_EQ_SELECTIVITY: u64 = 10;
/// Each range bound (lower or upper) is assumed to divide the remaining
/// row count by this much.
const RANGE_SELECTIVITY: u64 = 4;

/// Estimated rows a span with `eq_len` equality columns and
/// `n_range_bounds` range bounds reads from `index_id`.
fn estimated_span_rows(
    stats: Option<&TableStatistics>,
    index_id: u64,
    eq_len: usize,
    n_range_bounds: usize,
) -> u64 {
    let row_count = stats.map(|s| s.row_count).unwrap_or(DEFAULT_ROW_COUNT);
    let mut est = if eq_len == 0 {
        row_count
    } else {
        match stats.and_then(|s| s.distinct_prefix(index_id, eq_len)) {
            Some(d) if d > 0 => row_count / d,
            // No stats, or an index created after the last ANALYZE
            // (stale stats don't know its prefixes): fall back to the
            // default per-column selectivity.
            _ => {
                let mut e = row_count;
                for _ in 0..eq_len {
                    e /= DEFAULT_EQ_SELECTIVITY;
                }
                e
            }
        }
    }
    .max(1);
    for _ in 0..n_range_bounds {
        est = (est / RANGE_SELECTIVITY).max(1);
    }
    est
}

/// Cost of scanning `est_rows` via `index_id`: secondary-index plans pay
/// a PK lookup per row on top of streaming.
fn scan_cost(index_id: u64, est_rows: u64) -> u64 {
    let per_row =
        if index_id == PRIMARY_INDEX_ID { COST_PER_ROW } else { COST_PER_ROW + COST_PER_LOOKUP };
    SEEK_COST.saturating_add(est_rows.saturating_mul(per_row))
}

/// Rough output-cardinality estimate for a plan subtree (used for join
/// direction costing and EXPLAIN annotations).
fn estimate_output_rows(catalog: &Catalog, node: &PlanNode) -> u64 {
    match node {
        PlanNode::Values { rows, .. } => rows.len() as u64,
        PlanNode::Scan { table, index_id, constraint, filter, limit, .. } => {
            let n_bounds =
                constraint.lower.is_some() as usize + constraint.upper.is_some() as usize;
            let mut est = estimated_span_rows(
                catalog.stats(table.id),
                *index_id,
                constraint.eq_prefix.len(),
                n_bounds,
            );
            if filter.is_some() {
                est = (est / 2).max(1);
            }
            if let Some(n) = limit {
                est = est.min(*n);
            }
            est
        }
        PlanNode::LookupJoin { input, .. } => estimate_output_rows(catalog, input),
        PlanNode::HashJoin { left, .. } => estimate_output_rows(catalog, left),
        PlanNode::Filter { input, .. } => (estimate_output_rows(catalog, input) / 2).max(1),
        PlanNode::Project { input, .. } => estimate_output_rows(catalog, input),
        PlanNode::Aggregate { input, group, .. } => {
            if group.is_empty() {
                1
            } else {
                (estimate_output_rows(catalog, input) / DEFAULT_EQ_SELECTIVITY).max(1)
            }
        }
        PlanNode::Sort { input, .. } => estimate_output_rows(catalog, input),
        PlanNode::Limit { input, n } => estimate_output_rows(catalog, input).min(*n),
    }
}

/// An equality value usable as a span key for a column of type `ct`.
/// Returns the (possibly type-coerced) span expression and whether the
/// originating conjunct may be dropped from the residual filter.
///
/// Droppability is the NULL-safety rule: a conjunct leaves the residual
/// only when its value is a non-NULL literal of the column's exact (or
/// losslessly coerced) type. Params stay in the residual because a NULL
/// param encodes to a real key byte (`0x00`) at execution and the span
/// would wrongly match stored NULLs — the kept residual `col = NULL`
/// evaluates to NULL (not true) and filters them out.
fn eq_span_value(value: &Expr, ct: ColumnType) -> Option<(Expr, bool)> {
    match value {
        Expr::Param(_) => Some((value.clone(), false)),
        Expr::Literal(Datum::Null) => None,
        Expr::Literal(d) => match (ct, d) {
            (ColumnType::Float, Datum::Int(i)) => {
                Some((Expr::Literal(Datum::Float(*i as f64)), true))
            }
            (ColumnType::Int, Datum::Float(f)) if f.fract() == 0.0 && f.abs() < 9.0e18 => {
                Some((Expr::Literal(Datum::Int(*f as i64)), true))
            }
            _ if d.column_type() == Some(ct) => Some((value.clone(), true)),
            // Type mismatch (e.g. string on an int column): leave the
            // conjunct to residual evaluation, no span.
            _ => None,
        },
        _ => None,
    }
}

/// A range-bound value usable as a span endpoint for a column of type
/// `ct`. Range conjuncts always stay in the residual (an unbounded side
/// of the span still starts at the index prefix, which covers stored
/// NULL keys), so only span usability is decided here.
fn range_span_value(value: &Expr, ct: ColumnType) -> Option<Expr> {
    match value {
        Expr::Param(_) => Some(value.clone()),
        Expr::Literal(Datum::Null) => None,
        Expr::Literal(d) => match (ct, d) {
            (ColumnType::Float, Datum::Int(i)) => Some(Expr::Literal(Datum::Float(*i as f64))),
            _ if d.column_type() == Some(ct) => Some(value.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// One costed scan candidate.
struct ScanCandidate {
    index_id: u64,
    index_cols: Vec<usize>,
    eq_len: usize,
    lower: Option<SpanBound>,
    upper: Option<SpanBound>,
    cost: u64,
}

/// Plans a scan of `table` (aliased) with an optional filter: enumerates
/// a candidate per index (full scan, equality seek, range seek) and
/// keeps the cheapest under the statistics-driven cost model.
fn plan_table_scan(
    catalog: &Catalog,
    table: &TableDescriptor,
    alias: Option<&str>,
    filter: Option<Expr>,
) -> Result<PlanNode, SqlError> {
    let alias = alias.unwrap_or(&table.name);
    let scope: Vec<String> = table.columns.iter().map(|c| format!("{alias}.{}", c.name)).collect();

    // Classify conjuncts. `eq` maps a column to its span value, the
    // conjunct's position, and whether that conjunct may leave the
    // residual when the column is consumed into the chosen eq prefix.
    let mut all: Vec<Expr> = Vec::new();
    let mut eq: BTreeMap<usize, (Expr, usize, bool)> = BTreeMap::new();
    let mut ranges: Vec<(usize, BinOp, Expr)> = Vec::new();
    if let Some(f) = filter {
        for c in conjuncts(f) {
            if !catalog.force_full_scan() {
                let cmp = as_col_cmp(&c, &scope);
                let typed = cmp.and_then(|cmp| Some((table.columns.get(cmp.col)?.ty, cmp)));
                if let Some((ct, cmp)) = typed {
                    match cmp.op {
                        BinOp::Eq => {
                            if let Entry::Vacant(slot) = eq.entry(cmp.col) {
                                if let Some((value, droppable)) = eq_span_value(&cmp.value, ct) {
                                    slot.insert((value, all.len(), droppable));
                                }
                            }
                        }
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                            if let Some(value) = range_span_value(&cmp.value, ct) {
                                ranges.push((cmp.col, cmp.op, value));
                            }
                        }
                        _ => {}
                    }
                }
            }
            all.push(c);
        }
    }

    // Enumerate one candidate per index, primary first; strict `<`
    // replacement keeps ties on the earliest (primary) candidate.
    let stats = catalog.stats(table.id);
    let mut order: Vec<(u64, Vec<usize>)> = vec![(PRIMARY_INDEX_ID, table.primary_key.clone())];
    for idx in &table.indexes {
        order.push((idx.id, idx.columns.clone()));
    }
    let mut best: Option<ScanCandidate> = None;
    for (index_id, index_cols) in order {
        let mut eq_len = 0;
        for c in &index_cols {
            if eq.contains_key(c) {
                eq_len += 1;
            } else {
                break;
            }
        }
        // A range on the first unconstrained index column tightens the
        // span — including eq_len == 0, a range-only index seek.
        let mut lower = None;
        let mut upper = None;
        if let Some(&next_col) = index_cols.get(eq_len) {
            for (col, op, value) in &ranges {
                if *col != next_col {
                    continue;
                }
                match op {
                    BinOp::Ge => lower = Some(SpanBound { expr: value.clone(), inclusive: true }),
                    BinOp::Gt => lower = Some(SpanBound { expr: value.clone(), inclusive: false }),
                    BinOp::Le => upper = Some(SpanBound { expr: value.clone(), inclusive: true }),
                    BinOp::Lt => upper = Some(SpanBound { expr: value.clone(), inclusive: false }),
                    _ => {}
                }
            }
        }
        let n_bounds = lower.is_some() as usize + upper.is_some() as usize;
        let est = estimated_span_rows(stats, index_id, eq_len, n_bounds);
        let cost = scan_cost(index_id, est);
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(ScanCandidate { index_id, index_cols, eq_len, lower, upper, cost });
        }
    }
    let Some(chosen) = best else {
        return Err(SqlError::Plan(format!("no index of {} to scan", table.name)));
    };

    // Build the span constraint and decide which conjuncts it covers.
    let mut constraint = ScanConstraint::default();
    let mut dropped: BTreeSet<usize> = BTreeSet::new();
    let prefix = chosen.index_cols.iter().take(chosen.eq_len).map_while(|c| eq.get(c));
    for (value, conjunct_idx, droppable) in prefix {
        constraint.eq_prefix.push(value.clone());
        if *droppable {
            dropped.insert(*conjunct_idx);
        }
    }
    constraint.lower = chosen.lower;
    constraint.upper = chosen.upper;

    // Bind the residual filter (everything the span doesn't provably
    // cover, in original conjunct order).
    let filter = all
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, mut e)| {
            e.bind(&scope).map_err(SqlError::Plan)?;
            Ok(e)
        })
        .collect::<Result<Vec<_>, SqlError>>()?
        .into_iter()
        .reduce(|a, b| Expr::Bin(BinOp::And, Box::new(a), Box::new(b)));

    Ok(PlanNode::Scan {
        table: table.clone(),
        index_id: chosen.index_id,
        index_cols: chosen.index_cols,
        constraint,
        filter,
        limit: None,
        scope,
    })
}

/// Pushes a top-level LIMIT into its scan when every node in between
/// preserves rows one-for-one (projections) and the scan itself has no
/// residual filter. Sorts, filters, joins and aggregates block pushdown.
fn push_limit_down(node: PlanNode) -> PlanNode {
    fn push_into(node: PlanNode, n: u64) -> PlanNode {
        match node {
            PlanNode::Scan {
                table,
                index_id,
                index_cols,
                constraint,
                filter: None,
                limit,
                scope,
            } => PlanNode::Scan {
                table,
                index_id,
                index_cols,
                constraint,
                filter: None,
                limit: Some(limit.map_or(n, |l| l.min(n))),
                scope,
            },
            PlanNode::Project { input, exprs, scope } => {
                PlanNode::Project { input: Box::new(push_into(*input, n)), exprs, scope }
            }
            other => other,
        }
    }
    match node {
        PlanNode::Limit { input, n } => {
            PlanNode::Limit { input: Box::new(push_into(*input, n)), n }
        }
        other => other,
    }
}

/// The display name of an index for EXPLAIN output.
fn index_name(table: &TableDescriptor, index_id: u64) -> String {
    if index_id == PRIMARY_INDEX_ID {
        "primary".to_string()
    } else {
        table
            .indexes
            .iter()
            .find(|i| i.id == index_id)
            .map(|i| i.name.clone())
            .unwrap_or_else(|| format!("index{index_id}"))
    }
}

/// Renders a plan tree as indented text lines with integer cost
/// annotations. All numbers are u64 so the output is byte-identical for
/// identical (catalog, statement) inputs — the testable face of the
/// "same query, same plan" contract.
pub fn explain_plan(catalog: &Catalog, node: &PlanNode) -> Vec<String> {
    fn render(catalog: &Catalog, node: &PlanNode, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        match node {
            PlanNode::Values { rows, .. } => {
                out.push(format!("{pad}values (rows={})", rows.len()));
            }
            PlanNode::Scan { table, index_id, constraint, filter, limit, .. } => {
                let n_bounds =
                    constraint.lower.is_some() as usize + constraint.upper.is_some() as usize;
                let est = estimated_span_rows(
                    catalog.stats(table.id),
                    *index_id,
                    constraint.eq_prefix.len(),
                    n_bounds,
                );
                let cost = scan_cost(*index_id, est);
                let mut span = if constraint.eq_prefix.is_empty() && n_bounds == 0 {
                    "full".to_string()
                } else {
                    let mut parts = Vec::new();
                    if !constraint.eq_prefix.is_empty() {
                        parts.push(format!("eq={}", constraint.eq_prefix.len()));
                    }
                    if constraint.lower.is_some() {
                        parts.push("lower".to_string());
                    }
                    if constraint.upper.is_some() {
                        parts.push("upper".to_string());
                    }
                    parts.join(",")
                };
                if let Some(n) = limit {
                    span.push_str(&format!(" limit={n}"));
                }
                let residual = if filter.is_some() { " +filter" } else { "" };
                out.push(format!(
                    "{pad}scan {}@{} [{span}]{residual} (est_rows={est} cost={cost})",
                    table.name,
                    index_name(table, *index_id),
                ));
            }
            PlanNode::LookupJoin { input, table, .. } => {
                let est = estimate_output_rows(catalog, node);
                out.push(format!("{pad}lookup-join {}@primary (est_rows={est})", table.name));
                render(catalog, input, depth + 1, out);
            }
            PlanNode::HashJoin { left, right, .. } => {
                let est = estimate_output_rows(catalog, node);
                out.push(format!("{pad}hash-join (est_rows={est})"));
                render(catalog, left, depth + 1, out);
                render(catalog, right, depth + 1, out);
            }
            PlanNode::Filter { input, .. } => {
                out.push(format!("{pad}filter"));
                render(catalog, input, depth + 1, out);
            }
            PlanNode::Project { input, exprs, .. } => {
                out.push(format!("{pad}project (exprs={})", exprs.len()));
                render(catalog, input, depth + 1, out);
            }
            PlanNode::Aggregate { input, group, aggs, .. } => {
                out.push(format!("{pad}aggregate (groups={} aggs={})", group.len(), aggs.len()));
                render(catalog, input, depth + 1, out);
            }
            PlanNode::Sort { input, keys } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|(i, desc)| format!("{}{}", i, if *desc { "-" } else { "+" }))
                    .collect();
                out.push(format!("{pad}sort (keys={})", keys.join(",")));
                render(catalog, input, depth + 1, out);
            }
            PlanNode::Limit { input, n } => {
                out.push(format!("{pad}limit {n}"));
                render(catalog, input, depth + 1, out);
            }
        }
    }
    let mut out = Vec::new();
    render(catalog, node, 0, &mut out);
    out
}

fn plan_select(catalog: &Catalog, sel: &SelectStmt) -> Result<PlanNode, SqlError> {
    // FROM-less SELECT.
    let (base_table, base_alias) = match &sel.from {
        None => {
            let mut row = Vec::new();
            let mut scope = Vec::new();
            for (i, item) in sel.items.iter().enumerate() {
                match item {
                    SelectItem::Expr { expr, alias } => {
                        row.push(expr.clone());
                        scope.push(alias.clone().unwrap_or_else(|| format!("column{}", i + 1)));
                    }
                    _ => return Err(SqlError::Plan("* requires FROM".into())),
                }
            }
            return Ok(PlanNode::Values { rows: vec![row], scope });
        }
        Some((t, a)) => (t.clone(), a.clone()),
    };

    let base_desc = catalog.require(&base_table)?;

    // Push the WHERE clause into the base scan when there are no joins;
    // with joins, the filter applies after the join (simpler and correct).
    let mut node = if sel.joins.is_empty() {
        plan_table_scan(catalog, &base_desc, base_alias.as_deref(), sel.filter.clone())?
    } else {
        plan_table_scan(catalog, &base_desc, base_alias.as_deref(), None)?
    };

    // Joins, left-deep.
    for join in &sel.joins {
        let right = catalog.require(&join.table)?;
        let right_alias = join.alias.clone().unwrap_or_else(|| join.table.clone());
        let left_scope = node.scope();
        let right_scope: Vec<String> =
            right.columns.iter().map(|c| format!("{right_alias}.{}", c.name)).collect();
        let joined_scope: Vec<String> =
            left_scope.iter().chain(right_scope.iter()).cloned().collect();

        // Decompose ON into eq pairs between left and right columns.
        let mut eq_pairs: Vec<(usize, usize)> = Vec::new(); // (left ord, right col ord)
        let mut residual: Vec<Expr> = Vec::new();
        for c in conjuncts(join.on.clone()) {
            let mut matched = false;
            if let Expr::Bin(BinOp::Eq, l, r) = &c {
                if let (Expr::Name(a), Expr::Name(b)) = (l.as_ref(), r.as_ref()) {
                    let la = resolve_name(&left_scope, a);
                    let rb = resolve_name(&right_scope, b);
                    if let (Ok(la), Ok(rb)) = (la, rb) {
                        eq_pairs.push((la, rb));
                        matched = true;
                    } else {
                        let lb = resolve_name(&left_scope, b);
                        let ra = resolve_name(&right_scope, a);
                        if let (Ok(lb), Ok(ra)) = (lb, ra) {
                            eq_pairs.push((lb, ra));
                            matched = true;
                        }
                    }
                }
            }
            if !matched {
                residual.push(c);
            }
        }
        let Some(&(lc, rc)) = eq_pairs.first() else {
            return Err(SqlError::Plan("JOIN requires an equality condition".into()));
        };
        let residual = residual
            .into_iter()
            .map(|mut e| {
                e.bind(&joined_scope).map_err(SqlError::Plan)?;
                Ok(e)
            })
            .collect::<Result<Vec<_>, SqlError>>()?
            .into_iter()
            .reduce(|a, b| Expr::Bin(BinOp::And, Box::new(a), Box::new(b)));

        // Lookup join when the eq pairs cover the right PK *and* the
        // cost model favors per-row probes over materializing the right
        // side: batched point lookups cost `COST_PER_LOOKUP` per left
        // row, while a hash join pays a full right scan plus the build.
        let covers_pk = right.primary_key.len() <= eq_pairs.len()
            && right.primary_key.iter().all(|pkc| eq_pairs.iter().any(|(_, rc)| rc == pkc));
        let lookup_is_cheaper = {
            let left_est = estimate_output_rows(catalog, &node);
            let right_rows =
                catalog.stats(right.id).map(|s| s.row_count).unwrap_or(DEFAULT_ROW_COUNT);
            let lookup_cost = left_est.saturating_mul(COST_PER_LOOKUP);
            let hash_cost = SEEK_COST
                .saturating_add(right_rows.saturating_mul(COST_PER_HASH_BUILD))
                .saturating_add(left_est.saturating_mul(COST_PER_ROW));
            lookup_cost <= hash_cost
        };
        if covers_pk && lookup_is_cheaper {
            let left_key_cols = right
                .primary_key
                .iter()
                .filter_map(|pkc| eq_pairs.iter().find(|(_, rc)| rc == pkc).map(|&(lc, _)| lc))
                .collect();
            node = PlanNode::LookupJoin {
                input: Box::new(node),
                table: right,
                left_key_cols,
                residual,
                scope: joined_scope,
            };
        } else {
            // Fold the remaining eq pairs into the residual.
            let mut residual = residual;
            for &(l, r) in eq_pairs.iter().skip(1) {
                let e = Expr::Bin(
                    BinOp::Eq,
                    Box::new(Expr::Column(l)),
                    Box::new(Expr::Column(left_scope.len() + r)),
                );
                residual = Some(match residual {
                    Some(prev) => Expr::Bin(BinOp::And, Box::new(prev), Box::new(e)),
                    None => e,
                });
            }
            let right_node = plan_table_scan(catalog, &right, Some(&right_alias), None)?;
            node = PlanNode::HashJoin {
                left: Box::new(node),
                right: Box::new(right_node),
                left_col: lc,
                right_col: rc,
                residual,
                scope: joined_scope,
            };
        }
    }

    // Post-join filter.
    if !sel.joins.is_empty() {
        if let Some(f) = &sel.filter {
            let scope = node.scope();
            let mut f = f.clone();
            f.bind(&scope).map_err(SqlError::Plan)?;
            node = PlanNode::Filter { input: Box::new(node), predicate: f };
        }
    }

    let scope = node.scope();
    let has_aggs =
        sel.items.iter().any(|i| matches!(i, SelectItem::Agg { .. })) || !sel.group_by.is_empty();

    if has_aggs {
        // Bind group-by expressions over the input scope.
        let mut group = Vec::new();
        let mut group_names = Vec::new();
        for g in &sel.group_by {
            let mut e = g.clone();
            let name = match g {
                Expr::Name(n) => n.clone(),
                _ => format!("group{}", group.len() + 1),
            };
            e.bind(&scope).map_err(SqlError::Plan)?;
            group.push(e);
            group_names.push(name);
        }
        let mut aggs = Vec::new();
        let mut out_scope = group_names.clone();
        let mut output_map = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Agg { func, arg, alias } => {
                    let arg = match arg {
                        Some(a) => {
                            let mut a = a.clone();
                            a.bind(&scope).map_err(SqlError::Plan)?;
                            Some(a)
                        }
                        None => None,
                    };
                    output_map.push(group.len() + aggs.len());
                    aggs.push((*func, arg));
                    out_scope.push(alias.clone().unwrap_or_else(|| format!("agg{}", aggs.len())));
                }
                SelectItem::Expr { expr, alias } => {
                    // Must match a group expression.
                    let mut bound = expr.clone();
                    bound.bind(&scope).map_err(SqlError::Plan)?;
                    let pos = group
                        .iter()
                        .position(|g| *g == bound)
                        .ok_or_else(|| SqlError::Plan("non-grouped column in SELECT".into()))?;
                    output_map.push(pos);
                    if let (Some(a), Some(name)) = (alias, out_scope.get_mut(pos)) {
                        *name = a.clone();
                    }
                }
                SelectItem::Star => {
                    return Err(SqlError::Plan("* with GROUP BY is unsupported".into()))
                }
            }
        }
        node = PlanNode::Aggregate {
            input: Box::new(node),
            group,
            aggs,
            scope: out_scope,
            output_map,
        };
    } else {
        // Plain projection.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    for (j, name) in scope.iter().enumerate() {
                        exprs.push(Expr::Column(j));
                        names.push(name.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let mut e = expr.clone();
                    e.bind(&scope).map_err(SqlError::Plan)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Name(n) => n.clone(),
                        _ => format!("column{}", i + 1),
                    });
                    exprs.push(e);
                    names.push(name);
                }
                SelectItem::Agg { .. } => {
                    return Err(SqlError::Plan("aggregate in a plain projection".into()))
                }
            }
        }
        // ORDER BY may reference either output aliases or input columns;
        // when it names input columns, the sort runs before projection.
        let mut sort_before_project: Option<Vec<(usize, bool)>> = None;
        let mut sort_after: Option<Vec<(usize, bool)>> = None;
        if !sel.order_by.is_empty() {
            let try_bind = |target: &[String]| -> Option<Vec<(usize, bool)>> {
                let mut keys = Vec::new();
                for (e, desc) in &sel.order_by {
                    let idx = match e {
                        Expr::Name(n) => resolve_name(target, n).ok()?,
                        Expr::Literal(crate::value::Datum::Int(i)) if *i >= 1 => (*i - 1) as usize,
                        _ => return None,
                    };
                    keys.push((idx, *desc));
                }
                Some(keys)
            };
            if let Some(keys) = try_bind(&names) {
                sort_after = Some(keys);
            } else if let Some(keys) = try_bind(&scope) {
                sort_before_project = Some(keys);
            } else {
                return Err(SqlError::Plan("ORDER BY must name an output or input column".into()));
            }
        }
        if let Some(keys) = sort_before_project {
            node = PlanNode::Sort { input: Box::new(node), keys };
        }
        // Skip the no-op projection for `SELECT *` over a single scan.
        let identity = exprs.len() == scope.len()
            && exprs.iter().enumerate().all(|(i, e)| *e == Expr::Column(i));
        if !identity {
            node = PlanNode::Project { input: Box::new(node), exprs, scope: names };
        }
        if let Some(keys) = sort_after {
            node = PlanNode::Sort { input: Box::new(node), keys };
        }
    }

    // Aggregate ORDER BY binds over the aggregate output scope.
    if !sel.order_by.is_empty() && has_aggs {
        let out_scope = node.scope();
        let mut keys = Vec::new();
        for (e, desc) in &sel.order_by {
            let idx = match e {
                Expr::Name(n) => resolve_name(&out_scope, n).map_err(SqlError::Plan)?,
                Expr::Literal(crate::value::Datum::Int(i)) if *i >= 1 => (*i - 1) as usize,
                _ => return Err(SqlError::Plan("ORDER BY must name an output column".into())),
            };
            keys.push((idx, *desc));
        }
        node = PlanNode::Sort { input: Box::new(node), keys };
    }

    if let Some(n) = sel.limit {
        node = PlanNode::Limit { input: Box::new(node), n };
        node = push_limit_down(node);
    }
    Ok(node)
}

/// Validates an insert row against column types and nullability.
pub fn check_row(table: &TableDescriptor, row: &[crate::value::Datum]) -> Result<(), SqlError> {
    for (col, datum) in table.columns.iter().zip(row) {
        if datum.is_null() {
            if !col.nullable {
                return Err(SqlError::Constraint(format!("null value in column {}", col.name)));
            }
            continue;
        }
        let ok = match (col.ty, datum.column_type()) {
            (ColumnType::Float, Some(ColumnType::Int)) => true, // int widens
            (expected, Some(actual)) => expected == actual,
            _ => false,
        };
        if !ok {
            return Err(SqlError::Constraint(format!("type mismatch for column {}", col.name)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::value::Datum;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for stmt in [
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING NOT NULL, i_price FLOAT)",
            "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_qty INT, PRIMARY KEY (s_w_id, s_i_id))",
        ] {
            let parsed = parse(stmt).unwrap();
            match plan_statement(&mut c, &parsed).unwrap() {
                Plan::CreateTable(d) => c.install(d),
                _ => unreachable!(),
            }
        }
        c
    }

    fn plan(c: &mut Catalog, sql: &str) -> Plan {
        plan_statement(c, &parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn point_select_constrains_full_pk() {
        let mut c = catalog();
        let p = plan(&mut c, "SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id = 42");
        match p {
            Plan::Query(PlanNode::Scan { constraint, index_id, .. }) => {
                assert_eq!(index_id, PRIMARY_INDEX_ID);
                assert_eq!(constraint.eq_prefix.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_constraint_on_pk_suffix() {
        let mut c = catalog();
        let p =
            plan(&mut c, "SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id >= 10 AND s_i_id < 20");
        match p {
            Plan::Query(PlanNode::Scan { constraint, .. }) => {
                assert_eq!(constraint.eq_prefix.len(), 1);
                assert_eq!(constraint.lower.as_ref().map(|b| b.inclusive), Some(true));
                assert_eq!(constraint.upper.as_ref().map(|b| b.inclusive), Some(false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn secondary_index_chosen_on_eq_prefix() {
        let mut c = catalog();
        // Add an index on i_name.
        let p = plan(&mut c, "CREATE INDEX name_idx ON item (i_name)");
        match p {
            Plan::CreateIndex { table, .. } => c.install(table),
            other => panic!("{other:?}"),
        }
        let p = plan(&mut c, "SELECT * FROM item WHERE i_name = 'widget'");
        match p {
            Plan::Query(PlanNode::Scan { index_id, constraint, .. }) => {
                assert_ne!(index_id, PRIMARY_INDEX_ID, "secondary index selected");
                assert_eq!(constraint.eq_prefix.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lookup_join_on_full_pk() {
        let mut c = catalog();
        let p = plan(
            &mut c,
            "SELECT s.s_qty, i.i_price FROM stock s JOIN item i ON s.s_i_id = i.i_id \
             WHERE s.s_w_id = 1",
        );
        match p {
            Plan::Query(node) => {
                // Filter applies post-join; beneath it the lookup join.
                fn find_lookup(n: &PlanNode) -> bool {
                    match n {
                        PlanNode::LookupJoin { .. } => true,
                        PlanNode::Filter { input, .. }
                        | PlanNode::Sort { input, .. }
                        | PlanNode::Limit { input, .. }
                        | PlanNode::Project { input, .. } => find_lookup(input),
                        _ => false,
                    }
                }
                assert!(find_lookup(&node), "expected lookup join: {node:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hash_join_on_non_pk() {
        let mut c = catalog();
        let p = plan(&mut c, "SELECT * FROM stock s JOIN item i ON s.s_qty = i.i_id");
        // s_qty = i_id covers item's pk -> actually a lookup join; use a
        // non-pk pairing instead:
        let _ = p;
        let p = plan(&mut c, "SELECT * FROM item a JOIN item b ON a.i_name = b.i_name");
        match p {
            Plan::Query(node) => {
                fn find_hash(n: &PlanNode) -> bool {
                    match n {
                        PlanNode::HashJoin { .. } => true,
                        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
                            find_hash(input)
                        }
                        _ => false,
                    }
                }
                assert!(find_hash(&node), "expected hash join: {node:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregate_plan_maps_outputs() {
        let mut c = catalog();
        let p = plan(
            &mut c,
            "SELECT s_w_id, SUM(s_qty) AS total FROM stock GROUP BY s_w_id ORDER BY total DESC",
        );
        match p {
            Plan::Query(PlanNode::Sort { input, keys }) => {
                assert_eq!(keys, vec![(1, true)]);
                match *input {
                    PlanNode::Aggregate { output_map, scope, .. } => {
                        assert_eq!(output_map, vec![0, 1]);
                        assert_eq!(scope, vec!["s_w_id".to_string(), "total".to_string()]);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_fills_defaults_and_checks() {
        let mut c = catalog();
        let p = plan(&mut c, "INSERT INTO item (i_id, i_name) VALUES (1, 'x')");
        match p {
            Plan::Insert { rows, table } => {
                assert_eq!(rows[0].len(), 3);
                assert_eq!(rows[0][2], Expr::Literal(Datum::Null));
                // Constraint checks.
                assert!(check_row(&table, &[Datum::Int(1), Datum::Str("x".into()), Datum::Null])
                    .is_ok());
                assert!(check_row(&table, &[Datum::Int(1), Datum::Null, Datum::Null]).is_err());
                assert!(check_row(
                    &table,
                    &[Datum::Str("no".into()), Datum::Str("x".into()), Datum::Null]
                )
                .is_err());
                assert!(
                    check_row(&table, &[Datum::Int(1), Datum::Str("x".into()), Datum::Int(5)])
                        .is_ok(),
                    "int widens to float"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    fn install_index(c: &mut Catalog, sql: &str) {
        let parsed = parse(sql).unwrap();
        match plan_statement(c, &parsed).unwrap() {
            Plan::CreateIndex { table, .. } => c.install(table),
            other => panic!("{other:?}"),
        }
    }

    fn scan_of(p: Plan) -> (u64, ScanConstraint, Option<Expr>, Option<u64>) {
        match p {
            Plan::Query(PlanNode::Scan { index_id, constraint, filter, limit, .. }) => {
                (index_id, constraint, filter, limit)
            }
            other => panic!("expected bare scan: {other:?}"),
        }
    }

    #[test]
    fn range_only_secondary_index_chosen() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX price_idx ON item (i_price)");
        // A range predicate alone (no equality) must still admit the
        // secondary index: the span is bounded above, reading ~1/4 of
        // the index instead of the whole primary.
        let p = plan(&mut c, "SELECT * FROM item WHERE i_price < 100.0");
        let (index_id, constraint, filter, _) = scan_of(p);
        assert_ne!(index_id, PRIMARY_INDEX_ID, "range-only secondary seek");
        assert!(constraint.eq_prefix.is_empty());
        assert_eq!(constraint.upper.as_ref().map(|b| b.inclusive), Some(false));
        assert!(constraint.lower.is_none());
        assert!(filter.is_some(), "range conjunct stays in the residual");
    }

    #[test]
    fn literal_eq_conjunct_dropped_from_residual() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX name_idx ON item (i_name)");
        let p = plan(&mut c, "SELECT * FROM item WHERE i_name = 'widget'");
        let (index_id, constraint, filter, _) = scan_of(p);
        assert_ne!(index_id, PRIMARY_INDEX_ID);
        assert_eq!(constraint.eq_prefix.len(), 1);
        assert!(filter.is_none(), "span provably covers the literal equality");
    }

    #[test]
    fn param_eq_conjunct_kept_in_residual() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX name_idx ON item (i_name)");
        // A param may be NULL at execution: NULL encodes to a real key
        // byte, so the span would match stored NULLs. The residual
        // `i_name = NULL` evaluates to NULL (not true) and filters them.
        let p = plan(&mut c, "SELECT * FROM item WHERE i_name = $1");
        let (index_id, constraint, filter, _) = scan_of(p);
        assert_ne!(index_id, PRIMARY_INDEX_ID, "param still drives the span");
        assert_eq!(constraint.eq_prefix.len(), 1);
        assert!(filter.is_some(), "param equality stays in the residual");
    }

    #[test]
    fn null_literal_never_constrains_span() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX name_idx ON item (i_name)");
        // `= NULL` is never true; a span on the NULL key byte would
        // wrongly return stored NULLs, so no candidate may use it.
        let p = plan(&mut c, "SELECT * FROM item WHERE i_name = null");
        let (index_id, constraint, filter, _) = scan_of(p);
        assert_eq!(index_id, PRIMARY_INDEX_ID);
        assert!(constraint.eq_prefix.is_empty());
        assert!(filter.is_some());
    }

    #[test]
    fn int_literal_coerces_on_float_column() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX price_idx ON item (i_price)");
        // An INT literal against a FLOAT column must seek with the
        // FLOAT key encoding (the raw INT encoding misses every row).
        let p = plan(&mut c, "SELECT * FROM item WHERE i_price = 100");
        let (index_id, constraint, filter, _) = scan_of(p);
        assert_ne!(index_id, PRIMARY_INDEX_ID);
        assert_eq!(constraint.eq_prefix, vec![Expr::Literal(Datum::Float(100.0))]);
        assert!(filter.is_none(), "coerced literal is provably covered");
    }

    #[test]
    fn stats_override_default_index_choice() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX name_idx ON item (i_name)");
        let item_id = c.table("item").unwrap().id;
        let name_idx_id = c.table("item").unwrap().indexes[0].id;
        // Every row shares one i_name: the index seek reads the whole
        // table *plus* a PK lookup per row — worse than the full scan.
        let mut distinct = BTreeMap::new();
        distinct.insert(name_idx_id, vec![1]);
        c.install_stats(TableStatistics {
            table_id: item_id,
            row_count: 1000,
            avg_key_bytes: 16,
            avg_value_bytes: 32,
            distinct_prefixes: distinct,
            created_at_nanos: 0,
        });
        let p = plan(&mut c, "SELECT * FROM item WHERE i_name = 'widget'");
        let (index_id, _, filter, _) = scan_of(p);
        assert_eq!(index_id, PRIMARY_INDEX_ID, "stats demote the useless index");
        assert!(filter.is_some());
    }

    #[test]
    fn limit_pushdown_into_scan() {
        let mut c = catalog();
        let p = plan(&mut c, "SELECT * FROM item LIMIT 5");
        match p {
            Plan::Query(PlanNode::Limit { input, n: 5 }) => match *input {
                PlanNode::Scan { limit, filter, .. } => {
                    assert_eq!(limit, Some(5));
                    assert!(filter.is_none());
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // A residual filter blocks pushdown (the scan may need to read
        // more than n rows to produce n matches).
        let p = plan(&mut c, "SELECT * FROM item WHERE i_price > 1.0 LIMIT 5");
        match p {
            Plan::Query(PlanNode::Limit { input, n: 5 }) => {
                fn scan_limit(n: &PlanNode) -> Option<u64> {
                    match n {
                        PlanNode::Scan { limit, .. } => *limit,
                        PlanNode::Project { input, .. }
                        | PlanNode::Filter { input, .. }
                        | PlanNode::Sort { input, .. } => scan_limit(input),
                        _ => None,
                    }
                }
                assert_eq!(scan_limit(&input), None, "filter blocks pushdown");
            }
            other => panic!("{other:?}"),
        }
        // A sort blocks pushdown too.
        let p = plan(&mut c, "SELECT i_id FROM item ORDER BY i_name LIMIT 2");
        match p {
            Plan::Query(PlanNode::Limit { input, .. }) => {
                assert!(
                    !matches!(*input, PlanNode::Scan { limit: Some(_), .. }),
                    "sort blocks pushdown"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn force_full_scan_ignores_indexes() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX name_idx ON item (i_name)");
        c.set_force_full_scan(true);
        let p = plan(&mut c, "SELECT * FROM item WHERE i_name = 'widget'");
        let (index_id, constraint, filter, _) = scan_of(p);
        assert_eq!(index_id, PRIMARY_INDEX_ID);
        assert!(constraint.eq_prefix.is_empty());
        assert!(constraint.lower.is_none() && constraint.upper.is_none());
        assert!(filter.is_some(), "whole predicate is residual");
    }

    #[test]
    fn explain_is_deterministic_and_costed() {
        let mut c = catalog();
        install_index(&mut c, "CREATE INDEX price_idx ON item (i_price)");
        let sql = "EXPLAIN SELECT i_id FROM item WHERE i_price < 100.0";
        let a = match plan(&mut c, sql) {
            Plan::Explain { lines } => lines,
            other => panic!("{other:?}"),
        };
        let b = match plan(&mut c, sql) {
            Plan::Explain { lines } => lines,
            other => panic!("{other:?}"),
        };
        assert_eq!(a, b, "byte-identical across plannings");
        let text = a.join("\n");
        assert!(text.contains("price_idx"), "{text}");
        assert!(text.contains("cost="), "{text}");
        assert!(text.contains("est_rows="), "{text}");
    }

    #[test]
    fn planning_errors() {
        let mut c = catalog();
        assert_eq!(
            plan_statement(&mut c, &parse("SELECT * FROM missing").unwrap()),
            Err(SqlError::UnknownTable("missing".into()))
        );
        assert!(matches!(
            plan_statement(&mut c, &parse("SELECT nope FROM item").unwrap()),
            Err(SqlError::Plan(_))
        ));
        assert!(matches!(
            plan_statement(&mut c, &parse("SELECT i_price, COUNT(*) FROM item").unwrap()),
            Err(SqlError::Plan(_)),
        ));
    }
}
