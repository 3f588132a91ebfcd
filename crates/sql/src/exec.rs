//! The query executor.
//!
//! A plan runs as a *pipeline*: a source that owns the KV round trips, a
//! chain of operators, and a sink. The source is an `async fn` that
//! awaits a KV `scan` / `read_many` reply, and a join awaits its build
//! sides; between two replies everything is synchronous and row at a
//! time: a pair is decoded
//! into one reused row buffer (only the columns some operator above
//! reads), and pushed through `[Filter] → [Project] → sink` before the
//! next pair is looked at. Rows pile up only where the operator is its
//! pile: the result ([`Collect`]), a sort buffer, a join's build side.
//!
//! Scans fetch via KV spans; secondary-index scans and lookup joins batch
//! their primary-key lookups into single KV batches — the access patterns
//! whose costs the estimated-CPU model is built on. Every fetched pair is
//! counted in [`ExecStats`] whether or not a row comes of it.
//!
//! **Which error a statement reports** does not depend on the streaming:
//! it is the error of the operator nearest the data, on the first row
//! that fails there — what running each operator over its whole input in
//! turn would report. An operator therefore returns only its *own*
//! failure to its producer; a failure further down is parked in
//! [`Downstream`] while the operators nearer the data see the rest of
//! their input, and surfaces at `finish` if none of them failed.

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::rc::Rc;

use bytes::Bytes;

use crate::coord::{SqlError, Txn};
use crate::expr::Expr;
use crate::parser::AggFunc;
use crate::plan::{check_row, Plan, PlanNode, ScanConstraint};
use crate::rowcodec;
use crate::schema::{TableDescriptor, PRIMARY_INDEX_ID};
use crate::value::{Datum, Row};

/// Execution statistics, accumulated per statement for CPU accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Rows produced by scans and lookups.
    pub rows_read: u64,
    /// Bytes of keys+values fetched.
    pub bytes_read: u64,
    /// Rows written (insert/update/delete).
    pub rows_written: u64,
    /// Bytes of keys+values written.
    pub bytes_written: u64,
}

/// The result of executing a statement.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows (empty for DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML.
    pub rows_affected: u64,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// A total order over datums for sorting and grouping: NULL first, then
/// bools, then numerics (cross-type), then strings.
pub fn datum_total_cmp(a: &Datum, b: &Datum) -> Ordering {
    fn rank(d: &Datum) -> u8 {
        match d {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) | Datum::Float(_) => 2,
            Datum::Str(_) => 3,
        }
    }
    match (rank(a).cmp(&rank(b)), a, b) {
        (Ordering::Equal, Datum::Bool(x), Datum::Bool(y)) => x.cmp(y),
        (Ordering::Equal, Datum::Str(x), Datum::Str(y)) => x.cmp(y),
        (Ordering::Equal, Datum::Null, Datum::Null) => Ordering::Equal,
        (Ordering::Equal, x, y) => x.as_f64().partial_cmp(&y.as_f64()).unwrap_or(Ordering::Equal),
        (ord, _, _) => ord,
    }
}

/// Executes a plan, producing a [`QueryOutput`].
pub async fn execute(txn: &Txn, plan: Plan, params: Vec<Datum>) -> Result<QueryOutput, SqlError> {
    let cx = Cx { txn: txn.clone(), params: Rc::new(params), stats: Rc::default() };
    let (columns, rows, rows_affected) = match plan {
        Plan::Query(node) => {
            let columns = node.scope();
            (columns, run_node(&cx, node, None, Collect::sink()).await?, 0)
        }
        Plan::Insert { table, rows } => {
            (Vec::new(), Vec::new(), execute_insert(&cx, table, rows).await?)
        }
        Plan::Update { scan, table, sets } => {
            (Vec::new(), Vec::new(), execute_update(&cx, *scan, table, sets).await?)
        }
        Plan::Delete { scan, table } => {
            (Vec::new(), Vec::new(), execute_delete(&cx, *scan, table).await?)
        }
        other => {
            return Err(SqlError::State(format!(
                "plan {other:?} must be handled by the session layer"
            )))
        }
    };
    let stats = *cx.stats.borrow();
    Ok(QueryOutput { columns, rows, rows_affected, stats })
}

fn eval_bound(e: &Expr, params: &[Datum]) -> Result<Datum, SqlError> {
    e.eval(&[], params).map_err(SqlError::Eval)
}

/// The role a span datum plays, selecting the safe coercion direction.
#[derive(Clone, Copy)]
enum BoundKind {
    Eq,
    Lower,
    Upper,
}

/// Coerces an evaluated span datum to the key encoding of its column.
///
/// Key encodings are typed (an INT key byte never compares equal to a
/// FLOAT key byte), so a parameter of the "wrong" numeric type must be
/// re-typed or the span silently misses every row. Equality coerces
/// exactly where lossless; range bounds round toward the *superset*
/// (floor for lower, ceil for upper) — always safe because range
/// conjuncts stay in the residual filter.
fn coerce_span_datum(d: Datum, ct: crate::value::ColumnType, kind: BoundKind) -> Datum {
    use crate::value::ColumnType;
    match (ct, &d) {
        (ColumnType::Float, Datum::Int(i)) => Datum::Float(*i as f64),
        (ColumnType::Int, Datum::Float(f)) => match kind {
            // Lossless only: a fractional equality value keeps its FLOAT
            // encoding, yielding an empty span — correct, since no INT
            // row equals it.
            BoundKind::Eq if f.fract() == 0.0 && f.abs() < 9.0e18 => Datum::Int(*f as i64),
            BoundKind::Eq => d,
            BoundKind::Lower => Datum::Int(f.floor() as i64),
            BoundKind::Upper => Datum::Int(f.ceil() as i64),
        },
        _ => d,
    }
}

/// The column ordinals of an index, in index-key order.
fn index_ordinals(table: &TableDescriptor, index_id: u64) -> &[usize] {
    if index_id == PRIMARY_INDEX_ID {
        &table.primary_key
    } else {
        table.indexes.iter().find(|i| i.id == index_id).map(|i| i.columns.as_slice()).unwrap_or(&[])
    }
}

/// The KV span `[start, end)` a scan constraint covers under `params`.
pub fn constraint_span(
    table: &TableDescriptor,
    index_id: u64,
    c: &ScanConstraint,
    params: &[Datum],
) -> Result<(Bytes, Bytes), SqlError> {
    let ordinals = index_ordinals(table, index_id);
    let col_type =
        |pos: usize| ordinals.get(pos).and_then(|&o| table.columns.get(o)).map(|col| col.ty);
    let mut eq_datums = Vec::with_capacity(c.eq_prefix.len());
    for (pos, e) in c.eq_prefix.iter().enumerate() {
        let d = eval_bound(e, params)?;
        eq_datums.push(match col_type(pos) {
            Some(ct) => coerce_span_datum(d, ct, BoundKind::Eq),
            None => d,
        });
    }
    let prefix = rowcodec::key_with_prefix(table, index_id, &eq_datums);
    let mut start = prefix.clone();
    let mut end = rowcodec::prefix_span_end(&prefix);
    let range_type = col_type(eq_datums.len());
    if let Some(lower) = &c.lower {
        let d = eval_bound(&lower.expr, params)?;
        let d = match range_type {
            Some(ct) => coerce_span_datum(d, ct, BoundKind::Lower),
            None => d,
        };
        let mut datums = eq_datums.clone();
        datums.push(d);
        let key = rowcodec::key_with_prefix(table, index_id, &datums);
        start = if lower.inclusive { key } else { rowcodec::prefix_span_end(&key) };
    }
    if let Some(upper) = &c.upper {
        let d = eval_bound(&upper.expr, params)?;
        let d = match range_type {
            Some(ct) => coerce_span_datum(d, ct, BoundKind::Upper),
            None => d,
        };
        let mut datums = eq_datums;
        datums.push(d);
        let key = rowcodec::key_with_prefix(table, index_id, &datums);
        end = if upper.inclusive { rowcodec::prefix_span_end(&key) } else { key };
    }
    Ok((start, end))
}

/// What every stage of one statement's pipeline shares.
struct Cx {
    txn: Txn,
    params: Rc<Vec<Datum>>,
    stats: Rc<RefCell<ExecStats>>,
}

/// A consumer of rows: an operator with the rest of the pipeline behind
/// it, or the pipeline's end.
trait Sink {
    /// Takes one row. The buffer is the producer's, refilled for the next
    /// row: a sink that keeps the row takes it out (`mem::take`). `Err` is
    /// this operator's own failure on this row, and ends the input.
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError>;
    /// Ends the input — exhausted, or failed with `input`'s error — and
    /// returns the rows the pipeline's [`Collect`] holds, or the error
    /// that stands (module docs).
    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows;
}

/// What a pipeline ends with: every row it collected, or its error.
type Rows = Result<Vec<Row>, SqlError>;

/// Pushes `rows` into `sink` until one fails there, then finishes it.
fn feed(rows: impl IntoIterator<Item = Row>, mut sink: Box<dyn Sink>) -> Rows {
    for mut row in rows {
        if let Err(e) = sink.push(&mut row) {
            return sink.finish(Err(e));
        }
    }
    sink.finish(Ok(()))
}

/// The consumer behind an operator. Its failure is not the operator's:
/// it is parked here, nothing more is pushed, and the operator carries on
/// through its own input, because an error nearer the data outranks it
/// (module docs).
struct Downstream {
    next: Box<dyn Sink>,
    failed: Option<SqlError>,
}

impl Downstream {
    fn new(next: Box<dyn Sink>) -> Self {
        Downstream { next, failed: None }
    }

    fn push(&mut self, row: &mut Row) {
        if self.failed.is_none() {
            self.failed = self.next.push(row).err();
        }
    }

    fn finish(self, input: Result<(), SqlError>) -> Rows {
        self.next.finish(input.and(self.failed.map_or(Ok(()), Err)))
    }
}

/// The columns of a node's output that something above it reads, by
/// ordinal (short = the rest unread); `None`: all of them.
type Needed = Option<Vec<bool>>;

fn mark_column(needed: &mut Vec<bool>, i: usize) {
    if needed.len() <= i {
        needed.resize(i + 1, false);
    }
    if let Some(slot) = needed.get_mut(i) {
        *slot = true;
    }
}

fn mark_columns(needed: &mut Vec<bool>, e: &Expr) {
    match e {
        Expr::Column(i) => mark_column(needed, *i),
        Expr::Bin(_, l, r) => {
            mark_columns(needed, l);
            mark_columns(needed, r);
        }
        Expr::Not(e) => mark_columns(needed, e),
        Expr::Literal(_) | Expr::Name(_) | Expr::Param(_) => {}
    }
}

/// The columns `exprs` read, when they are all an operator passes on.
fn columns_of<'a>(exprs: impl IntoIterator<Item = &'a Expr>) -> Needed {
    let mut needed = Vec::new();
    for e in exprs {
        mark_columns(&mut needed, e);
    }
    Some(needed)
}

/// `needed`, when the operator in between reads `e`'s columns too.
fn also_reading(needed: Needed, e: &Expr) -> Needed {
    needed.map(|mut n| {
        mark_columns(&mut n, e);
        n
    })
}

/// Runs `node`, feeding its rows to `sink`; `needed` is what the sink and
/// everything behind it read of them. Each operator that passes rows on
/// becomes a sink in front of `sink`, down to the node whose rows it
/// passes on: a scan, literal rows or a join.
async fn run_node(
    cx: &Cx,
    mut node: PlanNode,
    mut needed: Needed,
    mut sink: Box<dyn Sink>,
) -> Rows {
    loop {
        let (input, needs, next): (_, _, Box<dyn Sink>) = match node {
            PlanNode::Filter { input, predicate } => {
                let needs = also_reading(needed, &predicate);
                (input, needs, Filter::before(&cx.params, predicate, sink))
            }
            PlanNode::Project { input, exprs, .. } => {
                let needs = columns_of(&exprs);
                let params = Rc::clone(&cx.params);
                let out = Downstream::new(sink);
                (input, needs, Box::new(Project { exprs, params, row: Row::new(), out }))
            }
            PlanNode::Aggregate { input, group, aggs, output_map, .. } => {
                let needs =
                    columns_of(group.iter().chain(aggs.iter().filter_map(|(_, e)| e.as_ref())));
                let aggregate = Aggregate {
                    group,
                    aggs,
                    output_map,
                    params: Rc::clone(&cx.params),
                    groups: Vec::new(),
                    computed: Vec::new(),
                    out: Downstream::new(sink),
                };
                (input, needs, Box::new(aggregate))
            }
            PlanNode::Sort { input, keys } => {
                let needs = needed.map(|mut n| {
                    keys.iter().for_each(|&(idx, _)| mark_column(&mut n, idx));
                    n
                });
                (
                    input,
                    needs,
                    Box::new(Sort { keys, rows: Vec::new(), out: Downstream::new(sink) }),
                )
            }
            PlanNode::Limit { input, n } => {
                (input, needed, Box::new(Limit { left: n, out: Downstream::new(sink) }))
            }
            source => return run_source(cx, source, needed, sink).await,
        };
        (node, needed, sink) = (*input, needs, next);
    }
}

/// Runs a node that produces rows of its own (see [`run_node`]).
async fn run_source(cx: &Cx, node: PlanNode, needed: Needed, sink: Box<dyn Sink>) -> Rows {
    match node {
        PlanNode::Scan { table, index_id, index_cols, constraint, filter, limit, .. } => {
            let span = match constraint_span(&table, index_id, &constraint, &cx.params) {
                Ok(s) => s,
                Err(e) => return sink.finish(Err(e)),
            };
            let (needed, sink) = match filter {
                Some(predicate) => {
                    (also_reading(needed, &predicate), Filter::before(&cx.params, predicate, sink))
                }
                None => (needed, sink),
            };
            fetch_span(cx, table, index_id, index_cols.len(), span, limit, needed, sink).await
        }
        PlanNode::LookupJoin { input, table, left_key_cols, residual, .. } => {
            let sink = match residual {
                Some(predicate) => Filter::before(&cx.params, predicate, sink),
                None => sink,
            };
            // The left rows are the build side; once they are all in, one
            // KV batch looks up the right table's row for each.
            let mut out = Downstream::new(sink);
            let left_rows = match Box::pin(run_node(cx, *input, None, Collect::sink())).await {
                Ok(rows) => rows,
                Err(e) => return out.finish(Err(e)),
            };
            let keys: Vec<Bytes> = left_rows
                .iter()
                .map(|row| {
                    let pk: Vec<Datum> =
                        left_key_cols.iter().map(|&i| rowcodec::column(row, i).clone()).collect();
                    rowcodec::primary_key_from_datums(&table, &pk)
                })
                .collect();
            let mut right = Decoder::new(cx, table, None);
            let values = match cx.txn.read_many(&keys).await {
                Ok(v) => v,
                Err(e) => return out.finish(Err(e)),
            };
            for ((mut row, value), key) in left_rows.into_iter().zip(values).zip(keys) {
                // Inner join: no match, no row.
                if value.is_some_and(|value| right.decode(&key, &value)) {
                    row.append(&mut right.row);
                    out.push(&mut row);
                }
            }
            out.finish(Ok(()))
        }
        PlanNode::HashJoin { left, right, left_col, right_col, residual, .. } => {
            let sink = match residual {
                Some(predicate) => Filter::before(&cx.params, predicate, sink),
                None => sink,
            };
            let mut out = Downstream::new(sink);
            // The build sides are collected, left then right; the joined
            // rows flow on one at a time.
            let lrows = match Box::pin(run_node(cx, *left, None, Collect::sink())).await {
                Ok(r) => r,
                Err(e) => return out.finish(Err(e)),
            };
            let rrows = match Box::pin(run_node(cx, *right, None, Collect::sink())).await {
                Ok(r) => r,
                Err(e) => return out.finish(Err(e)),
            };
            let mut joined = Row::new();
            for l in &lrows {
                let Some(lk) = l.get(left_col) else { continue };
                for r in &rrows {
                    if r.get(right_col).is_some_and(|rk| lk.sql_eq(rk)) {
                        joined.clear();
                        joined.extend(l.iter().chain(r).cloned());
                        out.push(&mut joined);
                    }
                }
            }
            out.finish(Ok(()))
        }
        // `Values`, and the operators `run_node` turns into sinks, which
        // never get here.
        other => {
            let PlanNode::Values { rows, .. } = other else {
                return Box::pin(run_node(cx, other, needed, sink)).await;
            };
            // Every row is evaluated before the first is pushed: this is
            // the operator nearest the data, so its error comes first.
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let mut row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    match e.eval(&[], &cx.params) {
                        Ok(d) => row.push(d),
                        Err(e) => return sink.finish(Err(SqlError::Eval(e))),
                    }
                }
                out.push(row);
            }
            feed(out, sink)
        }
    }
}

/// Decodes the fetched pairs of one table, one at a time, into one row.
struct Decoder {
    table: TableDescriptor,
    needed: Needed,
    stats: Rc<RefCell<ExecStats>>,
    row: Row,
}

impl Decoder {
    fn new(cx: &Cx, table: TableDescriptor, needed: Needed) -> Self {
        Decoder { table, needed, stats: Rc::clone(&cx.stats), row: Row::new() }
    }

    /// Counts a fetched pair and decodes it into `self.row`; `false` when
    /// the pair is no row of the table (counted all the same).
    fn decode(&mut self, key: &[u8], value: &[u8]) -> bool {
        {
            let mut stats = self.stats.borrow_mut();
            stats.rows_read += 1;
            stats.bytes_read += (key.len() + value.len()) as u64;
        }
        let needed = self.needed.as_deref();
        rowcodec::decode_row_into(&self.table, key, value, needed, &mut self.row)
    }

    /// Decodes each pair and pushes the row into `sink`, then finishes it.
    fn feed<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        mut self,
        pairs: impl IntoIterator<Item = (K, V)>,
        mut sink: Box<dyn Sink>,
    ) -> Rows {
        for (key, value) in pairs {
            if self.decode(key.as_ref(), value.as_ref()) {
                if let Err(e) = sink.push(&mut self.row) {
                    return sink.finish(Err(e));
                }
            }
        }
        sink.finish(Ok(()))
    }
}

/// Fetches the rows of one index span, resolving secondary-index entries
/// to full rows via batched PK lookups.
///
/// `limit` is the planner-pushed LIMIT: when set, at most that many KV
/// pairs (or index entries) are fetched, so `LIMIT n` on an unfiltered
/// scan reads ≤ n rows instead of the whole span.
#[expect(
    clippy::too_many_arguments,
    reason = "one span's whole fetch context; a struct would only rename the arguments"
)]
async fn fetch_span(
    cx: &Cx,
    table: TableDescriptor,
    index_id: u64,
    n_indexed: usize,
    span: (Bytes, Bytes),
    limit: Option<u64>,
    needed: Needed,
    sink: Box<dyn Sink>,
) -> Rows {
    let (start, end) = span;
    let max_pairs = limit.map_or(usize::MAX, |n| n as usize);
    let decoder = Decoder::new(cx, table, needed);
    let pairs = match cx.txn.scan(start, end, max_pairs).await {
        Ok(pairs) => pairs,
        Err(e) => return sink.finish(Err(e)),
    };
    if index_id == PRIMARY_INDEX_ID {
        return decoder.feed(pairs, sink);
    }
    // Secondary index: the scanned entries, then batched primary lookups.
    let mut keys = Vec::with_capacity(pairs.len());
    for (k, _) in &pairs {
        if let Some(pk) = rowcodec::decode_index_entry(&decoder.table, index_id, n_indexed, k) {
            keys.push(rowcodec::primary_key_from_datums(&decoder.table, &pk));
        }
    }
    match cx.txn.read_many(&keys).await {
        Ok(values) => {
            let found = keys.into_iter().zip(values).filter_map(|(k, v)| Some((k, v?)));
            decoder.feed(found, sink)
        }
        Err(e) => sink.finish(Err(e)),
    }
}

/// `WHERE`, a scan's residual filter, a join's residual `ON`.
struct Filter {
    predicate: Expr,
    params: Rc<Vec<Datum>>,
    out: Downstream,
}

impl Filter {
    /// The filter, in front of `sink`.
    fn before(params: &Rc<Vec<Datum>>, predicate: Expr, sink: Box<dyn Sink>) -> Box<dyn Sink> {
        Box::new(Filter { predicate, params: Rc::clone(params), out: Downstream::new(sink) })
    }
}

impl Sink for Filter {
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError> {
        if self.predicate.eval_ref(row, &self.params).map_err(SqlError::Eval)?.is_true() {
            self.out.push(row);
        }
        Ok(())
    }

    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows {
        self.out.finish(input)
    }
}

struct Project {
    exprs: Vec<Expr>,
    params: Rc<Vec<Datum>>,
    /// The projected row, refilled per input row.
    row: Row,
    out: Downstream,
}

impl Sink for Project {
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError> {
        self.row.clear();
        for e in &self.exprs {
            self.row.push(e.eval(row, &self.params).map_err(SqlError::Eval)?);
        }
        self.out.push(&mut self.row);
        Ok(())
    }

    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows {
        self.out.finish(input)
    }
}

/// `ORDER BY`: the sort buffer.
struct Sort {
    keys: Vec<(usize, bool)>,
    rows: Vec<Row>,
    out: Downstream,
}

impl Sink for Sort {
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError> {
        self.rows.push(std::mem::take(row));
        Ok(())
    }

    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows {
        let Sort { keys, mut rows, mut out } = *self;
        if input.is_ok() {
            rows.sort_by(|a, b| {
                for &(idx, desc) in &keys {
                    let ord = match (a.get(idx), b.get(idx)) {
                        (Some(x), Some(y)) => datum_total_cmp(x, y),
                        (x, y) => x.is_some().cmp(&y.is_some()),
                    };
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            for mut row in rows {
                out.push(&mut row);
            }
        }
        out.finish(input)
    }
}

/// `LIMIT` the planner could not push into the scan. The rows past it are
/// still produced — an error among them is still the statement's.
struct Limit {
    left: u64,
    out: Downstream,
}

impl Sink for Limit {
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError> {
        if self.left > 0 {
            self.left -= 1;
            self.out.push(row);
        }
        Ok(())
    }

    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows {
        self.out.finish(input)
    }
}

/// The end of a pipeline: the statement's result, a join's build side,
/// the rows a DML statement is about to rewrite. All or nothing.
#[derive(Default)]
struct Collect {
    rows: Vec<Row>,
}

impl Collect {
    fn sink() -> Box<dyn Sink> {
        Box::<Collect>::default()
    }
}

impl Sink for Collect {
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError> {
        self.rows.push(std::mem::take(row));
        Ok(())
    }

    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows {
        input.map(|()| self.rows)
    }
}

struct AggState {
    count: u64,
    sum: f64,
    sum_int: i64,
    all_int: bool,
    min: Option<Datum>,
    max: Option<Datum>,
}

impl AggState {
    fn new() -> Self {
        AggState { count: 0, sum: 0.0, sum_int: 0, all_int: true, min: None, max: None }
    }

    fn fold(&mut self, d: &Datum) {
        if d.is_null() {
            return;
        }
        self.count += 1;
        if let Some(v) = d.as_f64() {
            self.sum += v;
        }
        match d {
            Datum::Int(i) => self.sum_int = self.sum_int.wrapping_add(*i),
            _ => self.all_int = false,
        }
        let better_min = self.min.as_ref().is_none_or(|m| datum_total_cmp(d, m).is_lt());
        if better_min {
            self.min = Some(d.clone());
        }
        let better_max = self.max.as_ref().is_none_or(|m| datum_total_cmp(d, m).is_gt());
        if better_max {
            self.max = Some(d.clone());
        }
    }

    fn result(&self, func: AggFunc) -> Datum {
        match func {
            AggFunc::Count => Datum::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Datum::Null
                } else if self.all_int {
                    Datum::Int(self.sum_int)
                } else {
                    Datum::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
        }
    }
}

/// Grouped aggregation: each row is folded into its group as it arrives.
struct Aggregate {
    group: Vec<Expr>,
    aggs: Vec<(AggFunc, Option<Expr>)>,
    output_map: Vec<usize>,
    params: Rc<Vec<Datum>>,
    /// Groups keyed by evaluated group datums, kept in sorted order.
    groups: Vec<(Vec<Datum>, Vec<AggState>)>,
    /// The current row's group expressions, as far as they had to be
    /// computed: `None` where the row (or a literal or parameter) lends
    /// the value.
    computed: Vec<Option<Datum>>,
    out: Downstream,
}

/// One part of the current row's group key: compared where it lies, and
/// copied only into a group that does not exist yet.
fn group_part<'a>(
    e: &'a Expr,
    computed: &'a Option<Datum>,
    row: &'a [Datum],
    params: &'a [Datum],
) -> &'a Datum {
    match (computed, e.eval_ref(row, params)) {
        (Some(d), _) | (None, Ok(Cow::Borrowed(d))) => d,
        // Not reached: a part is lent exactly when it was not computed.
        (None, _) => &Datum::Null,
    }
}

impl Sink for Aggregate {
    fn push(&mut self, row: &mut Row) -> Result<(), SqlError> {
        let Aggregate { group, aggs, params, groups, computed, .. } = self;
        let (row, params) = (row.as_slice(), params.as_slice());
        computed.clear();
        for g in group.iter() {
            computed.push(match g.eval_ref(row, params).map_err(SqlError::Eval)? {
                Cow::Owned(d) => Some(d),
                Cow::Borrowed(_) => None,
            });
        }
        let parts =
            || group.iter().zip(computed.iter()).map(|(e, c)| group_part(e, c, row, params));
        let pos = groups.binary_search_by(|(k, _)| {
            k.iter()
                .zip(parts())
                .map(|(a, b)| datum_total_cmp(a, b))
                .find(|ord| ord.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        let idx = match pos {
            Ok(i) => i,
            Err(i) => {
                let key = parts().cloned().collect();
                groups.insert(i, (key, aggs.iter().map(|_| AggState::new()).collect()));
                i
            }
        };
        let Some((_, states)) = groups.get_mut(idx) else { return Ok(()) };
        for ((func, arg), state) in aggs.iter().zip(states.iter_mut()) {
            match arg {
                None => {
                    debug_assert_eq!(*func, AggFunc::Count);
                    state.count += 1;
                }
                Some(e) => state.fold(e.eval_ref(row, params).map_err(SqlError::Eval)?.as_ref()),
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>, input: Result<(), SqlError>) -> Rows {
        let Aggregate { group, aggs, output_map, mut groups, mut out, .. } = *self;
        if input.is_ok() {
            // Global aggregation over zero rows still yields one output row.
            if groups.is_empty() && group.is_empty() {
                groups.push((Vec::new(), aggs.iter().map(|_| AggState::new()).collect()));
            }
            for (key, states) in groups {
                let mut full: Row = key;
                for ((func, _), state) in aggs.iter().zip(&states) {
                    full.push(state.result(*func));
                }
                let mut row: Row =
                    output_map.iter().map(|&i| rowcodec::column(&full, i).clone()).collect();
                out.push(&mut row);
            }
        }
        out.finish(input)
    }
}

/// Writes the evaluated rows, unless a primary key is taken: the rows
/// written.
async fn execute_insert(
    cx: &Cx,
    table: TableDescriptor,
    row_exprs: Vec<Vec<Expr>>,
) -> Result<u64, SqlError> {
    // Evaluate and validate all rows first.
    let mut rows = Vec::with_capacity(row_exprs.len());
    for exprs in &row_exprs {
        let mut row = Vec::with_capacity(exprs.len());
        for e in exprs {
            row.push(e.eval(&[], &cx.params).map_err(SqlError::Eval)?);
        }
        // Int literals going into float columns widen.
        for (col, d) in table.columns.iter().zip(row.iter_mut()) {
            if col.ty == crate::value::ColumnType::Float {
                if let Datum::Int(v) = *d {
                    *d = Datum::Float(v as f64);
                }
            }
        }
        check_row(&table, &row)?;
        rows.push(row);
    }
    // Uniqueness check on primary keys.
    let pk_keys: Vec<Bytes> = rows.iter().map(|r| rowcodec::primary_key(&table, r)).collect();
    let existing = cx.txn.read_many(&pk_keys).await?;
    if existing.iter().any(|v| v.is_some()) {
        return Err(SqlError::Constraint("duplicate primary key".into()));
    }
    let mut stats = cx.stats.borrow_mut();
    for (row, key) in rows.iter().zip(pk_keys) {
        let value = rowcodec::encode_row_value(&table, row);
        stats.rows_written += 1;
        stats.bytes_written += (key.len() + value.len()) as u64;
        cx.txn.put(key, value);
        for idx in &table.indexes {
            let ikey = rowcodec::index_entry_key(&table, idx.id, &idx.columns, row);
            stats.bytes_written += ikey.len() as u64;
            cx.txn.put(ikey, Bytes::new());
        }
    }
    Ok(rows.len() as u64)
}

/// Rewrites the rows `scan` finds: the rows updated.
async fn execute_update(
    cx: &Cx,
    scan: PlanNode,
    table: TableDescriptor,
    sets: Vec<(usize, Expr)>,
) -> Result<u64, SqlError> {
    let rows = run_node(cx, scan, None, Collect::sink()).await?;
    // Phase 1: evaluate and validate every row before touching the
    // write buffer, so an error mid-statement leaves nothing behind.
    let mut updates: Vec<(Row, Row)> = Vec::with_capacity(rows.len());
    for old in rows {
        let mut new = old.clone();
        for (col, e) in &sets {
            let mut d = e.eval(&old, &cx.params).map_err(SqlError::Eval)?;
            let float = crate::value::ColumnType::Float;
            if table.columns.get(*col).is_some_and(|c| c.ty == float) {
                if let Datum::Int(v) = d {
                    d = Datum::Float(v as f64);
                }
            }
            if let Some(slot) = new.get_mut(*col) {
                *slot = d;
            }
        }
        check_row(&table, &new)?;
        updates.push((old, new));
    }
    // Phase 2: delete all vacated keys, THEN write all new rows.
    // Interleaving delete+put per row is wrong when the UPDATE
    // changes the primary key: `SET pk = pk + 1` over pks 1..n
    // would clobber row k+1's freshly-written value with row k's
    // delete-then-put sequence.
    let txn = &cx.txn;
    for (old, new) in &updates {
        let old_key = rowcodec::primary_key(&table, old);
        let new_key = rowcodec::primary_key(&table, new);
        if old_key != new_key {
            txn.delete(old_key);
        }
        for idx in &table.indexes {
            let old_entry = rowcodec::index_entry_key(&table, idx.id, &idx.columns, old);
            let new_entry = rowcodec::index_entry_key(&table, idx.id, &idx.columns, new);
            if old_entry != new_entry {
                txn.delete(old_entry);
            }
        }
    }
    let mut stats = cx.stats.borrow_mut();
    for (old, new) in &updates {
        let new_key = rowcodec::primary_key(&table, new);
        let value = rowcodec::encode_row_value(&table, new);
        stats.rows_written += 1;
        stats.bytes_written += (new_key.len() + value.len()) as u64;
        txn.put(new_key, value);
        for idx in &table.indexes {
            let old_entry = rowcodec::index_entry_key(&table, idx.id, &idx.columns, old);
            let new_entry = rowcodec::index_entry_key(&table, idx.id, &idx.columns, new);
            if old_entry != new_entry {
                txn.put(new_entry, Bytes::new());
            }
        }
    }
    Ok(updates.len() as u64)
}

/// Deletes the rows `scan` finds: the rows deleted.
async fn execute_delete(cx: &Cx, scan: PlanNode, table: TableDescriptor) -> Result<u64, SqlError> {
    let rows = run_node(cx, scan, None, Collect::sink()).await?;
    let mut stats = cx.stats.borrow_mut();
    for row in &rows {
        let key = rowcodec::primary_key(&table, row);
        stats.rows_written += 1;
        stats.bytes_written += key.len() as u64;
        cx.txn.delete(key);
        for idx in &table.indexes {
            cx.txn.delete(rowcodec::index_entry_key(&table, idx.id, &idx.columns, row));
        }
    }
    Ok(rows.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_over_datums() {
        let mut v = vec![
            Datum::Str("b".into()),
            Datum::Int(5),
            Datum::Null,
            Datum::Float(2.5),
            Datum::Bool(true),
            Datum::Str("a".into()),
        ];
        v.sort_by(datum_total_cmp);
        assert_eq!(
            v,
            vec![
                Datum::Null,
                Datum::Bool(true),
                Datum::Float(2.5),
                Datum::Int(5),
                Datum::Str("a".into()),
                Datum::Str("b".into()),
            ]
        );
    }

    #[test]
    fn agg_state_results() {
        let mut s = AggState::new();
        for i in [1i64, 2, 3] {
            s.fold(&Datum::Int(i));
        }
        assert_eq!(s.result(AggFunc::Count), Datum::Int(3));
        assert_eq!(s.result(AggFunc::Sum), Datum::Int(6));
        assert_eq!(s.result(AggFunc::Avg), Datum::Float(2.0));
        assert_eq!(s.result(AggFunc::Min), Datum::Int(1));
        assert_eq!(s.result(AggFunc::Max), Datum::Int(3));
        // Nulls ignored; empty aggregates.
        let empty = AggState::new();
        assert_eq!(empty.result(AggFunc::Sum), Datum::Null);
        assert_eq!(empty.result(AggFunc::Count), Datum::Int(0));
        let mut mixed = AggState::new();
        mixed.fold(&Datum::Int(1));
        mixed.fold(&Datum::Float(0.5));
        assert_eq!(mixed.result(AggFunc::Sum), Datum::Float(1.5));
    }

    /// Streams `rows` through an [`Aggregate`] into a [`Collect`].
    fn aggregated(
        rows: Vec<Row>,
        group: Vec<Expr>,
        aggs: Vec<(AggFunc, Option<Expr>)>,
        output_map: Vec<usize>,
    ) -> Rows {
        let aggregate = Aggregate {
            group,
            aggs,
            output_map,
            params: Rc::new(Vec::new()),
            groups: Vec::new(),
            computed: Vec::new(),
            out: Downstream::new(Collect::sink()),
        };
        feed(rows, Box::new(aggregate))
    }

    #[test]
    fn aggregate_groups_rows() {
        let rows = vec![
            vec![Datum::Int(1), Datum::Int(10)],
            vec![Datum::Int(2), Datum::Int(20)],
            vec![Datum::Int(1), Datum::Int(5)],
        ];
        let group = vec![Expr::Column(0)];
        let aggs = vec![(AggFunc::Sum, Some(Expr::Column(1)))];
        let out = aggregated(rows, group, aggs, vec![0, 1]).unwrap();
        assert_eq!(
            out,
            vec![vec![Datum::Int(1), Datum::Int(15)], vec![Datum::Int(2), Datum::Int(20)],]
        );
    }

    #[test]
    fn global_aggregate_over_no_rows() {
        let out = aggregated(vec![], vec![], vec![(AggFunc::Count, None)], vec![0]).unwrap();
        assert_eq!(out, vec![vec![Datum::Int(0)]]);
    }

    #[test]
    fn the_error_nearest_the_data_wins_whatever_row_it_is_on() {
        // Row 1 fails in the projection, row 2 in the filter below it: the
        // filter's error is the statement's, as if the filter had run over
        // every row before the projection saw one.
        let div = |l: Expr, r: Expr| Expr::Bin(crate::expr::BinOp::Div, Box::new(l), Box::new(r));
        let rows = vec![
            vec![Datum::Int(1), Datum::Int(0)],
            vec![Datum::Str("x".into()), Datum::Int(1)],
            vec![Datum::Int(1), Datum::Int(1)],
        ];
        let run = |rows: Vec<Row>| {
            let params = Rc::new(Vec::new());
            let project = Project {
                exprs: vec![div(Expr::Literal(Datum::Int(1)), Expr::Column(1))],
                params: Rc::clone(&params),
                row: Row::new(),
                out: Downstream::new(Collect::sink()),
            };
            let predicate = Expr::Bin(
                crate::expr::BinOp::Gt,
                Box::new(div(Expr::Column(0), Expr::Literal(Datum::Int(1)))),
                Box::new(Expr::Literal(Datum::Int(0))),
            );
            let filter = Filter::before(&params, predicate, Box::new(project));
            feed(rows, filter)
        };
        use crate::expr::EvalError;
        assert_eq!(run(rows.clone()), Err(SqlError::Eval(EvalError::TypeMismatch("arith"))));
        // Without the row the filter fails on, the projection's error
        // surfaces — and no partial output with it.
        assert_eq!(
            run(vec![rows[0].clone(), rows[2].clone()]),
            Err(SqlError::Eval(EvalError::DivisionByZero))
        );
        assert_eq!(run(vec![rows[2].clone()]), Ok(vec![vec![Datum::Float(1.0)]]));
    }
}
