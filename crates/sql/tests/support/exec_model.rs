//! The executor the product used to be, kept as the model the streaming
//! executor is checked against (`exec_differential.rs`).
//!
//! Everything here is deliberately naive. A transaction is two ordered
//! maps — what KV holds and what the transaction has buffered — and a scan
//! overlays one on the other through a third. Each operator runs over its
//! whole input and hands a `Vec<Row>` to the next: every fetched pair is
//! decoded in full, a filter copies the survivors, an aggregate builds a
//! key per row. No callbacks, no simulator: the model answers at once.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use bytes::Bytes;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::{constraint_span, datum_total_cmp, ExecStats, QueryOutput};
use crdb_sql::expr::Expr;
use crdb_sql::parser::AggFunc;
use crdb_sql::plan::{check_row, Plan, PlanNode};
use crdb_sql::rowcodec;
use crdb_sql::schema::{TableDescriptor, PRIMARY_INDEX_ID};
use crdb_sql::value::{ColumnType, Datum, Row};

/// One tenant's data as one open transaction sees it.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Committed pairs, by unprefixed user key.
    pub committed: BTreeMap<Bytes, Bytes>,
    /// The transaction's buffered writes (`None` = delete).
    pub writes: BTreeMap<Bytes, Option<Bytes>>,
}

impl Model {
    /// What a commit leaves in KV.
    pub fn after_commit(&self) -> BTreeMap<Bytes, Bytes> {
        let mut all = self.committed.clone();
        for (k, v) in &self.writes {
            match v {
                Some(v) => all.insert(k.clone(), v.clone()),
                None => all.remove(k),
            };
        }
        all
    }

    /// A point read: the buffer first, then KV.
    fn read(&self, key: &Bytes) -> Option<Bytes> {
        match self.writes.get(key) {
            Some(buffered) => buffered.clone(),
            None => self.committed.get(key).cloned(),
        }
    }

    /// A span read of up to `limit` pairs. KV is asked for `limit` plus
    /// one pair per buffered delete in the span (a delete may knock a
    /// returned pair out); its answer is overlaid with the buffer in a
    /// map, and the first `limit` survive.
    fn scan(&self, start: &Bytes, end: &Bytes, limit: usize) -> Vec<(Bytes, Bytes)> {
        let buffered = || self.writes.range(start.clone()..end.clone());
        let kv_limit = limit.saturating_add(buffered().filter(|(_, v)| v.is_none()).count());
        let mut merged: BTreeMap<Bytes, Bytes> = self
            .committed
            .range(start.clone()..end.clone())
            .take(kv_limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (k, v) in buffered() {
            match v {
                Some(v) => merged.insert(k.clone(), v.clone()),
                None => merged.remove(k),
            };
        }
        merged.into_iter().take(limit).collect()
    }

    /// Executes `plan`, buffering what it writes.
    pub fn execute(&mut self, plan: &Plan, params: &[Datum]) -> Result<QueryOutput, SqlError> {
        let mut stats = ExecStats::default();
        let (columns, rows, rows_affected) = match plan {
            Plan::Query(node) => (node.scope(), self.run_node(node, params, &mut stats)?, 0),
            Plan::Insert { table, rows } => {
                (Vec::new(), Vec::new(), self.insert(table, rows, params, &mut stats)?)
            }
            Plan::Update { scan, table, sets } => {
                (Vec::new(), Vec::new(), self.update(scan, table, sets, params, &mut stats)?)
            }
            Plan::Delete { scan, table } => {
                (Vec::new(), Vec::new(), self.delete(scan, table, params, &mut stats)?)
            }
            other => panic!("the model runs queries and DML, not {other:?}"),
        };
        Ok(QueryOutput { columns, rows, rows_affected, stats })
    }

    fn run_node(
        &self,
        node: &PlanNode,
        params: &[Datum],
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>, SqlError> {
        match node {
            PlanNode::Values { rows, .. } => rows
                .iter()
                .map(|exprs| exprs.iter().map(|e| eval(e, &[], params)).collect())
                .collect(),
            PlanNode::Scan { table, index_id, index_cols, constraint, filter, limit, .. } => {
                let span = constraint_span(table, *index_id, constraint, params)?;
                let rows = self.fetch_span(table, *index_id, index_cols.len(), span, *limit, stats);
                apply_filter(rows, filter.as_ref(), params)
            }
            PlanNode::Filter { input, predicate } => {
                apply_filter(self.run_node(input, params, stats)?, Some(predicate), params)
            }
            PlanNode::Project { input, exprs, .. } => self
                .run_node(input, params, stats)?
                .iter()
                .map(|row| exprs.iter().map(|e| eval(e, row, params)).collect())
                .collect(),
            PlanNode::LookupJoin { input, table, left_key_cols, residual, .. } => {
                let left_rows = self.run_node(input, params, stats)?;
                let mut joined = Vec::new();
                for left in left_rows {
                    let pk: Vec<Datum> = left_key_cols.iter().map(|&i| left[i].clone()).collect();
                    let key = rowcodec::primary_key_from_datums(table, &pk);
                    let Some(value) = self.read(&key) else { continue };
                    stats.rows_read += 1;
                    stats.bytes_read += (key.len() + value.len()) as u64;
                    let Some(right) = rowcodec::decode_row(table, &key, &value) else { continue };
                    let mut row = left;
                    row.extend(right);
                    joined.push(row);
                }
                apply_filter(joined, residual.as_ref(), params)
            }
            PlanNode::HashJoin { left, right, left_col, right_col, residual, .. } => {
                let lrows = self.run_node(left, params, stats)?;
                let rrows = self.run_node(right, params, stats)?;
                let mut joined = Vec::new();
                for l in &lrows {
                    for r in &rrows {
                        if l[*left_col].sql_eq(&r[*right_col]) {
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            joined.push(row);
                        }
                    }
                }
                apply_filter(joined, residual.as_ref(), params)
            }
            PlanNode::Aggregate { input, group, aggs, output_map, .. } => {
                aggregate(self.run_node(input, params, stats)?, group, aggs, output_map, params)
            }
            PlanNode::Sort { input, keys } => {
                let mut rows = self.run_node(input, params, stats)?;
                rows.sort_by(|a, b| {
                    for &(idx, desc) in keys {
                        let ord = datum_total_cmp(&a[idx], &b[idx]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                    Ordering::Equal
                });
                Ok(rows)
            }
            PlanNode::Limit { input, n } => {
                let mut rows = self.run_node(input, params, stats)?;
                rows.truncate(*n as usize);
                Ok(rows)
            }
        }
    }

    /// The rows of one index span; a secondary-index entry is resolved to
    /// its row by a point read of the primary key it names.
    fn fetch_span(
        &self,
        table: &TableDescriptor,
        index_id: u64,
        n_indexed: usize,
        (start, end): (Bytes, Bytes),
        limit: Option<u64>,
        stats: &mut ExecStats,
    ) -> Vec<Row> {
        let pairs = self.scan(&start, &end, limit.map_or(usize::MAX, |n| n as usize));
        let pairs: Vec<(Bytes, Bytes)> = if index_id == PRIMARY_INDEX_ID {
            pairs
        } else {
            pairs
                .iter()
                .filter_map(|(k, _)| rowcodec::decode_index_entry(table, index_id, n_indexed, k))
                .map(|pk| rowcodec::primary_key_from_datums(table, &pk))
                .filter_map(|key| self.read(&key).map(|value| (key, value)))
                .collect()
        };
        let mut rows = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            stats.rows_read += 1;
            stats.bytes_read += (k.len() + v.len()) as u64;
            rows.extend(rowcodec::decode_row(table, &k, &v));
        }
        rows
    }

    fn insert(
        &mut self,
        table: &TableDescriptor,
        row_exprs: &[Vec<Expr>],
        params: &[Datum],
        stats: &mut ExecStats,
    ) -> Result<u64, SqlError> {
        let mut rows = Vec::with_capacity(row_exprs.len());
        for exprs in row_exprs {
            let mut row: Row =
                exprs.iter().map(|e| eval(e, &[], params)).collect::<Result<_, _>>()?;
            widen_ints(table, &mut row);
            check_row(table, &row)?;
            rows.push(row);
        }
        let keys: Vec<Bytes> = rows.iter().map(|r| rowcodec::primary_key(table, r)).collect();
        if keys.iter().any(|k| self.read(k).is_some()) {
            return Err(SqlError::Constraint("duplicate primary key".into()));
        }
        for (row, key) in rows.iter().zip(keys) {
            let value = rowcodec::encode_row_value(table, row);
            stats.rows_written += 1;
            stats.bytes_written += (key.len() + value.len()) as u64;
            self.writes.insert(key, Some(value));
            for idx in &table.indexes {
                let entry = rowcodec::index_entry_key(table, idx.id, &idx.columns, row);
                stats.bytes_written += entry.len() as u64;
                self.writes.insert(entry, Some(Bytes::new()));
            }
        }
        Ok(rows.len() as u64)
    }

    fn update(
        &mut self,
        scan: &PlanNode,
        table: &TableDescriptor,
        sets: &[(usize, Expr)],
        params: &[Datum],
        stats: &mut ExecStats,
    ) -> Result<u64, SqlError> {
        // Every new row is computed and checked before the buffer is
        // touched: an error mid-statement leaves nothing behind.
        let mut updates: Vec<(Row, Row)> = Vec::new();
        for old in self.run_node(scan, params, stats)? {
            let mut new = old.clone();
            for (col, e) in sets {
                new[*col] = eval(e, &old, params)?;
            }
            widen_ints(table, &mut new);
            check_row(table, &new)?;
            updates.push((old, new));
        }
        // Every vacated key goes before any new row lands: `SET pk = pk + 1`
        // must not delete the row it has just written one key up.
        let entries = |row: &Row| -> Vec<Bytes> {
            let index_entry = |idx: &crdb_sql::schema::IndexDescriptor| {
                rowcodec::index_entry_key(table, idx.id, &idx.columns, row)
            };
            table.indexes.iter().map(index_entry).collect()
        };
        for (old, new) in &updates {
            let vacated = std::iter::once(rowcodec::primary_key(table, old)).chain(entries(old));
            let kept: Vec<Bytes> =
                std::iter::once(rowcodec::primary_key(table, new)).chain(entries(new)).collect();
            for (gone, stays) in vacated.zip(&kept) {
                if gone != *stays {
                    self.writes.insert(gone, None);
                }
            }
        }
        for (old, new) in &updates {
            let key = rowcodec::primary_key(table, new);
            let value = rowcodec::encode_row_value(table, new);
            stats.rows_written += 1;
            stats.bytes_written += (key.len() + value.len()) as u64;
            self.writes.insert(key, Some(value));
            for (was, is) in entries(old).into_iter().zip(entries(new)) {
                if was != is {
                    self.writes.insert(is, Some(Bytes::new()));
                }
            }
        }
        Ok(updates.len() as u64)
    }

    fn delete(
        &mut self,
        scan: &PlanNode,
        table: &TableDescriptor,
        params: &[Datum],
        stats: &mut ExecStats,
    ) -> Result<u64, SqlError> {
        let rows = self.run_node(scan, params, stats)?;
        for row in &rows {
            let key = rowcodec::primary_key(table, row);
            stats.rows_written += 1;
            stats.bytes_written += key.len() as u64;
            self.writes.insert(key, None);
            for idx in &table.indexes {
                let entry = rowcodec::index_entry_key(table, idx.id, &idx.columns, row);
                self.writes.insert(entry, None);
            }
        }
        Ok(rows.len() as u64)
    }
}

fn eval(e: &Expr, row: &[Datum], params: &[Datum]) -> Result<Datum, SqlError> {
    e.eval(row, params).map_err(SqlError::Eval)
}

/// Int values going into float columns widen.
fn widen_ints(table: &TableDescriptor, row: &mut Row) {
    for (col, d) in table.columns.iter().zip(row) {
        if let (ColumnType::Float, Datum::Int(v)) = (col.ty, &*d) {
            *d = Datum::Float(*v as f64);
        }
    }
}

/// The rows `filter` is true of, copied out.
pub fn apply_filter(
    rows: Vec<Row>,
    filter: Option<&Expr>,
    params: &[Datum],
) -> Result<Vec<Row>, SqlError> {
    let Some(f) = filter else { return Ok(rows) };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if eval(f, &row, params)?.is_true() {
            out.push(row);
        }
    }
    Ok(out)
}

#[derive(Clone)]
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

    fn fold(&mut self, d: Datum) {
        if d.is_null() {
            return;
        }
        self.count += 1;
        if let Some(v) = d.as_f64() {
            self.sum += v;
        }
        match d {
            Datum::Int(i) => self.sum_int = self.sum_int.wrapping_add(i),
            _ => self.all_int = false,
        }
        if self.min.as_ref().is_none_or(|m| datum_total_cmp(&d, m).is_lt()) {
            self.min = Some(d.clone());
        }
        if self.max.as_ref().is_none_or(|m| datum_total_cmp(&d, m).is_gt()) {
            self.max = Some(d);
        }
    }

    fn result(&self, func: AggFunc) -> Datum {
        let some = self.count > 0;
        match func {
            AggFunc::Count => Datum::Int(self.count as i64),
            AggFunc::Sum if some && self.all_int => Datum::Int(self.sum_int),
            AggFunc::Sum if some => Datum::Float(self.sum),
            AggFunc::Avg if some => Datum::Float(self.sum / self.count as f64),
            AggFunc::Sum | AggFunc::Avg => Datum::Null,
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
        }
    }
}

/// Grouped aggregation over rows in hand: a key vector per row, groups
/// kept sorted by [`datum_total_cmp`].
pub fn aggregate(
    rows: Vec<Row>,
    group: &[Expr],
    aggs: &[(AggFunc, Option<Expr>)],
    output_map: &[usize],
    params: &[Datum],
) -> Result<Vec<Row>, SqlError> {
    let mut groups: Vec<(Vec<Datum>, Vec<AggState>)> = Vec::new();
    for row in &rows {
        let key: Vec<Datum> =
            group.iter().map(|g| eval(g, row, params)).collect::<Result<_, _>>()?;
        let pos = groups.binary_search_by(|(k, _)| {
            let parts = k.iter().zip(&key).map(|(a, b)| datum_total_cmp(a, b));
            parts.fold(Ordering::Equal, Ordering::then)
        });
        let idx = pos.unwrap_or_else(|i| {
            groups.insert(i, (key, vec![AggState::new(); aggs.len()]));
            i
        });
        for ((_, arg), state) in aggs.iter().zip(&mut groups[idx].1) {
            match arg {
                None => state.count += 1,
                Some(e) => state.fold(eval(e, row, params)?),
            }
        }
    }
    // Global aggregation over zero rows still yields one output row.
    if groups.is_empty() && group.is_empty() {
        groups.push((Vec::new(), vec![AggState::new(); aggs.len()]));
    }
    let finish = |(key, states): (Vec<Datum>, Vec<AggState>)| {
        let results = aggs.iter().zip(&states).map(|((func, _), s)| s.result(*func));
        let full: Row = key.into_iter().chain(results).collect();
        output_map.iter().map(|&i| full[i].clone()).collect()
    };
    Ok(groups.into_iter().map(finish).collect())
}
