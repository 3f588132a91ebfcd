//! The SQL-side transaction coordinator.
//!
//! SQL statements buffer their writes in the coordinator; reads merge the
//! buffer over MVCC snapshots (read-your-writes). Nothing reaches KV
//! before commit, so a commit is the whole transaction in one batch —
//! `[RefreshSpan…, WriteIntent…, EndTxn{commit}]` — and which protocol
//! it takes is decided by where that batch's spans live, as the KV
//! client resolves them:
//!
//! - **One range** (every transaction on a tenant that has not split,
//!   and any whose reads and writes fall in one range): the KV client
//!   sends the batch as one RPC and the leaseholder evaluates it as a
//!   **one-phase commit** at the transaction's read timestamp, where its
//!   reads stand as they were served — unless a key it writes was read
//!   later by someone else, in which case the commit lands above that
//!   read and the refresh spans are checked up to there. Then committed
//!   versions are applied in one WAL batch per replica. One round trip,
//!   no intents, no transaction record (there is nothing for one to
//!   settle), nothing to resolve, nothing to clean up on failure.
//! - **Several ranges**: the client refuses the batch unsent
//!   ([`KvError::TxnSpansRanges`]) and the coordinator runs the staged
//!   protocol at the commit's send time: refreshes + intents as one
//!   batch (one RPC per range, in parallel; each range validates and
//!   writes its share in one evaluation, and marks the refreshed spans
//!   read at the send time), then `EndTxn` at the anchor range flips the
//!   transaction record — the commit point — then intents are resolved
//!   without waiting for the result.
//!
//! [`Txn`]'s reads and commit are `async fn`s that run in the statement's
//! task; intent cleanup and resolution run in a task of their own that
//! nobody waits for.
//!
//! Conflicts surface as retryable errors — the session layer re-runs the
//! transaction, which is also how the production system behaves under
//! `RETRY_SERIALIZABLE`. One commit outcome must never be re-run:
//! [`KvError::AmbiguousCommit`], a commit batch that reached its
//! leaseholder after the cluster could have forgotten whether the
//! transaction already committed. It surfaces as a plain
//! [`SqlError::Kv`], like an expired deadline.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::pin::pin;
use std::rc::Rc;

use bytes::Bytes;
use crdb_kv::batch::{BatchRequest, KvError, RequestKind, ResponseKind};
use crdb_kv::client::{make_txn_meta, KvClient};
use crdb_kv::keys as kvkeys;
use crdb_kv::txn::TxnMeta;
use crdb_obs::trace;
use crdb_sim::task;
use crdb_util::Deadline;

use crate::expr::EvalError;

/// SQL-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexing/parsing failure.
    Parse(String),
    /// Planning failure (unbound column, type mismatch, …).
    Plan(String),
    /// A statement names a table this node's catalog does not hold. Its
    /// own variant because `SqlNode` reacts to it: another node may have
    /// created the table since this one loaded its descriptors.
    UnknownTable(String),
    /// Runtime expression error.
    Eval(EvalError),
    /// KV-layer error (non-retryable).
    Kv(KvError),
    /// Serialization conflict: the transaction should be retried.
    Retry(String),
    /// Transient infrastructure failure (partition, crash, dark region):
    /// retryable like [`SqlError::Retry`], but kept distinct so upstream
    /// circuit breakers can tell an outage from workload contention.
    Unavailable,
    /// Constraint violation (duplicate primary key, null in non-null).
    Constraint(String),
    /// Session/transaction state misuse.
    State(String),
    /// A KV reply that does not answer its batch request for request
    /// (a count or a kind the batch did not ask for). Not retryable.
    Malformed(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Plan(m) => write!(f, "planning error: {m}"),
            SqlError::UnknownTable(t) => write!(f, "planning error: unknown table {t}"),
            SqlError::Eval(e) => write!(f, "evaluation error: {e}"),
            SqlError::Kv(e) => write!(f, "kv error: {e:?}"),
            SqlError::Retry(m) => write!(f, "restart transaction: {m}"),
            SqlError::Unavailable => write!(f, "restart transaction: kv unavailable"),
            SqlError::Constraint(m) => write!(f, "constraint violation: {m}"),
            SqlError::State(m) => write!(f, "invalid state: {m}"),
            SqlError::Malformed(m) => write!(f, "malformed kv reply: {m}"),
        }
    }
}

impl SqlError {
    /// Whether the enclosing transaction should be retried.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SqlError::Retry(_) | SqlError::Unavailable)
    }
}

fn map_kv_error(e: KvError) -> SqlError {
    match e {
        KvError::WriteTooOld { .. } => SqlError::Retry("write too old".into()),
        KvError::IntentConflict { other_txn } => {
            SqlError::Retry(format!("conflict with txn {other_txn}"))
        }
        KvError::TxnAborted => SqlError::Retry("transaction aborted".into()),
        KvError::SnapshotTooOld => SqlError::Retry("snapshot too old".into()),
        // Transient infrastructure failure (crash or partition): the
        // statement failed fast, but the transaction is retryable once
        // the fault clears or leases move.
        KvError::Unavailable => SqlError::Unavailable,
        // Deliberately NOT retryable: the caller's deadline has already
        // passed, so re-running the transaction can only waste work.
        KvError::DeadlineExceeded => SqlError::Kv(KvError::DeadlineExceeded),
        // Deliberately NOT retryable: the transaction may have committed,
        // and re-running it would then apply it twice.
        KvError::AmbiguousCommit => SqlError::Kv(KvError::AmbiguousCommit),
        other => SqlError::Kv(other),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Pending,
    Committed,
    Aborted,
}

struct TxnInner {
    client: KvClient,
    meta: TxnMeta,
    /// Buffered writes on *unprefixed* user keys (`None` = delete).
    writes: BTreeMap<Bytes, Option<Bytes>>,
    /// Read spans (unprefixed, half-open), validated at commit whenever
    /// the commit cannot happen at the read timestamp.
    reads: Vec<(Bytes, Bytes)>,
    state: TxnState,
    /// The caller's deadline, stamped onto every KV batch this
    /// transaction issues ([`Deadline::NONE`] when unbounded).
    deadline: Deadline,
    /// KV batches issued (stats for CPU accounting and eCPU features).
    pub kv_batches: u64,
}

fn point_span(key: &Bytes) -> (Bytes, Bytes) {
    let mut end = key.to_vec();
    end.push(0x00);
    (key.clone(), Bytes::from(end))
}

/// Lays a transaction's buffered writes over the pairs KV returned for the
/// same span, both in key order, and keeps the first `limit`: one merge
/// pass in which a buffered put replaces or adds a pair and a buffered
/// delete removes one. With nothing buffered the KV pairs pass through.
fn overlay<'a>(
    mut pairs: Vec<(Bytes, Bytes)>,
    buffered: impl Iterator<Item = (&'a Bytes, &'a Option<Bytes>)>,
    limit: usize,
) -> Vec<(Bytes, Bytes)> {
    let mut buffered = buffered.peekable();
    if buffered.peek().is_none() {
        pairs.truncate(limit);
        return pairs;
    }
    let mut merged = Vec::with_capacity(pairs.len().min(limit));
    let mut stored = pairs.into_iter().peekable();
    while merged.len() < limit {
        let order = match (stored.peek(), buffered.peek()) {
            (Some((k, _)), Some((b, _))) => k.cmp(b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        if order.is_lt() {
            merged.extend(stored.next());
            continue;
        }
        if order.is_eq() {
            // The transaction's own write wins over the stored pair.
            stored.next();
        }
        if let Some((k, Some(v))) = buffered.next() {
            merged.push((k.clone(), v.clone()));
        }
    }
    merged
}

/// A SQL transaction handle (cheap to clone).
#[derive(Clone)]
pub struct Txn {
    inner: Rc<RefCell<TxnInner>>,
}

impl Txn {
    /// Begins a transaction on `client`.
    pub fn begin(client: &KvClient) -> Txn {
        Txn::begin_with_deadline(client, Deadline::NONE)
    }

    /// Begins a transaction whose KV batches all carry `deadline` — the
    /// propagation point from the SQL layer into the KV client, which in
    /// turn refuses to schedule any retry past it.
    pub fn begin_with_deadline(client: &KvClient, deadline: Deadline) -> Txn {
        // The anchor is provisional until the first write is known.
        let meta = make_txn_meta(client.cluster(), Bytes::from_static(b""));
        Txn {
            inner: Rc::new(RefCell::new(TxnInner {
                client: client.clone(),
                meta,
                writes: BTreeMap::new(),
                reads: Vec::new(),
                state: TxnState::Pending,
                deadline,
                kv_batches: 0,
            })),
        }
    }

    fn tenant(&self) -> crdb_util::TenantId {
        self.inner.borrow().client.cert().tenant()
    }

    fn prefixed(&self, key: &[u8]) -> Bytes {
        kvkeys::make_key(self.tenant(), key)
    }

    /// Number of KV batches this transaction has issued.
    pub fn kv_batches(&self) -> u64 {
        self.inner.borrow().kv_batches
    }

    /// Buffers a put of an unprefixed user key.
    pub fn put(&self, key: Bytes, value: Bytes) {
        self.inner.borrow_mut().writes.insert(key, Some(value));
    }

    /// Buffers a delete.
    pub fn delete(&self, key: Bytes) {
        self.inner.borrow_mut().writes.insert(key, None);
    }

    /// Batched point reads at the transaction's snapshot, seeing buffered
    /// writes first: one KV batch of Gets (unprefixed keys); results align
    /// with the input keys.
    pub async fn read_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>, SqlError> {
        // A buffered write answers its key; the misses go to KV.
        let (buffered, misses): (Vec<Option<Option<Bytes>>>, Vec<Bytes>) = {
            let mut inner = self.inner.borrow_mut();
            let buffered: Vec<_> = keys.iter().map(|k| inner.writes.get(k).cloned()).collect();
            let misses: Vec<Bytes> = keys
                .iter()
                .zip(&buffered)
                .filter(|(_, b)| b.is_none())
                .map(|(k, _)| k.clone())
                .collect();
            inner.reads.extend(misses.iter().map(point_span));
            (buffered, misses)
        };
        if misses.is_empty() {
            return Ok(buffered.into_iter().flatten().collect());
        }
        let requests: Vec<RequestKind> =
            misses.iter().map(|key| RequestKind::Get { key: self.prefixed(key) }).collect();
        let sent = requests.len();
        let batch = self.batch(requests);
        let span = trace::child("txn.read");
        span.tag("keys", sent);
        let resp = trace::within(&span, pin!(self.client().send(batch))).await;
        span.end();
        if let Some(e) = resp.error {
            return Err(map_kv_error(e));
        }
        let values: Vec<Option<Bytes>> = resp
            .results
            .into_iter()
            .map_while(|r| match r {
                ResponseKind::Value(v) => Some(v),
                _ => None,
            })
            .collect();
        if values.len() != sent {
            let got = values.len();
            return Err(SqlError::Malformed(format!("{got} values answer {sent} gets")));
        }
        // Each key not buffered takes the next fetched value, in order.
        let mut fetched = values.into_iter();
        Ok(buffered.into_iter().map(|b| b.or_else(|| fetched.next()).flatten()).collect())
    }

    /// Scans `[start, end)` (unprefixed), overlaying buffered writes, and
    /// returns up to `limit` pairs.
    pub async fn scan(
        &self,
        start: Bytes,
        end: Bytes,
        limit: usize,
    ) -> Result<Vec<(Bytes, Bytes)>, SqlError> {
        self.inner.borrow_mut().reads.push((start.clone(), end.clone()));
        let tenant = self.tenant();
        let pstart = self.prefixed(&start);
        let pend = self.prefixed(&end);
        // Push the limit down to the KV layer. Buffered deletes in the
        // span may knock out returned pairs, so widen the KV limit by the
        // delete count to guarantee `limit` survivors when they exist;
        // buffered puts only ever add pairs, so they need no headroom.
        let kv_limit = if limit == usize::MAX {
            usize::MAX
        } else {
            let buffered_deletes = self
                .inner
                .borrow()
                .writes
                .range(start.clone()..end.clone())
                .filter(|(_, v)| v.is_none())
                .count();
            limit.saturating_add(buffered_deletes)
        };
        let batch =
            self.batch(vec![RequestKind::Scan { start: pstart, end: pend, limit: kv_limit }]);
        let span = trace::child("txn.scan");
        let resp = trace::within(&span, pin!(self.client().send(batch))).await;
        span.end();
        if let Some(e) = resp.error {
            return Err(map_kv_error(e));
        }
        // The KV keys lose their tenant prefix by slice, in place.
        let Some(ResponseKind::Pairs(mut pairs)) = resp.results.into_iter().next() else {
            return Err(SqlError::Malformed("a scan answered no pairs".into()));
        };
        pairs.retain_mut(|(k, _)| match kvkeys::strip_prefix(tenant, k) {
            Some(user) => {
                *k = user;
                true
            }
            None => false,
        });
        Ok(overlay(pairs, self.inner.borrow().writes.range(start..end), limit))
    }

    /// Commits: in one phase when every span of the transaction lives in
    /// one range, else intents → transaction record → resolution (see the
    /// module docs). Read-only transactions commit locally.
    pub async fn commit(&self) -> Result<(), SqlError> {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.state != TxnState::Pending {
                return Err(SqlError::State("transaction already finished".into()));
            }
            if inner.writes.is_empty() {
                inner.state = TxnState::Committed;
                return Ok(());
            }
        }
        let (mut meta, writes, reads) = {
            let inner = self.inner.borrow();
            (inner.meta.clone(), inner.writes.clone(), inner.reads.clone())
        };
        let intent_keys: Vec<Bytes> = writes.keys().map(|k| self.prefixed(k)).collect();
        meta.anchor_key = intent_keys.first().cloned().unwrap_or_default();
        // `write_ts` is when the commit was sent: what a leaseholder dates
        // a re-sent copy by, and the staged protocol's commit timestamp. A
        // one-phase commit's timestamp is the leaseholder's to pick.
        meta.write_ts = self.client().cluster().now_ts();
        self.inner.borrow_mut().meta = meta.clone();

        // Read refreshes first: a commit that cannot happen at the read
        // timestamp fails with a retryable error if anything this
        // transaction read changed after its snapshot. Each range
        // evaluates its refreshes and writes in one step at the
        // leaseholder.
        let mut steps: Vec<RequestKind> = reads
            .iter()
            .map(|(s0, e0)| RequestKind::RefreshSpan {
                start: self.prefixed(s0),
                end: self.prefixed(e0),
                since: meta.start_ts,
            })
            .collect();
        steps.extend(
            intent_keys
                .iter()
                .zip(writes.into_values())
                .map(|(key, value)| RequestKind::WriteIntent { key: key.clone(), value }),
        );

        let mut whole = steps.clone();
        whole.push(RequestKind::EndTxn { commit: true });
        let span = trace::child("txn.commit");
        span.tag("intents", intent_keys.len());
        let outcome = match self.send_in(&span.child("commit.end_txn"), whole).await {
            None => {
                span.tag("one_phase", true);
                Ok(())
            }
            Some(KvError::TxnSpansRanges) => self.commit_staged(steps, &intent_keys, &span).await,
            // Validation precedes application in a one-phase commit:
            // a failure left nothing behind to clean up.
            Some(e) => Err(map_kv_error(e)),
        };
        self.inner.borrow_mut().state =
            if outcome.is_ok() { TxnState::Committed } else { TxnState::Aborted };
        if outcome.is_err() {
            span.tag("error", true);
        }
        span.end();
        outcome
    }

    /// The staged protocol for a transaction whose spans live in several
    /// ranges: `steps` (refreshes + intents, one RPC per range), then
    /// `EndTxn` at the anchor range, then intent resolution, not awaited
    /// (readers that meet an intent first resolve it themselves from the
    /// transaction record). A failure cleans up whatever intents landed.
    async fn commit_staged(
        &self,
        steps: Vec<RequestKind>,
        intent_keys: &[Bytes],
        span: &trace::MaybeSpan,
    ) -> Result<(), SqlError> {
        let end_txn = vec![RequestKind::EndTxn { commit: true }];
        for (name, requests) in [("commit.intents", steps), ("commit.end_txn", end_txn)] {
            let step = span.child(name);
            if let Some(e) = self.send_in(&step, requests).await {
                // Best-effort cleanup of any intents that did land.
                self.cleanup_intents(intent_keys, None, step);
                return Err(map_kv_error(e));
            }
        }
        let commit_ts = self.inner.borrow().meta.write_ts;
        let resolve = span.child("commit.resolve");
        self.cleanup_intents(intent_keys, Some(commit_ts), resolve.clone());
        resolve.end();
        Ok(())
    }

    /// Sends `requests` as a batch of this transaction under `span`, and
    /// ends it: the batch's error, if it failed.
    async fn send_in(
        &self,
        span: &trace::MaybeSpan,
        requests: Vec<RequestKind>,
    ) -> Option<KvError> {
        let resp = trace::within(span, pin!(self.client().send(self.batch(requests)))).await;
        span.end();
        resp.error
    }

    /// The KV client this transaction sends through.
    fn client(&self) -> KvClient {
        self.inner.borrow().client.clone()
    }

    /// A batch of this transaction.
    fn batch(&self, requests: Vec<RequestKind>) -> BatchRequest {
        let mut inner = self.inner.borrow_mut();
        inner.kv_batches += 1;
        BatchRequest {
            tenant: inner.client.cert().tenant(),
            txn: inner.meta.clone(),
            deadline: inner.deadline,
            requests,
        }
    }

    /// Resolves the intents on `keys` (aborts them when `commit_ts` is
    /// `None`) in a task of its own, under `parent`: nobody waits for it.
    fn cleanup_intents(
        &self,
        keys: &[Bytes],
        commit_ts: Option<crdb_kv::Timestamp>,
        parent: trace::MaybeSpan,
    ) {
        let requests: Vec<RequestKind> =
            keys.iter().map(|k| RequestKind::ResolveIntent { key: k.clone(), commit_ts }).collect();
        if requests.is_empty() {
            return;
        }
        // Cleanup runs unbounded: resolving intents after an abort or
        // commit must not itself be abandoned mid-way by the caller's
        // deadline, or orphaned intents would block other transactions.
        let mut batch = self.batch(requests);
        batch.deadline = Deadline::NONE;
        let client = self.client();
        let sim = client.cluster().sim.clone();
        task::spawn(&sim, async move {
            drop(trace::within(&parent, pin!(client.send(batch))).await);
        });
    }

    /// Rolls the transaction back, discarding buffered writes.
    pub fn rollback(&self) -> Result<(), SqlError> {
        let mut inner = self.inner.borrow_mut();
        if inner.state != TxnState::Pending {
            return Err(SqlError::State("transaction already finished".into()));
        }
        inner.state = TxnState::Aborted;
        inner.writes.clear();
        // No intents exist before commit (writes are buffered), so local
        // cleanup suffices.
        Ok(())
    }

    /// Whether the transaction is still open.
    pub fn is_pending(&self) -> bool {
        self.inner.borrow().state == TxnState::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_errors_that_left_nothing_behind_are_retryable() {
        let restart = [
            KvError::WriteTooOld { existing: crdb_kv::Timestamp::ZERO },
            KvError::IntentConflict { other_txn: 7 },
            KvError::TxnAborted,
            KvError::SnapshotTooOld,
            KvError::Unavailable,
        ];
        for e in restart {
            assert!(map_kv_error(e.clone()).is_retryable(), "{e:?}");
        }
        // Re-running after a deadline wastes work; re-running a commit
        // that may have gone through applies it twice.
        for e in [KvError::DeadlineExceeded, KvError::AmbiguousCommit] {
            assert_eq!(map_kv_error(e.clone()), SqlError::Kv(e.clone()));
            assert!(!map_kv_error(e).is_retryable());
        }
    }
}
