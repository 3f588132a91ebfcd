//! The KV batch API (§3.1).
//!
//! "Each SQL query is translated into a batched sequence of lower-level KV
//! requests like GET, PUT, and DELETE." Here a GET is [`RequestKind::Get`]
//! (or a [`RequestKind::Scan`]); a PUT or DELETE is a
//! [`RequestKind::WriteIntent`] with or without a value, committed by an
//! [`RequestKind::EndTxn`]. Every write belongs to a transaction: a lone
//! write is a one-key transaction whose batch carries both, and commits in
//! one phase in one round trip. Every read belongs to one too: it is served
//! at its transaction's start timestamp. A [`BatchRequest`] carries the
//! tenant identity (checked at the security boundary), its transaction,
//! and a list of requests that must all target one tenant's keyspace.
//! Batches are the unit of admission control and of the estimated-CPU
//! feature extraction.

use bytes::Bytes;
use crdb_util::{Deadline, TenantId};

use crate::directory::RangeInfo;
use crate::hlc::Timestamp;
use crate::txn::TxnMeta;

/// One request within a batch.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Point read of `key` at the transaction's start timestamp.
    Get {
        /// Tenant-prefixed key.
        key: Bytes,
    },
    /// Ordered scan of `[start, end)` returning at most `limit` pairs.
    Scan {
        /// Span start (tenant-prefixed).
        start: Bytes,
        /// Span end (exclusive).
        end: Bytes,
        /// Maximum pairs to return.
        limit: usize,
    },
    /// Provisional write of the batch's transaction; `None` deletes.
    WriteIntent {
        /// Tenant-prefixed key.
        key: Bytes,
        /// Provisional value (`None` = delete).
        value: Option<Bytes>,
    },
    /// Finalizes the batch's transaction (anchor range holds the record).
    EndTxn {
        /// Commit (true) or roll back (false).
        commit: bool,
    },
    /// Commit-time read validation: fails if anything in the span changed
    /// after `since` (committed version or foreign intent).
    RefreshSpan {
        /// Span start (tenant-prefixed).
        start: Bytes,
        /// Span end (exclusive).
        end: Bytes,
        /// The reader's snapshot timestamp.
        since: Timestamp,
    },
    /// Resolves a previously written intent after its transaction
    /// finalized. `commit_ts = None` discards the intent (abort).
    ResolveIntent {
        /// Tenant-prefixed key.
        key: Bytes,
        /// Commit timestamp, or `None` on abort.
        commit_ts: Option<Timestamp>,
    },
}

impl RequestKind {
    /// Whether this request mutates state (routes through the write queue).
    pub fn is_write(&self) -> bool {
        !matches!(
            self,
            RequestKind::Get { .. } | RequestKind::Scan { .. } | RequestKind::RefreshSpan { .. }
        )
    }

    /// Whether this is one of the requests a transaction commits with:
    /// a read refresh, a write, or `EndTxn{commit}`.
    pub fn is_commit_step(&self) -> bool {
        matches!(
            self,
            RequestKind::RefreshSpan { .. }
                | RequestKind::WriteIntent { .. }
                | RequestKind::EndTxn { commit: true }
        )
    }

    /// Approximate payload bytes carried by the request.
    pub fn payload_bytes(&self) -> usize {
        match self {
            RequestKind::Get { key } => key.len(),
            RequestKind::Scan { start, end, .. } | RequestKind::RefreshSpan { start, end, .. } => {
                start.len() + end.len()
            }
            RequestKind::WriteIntent { key, value } => {
                key.len() + value.as_ref().map_or(0, |v| v.len())
            }
            RequestKind::EndTxn { .. } => 16,
            RequestKind::ResolveIntent { key, .. } => key.len(),
        }
    }

    /// The keys this request addresses: its key (the span start for span
    /// requests) and, for span requests, the exclusive span end. `None`
    /// for `EndTxn`, which addresses its transaction's anchor key (see
    /// [`BatchRequest::routing_span`]).
    pub fn span(&self) -> Option<(&Bytes, Option<&Bytes>)> {
        match self {
            RequestKind::Get { key }
            | RequestKind::WriteIntent { key, .. }
            | RequestKind::ResolveIntent { key, .. } => Some((key, None)),
            RequestKind::Scan { start, end, .. } | RequestKind::RefreshSpan { start, end, .. } => {
                Some((start, Some(end)))
            }
            RequestKind::EndTxn { .. } => None,
        }
    }

    /// Splits a span request at `at`, a range boundary strictly inside
    /// its span, into the part below `at` and the part from `at` on.
    /// `None` for point requests and for spans that do not cross `at`.
    /// A scan's halves both keep the full limit: either range might
    /// satisfy it alone, so the merged result is truncated again.
    pub fn split_at(&self, at: &Bytes) -> Option<(RequestKind, RequestKind)> {
        let (start, end) = match self.span() {
            Some((start, Some(end))) if start < at && at < end => (start.clone(), end.clone()),
            _ => return None,
        };
        match self {
            RequestKind::Scan { limit, .. } => Some((
                RequestKind::Scan { start, end: at.clone(), limit: *limit },
                RequestKind::Scan { start: at.clone(), end, limit: *limit },
            )),
            RequestKind::RefreshSpan { since, .. } => Some((
                RequestKind::RefreshSpan { start, end: at.clone(), since: *since },
                RequestKind::RefreshSpan { start: at.clone(), end, since: *since },
            )),
            _ => None,
        }
    }
}

/// A batch of KV requests from one tenant.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The issuing tenant (must match the presented certificate).
    pub tenant: TenantId,
    /// The transaction the batch belongs to. Its start timestamp is the
    /// snapshot every read of the batch is served at.
    pub txn: TxnMeta,
    /// The originating caller's deadline, propagated proxy → SQL
    /// coordinator → KV client → node. No layer below may schedule a
    /// retry past it; [`Deadline::NONE`] means unbounded.
    pub deadline: Deadline,
    /// The requests, executed in order.
    pub requests: Vec<RequestKind>,
}

impl BatchRequest {
    /// The keys `req` (one of this batch's requests) routes by: its own
    /// span, or the transaction's anchor key for `EndTxn`.
    pub fn routing_span<'a>(&'a self, req: &'a RequestKind) -> (&'a Bytes, Option<&'a Bytes>) {
        req.span().unwrap_or((&self.txn.anchor_key, None))
    }

    /// Whether the batch is a whole transaction commit in one round trip:
    /// nothing but commit steps, among them at least one write and the
    /// `EndTxn{commit}`. The KV client sends such a batch only when all
    /// of it lands on one range, where the leaseholder evaluates it as a
    /// one-phase commit.
    pub fn is_one_phase_commit(&self) -> bool {
        self.requests.iter().all(RequestKind::is_commit_step)
            && self.requests.iter().any(|r| matches!(r, RequestKind::EndTxn { .. }))
            && self.requests.iter().any(|r| matches!(r, RequestKind::WriteIntent { .. }))
    }

    /// Whether any request in the batch writes.
    pub fn is_write(&self) -> bool {
        self.requests.iter().any(|r| r.is_write())
    }

    /// Total payload bytes across requests.
    pub fn payload_bytes(&self) -> usize {
        self.requests.iter().map(|r| r.payload_bytes()).sum()
    }
}

/// Per-request response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseKind {
    /// Point-read result.
    Value(Option<Bytes>),
    /// Scan result: tenant-prefixed keys and values.
    Pairs(Vec<(Bytes, Bytes)>),
    /// Write acknowledged.
    Ok,
}

/// Batch-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum KvError {
    /// Request targeted a key outside the authenticated tenant's keyspace.
    Unauthorized,
    /// The receiving node does not hold the lease of the range the batch
    /// addresses; retry at the leaseholder named in the carried
    /// authoritative range info (mirrors CockroachDB's
    /// NotLeaseHolderError redirect).
    NotLeaseholder(RangeInfo),
    /// A request of the batch addresses keys outside the range that holds
    /// the batch's first key (the sender's descriptor is stale: the range
    /// has split). Nothing was evaluated; carries that range's
    /// authoritative info (mirrors CockroachDB's RangeKeyMismatchError).
    RangeKeyMismatch(RangeInfo),
    /// Refused by the KV client before anything was sent: the batch
    /// carries `EndTxn` alongside other requests, which commits in one
    /// phase and therefore must land on one range, but its spans resolve
    /// to several. The coordinator falls back to the staged protocol.
    TxnSpansRanges,
    /// No range contains the requested key (stale directory cache).
    RangeNotFound,
    /// A write ran into a newer committed value; the transaction must
    /// restart at a higher timestamp.
    WriteTooOld {
        /// The conflicting committed timestamp.
        existing: Timestamp,
    },
    /// A read or write ran into another transaction's intent.
    IntentConflict {
        /// The other transaction.
        other_txn: u64,
    },
    /// The batch's transaction was aborted (e.g. by a conflicting pusher).
    TxnAborted,
    /// A read arrived so long after its snapshot was taken — queued, or
    /// sent again after a lost reply — that MVCC garbage collection may
    /// have taken the versions it should return (a newer version of a key
    /// it reads is already past the GC horizon). The transaction must
    /// restart at a fresh timestamp.
    SnapshotTooOld,
    /// The operation waited past its deadline in admission queues.
    AdmissionTimeout,
    /// The node is shutting down or dead.
    NodeUnavailable,
    /// Fail-fast terminal error: the target is unreachable (network
    /// partition) or every bounded retry found no live route. Unlike
    /// [`KvError::NodeUnavailable`] — a per-hop condition the client
    /// retries internally — this is the typed error surfaced to callers
    /// instead of hanging or retrying forever.
    Unavailable,
    /// Terminal: the batch's propagated deadline expired (or the next
    /// retry would land past it). Never retried at any layer.
    DeadlineExceeded,
    /// Terminal: the transaction may have committed, and nothing can say.
    /// Either the KV client gave up on a commit batch after a copy of it
    /// went unanswered (the node that never replied may have applied it),
    /// or a copy reached the leaseholder so long after its transaction
    /// stamped it that the status table may have forgotten the outcome
    /// and no persisted record settles it — a one-phase commit leaves
    /// none — so it was refused unevaluated. Nothing may run the
    /// transaction again: if it did commit, that would apply it twice.
    AmbiguousCommit,
}

/// The outcome of a batch.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// Per-request results (aligned with the request vector) on success.
    pub results: Vec<ResponseKind>,
    /// Error, if the batch failed as a unit.
    pub error: Option<KvError>,
    /// Total response payload bytes (for egress accounting).
    pub response_bytes: usize,
}

impl BatchResponse {
    /// A successful response.
    pub fn ok(results: Vec<ResponseKind>) -> Self {
        let response_bytes = results
            .iter()
            .map(|r| match r {
                ResponseKind::Value(v) => v.as_ref().map_or(0, |v| v.len()),
                ResponseKind::Pairs(pairs) => pairs.iter().map(|(k, v)| k.len() + v.len()).sum(),
                ResponseKind::Ok => 0,
            })
            .sum();
        BatchResponse { results, error: None, response_bytes }
    }

    /// A failed response.
    pub fn err(error: KvError) -> Self {
        BatchResponse { results: Vec::new(), error: Some(error), response_bytes: 0 }
    }

    /// Whether the batch succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::make_key;

    fn txn(anchor_key: Bytes) -> TxnMeta {
        TxnMeta { txn_id: 1, anchor_key, start_ts: Timestamp::ZERO, write_ts: Timestamp::ZERO }
    }

    #[test]
    fn write_classification() {
        let key = make_key(TenantId(2), b"k");
        assert!(!RequestKind::Get { key: key.clone() }.is_write());
        assert!(!RequestKind::Scan { start: key.clone(), end: key.clone(), limit: 1 }.is_write());
        let value = Some(Bytes::from_static(b"v"));
        assert!(RequestKind::WriteIntent { key: key.clone(), value }.is_write());
        assert!(RequestKind::WriteIntent { key, value: None }.is_write());
        assert!(RequestKind::EndTxn { commit: true }.is_write());
    }

    #[test]
    fn batch_payload_and_write_detection() {
        let key = make_key(TenantId(2), b"key1");
        let batch = BatchRequest {
            tenant: TenantId(2),
            txn: txn(key.clone()),
            deadline: Deadline::NONE,
            requests: vec![
                RequestKind::Get { key: key.clone() },
                RequestKind::WriteIntent {
                    key: key.clone(),
                    value: Some(Bytes::from_static(b"abc")),
                },
            ],
        };
        assert!(batch.is_write());
        assert_eq!(batch.payload_bytes(), key.len() * 2 + 3);
    }

    #[test]
    fn span_requests_split_at_a_range_boundary() {
        let (a, m, z) =
            (make_key(TenantId(2), b"a"), make_key(TenantId(2), b"m"), make_key(TenantId(2), b"z"));
        let scan = RequestKind::Scan { start: a.clone(), end: z.clone(), limit: 7 };
        match scan.split_at(&m) {
            Some((
                RequestKind::Scan { start: s0, end: e0, limit: 7 },
                RequestKind::Scan { start: s1, end: e1, limit: 7 },
            )) => assert_eq!((s0, e0, s1, e1), (a.clone(), m.clone(), m.clone(), z.clone())),
            other => panic!("scan split: {other:?}"),
        }
        let refresh =
            RequestKind::RefreshSpan { start: a.clone(), end: z.clone(), since: Timestamp::ZERO };
        assert!(matches!(
            refresh.split_at(&m),
            Some((RequestKind::RefreshSpan { .. }, RequestKind::RefreshSpan { .. }))
        ));
        // A boundary at either edge, or outside, leaves the span whole;
        // point requests never split.
        for at in [&a, &z, &make_key(TenantId(3), b"a")] {
            assert!(scan.split_at(at).is_none());
        }
        assert!(RequestKind::Get { key: a }.split_at(&m).is_none());
    }

    #[test]
    fn end_txn_routes_by_the_anchor_and_one_phase_commits_are_recognised() {
        let key = make_key(TenantId(2), b"k");
        let write = RequestKind::WriteIntent { key: key.clone(), value: None };
        let refresh = RequestKind::RefreshSpan {
            start: key.clone(),
            end: key.clone(),
            since: Timestamp::ZERO,
        };
        let end = RequestKind::EndTxn { commit: true };
        let batch = BatchRequest {
            tenant: TenantId(2),
            txn: txn(key.clone()),
            deadline: Deadline::NONE,
            requests: vec![refresh, write.clone(), end.clone()],
        };
        assert_eq!(batch.routing_span(&end), (&key, None));
        assert_eq!(batch.routing_span(&write), (&key, None));
        assert!(batch.is_one_phase_commit());
        // The staged protocol's batches are not: no EndTxn, or nothing
        // but it, or an abort, or a stranger among the commit steps.
        let with = |requests| BatchRequest { requests, ..batch.clone() };
        assert!(!with(vec![write.clone()]).is_one_phase_commit());
        assert!(!with(vec![end.clone()]).is_one_phase_commit());
        assert!(
            !with(vec![write.clone(), RequestKind::EndTxn { commit: false }]).is_one_phase_commit()
        );
        assert!(!with(vec![write, RequestKind::Get { key }, end]).is_one_phase_commit());
    }

    #[test]
    fn response_byte_accounting() {
        let r = BatchResponse::ok(vec![
            ResponseKind::Value(Some(Bytes::from_static(b"12345"))),
            ResponseKind::Pairs(vec![(Bytes::from_static(b"k"), Bytes::from_static(b"vv"))]),
            ResponseKind::Ok,
        ]);
        assert!(r.is_ok());
        assert_eq!(r.response_bytes, 5 + 3);
        let e = BatchResponse::err(KvError::RangeNotFound);
        assert!(!e.is_ok());
    }
}
