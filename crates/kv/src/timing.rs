//! The protocol's time constants, and the order among them that its
//! safety arguments lean on (DESIGN.md §7, §13), checked at compile time.
//! A constant that follows from another is derived from it here, never
//! restated beside its user.

use std::time::Duration;

use crate::client::MAX_ROUTING_RETRIES;

/// How much MVCC history is preserved: versions older than this (below
/// the newest one readable at `now - GC_WINDOW`) are garbage — see
/// [`crate::mvcc`] for who collects them. CockroachDB's default
/// `gc.ttlseconds` is far larger; the simulation's transactions are
/// sub-second, so a short window keeps hot-key version chains bounded
/// without breaking any reader.
pub const GC_WINDOW: Duration = Duration::from_secs(5);

/// An RPC with no reply by this deadline (its request or response was
/// dropped by a partition) is treated as a `NodeUnavailable` hop
/// failure and retried — the client never hangs on a dropped message.
/// Clamped to the batch deadline's remaining time when one is set.
///
/// Known unhealthy: this is *twice* [`GC_WINDOW`], and a read sent again
/// after a timeout keeps its transaction's timestamp, so one whose key
/// was overwritten meanwhile is refused (`SnapshotTooOld`) every time.
/// The protocol wants `GC_WINDOW >=` the age of the oldest read a node
/// admits; that does not hold. The refusal surfaces as a retryable
/// statement error — a catalog refresh's too — never as an empty reply.
pub const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Cap of the client's routing backoff.
pub(crate) const ROUTING_BACKOFF_CAP: Duration = Duration::from_millis(1_600);

/// How long an intent may sit untouched with its transaction still
/// `Pending` before a conflicting reader may declare the transaction
/// abandoned (coordinator crashed) and push-abort it. Far above any
/// live transaction's lifetime, so only orphans are ever pushed.
pub const TXN_ABANDON_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a read stays in the timestamp cache under its own span; the
/// cache's floor is at least this stale.
pub(crate) const TS_CACHE_RETENTION: Duration = TXN_ABANDON_TIMEOUT;

/// How long after a batch was handed to `KvClient::send` the client can
/// still be sending one of its sub-batches again: the first dispatch and
/// each of the `MAX_ROUTING_RETRIES` after it waits out at most one META
/// lookup, one RPC and one capped backoff. A leaseholder that applied a
/// commit must recognise the copies that follow for at least this long,
/// and a copy that reaches it later than that was not sent by a client
/// inside its retry budget.
pub(crate) const RESEND_WINDOW: Duration = Duration::from_millis(
    (MAX_ROUTING_RETRIES as u64 + 1)
        * (2 * RPC_TIMEOUT.as_millis() + ROUTING_BACKOFF_CAP.as_millis()) as u64,
);

/// How long the transaction-status table remembers a finalized
/// transaction: for as long as a client that never heard of the commit
/// can still be sending it again. A one-phase commit leaves nothing else
/// behind to recognise such a replay by; the intents of a staged one have
/// long been resolved by then, and the persisted record settles any that
/// have not.
pub const TXN_STATUS_RETENTION: Duration = RESEND_WINDOW;

// No live transaction is older than the abandon timeout (past it, pushers
// abort it), so a timestamp-cache floor at least that stale never rejects
// a write that a per-key entry would have let through.
const _: () = assert!(TS_CACHE_RETENTION.as_nanos() >= TXN_ABANDON_TIMEOUT.as_nanos());

// A commit the status table knows nothing of is a first delivery only if
// the table cannot have forgotten it: every copy a client can still send
// arrives inside the table's memory.
const _: () = assert!(RESEND_WINDOW.as_nanos() <= TXN_STATUS_RETENTION.as_nanos());
