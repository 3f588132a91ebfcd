//! The client-side batch router (CockroachDB's DistSender equivalent).
//!
//! A [`KvClient`] belongs to one SQL node: it holds the tenant certificate,
//! a [`RangeCache`] refreshed by META follower reads (§3.2.5) and by the
//! authoritative range info every redirect carries, and the client's
//! network location.
//!
//! Every batch carries its transaction, reads included (built by
//! [`make_txn_meta`] or `sql::coord::Txn`; reads are served at its start
//! timestamp). [`KvClient::put`] writes one key as a transaction of its own.
//!
//! [`KvClient::send`] costs **one RPC per range the batch touches**: it
//! resolves every request's range (span requests are cut at range
//! boundaries), groups the requests by range in their original order,
//! and sends each group as one sub-batch to the cached leaseholder, all
//! groups concurrently ([`task::try_join_all`]). Responses are mapped back
//! by request index and the pieces of a split scan are merged under its
//! original limit. The batch answers at its first failing sub-batch; the
//! others run to their end unobserved, still retrying and recording
//! breaker outcomes. A sub-batch is the unit of retry: a redirect
//! ([`KvError::NotLeaseholder`] or [`KvError::RangeKeyMismatch`]: the node
//! evaluated nothing) installs the carried [`RangeInfo`] and re-resolves
//! and regroups the whole sub-batch; a dead node, a lost hop or a missing
//! range invalidates the cache and does the same after a backoff; a read
//! that ran into a pending intent retries after a short one. Giving up on
//! a commit of which a copy went unanswered is [`KvError::AmbiguousCommit`],
//! not [`KvError::Unavailable`]: the copy may have been applied.
//!
//! The router is `async fn`s on the simulator's clock ([`crdb_sim::task`]):
//! a batch runs in its caller's task (a SQL statement's). An RPC is a
//! round trip: where the outbound hop lands, the server's work
//! ([`KvNode::serve`](crate::node::KvNode::serve), or a META read) runs
//! as a task of its own inside the RPC's span, and the hop back with its
//! output races the RPC's timer to fill one [`Completion`]. A span opened
//! after an `.await` names its parent, the batch's `kv.send` span,
//! explicitly.
//!
//! A batch that carries `EndTxn` next to other requests asks for a
//! one-phase commit, which only a single leaseholder can evaluate: when
//! its spans resolve to more than one range (also after a redirect) the
//! client refuses it with [`KvError::TxnSpansRanges`] before sending, and
//! the coordinator falls back to the staged protocol (`sql::coord`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::pin;
use std::rc::Rc;

use bytes::Bytes;
use crdb_obs::trace;
use crdb_sim::task::{self, BoxFuture, Completion};
use crdb_sim::Location;
use crdb_util::retry::{Breaker, Deadline, RetryPolicy};
use crdb_util::time::dur;
use crdb_util::NodeId;

use crate::auth::TenantCert;
use crate::batch::{BatchRequest, BatchResponse, KvError, RequestKind, ResponseKind};
use crate::cluster::KvCluster;
use crate::directory::{RangeCache, RangeInfo};
use crate::timing::{ROUTING_BACKOFF_CAP, RPC_TIMEOUT};
use crate::txn::TxnMeta;

/// Maximum redirect/stale-cache retries per sub-batch. Exhaustion
/// surfaces [`KvError::Unavailable`]. Sized so the retry window
/// (with backoff, ~19 s) outlasts a liveness-driven lease transfer
/// (TTL 9 s + 2 s check period).
pub(crate) const MAX_ROUTING_RETRIES: u32 = 16;
/// Maximum intent-conflict retries per sub-batch.
const MAX_CONFLICT_RETRIES: u32 = 32;

/// Routing backoff: doubles from 50 ms, capped at 1.6 s. The budget is
/// `MAX_ROUTING_RETRIES + 1` because `reroute` checks the limit after the
/// backoff, so the policy must still yield one at attempt 16.
fn routing_policy() -> RetryPolicy {
    RetryPolicy::exponential(dur::ms(50), ROUTING_BACKOFF_CAP, MAX_ROUTING_RETRIES + 1)
}

/// Conflict backoff: linear from 1 ms in 2 ms steps, capped at 32 ms.
fn conflict_policy() -> RetryPolicy {
    RetryPolicy::linear(dur::ms(1), dur::ms(2), dur::ms(32), MAX_CONFLICT_RETRIES)
}

struct ClientInner {
    cluster: KvCluster,
    cert: TenantCert,
    location: Location,
    cache: RefCell<RangeCache>,
    /// Per-node circuit breakers: repeated RPC timeouts (a dark zone, a
    /// broken return path) trip one, turning sends into instant hop failures.
    breakers: RefCell<BTreeMap<NodeId, Breaker>>,
}

/// A cloneable handle to one SQL node's KV client.
#[derive(Clone)]
pub struct KvClient {
    inner: Rc<ClientInner>,
}

impl KvClient {
    /// Creates a client at `location` authenticated by `cert`.
    pub fn new(cluster: KvCluster, cert: TenantCert, location: Location) -> KvClient {
        KvClient {
            inner: Rc::new(ClientInner {
                cluster,
                cert,
                location,
                cache: RefCell::new(RangeCache::new()),
                breakers: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// The authenticated tenant certificate.
    pub fn cert(&self) -> &TenantCert {
        &self.inner.cert
    }

    /// The client's location.
    pub fn location(&self) -> Location {
        self.inner.location
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &KvCluster {
        &self.inner.cluster
    }

    /// META lookup statistics: `(meta_lookups, cache_hits)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.inner.cache.borrow();
        (c.meta_lookups, c.cache_hits)
    }

    /// Sends a batch: its merged response. All requests must belong to
    /// this client's tenant keyspace (enforced server-side too). The batch
    /// goes out as one sub-batch per range, concurrently; it fails as a
    /// whole at the first sub-batch error.
    pub async fn send(&self, mut batch: BatchRequest) -> BatchResponse {
        // A batch whose deadline already passed never touches the network.
        if batch.deadline.expired(self.inner.cluster.sim.now()) {
            self.inner.cluster.degrade().bump_deadline_exceeded();
            return BatchResponse::err(KvError::DeadlineExceeded);
        }
        let requests = std::mem::take(&mut batch.requests);
        // Every piece of a scan split across ranges carries the full limit
        // (one range might satisfy it alone): the merge cuts again.
        let limits: Vec<Option<usize>> = requests
            .iter()
            .map(|r| match r {
                RequestKind::Scan { limit, .. } => Some(*limit),
                _ => None,
            })
            .collect();
        let pieces =
            requests.into_iter().enumerate().map(|(idx, req)| Piece { idx, req }).collect();
        let span = trace::child("kv.send");
        span.tag("requests", limits.len());
        let batch = Rc::new(Batch { client: self.clone(), template: batch, span });
        let replies = Rc::clone(&batch).dispatch(pieces, Retries::default()).await;
        if replies.is_err() {
            batch.span.tag("error", true);
        }
        batch.span.end();
        replies.map_or_else(BatchResponse::err, |r| BatchResponse::ok(merge(r, &limits)))
    }

    /// Convenience: a one-key transaction writing `key = value`, committed
    /// in one phase by its one batch (`[WriteIntent, EndTxn{commit}]`); a
    /// copy re-sent after a lost reply is acked, not applied twice.
    pub async fn put(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        let txn = make_txn_meta(&self.inner.cluster, key.clone());
        let batch = BatchRequest {
            tenant: self.inner.cert.tenant(),
            txn,
            deadline: Deadline::NONE,
            requests: vec![
                RequestKind::WriteIntent { key, value: Some(value) },
                RequestKind::EndTxn { commit: true },
            ],
        };
        self.send(batch).await.error.map_or(Ok(()), Err)
    }
}

/// One request of a client batch, or the part inside one range of a span
/// request that crosses range boundaries, with its request's index.
struct Piece {
    idx: usize,
    req: RequestKind,
}

/// Requests bound for one range, in order, with the info they resolved to.
type Group = (RangeInfo, Vec<Piece>);

/// A piece's response, tagged with its original request index.
type Reply = (usize, ResponseKind);

/// Every piece's reply, or the error that fails the batch.
type Replies = Result<Vec<Reply>, KvError>;

/// How often a sub-batch has been re-sent, per retry budget.
#[derive(Clone, Copy, Default)]
struct Retries {
    routing: u32,
    conflict: u32,
    /// A copy went unanswered: the leaseholder may have evaluated it.
    unanswered: bool,
}

/// What every sub-batch of one client batch shares.
struct Batch {
    client: KvClient,
    /// Batch header (tenant, txn, deadline) without requests.
    template: BatchRequest,
    /// The `kv.send` span: parent of `meta.lookup` and each `kv.rpc`.
    span: trace::MaybeSpan,
}

impl Batch {
    /// Routes `pieces` — a whole batch, or one sub-batch being retried —
    /// and sends one RPC per range they resolve to, all concurrently.
    async fn dispatch(self: Rc<Self>, pieces: Vec<Piece>, retries: Retries) -> Replies {
        // Re-checked per dispatch: a sub-batch may expire behind a backoff.
        let cluster = &self.client.inner.cluster;
        if self.template.deadline.expired(cluster.sim.now()) {
            cluster.degrade().bump_deadline_exceeded();
            return Err(KvError::DeadlineExceeded);
        }
        // File each piece under its range's group; a cache miss asks META
        // and resumes from the piece that missed.
        let mut pending: VecDeque<Piece> = pieces.into();
        let mut groups: Vec<Group> = Vec::new();
        while let Some(mut piece) = pending.pop_front() {
            let key = self.template.routing_span(&piece.req).0.clone();
            // A range this pass already resolved needs no second look at
            // the cache (nor a second copy of its descriptor).
            let mut at = groups.iter().position(|(e, _)| e.desc.contains(&key));
            if at.is_none() {
                // Bind the lookup so the cache borrow ends here.
                let cached = self.client.inner.cache.borrow_mut().lookup(&key);
                let Some(entry) = cached else {
                    pending.push_front(piece);
                    match self.lookup_meta(key).await {
                        Ok(()) => continue,
                        Err(KvError::NodeUnavailable) => {
                            // Nothing of this pass was sent: back off and
                            // route all of it again, in original order.
                            let all = groups.into_iter().flat_map(|(_, ps)| ps).chain(pending);
                            let mut all: Vec<Piece> = all.collect();
                            all.sort_by_key(|p| p.idx);
                            return self.reroute(all, retries, true).await;
                        }
                        Err(e) => return Err(e),
                    }
                };
                at = Some(groups.len());
                groups.push((entry, Vec::new()));
            }
            let Some((entry, pieces)) = at.and_then(|at| groups.get_mut(at)) else { continue };
            // A span crossing the range boundary splits here: the in-range
            // part joins this range's group, the remainder routes next.
            if let Some((head, tail)) = piece.req.split_at(&entry.desc.end) {
                pending.push_front(Piece { idx: piece.idx, req: tail });
                piece.req = head;
            }
            pieces.push(piece);
        }
        // `EndTxn` beside other requests commits in one phase, which only
        // a single leaseholder can evaluate.
        let ends_txn =
            |(_, ps): &Group| ps.iter().any(|p| matches!(p.req, RequestKind::EndTxn { .. }));
        if groups.len() > 1 && groups.iter().any(ends_txn) {
            return Err(KvError::TxnSpansRanges);
        }
        // One range, the common case, needs no join (nor a second copy of
        // its future in this one's).
        if groups.len() == 1 {
            if let Some(group) = groups.pop() {
                return Rc::clone(&self).send_group(group, retries).await;
            }
        }
        let sends = groups
            .into_iter()
            .map(|group| -> BoxFuture<_> { Box::pin(Rc::clone(&self).send_group(group, retries)) });
        Ok(task::try_join_all(sends).await?.into_iter().flatten().collect())
    }

    /// Fills the cache with the range containing `key` by a META follower
    /// read on the nearest reachable node (§3.2.5). Fails `Unavailable`
    /// when none is, `RangeNotFound` when the directory has no such range,
    /// and `NodeUnavailable` (retryable) when no reply came in time.
    async fn lookup_meta(&self, key: Bytes) -> Result<(), KvError> {
        let cluster = self.client.inner.cluster.clone();
        let nearest =
            cluster.nearest_node(self.client.inner.location).ok_or(KvError::Unavailable)?;
        let span = self.span.child("meta.lookup");
        // Read as of now: a stale entry just causes a redirect.
        let read =
            async move { cluster.inner.borrow().directory.lookup(&key).map(RangeInfo::from) };
        let Some(entry) = self.round_trip(nearest.location, &span, read).await else {
            span.tag("timeout", true);
            span.end();
            return Err(KvError::NodeUnavailable);
        };
        span.end();
        let entry = entry.ok_or(KvError::RangeNotFound)?;
        self.client.inner.cache.borrow_mut().fill_from_meta(entry);
        Ok(())
    }

    /// Sends `pieces` as one RPC to `entry`'s leaseholder and handles the
    /// response (or the hop failure standing in for one), retrying until
    /// the sub-batch succeeds or fails for good.
    async fn send_group(self: Rc<Self>, (entry, pieces): Group, mut retries: Retries) -> Replies {
        let client = &self.client.inner;
        let cluster = &client.cluster;
        let rpc = self.span.child("kv.rpc");
        rpc.tag("requests", pieces.len());
        if retries.routing + retries.conflict > 0 {
            rpc.tag("retries", retries.routing + retries.conflict);
        }
        let target = entry.leaseholder;
        let Some(node) = cluster.node(target) else {
            rpc.end();
            return Err(KvError::NodeUnavailable);
        };
        rpc.tag("node", target);
        // Fail fast across a known partition rather than time out retry
        // after retry: the lease will not move (liveness is global). Behind
        // a dark zone or region the node is down and its lease does move:
        // forget the route, so the caller's next request asks META.
        if !cluster.topology().is_reachable(client.location, node.location) {
            bump(&cluster.degrade().partition_fast_fails);
            self.forget_routes(&pieces);
            rpc.end();
            return Err(self.give_up(&pieces, retries));
        }
        // An open breaker skips the RPC-timeout wait and takes the routing
        // failure path: back off, refresh META, reroute once the lease moves.
        let allowed =
            client.breakers.borrow_mut().entry(target).or_default().allow(cluster.sim.now());
        let resp = if !allowed {
            bump(&cluster.degrade().breaker_fast_fails);
            rpc.tag("breaker_open", true);
            rpc.end();
            BatchResponse::err(KvError::NodeUnavailable)
        } else {
            let sub = BatchRequest {
                tenant: self.template.tenant,
                txn: self.template.txn.clone(),
                deadline: self.template.deadline,
                requests: pieces.iter().map(|p| p.req.clone()).collect(),
            };
            let resp =
                self.round_trip(node.location, &rpc, node.serve(client.cert.clone(), sub)).await;
            // Any reply, even an error, proves the path and node live.
            self.breaker_record(target, resp.is_some());
            if resp.is_none() {
                rpc.tag("timeout", true);
                retries.unanswered = true;
            }
            rpc.end();
            resp.unwrap_or_else(|| BatchResponse::err(KvError::NodeUnavailable))
        };
        let writes = |p: &Piece| p.req.is_write();
        match resp.error {
            None => {
                let mut rs = resp.results.into_iter();
                Ok(pieces.iter().map(|p| (p.idx, rs.next().unwrap_or(ResponseKind::Ok))).collect())
            }
            Some(KvError::NotLeaseholder(info)) | Some(KvError::RangeKeyMismatch(info)) => {
                // The node evaluated nothing and said who does: learn that
                // (evicting the stale entry) and route the sub-batch again.
                bump(&cluster.degrade().redirects);
                client.cache.borrow_mut().insert(info);
                self.reroute(pieces, retries, false).await
            }
            Some(KvError::RangeNotFound) | Some(KvError::NodeUnavailable) => {
                self.reroute(pieces, retries, true).await
            }
            Some(e @ KvError::IntentConflict { .. }) if !pieces.iter().any(writes) => {
                // Back off briefly and retry: the conflicting transaction
                // commits or aborts shortly (short commit windows).
                match conflict_policy().delay(retries.conflict) {
                    Some(backoff) if self.template.deadline.allows(cluster.sim.now(), backoff) => {
                        bump(&cluster.degrade().retries);
                        task::sleep(&cluster.sim, backoff).await;
                        let retries = Retries { conflict: retries.conflict + 1, ..retries };
                        Box::pin(self.dispatch(pieces, retries)).await
                    }
                    Some(_) => {
                        cluster.degrade().bump_deadline_exceeded();
                        Err(KvError::DeadlineExceeded)
                    }
                    // Conflict budget exhausted: surface the conflict.
                    None => Err(e),
                }
            }
            Some(e) => Err(e),
        }
    }

    /// One round trip to the node at `there`, sent when called: a task of
    /// its own hops there, runs `serve` inside `span`, and hops back to fill
    /// the reply. That races the RPC timeout, as a partition may drop a
    /// hop: `None` when it wins. Losing the race cancels nothing: the task
    /// runs to its end, and its reply is dropped. `serve` moves into the
    /// task at once, so the caller's future does not hold it.
    fn round_trip<T: 'static>(
        &self,
        there: Location,
        span: &trace::MaybeSpan,
        serve: impl Future<Output = T> + 'static,
    ) -> impl Future<Output = Option<T>> {
        let (cluster, here) = (&self.client.inner.cluster, self.client.inner.location);
        let reply = Completion::default();
        // Waiting past the batch deadline would be wasted.
        let timeout = RPC_TIMEOUT.min(self.template.deadline.remaining(cluster.sim.now()));
        let timeout = reply.fill_after(&cluster.sim, timeout, None);
        let (back, span, there_cluster) = (reply.clone(), span.clone(), cluster.clone());
        task::spawn(&cluster.sim, async move {
            let (sim, topology) = (&there_cluster.sim, there_cluster.topology());
            if !topology.hop(sim, here, there).await {
                return;
            }
            let answer = trace::within(&span, pin!(serve)).await;
            if topology.hop(sim, there, here).await {
                back.fill(Some(answer));
            }
        });
        async move {
            let _timeout = timeout;
            reply.await
        }
    }

    /// Records an RPC outcome against `node`'s breaker; counts a trip.
    fn breaker_record(&self, node: NodeId, success: bool) {
        let now = self.client.inner.cluster.sim.now();
        let tripped = {
            let mut breakers = self.client.inner.breakers.borrow_mut();
            let b = breakers.entry(node).or_default();
            let before = b.trips();
            match success {
                true => b.record_success(),
                false => b.record_failure(now),
            }
            b.trips() > before
        };
        if tripped {
            bump(&self.client.inner.cluster.degrade().breaker_trips);
        }
    }

    /// Drops the cached routes of `pieces`' ranges.
    fn forget_routes(&self, pieces: &[Piece]) {
        let mut cache = self.client.inner.cache.borrow_mut();
        pieces.iter().for_each(|p| cache.invalidate(self.template.routing_span(&p.req).0));
    }

    /// Routes `pieces` again; after a dead node, a lost hop or a missing range
    /// (`wait`), forgets their routes and first backs off long enough for
    /// the lease-check loop to move leases off dead nodes.
    async fn reroute(self: Rc<Self>, pieces: Vec<Piece>, retries: Retries, wait: bool) -> Replies {
        let cluster = &self.client.inner.cluster;
        if wait {
            self.forget_routes(&pieces);
            // The backoff must land before the batch deadline: a retry
            // scheduled past it is never scheduled at all.
            let (now, deadline) = (cluster.sim.now(), self.template.deadline);
            let Some(delay) = routing_policy().next_delay(retries.routing, now, deadline) else {
                cluster.degrade().bump_deadline_exceeded();
                return Err(KvError::DeadlineExceeded);
            };
            task::sleep(&cluster.sim, delay).await;
        }
        if retries.routing >= MAX_ROUTING_RETRIES {
            // The retry budget outlasts any single lease transfer; if we
            // still have no live route the range is genuinely unavailable.
            return Err(self.give_up(&pieces, retries));
        }
        bump(&cluster.degrade().retries);
        Box::pin(self.dispatch(pieces, Retries { routing: retries.routing + 1, ..retries })).await
    }

    /// The error that fails the batch when the sub-batch `pieces` has no
    /// route left. Nothing of an `Unavailable` batch was applied, so its
    /// transaction can run again; a commit of which a copy went unanswered
    /// may have been applied, and running it again could apply it twice.
    fn give_up(&self, pieces: &[Piece], retries: Retries) -> KvError {
        let commits = |p: &Piece| matches!(p.req, RequestKind::EndTxn { commit: true });
        if retries.unanswered && pieces.iter().any(commits) {
            bump(&self.client.inner.cluster.degrade().ambiguous_commits);
            KvError::AmbiguousCommit
        } else {
            KvError::Unavailable
        }
    }
}

/// Merges each request's replies: a lone reply stands; the pieces of a
/// split scan, over disjoint key ranges, are concatenated, sorted and cut
/// to the original limit (each carried all of it).
fn merge(replies: Vec<Reply>, limits: &[Option<usize>]) -> Vec<ResponseKind> {
    let mut slots: Vec<Vec<ResponseKind>> = vec![Vec::new(); limits.len()];
    for (idx, resp) in replies {
        if let Some(slot) = slots.get_mut(idx) {
            slot.push(resp);
        }
    }
    let merge_one = |(mut pieces, limit): (Vec<ResponseKind>, &Option<usize>)| {
        if pieces.len() <= 1 {
            return pieces.pop().unwrap_or(ResponseKind::Ok);
        }
        if !pieces.iter().any(|p| matches!(p, ResponseKind::Pairs(_))) {
            return ResponseKind::Ok;
        }
        let mut pairs: Vec<(Bytes, Bytes)> = pieces
            .into_iter()
            .flat_map(|p| if let ResponseKind::Pairs(p) = p { p } else { Vec::new() })
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.truncate(limit.unwrap_or(usize::MAX));
        ResponseKind::Pairs(pairs)
    };
    slots.into_iter().zip(limits).map(merge_one).collect()
}

/// Adds one to a degradation counter.
fn bump(counter: &std::cell::Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// Builds the `TxnMeta` for a new transaction anchored at `anchor_key`.
pub fn make_txn_meta(cluster: &KvCluster, anchor_key: Bytes) -> TxnMeta {
    let id = cluster.begin_txn();
    let ts = cluster.now_ts();
    TxnMeta { txn_id: id, anchor_key, start_ts: ts, write_ts: ts }
}
