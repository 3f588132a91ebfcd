//! The client-side batch router (CockroachDB's DistSender equivalent).
//!
//! A [`KvClient`] belongs to one SQL node: it holds the tenant certificate,
//! a [`RangeCache`] refreshed by META follower reads (§3.2.5) and by the
//! authoritative range info every redirect carries, and the client's
//! network location.
//!
//! Every batch carries its transaction, reads included: a reader builds
//! one from [`make_txn_meta`] (or through `sql::coord::Txn`), and its
//! reads are served at that transaction's start timestamp. Besides
//! [`KvClient::send`] the client offers one convenience, [`KvClient::put`],
//! which writes one key as a transaction of its own.
//!
//! [`KvClient::send`] costs **one RPC per range the batch touches**: it
//! resolves every request's range (span requests are cut at range
//! boundaries), groups the requests by range in their original order,
//! and sends each group as one sub-batch to the cached leaseholder, all
//! groups concurrently. Responses are mapped back by request index and
//! the pieces of a split scan are merged under its original limit. A
//! sub-batch is the unit of retry: a redirect ([`KvError::NotLeaseholder`]
//! or [`KvError::RangeKeyMismatch`], both of which mean the node evaluated
//! nothing) installs the carried [`RangeInfo`] and re-resolves and
//! regroups the whole sub-batch; a dead node, a lost hop or a missing
//! range invalidates the cache and does the same after a backoff; a read
//! that ran into a pending intent retries after a short one. When the
//! client gives up on a sub-batch that commits a transaction after a copy
//! of it went unanswered, the error is [`KvError::AmbiguousCommit`], not
//! [`KvError::Unavailable`]: the copy may have been applied, and the
//! caller must not run the transaction again.
//!
//! A batch that carries `EndTxn` next to other requests asks for a
//! one-phase commit, which only a single leaseholder can evaluate. When
//! its spans resolve to more than one range the client refuses it with
//! [`KvError::TxnSpansRanges`] before sending anything — also when that
//! only becomes known from a redirect — and the coordinator falls back
//! to the staged protocol (`sql::coord`).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use crdb_obs::trace;
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
/// `MAX_ROUTING_RETRIES + 1` because the terminal check lives in
/// `retry_routing` (the redirect path retries without backoff), so the
/// policy must still yield the final backoff at attempt 16 — exactly
/// the legacy `(50ms << n.min(5)).min(1600ms)` schedule.
fn routing_policy() -> RetryPolicy {
    RetryPolicy::exponential(dur::ms(50), ROUTING_BACKOFF_CAP, MAX_ROUTING_RETRIES + 1)
}

/// Conflict backoff: linear from 1 ms in 2 ms steps, capped at 32 ms —
/// exactly the legacy `(1 + 2n).min(32)` ms schedule with its 32-retry
/// budget.
fn conflict_policy() -> RetryPolicy {
    RetryPolicy::linear(dur::ms(1), dur::ms(2), dur::ms(32), MAX_CONFLICT_RETRIES)
}

struct ClientInner {
    cluster: KvCluster,
    cert: TenantCert,
    location: Location,
    cache: RefCell<RangeCache>,
    /// Per-target circuit breakers: repeated RPC timeouts against one
    /// node (a dark zone/region, a broken return path) trip the node's
    /// breaker, converting further sends into immediate hop failures
    /// instead of full RPC-timeout waits.
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

    /// Sends a batch, invoking `cb` with the merged response. All requests
    /// must belong to this client's tenant keyspace (enforced server-side
    /// too). The batch goes out as one sub-batch per range, concurrently;
    /// it fails as a whole on the first sub-batch error.
    pub fn send(&self, batch: BatchRequest, cb: impl FnOnce(BatchResponse) + 'static) {
        // A batch whose deadline already passed never touches the
        // network: the typed terminal error surfaces immediately.
        if batch.deadline.expired(self.inner.cluster.sim.now()) {
            self.inner.cluster.degrade().bump_deadline_exceeded();
            cb(BatchResponse::err(KvError::DeadlineExceeded));
            return;
        }
        let mut batch = batch;
        let requests = std::mem::take(&mut batch.requests);
        let n_results = requests.len();
        // Remember each scan's requested limit: a scan split across ranges
        // dispatches every piece with the full limit (any one range might
        // satisfy it alone), so the merged result must be re-truncated.
        let limits: Vec<Option<usize>> = requests
            .iter()
            .map(|r| match r {
                RequestKind::Scan { limit, .. } => Some(*limit),
                _ => None,
            })
            .collect();
        let pieces: Vec<Piece> =
            requests.into_iter().enumerate().map(|(idx, req)| Piece { idx, req }).collect();
        let outer = trace::current();
        let span = trace::child("kv.send");
        span.tag("requests", n_results);
        let cb = {
            let span = span.clone();
            move |resp: BatchResponse| {
                if resp.error.is_some() {
                    span.tag("error", true);
                }
                span.end();
                let _g = outer.enter();
                cb(resp);
            }
        };
        let state = Rc::new(DispatchState {
            client: self.clone(),
            template: batch,
            results: RefCell::new(vec![Vec::new(); n_results]),
            limits,
            outstanding: Cell::new(1), // guard against sync completion
            finished: RefCell::new(Some(Box::new(cb))),
            span,
        });
        DispatchState::dispatch(&state, pieces, Retries::default());
        DispatchState::unit_done(&state); // release the guard
    }

    /// Convenience: a one-key transaction writing `key = value`. Its one
    /// batch carries the write and `EndTxn{commit}`, so the leaseholder
    /// commits it in one phase, in one round trip. It passes every check
    /// a transaction's write does, and a copy re-sent after a lost reply
    /// is acked from the status table instead of applied twice.
    pub fn put(&self, key: Bytes, value: Bytes, cb: impl FnOnce(Result<(), KvError>) + 'static) {
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
        self.send(batch, move |resp| match resp.error {
            Some(e) => cb(Err(e)),
            None => cb(Ok(())),
        });
    }

    /// Fills the cache with the range containing `key` by a META follower
    /// read (one network hop to the nearest *reachable* node, §3.2.5).
    /// Fails with [`KvError::Unavailable`] when no live node is reachable,
    /// [`KvError::RangeNotFound`] when the directory has no range for the
    /// key, and [`KvError::NodeUnavailable`] — a retryable hop failure —
    /// when a partition dropped a META hop and no reply came within
    /// `timeout`.
    fn lookup_meta(
        &self,
        key: Bytes,
        parent: &trace::MaybeSpan,
        timeout: Duration,
        cb: impl FnOnce(Result<(), KvError>) + 'static,
    ) {
        let cluster = self.inner.cluster.clone();
        let this = self.clone();
        let nearest = match cluster.nearest_node(self.inner.location) {
            Some(n) => n,
            None => {
                cb(Err(KvError::Unavailable));
                return;
            }
        };
        let meta_span = parent.child("meta.lookup");
        let topo = cluster.topology();
        let sim = cluster.sim.clone();
        let my_loc = self.inner.location;
        let node_loc = nearest.location;
        // The reply and the timeout race for the callback; whichever
        // fires first takes it.
        let cb: Rc<Cell<Option<MetaLookupFn>>> = Rc::new(Cell::new(Some(Box::new(cb))));
        let timer = {
            let cb = Rc::clone(&cb);
            let meta_span = meta_span.clone();
            sim.schedule_after(timeout, move || {
                if let Some(cb) = cb.take() {
                    meta_span.tag("timeout", true);
                    meta_span.end();
                    cb(Err(KvError::NodeUnavailable));
                }
            })
        };
        // Request hop.
        topo.send(&sim, my_loc, node_loc, move || {
            // Follower read of META on the nearest node: the directory is
            // read as-of-now (staleness is tolerated because stale entries
            // just cause a redirect).
            let entry = cluster.inner.borrow().directory.lookup(&key).map(RangeInfo::from);
            let topo2 = cluster.topology();
            let sim2 = cluster.sim.clone();
            // Response hop.
            topo2.send(&sim2, node_loc, my_loc, move || {
                let Some(cb) = cb.take() else { return };
                cluster.sim.cancel(timer);
                meta_span.end();
                cb(match entry {
                    Some(e) => {
                        this.inner.cache.borrow_mut().fill_from_meta(e);
                        Ok(())
                    }
                    None => Err(KvError::RangeNotFound),
                });
            });
        });
    }
}

/// The batch completion callback, taken exactly once.
type FinishFn = Box<dyn FnOnce(BatchResponse)>;
/// A META lookup's callback, taken exactly once.
type MetaLookupFn = Box<dyn FnOnce(Result<(), KvError>)>;

/// One request of a client batch — or, for a span request that crosses
/// range boundaries, the part of it inside one range — tagged with the
/// index of the original request its response belongs to.
struct Piece {
    idx: usize,
    req: RequestKind,
}

/// Requests bound for one range, in original order, with the range info
/// they were resolved against.
type Group = (RangeInfo, Vec<Piece>);

/// How often a sub-batch has been re-sent, per retry budget.
#[derive(Clone, Copy, Default)]
struct Retries {
    routing: u32,
    conflict: u32,
    /// A copy went out and no reply came back: the leaseholder may have
    /// evaluated it.
    unanswered: bool,
}

/// In-flight state for one client batch.
struct DispatchState {
    client: KvClient,
    /// Batch header (tenant, txn, deadline) without requests.
    template: BatchRequest,
    /// Per original request index: the responses of its pieces, in
    /// arrival order.
    results: RefCell<Vec<Vec<ResponseKind>>>,
    /// Per original request index: the scan's requested row limit
    /// (`None` for non-scans), applied again after merging split pieces.
    limits: Vec<Option<usize>>,
    /// Routing passes and sub-batch RPCs still in flight.
    outstanding: Cell<usize>,
    finished: RefCell<Option<FinishFn>>,
    /// The batch's `kv.send` span; `meta.lookup` and per-attempt `kv.rpc`
    /// spans attach here even from scheduled retry contexts where no
    /// ambient span is active.
    span: trace::MaybeSpan,
}

impl DispatchState {
    fn routing_key(&self, req: &RequestKind) -> Bytes {
        self.template.routing_span(req).0.clone()
    }

    /// Routes `pieces` — a whole batch, or one sub-batch being retried —
    /// and sends one RPC per range they resolve to.
    fn dispatch(state: &Rc<Self>, pieces: Vec<Piece>, retries: Retries) {
        state.outstanding.set(state.outstanding.get() + 1);
        // The deadline is re-checked per dispatch: a sub-batch that
        // expired while queued behind a backoff fails typed instead of
        // sending.
        let now = state.client.inner.cluster.sim.now();
        if state.template.deadline.expired(now) {
            state.client.inner.cluster.degrade().bump_deadline_exceeded();
            state.fail(KvError::DeadlineExceeded);
            return;
        }
        Rc::clone(state).route(pieces.into(), Vec::new(), retries);
    }

    /// Files each of `pending` under the group of the range its key
    /// resolves to in the cache. On a miss, a META lookup fills the cache
    /// and routing resumes from the piece that missed.
    fn route(
        self: Rc<Self>,
        mut pending: VecDeque<Piece>,
        mut groups: Vec<Group>,
        retries: Retries,
    ) {
        while let Some(mut piece) = pending.pop_front() {
            let key = self.routing_key(&piece.req);
            // A range this pass already resolved needs no second look at
            // the cache (nor a second copy of its descriptor).
            let mut at = groups.iter().position(|(e, _)| e.desc.contains(&key));
            if at.is_none() {
                // Bind the lookup so the cache borrow ends here.
                let cached = self.client.inner.cache.borrow_mut().lookup(&key);
                let Some(entry) = cached else {
                    pending.push_front(piece);
                    self.route_after_meta_lookup(key, pending, groups, retries);
                    return;
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
        self.send_groups(groups, retries);
    }

    fn route_after_meta_lookup(
        self: Rc<Self>,
        key: Bytes,
        pending: VecDeque<Piece>,
        groups: Vec<Group>,
        retries: Retries,
    ) {
        let client = self.client.clone();
        let timeout = self.rpc_timeout(client.inner.cluster.sim.now());
        let span = self.span.clone();
        client.lookup_meta(key, &span, timeout, move |found| match found {
            Ok(()) => self.route(pending, groups, retries),
            Err(KvError::NodeUnavailable) => {
                // Nothing of this pass was sent yet: back off and route
                // all of it again, in its original order.
                let mut all: Vec<Piece> = groups.into_iter().flat_map(|(_, ps)| ps).collect();
                all.extend(pending);
                all.sort_by_key(|p| p.idx);
                self.retry_after_backoff(all, retries);
            }
            Err(e) => self.fail(e),
        });
    }

    /// Sends each group as one sub-batch RPC, all concurrently.
    fn send_groups(self: Rc<Self>, groups: Vec<Group>, retries: Retries) {
        // `EndTxn` beside other requests commits in one phase, which only
        // a single leaseholder can evaluate.
        let ends_txn = |(_, pieces): &Group| {
            pieces.iter().any(|p| matches!(p.req, RequestKind::EndTxn { .. }))
        };
        if groups.len() > 1 && groups.iter().any(ends_txn) {
            self.fail(KvError::TxnSpansRanges);
            return;
        }
        for (entry, pieces) in groups {
            self.outstanding.set(self.outstanding.get() + 1);
            Rc::clone(&self).send_to_node(entry, pieces, retries);
        }
        Self::unit_done(&self);
    }

    /// Sends `pieces` as one RPC to `entry`'s leaseholder.
    fn send_to_node(self: Rc<Self>, entry: RangeInfo, pieces: Vec<Piece>, retries: Retries) {
        let client = self.client.clone();
        let cluster = client.inner.cluster.clone();
        let rpc = self.span.child("kv.rpc");
        rpc.tag("requests", pieces.len());
        if retries.routing + retries.conflict > 0 {
            rpc.tag("retries", retries.routing + retries.conflict);
        }
        let target = entry.leaseholder;
        let node = match cluster.node(target) {
            Some(n) => n,
            None => {
                rpc.end();
                self.fail(KvError::NodeUnavailable);
                return;
            }
        };
        rpc.tag("node", target);
        let topo = cluster.topology();
        let sim = cluster.sim.clone();
        let my_loc = client.inner.location;
        let node_loc = node.location;
        // Fail fast across a known partition: the leaseholder cannot be
        // reached and (liveness being a global control plane) its lease
        // will not move, so surface the typed error immediately instead
        // of letting the request time out retry after retry. Behind a
        // dark zone or region the node is down as well and its lease
        // does move, where the range's placement leaves it somewhere to
        // go: forget the route, so the caller's next request asks META.
        if !topo.is_reachable(my_loc, node_loc) {
            let degrade = cluster.degrade();
            degrade.partition_fast_fails.set(degrade.partition_fast_fails.get() + 1);
            self.forget_routes(&pieces);
            rpc.end();
            self.give_up(&pieces, retries);
            return;
        }
        // Per-target circuit breaker: once the node's breaker is open
        // (repeated RPC timeouts — a broken return path or a node inside
        // a dark domain the client can still "see"), skip the RPC-timeout
        // wait entirely and take the routing-failure path, which backs
        // off, refreshes META, and reroutes once the lease moves.
        let now = sim.now();
        if !self.breaker_allows(target, now) {
            let degrade = cluster.degrade();
            degrade.breaker_fast_fails.set(degrade.breaker_fast_fails.get() + 1);
            rpc.tag("breaker_open", true);
            rpc.end();
            self.handle_response(pieces, BatchResponse::err(KvError::NodeUnavailable), retries);
            return;
        }
        let sub = BatchRequest {
            tenant: self.template.tenant,
            txn: self.template.txn.clone(),
            deadline: self.template.deadline,
            requests: pieces.iter().map(|p| p.req.clone()).collect(),
        };
        let cert = client.inner.cert.clone();
        // RPC timeout: a partition starting while this request is in
        // flight drops a hop; convert the silence into a retryable hop
        // failure so the sub-batch never hangs. Clamped to the deadline's
        // remaining time — waiting past it would be wasted. The reply and
        // the timeout race for the pieces; whichever fires first takes
        // them.
        let pieces = Rc::new(Cell::new(Some(pieces)));
        let timer = {
            let st = Rc::clone(&self);
            let pieces = Rc::clone(&pieces);
            let rpc = rpc.clone();
            sim.schedule_after(self.rpc_timeout(now), move || {
                let Some(pieces) = pieces.take() else { return };
                st.breaker_record(target, false);
                rpc.tag("timeout", true);
                rpc.end();
                let retries = Retries { unanswered: true, ..retries };
                st.handle_response(pieces, BatchResponse::err(KvError::NodeUnavailable), retries);
            })
        };
        topo.send(&sim, my_loc, node_loc, move || {
            let topo2 = self.client.inner.cluster.topology();
            let sim2 = self.client.inner.cluster.sim.clone();
            let _g = rpc.enter();
            let rpc2 = rpc.clone();
            node.receive(&cert, sub, move |resp| {
                // Return hop, then handle.
                let sim3 = sim2.clone();
                topo2.send(&sim2, node_loc, my_loc, move || {
                    let Some(pieces) = pieces.take() else { return };
                    // Any reply — even an error — proves the path and
                    // node are live enough to answer.
                    self.breaker_record(target, true);
                    rpc2.end();
                    sim3.cancel(timer);
                    self.handle_response(pieces, resp, retries);
                });
            });
        });
    }

    /// Effective RPC timeout at `now`: the fixed wire timeout, clamped
    /// to the batch deadline's remaining time.
    fn rpc_timeout(&self, now: crdb_util::SimTime) -> Duration {
        RPC_TIMEOUT.min(self.template.deadline.remaining(now))
    }

    /// Whether `node`'s breaker admits a request at `now`.
    fn breaker_allows(&self, node: NodeId, now: crdb_util::SimTime) -> bool {
        let mut breakers = self.client.inner.breakers.borrow_mut();
        breakers.entry(node).or_default().allow(now)
    }

    /// Records an RPC outcome against `node`'s breaker, bumping the
    /// shared trip counter when the breaker opens.
    fn breaker_record(&self, node: NodeId, success: bool) {
        let now = self.client.inner.cluster.sim.now();
        let tripped = {
            let mut breakers = self.client.inner.breakers.borrow_mut();
            let b = breakers.entry(node).or_default();
            let before = b.trips();
            if success {
                b.record_success();
            } else {
                b.record_failure(now);
            }
            b.trips() > before
        };
        if tripped {
            let degrade = self.client.inner.cluster.degrade();
            degrade.breaker_trips.set(degrade.breaker_trips.get() + 1);
        }
    }

    /// Handles the response (or the hop failure standing in for one) of
    /// the sub-batch `pieces`.
    fn handle_response(self: Rc<Self>, pieces: Vec<Piece>, resp: BatchResponse, retries: Retries) {
        match resp.error {
            None => {
                {
                    let mut results = self.results.borrow_mut();
                    let mut responses = resp.results.into_iter();
                    for piece in &pieces {
                        if let Some(slot) = results.get_mut(piece.idx) {
                            slot.push(responses.next().unwrap_or(ResponseKind::Ok));
                        }
                    }
                }
                Self::unit_done(&self);
            }
            Some(KvError::NotLeaseholder(info)) | Some(KvError::RangeKeyMismatch(info)) => {
                // The node evaluated nothing and said who does: learn the
                // authoritative descriptor (evicting whatever stale entry
                // sent us here) and route the sub-batch again.
                let degrade = self.client.inner.cluster.degrade();
                degrade.redirects.set(degrade.redirects.get() + 1);
                self.client.inner.cache.borrow_mut().insert(info);
                self.retry_routing(pieces, retries);
            }
            Some(KvError::RangeNotFound) | Some(KvError::NodeUnavailable) => {
                self.retry_after_backoff(pieces, retries);
            }
            Some(e @ KvError::IntentConflict { .. })
                if pieces.iter().all(|p| !p.req.is_write()) =>
            {
                // Back off briefly and retry: the conflicting transaction
                // commits or aborts shortly (short commit windows).
                let sim = self.client.inner.cluster.sim.clone();
                match conflict_policy().delay(retries.conflict) {
                    Some(backoff) if self.template.deadline.allows(sim.now(), backoff) => {
                        let degrade = self.client.inner.cluster.degrade();
                        degrade.retries.set(degrade.retries.get() + 1);
                        let st = Rc::clone(&self);
                        sim.schedule_after(backoff, move || {
                            let retries = Retries { conflict: retries.conflict + 1, ..retries };
                            Self::dispatch(&st, pieces, retries);
                            Self::unit_done(&st);
                        });
                    }
                    Some(_) => {
                        self.client.inner.cluster.degrade().bump_deadline_exceeded();
                        self.fail(KvError::DeadlineExceeded);
                    }
                    // Conflict budget exhausted: surface the conflict.
                    None => self.fail(e),
                }
            }
            Some(e) => self.fail(e),
        }
    }

    /// Drops the cached routes of `pieces`' ranges.
    fn forget_routes(&self, pieces: &[Piece]) {
        let keys: Vec<Bytes> = pieces.iter().map(|p| self.routing_key(&p.req)).collect();
        let mut cache = self.client.inner.cache.borrow_mut();
        keys.iter().for_each(|key| cache.invalidate(key));
    }

    /// A dead node, a lost hop or a stale descriptor: forget what the
    /// cache says about `pieces`' ranges and route them again after a
    /// backoff. The lease-check loop moves leases off dead nodes within
    /// its period, so retries back off long enough to observe that.
    fn retry_after_backoff(self: Rc<Self>, pieces: Vec<Piece>, retries: Retries) {
        self.forget_routes(&pieces);
        let sim = self.client.inner.cluster.sim.clone();
        // The backoff must land before the batch deadline: a retry
        // scheduled past it is never scheduled at all.
        match routing_policy().next_delay(retries.routing, sim.now(), self.template.deadline) {
            Some(backoff) => {
                sim.schedule_after(backoff, move || self.retry_routing(pieces, retries));
            }
            None => {
                self.client.inner.cluster.degrade().bump_deadline_exceeded();
                self.fail(KvError::DeadlineExceeded);
            }
        }
    }

    fn retry_routing(self: Rc<Self>, pieces: Vec<Piece>, retries: Retries) {
        if retries.routing >= MAX_ROUTING_RETRIES {
            // The retry budget outlasts any single lease transfer; if we
            // still have no live route the range is genuinely unavailable.
            self.give_up(&pieces, retries);
            return;
        }
        let degrade = self.client.inner.cluster.degrade();
        degrade.retries.set(degrade.retries.get() + 1);
        Self::dispatch(&self, pieces, Retries { routing: retries.routing + 1, ..retries });
        Self::unit_done(&self);
    }

    /// Fails the batch because the sub-batch `pieces` has no route left to
    /// try. Terminal either way, but what the caller may do next differs:
    /// nothing of an [`KvError::Unavailable`] batch was applied, so its
    /// transaction can run again, while a commit of which a copy went
    /// unanswered may have been applied by the node that never replied —
    /// running that transaction again could apply it twice.
    fn give_up(self: &Rc<Self>, pieces: &[Piece], retries: Retries) {
        let commits = |p: &Piece| matches!(p.req, RequestKind::EndTxn { commit: true });
        if retries.unanswered && pieces.iter().any(commits) {
            let degrade = self.client.inner.cluster.degrade();
            degrade.ambiguous_commits.set(degrade.ambiguous_commits.get() + 1);
            self.fail(KvError::AmbiguousCommit);
        } else {
            self.fail(KvError::Unavailable);
        }
    }

    fn fail(self: &Rc<Self>, error: KvError) {
        // Bind before branching: the callback may issue a follow-up batch
        // that re-enters this state while the guard is live.
        let cb = self.finished.borrow_mut().take();
        if let Some(cb) = cb {
            cb(BatchResponse::err(error));
        }
        Self::unit_done(self);
    }

    /// Retires one routing pass or sub-batch RPC; the last one out
    /// merges the results and completes the batch.
    fn unit_done(state: &Rc<Self>) {
        let remaining = state.outstanding.get() - 1;
        state.outstanding.set(remaining);
        if remaining > 0 {
            return;
        }
        // Bind before matching so the RefMut guard is dropped here and not
        // held across the merge below (PR 3 bug class).
        let finished = state.finished.borrow_mut().take();
        let cb = match finished {
            Some(cb) => cb,
            None => return, // already failed
        };
        let results = state.results.take();
        let mut merged = Vec::with_capacity(results.len());
        for (idx, mut pieces) in results.into_iter().enumerate() {
            if pieces.len() <= 1 {
                merged.push(pieces.pop().unwrap_or(ResponseKind::Ok));
                continue;
            }
            // A span request that was split across ranges. A scan's
            // pieces arrive in completion order, each sorted and over a
            // disjoint key range: concatenate, sort, then apply the
            // original limit — every piece carried the full limit, so a
            // scan crossing N ranges could otherwise return up to
            // N × limit rows.
            let mut pairs: Vec<(Bytes, Bytes)> = Vec::new();
            let mut is_scan = false;
            for piece in pieces {
                if let ResponseKind::Pairs(p) = piece {
                    is_scan = true;
                    pairs.extend(p);
                }
            }
            if !is_scan {
                merged.push(ResponseKind::Ok);
                continue;
            }
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            if let Some(Some(limit)) = state.limits.get(idx) {
                pairs.truncate(*limit);
            }
            merged.push(ResponseKind::Pairs(pairs));
        }
        cb(BatchResponse::ok(merged));
    }
}

/// Builds the `TxnMeta` for a new transaction anchored at `anchor_key`.
pub fn make_txn_meta(cluster: &KvCluster, anchor_key: Bytes) -> TxnMeta {
    let id = cluster.begin_txn();
    let ts = cluster.now_ts();
    TxnMeta { txn_id: id, anchor_key, start_ts: ts, write_ts: ts }
}
