//! A KV (storage) node (§4.1).
//!
//! KV nodes are shared across tenants: one process serves reads and writes
//! for every tenant whose range leases it holds. Each node owns an LSM
//! engine, a simulated CPU, a simulated disk, and an admission controller.
//! A batch is served as one task, [`KvNode::serve`]: auth → addressing
//! check → admission → CPU → execute → quorum → group commit → response.
//! The checks and the MVCC work run synchronously; the four waits are
//! `.await`s on completions that the admission pump, the CPU, a timer and
//! the fsync fill. The caller's network hop carries the response back.
//!
//! A batch is addressed to one range: the one holding its first key,
//! whose lease this node must hold, and *every* request of the batch must
//! lie inside it (`addressed_range`; checked on receipt and again
//! when the batch leaves the admission queue, because leases move and
//! ranges split meanwhile). A batch that fails the check is answered
//! whole, nothing evaluated, with the range's authoritative info. That
//! check is what lets a batch carrying a transaction's refreshes, writes
//! and `EndTxn{commit}` together be evaluated as a **one-phase commit**:
//! pick the commit timestamp, validate everything, then apply committed
//! versions in one WAL batch per replica — no intents, so no transaction
//! record to settle them by; one quorum wait, one group commit
//! ([`KvNode::commit_one_phase`]).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};
use std::time::Duration;

use bytes::Bytes;
use crdb_admission::{AdmissionController, Priority, WorkClass};
use crdb_obs::trace;
use crdb_sim::cpu::CpuScheduler;
use crdb_sim::resource::RateResource;
use crdb_sim::task::{self, Completion};
use crdb_sim::{Location, Sim};
use crdb_storage::{Engine, LsmConfig};
use crdb_util::time::{dur, SimTime};
use crdb_util::{NodeId, TenantId};

use crate::auth::TenantCert;
use crate::batch::{BatchRequest, BatchResponse, KvError, RequestKind, ResponseKind};
use crate::cluster::ClusterInner;
use crate::cost::TrafficStats;
use crate::directory::Directory;
use crate::hlc::Timestamp;
use crate::mvcc;
use crate::range::RangeState;
use crate::timing::TXN_ABANDON_TIMEOUT;
use crate::tscache::{Bound, TsCache};
use crate::txn::{TxnRecord, TxnStatus};

/// Bytes a transaction record adds to a write batch's physical payload.
const TXN_RECORD_PAYLOAD: usize = 32;

/// Group-commit window: a leaseholder's WAL append is durable at the next
/// modeled fsync, at most this long after it. The window opens at the first
/// append it covers, every batch appended inside it shares the one fsync,
/// and it runs beside the quorum wait — a write acks at the later of the
/// two, not their sum.
pub const FSYNC_INTERVAL: Duration = Duration::from_micros(500);

/// Disk flush/compaction bandwidth per node, bytes/s.
const DISK_RATE: f64 = 64.0 * (1 << 20) as f64;

/// Concurrent background compaction jobs per node (each claims a disjoint
/// level pair and is charged to the node's disk).
const COMPACTION_SLOTS: usize = 2;

/// How far back the batch rate behind the cost model's economy curve
/// looks.
const BATCH_RATE_WINDOW: Duration = Duration::from_secs(5);

/// An operation queued in admission: the batch, and the completion its
/// `serve` task awaits.
pub(crate) struct PendingOp {
    pub batch: BatchRequest,
    /// The request's `kv.serve` span, carried through the admission queue
    /// and the CPU scheduler so server-side phases attach to the caller's
    /// trace.
    pub span: trace::MaybeSpan,
    /// Child of `span` covering time spent queued in admission.
    pub queue_span: trace::MaybeSpan,
    /// Filled once the batch has had its CPU, or with the error that ends
    /// it in the queue.
    pub admitted: Completion<Result<Granted, KvError>>,
}

/// A batch back from admission and the CPU, with what admission is told
/// when it completes.
pub(crate) struct Granted {
    batch: BatchRequest,
    span: trace::MaybeSpan,
    class: WorkClass,
    cpu_cost: f64,
    bytes: f64,
}

/// The addressing check: the range holding the batch's first key must be
/// led by `node` and must contain every request of the batch. The errors
/// carry that range's authoritative descriptor and leaseholder, so one
/// redirect is all a stale client needs.
fn addressed_range<'a>(
    node: NodeId,
    directory: &'a Directory,
    batch: &BatchRequest,
) -> Result<&'a RangeState, KvError> {
    let anchor = KvNode::anchor_key(batch).ok_or(KvError::RangeNotFound)?;
    let range = directory.lookup(anchor).ok_or(KvError::RangeNotFound)?;
    if range.lease.holder != node {
        return Err(KvError::NotLeaseholder(range.into()));
    }
    let inside = |req| {
        let (key, end) = batch.routing_span(req);
        range.desc.contains(key) && end.is_none_or(|end| end.as_ref() <= range.desc.end.as_ref())
    };
    if !batch.requests.iter().all(inside) {
        return Err(KvError::RangeKeyMismatch(range.into()));
    }
    Ok(range)
}

/// A shared KV storage node.
pub struct KvNode {
    /// Node ID.
    pub id: NodeId,
    /// Placement.
    pub location: Location,
    pub(crate) sim: Sim,
    /// The node's CPU.
    pub cpu: CpuScheduler,
    /// The node's disk (flush/compaction bandwidth).
    pub disk: RateResource,
    /// The node's storage engine (holds all its replicas' data).
    pub engine: Engine,
    pub(crate) admission: RefCell<AdmissionController<PendingOp>>,
    pub(crate) cluster: Weak<RefCell<ClusterInner>>,
    alive: Cell<bool>,
    /// Per-tenant traffic features (input to the estimated-CPU model).
    traffic: RefCell<BTreeMap<TenantId, TrafficStats>>,
    /// Admission times of the batches granted in the last
    /// [`BATCH_RATE_WINDOW`], oldest first: the batch rate the cost
    /// model's economy curve reads.
    batch_arrivals: RefCell<VecDeque<SimTime>>,
    /// Batches served (lifetime).
    pub batches_served: Cell<u64>,
    /// Scheduled admission re-poll, if any.
    pending_pump: Cell<Option<crdb_sim::EventId>>,
    /// The runnable integral at the last AIMD tick, and its instant.
    last_tick: Cell<(f64, SimTime)>,
    /// Wakes the parked AIMD loop: a task entering the empty CPU, a crash.
    park: Completion<()>,
    /// The timestamp cache (§"tscache"): high-water marks of read
    /// timestamps over the spans this node served reads of, which writes
    /// must land above.
    ts_cache: RefCell<TsCache>,
    /// Writes whose quorum answered before the group commit that covers
    /// their append, in arrival order: each task awaits its completion.
    commit_acks: RefCell<Vec<Completion<()>>>,
    /// Whether a group-commit fsync is already scheduled.
    commit_timer_armed: Cell<bool>,
}

impl KvNode {
    pub(crate) fn new(
        sim: Sim,
        id: NodeId,
        location: Location,
        vcpus: f64,
        admission_enabled: bool,
        cluster: Weak<RefCell<ClusterInner>>,
    ) -> Rc<KvNode> {
        let cpu = CpuScheduler::new(sim.clone(), vcpus);
        // Pipelined write path: the node drives flush/compaction as
        // disk-metered background jobs ([`KvNode::maintain_storage`]).
        let engine = Engine::new(LsmConfig::default());
        let node = Rc::new(KvNode {
            id,
            location,
            cpu: cpu.clone(),
            disk: RateResource::new(sim.clone(), DISK_RATE),
            engine,
            admission: RefCell::new(AdmissionController::new(admission_enabled)),
            cluster,
            alive: Cell::new(true),
            traffic: RefCell::new(BTreeMap::new()),
            batch_arrivals: RefCell::new(VecDeque::new()),
            batches_served: Cell::new(0),
            pending_pump: Cell::new(None),
            last_tick: Cell::new((0.0, sim.now())),
            park: Completion::default(),
            ts_cache: RefCell::new(TsCache::new(sim.now(), Timestamp::ZERO)),
            commit_acks: RefCell::new(Vec::new()),
            commit_timer_armed: Cell::new(false),
            sim,
        });
        node.start_tick_loop();
        node
    }

    fn start_tick_loop(self: &Rc<Self>) {
        // AIMD slot adjustment: the paper samples the runnable queue at
        // 1000 Hz and adjusts via AIMD; under simulation the runnable queue
        // integral is exact, so we tick the controller at 50 ms with the
        // exact interval average (DESIGN.md substitution). A tick finding
        // the pool at rest on an empty CPU parks the loop, as later ticks
        // would move only `last_tick`'s instant until a task enters the CPU.
        // Woken, it holds what an unparked loop would: the same integral at
        // the last grid instant before the wake.
        self.cpu.fill_when_busy(self.park.clone());
        let (node, tick) = (Rc::clone(self), dur::ms(50));
        task::spawn(&self.sim, async move {
            let mut wait = tick;
            loop {
                task::sleep(&node.sim, std::mem::replace(&mut wait, tick)).await;
                if !node.alive.get() {
                    continue;
                }
                let now = node.sim.now();
                let (last_runnable, last_at) = node.last_tick.get();
                let runnable = node.cpu.cumulative_runnable();
                let dt = now.duration_since(last_at).as_secs_f64();
                let at_rest = dt > 0.0 && {
                    let avg_runnable = (runnable - last_runnable) / dt;
                    node.admission.borrow_mut().tick_slots(avg_runnable, node.cpu.vcpus())
                };
                node.last_tick.set((runnable, now));
                if at_rest {
                    while node.alive.get() && node.cpu.is_idle() {
                        node.park.clone().await;
                    }
                    let woke = node.sim.now();
                    let skipped = (woke - now).as_nanos().saturating_sub(1) / tick.as_nanos();
                    let resumed = now + tick * skipped as u32;
                    node.last_tick.set((runnable, resumed));
                    wait = (resumed + tick).duration_since(woke);
                }
            }
        });
        // Write capacity estimation from LSM instrumentation.
        let node = Rc::clone(self);
        task::spawn(&self.sim, async move {
            loop {
                task::sleep(&node.sim, crdb_admission::write::ESTIMATION_INTERVAL).await;
                if !node.alive.get() {
                    continue;
                }
                let now = node.sim.now();
                let metrics = node.engine.metrics();
                let l0 = node.engine.with_lsm(|lsm| lsm.l0_file_count());
                node.admission.borrow_mut().estimate_write_capacity(now, metrics, l0);
            }
        });
    }

    /// Arms the group-commit timer unless a window is already open: the
    /// fsync [`FSYNC_INTERVAL`] from now covers everything appended by
    /// then. Called when a batch this node evaluated appends, so the sync
    /// runs while the batch waits for its quorum.
    fn arm_group_commit(self: &Rc<Self>) {
        if !self.commit_timer_armed.replace(true) {
            let node = Rc::clone(self);
            task::spawn(&self.sim, async move {
                task::sleep(&node.sim, FSYNC_INTERVAL).await;
                node.commit_timer_armed.set(false);
                node.fire_group_commit();
            });
        }
    }

    /// Commits the current WAL group (one modeled fsync) and releases
    /// every ack that was waiting on it — each was queued for an append
    /// made before now, and the sync covers all of those. Fires even
    /// across a node crash: an ack enqueued before the crash was backed by
    /// a WAL append whose data survives in the engine, so releasing it
    /// never loses a commit.
    fn fire_group_commit(self: &Rc<Self>) {
        let acks = std::mem::take(&mut *self.commit_acks.borrow_mut());
        self.engine.group_commit();
        acks.iter().for_each(|ack| ack.fill(()));
    }

    /// Settles a change to the engine that this node did not evaluate (a
    /// replay, an ingest) in its own event: syncs the WAL unless a window
    /// is open, whose fsync covers it, and starts the work it made due.
    pub(crate) fn settle_write(self: &Rc<Self>) {
        if !self.commit_timer_armed.get() {
            self.engine.group_commit();
        }
        self.maintain_storage();
    }

    /// Starts any background storage work that is due, charging it to the
    /// node's disk: at most one memtable flush plus up to
    /// [`COMPACTION_SLOTS`] compactions on disjoint level pairs. Bytes are
    /// attributed in `StorageMetrics` when each job's disk I/O completes,
    /// together with how long the flush or L0 compaction took from claim
    /// to completion — bytes over *that* time is what the §5.1.3
    /// write-capacity estimator reads as capacity.
    ///
    /// Compactions are where flushed MVCC history is collected: each job
    /// merges through [`mvcc::compaction_gc`] with the GC horizon of the
    /// instant it was claimed, so whatever was readable when the job
    /// started is readable when it ends.
    pub(crate) fn maintain_storage(self: &Rc<Self>) {
        let started = self.sim.now();
        let gc_horizon = mvcc::gc_horizon(Timestamp::at(started));
        if let Some(job) = self.engine.with_lsm(|lsm| lsm.begin_flush()) {
            let (node, io) =
                (Rc::clone(self), self.disk.transfer(job.bytes_estimate().max(1) as f64));
            task::spawn(&self.sim, async move {
                io.await;
                let ran_for = node.sim.now().duration_since(started);
                node.engine.with_lsm(|lsm| {
                    lsm.finish_flush(job);
                    lsm.note_flush_time(ran_for);
                });
                node.maintain_storage();
            });
        }
        while self.engine.with_lsm(|lsm| lsm.compactions_in_flight()) < COMPACTION_SLOTS {
            let job = self
                .engine
                .with_lsm(|lsm| lsm.pick_compaction().map(|pick| lsm.begin_compaction(&pick)));
            let Some(job) = job else { break };
            let (node, io) = (Rc::clone(self), self.disk.transfer(job.bytes_in().max(1) as f64));
            let from_l0 = job.level() == 0;
            task::spawn(&self.sim, async move {
                io.await;
                let ran_for = node.sim.now().duration_since(started);
                node.engine.with_lsm(|lsm| {
                    lsm.finish_compaction(job, Some(&mut mvcc::compaction_gc(gc_horizon)));
                    if from_l0 {
                        lsm.note_l0_compaction_time(ran_for);
                    }
                });
                node.maintain_storage();
            });
        }
    }

    /// Whether the node is up.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Marks the node down or back up. A node that is down refuses new
    /// batches, but what it had already admitted is not abandoned: a batch
    /// received before the crash is still evaluated and answered after it,
    /// and its group commit still fires (ROADMAP item 7 has a crash drop
    /// the node's `serve` tasks instead). A node that comes back has lost
    /// its timestamp cache with the rest of its memory, so it must assume
    /// anything was read up to the instant it restarted: that becomes the
    /// new cache's floor.
    pub fn set_alive(&self, alive: bool) {
        if alive && !self.alive.get() {
            let now = self.sim.now();
            let restarted_at = self.cluster.upgrade().map(|c| c.borrow().hlc.now(now));
            let floor = restarted_at.unwrap_or(Timestamp::at(now));
            *self.ts_cache.borrow_mut() = TsCache::new(now, floor);
        }
        self.alive.set(alive);
        self.park.fill(()); // Wakes a parked AIMD loop: a down node skips its ticks.
    }

    /// Marks `[start, end)` read at `lease_start`: the node has just been
    /// granted the range's lease, and whatever its previous leaseholders
    /// served is in their caches, not this one.
    pub(crate) fn record_lease_start(&self, start: &Bytes, end: &Bytes, lease_start: Timestamp) {
        let end = Bound::At(end.clone());
        self.ts_cache.borrow_mut().record_span(self.sim.now(), start, end, lease_start);
    }

    /// Serves a batch from the network, `cert` authenticating its sender:
    /// the response, once the batch has waited out admission, its CPU,
    /// its quorum and the group commit that makes its write durable. The
    /// checks on receipt and the evaluation run synchronously; only those
    /// four waits are `.await`s. The caller carries the response back.
    pub async fn serve(self: Rc<Self>, cert: TenantCert, batch: BatchRequest) -> BatchResponse {
        let admitted = match self.admit(&cert, batch) {
            Ok(admitted) => admitted,
            Err(e) => return BatchResponse::err(e),
        };
        let (response, span, quorum, durable_at) = match admitted.await {
            Ok(granted) => self.execute(granted),
            Err(e) => return BatchResponse::err(e),
        };
        // Replication: respond only after a quorum would have acked.
        if !quorum.is_zero() {
            let repl_span = span.child("replication.quorum");
            task::sleep(&self.sim, quorum).await;
            repl_span.end();
        }
        // A successful write must also be durable: it responds at once if
        // the engine's durability mark already covers its append — the
        // usual case, the sync having run during the quorum wait — else
        // when the group commit armed at its append fires.
        // `wal.group_commit` spans only that residual wait, so `kv.serve`'s
        // children never overlap.
        if durable_at.is_some_and(|seq| self.engine.wal_synced_seq() < seq) {
            let commit_span = span.child("wal.group_commit");
            let synced = Completion::default();
            self.commit_acks.borrow_mut().push(synced.clone());
            // Already armed by the append (no fsync can have fired since,
            // or the mark would cover it); a queued ack never lacks a timer.
            self.arm_group_commit();
            synced.await;
            commit_span.end();
        }
        span.end();
        response
    }

    /// The checks on receipt — liveness, authentication (§3.2.3),
    /// addressing and the batch's deadline — then the admission queue
    /// (§5.1): reads through the CQ, writes through WQ + CQ. Returns the
    /// completion the batch's grant fills.
    fn admit(
        self: &Rc<Self>,
        cert: &TenantCert,
        batch: BatchRequest,
    ) -> Result<Completion<Result<Granted, KvError>>, KvError> {
        if !self.alive.get() {
            return Err(KvError::NodeUnavailable);
        }
        let cluster = self.cluster.upgrade().ok_or(KvError::NodeUnavailable)?;
        {
            let inner = cluster.borrow();
            crate::auth::authorize(&inner.ca, cert, &batch)?;
            addressed_range(self.id, &inner.directory, &batch)?;
        }
        let now = self.sim.now();
        // Propagated deadline: a batch that is already past it fails
        // typed without queuing, and the admission deadline is clamped
        // to it — the node never works on a request its caller has
        // already abandoned.
        if batch.deadline.expired(now) {
            cluster.borrow().degrade.bump_deadline_exceeded();
            return Err(KvError::DeadlineExceeded);
        }
        let tenant = batch.tenant;
        let txn_start = batch.txn.start_ts.to_sim_time();
        let deadline = (now + dur::secs(30)).min(batch.deadline.time());
        let priority = if tenant.is_system() { Priority::High } else { Priority::Normal };
        let is_write = batch.is_write();
        let bytes = batch.payload_bytes() as f64;
        let span = trace::child("kv.serve");
        span.tag("node", self.id);
        span.tag("tenant", tenant);
        let queue_span = span.child("admission.queue");
        let admitted = Completion::default();
        let op = PendingOp { batch, span, queue_span, admitted: admitted.clone() };
        {
            let mut adm = self.admission.borrow_mut();
            if is_write {
                adm.request_write(now, tenant, priority, txn_start, deadline, bytes, op);
            } else {
                adm.request_read(now, tenant, priority, txn_start, deadline, op);
            }
        }
        self.pump();
        Ok(admitted)
    }

    /// The key whose range the batch is addressed to: its first request's.
    fn anchor_key(batch: &BatchRequest) -> Option<&Bytes> {
        batch.requests.first().map(|r| batch.routing_span(r).0)
    }

    /// Drains admission grants into CPU tasks, and answers each operation
    /// whose admission deadline passed while it was queued:
    /// `DeadlineExceeded` if the batch's own deadline has passed,
    /// `AdmissionTimeout` if only the node's queueing cap has. Each grant
    /// is a small task that awaits its CPU, then fills the batch's
    /// completion and pumps again: the `serve` task has answered, or armed
    /// its quorum timer, by then.
    /// Re-schedules itself when a deferred write-token grant is pending.
    pub(crate) fn pump(self: &Rc<Self>) {
        let now = self.sim.now();
        let (grants, expired) = {
            let mut adm = self.admission.borrow_mut();
            (adm.poll(now), adm.take_expired())
        };
        for PendingOp { batch, span, queue_span, admitted } in expired {
            queue_span.end();
            span.end();
            admitted.fill(Err(if batch.deadline.expired(now) {
                KvError::DeadlineExceeded
            } else {
                KvError::AdmissionTimeout
            }));
        }
        for grant in grants {
            let (tenant, class, bytes) = (grant.tenant, grant.class, grant.bytes);
            let PendingOp { batch, span, queue_span, admitted } = grant.payload;
            // Ground-truth CPU cost, shaped by the recent batch rate.
            let rate = {
                let mut arrivals = self.batch_arrivals.borrow_mut();
                arrivals.push_back(now);
                while arrivals.front().is_some_and(|&t| now.duration_since(t) > BATCH_RATE_WINDOW) {
                    arrivals.pop_front();
                }
                arrivals.len() as f64 / BATCH_RATE_WINDOW.as_secs_f64()
            };
            let cpu_cost = {
                let cluster = match self.cluster.upgrade() {
                    Some(c) => c,
                    None => continue,
                };
                let inner = cluster.borrow();
                inner.cost_model.batch_cpu_seconds(&batch, rate)
            };
            queue_span.end();
            let cpu_span = span.child("kv.cpu");
            let (node, cpu) = (Rc::clone(self), self.cpu.run(tenant, cpu_cost));
            task::spawn(&self.sim, async move {
                cpu.await;
                cpu_span.end();
                admitted.fill(Ok(Granted { batch, span, class, cpu_cost, bytes }));
                node.pump();
            });
        }
        // Deferred token grants need a wake-up.
        let next = self.admission.borrow_mut().next_event_time(now);
        if let Some(at) = next {
            if let Some(ev) = self.pending_pump.take() {
                self.sim.cancel(ev);
            }
            let node = Rc::clone(self);
            let ev = self.sim.schedule_at(at + dur::us(1), move || {
                node.pending_pump.set(None);
                node.pump();
            });
            self.pending_pump.set(Some(ev));
        }
    }

    /// Executes a batch whose CPU service completed: its response, its
    /// `kv.serve` span, the quorum delay to wait out before responding,
    /// and the WAL sequence number a successful write must be durable at.
    fn execute(
        self: &Rc<Self>,
        granted: Granted,
    ) -> (BatchResponse, trace::MaybeSpan, Duration, Option<u64>) {
        let now = self.sim.now();
        let Granted { batch, span, class, cpu_cost, bytes } = granted;
        let Some(cluster) = self.cluster.upgrade() else {
            return (BatchResponse::err(KvError::NodeUnavailable), span, Duration::ZERO, None);
        };

        // Evaluation gate. The lease may have moved or the range split
        // while the batch sat in the admission queue, so the addressing
        // check runs again; and a write whose range has lost its
        // replication quorum (a zone/region outage downed a follower
        // majority) is rejected *before* any MVCC mutation applies — a
        // write that cannot replicate must never apply or ack. The range's
        // followers are looked up this once, for the gate, the replay and
        // the quorum wait (liveness cannot change mid-event).
        let gate = {
            let inner = cluster.borrow();
            addressed_range(self.id, &inner.directory, &batch).and_then(|range| {
                let replicas = &range.desc.replicas;
                let followers: Vec<Rc<KvNode>> = replicas
                    .iter()
                    .filter(|&&n| n != self.id)
                    .filter_map(|n| inner.nodes.get(n).map(Rc::clone))
                    .collect();
                let live = 1 + followers.iter().filter(|f| f.is_alive()).count();
                if batch.is_write() && live <= replicas.len() / 2 {
                    inner.degrade.quorum_losses.set(inner.degrade.quorum_losses.get() + 1);
                    span.tag("quorum_loss", true);
                    return Err(KvError::Unavailable);
                }
                Ok(followers)
            })
        };
        let followers = match gate {
            Ok(followers) => followers,
            Err(e) => {
                self.admission.borrow_mut().complete(
                    now,
                    batch.tenant,
                    class,
                    cpu_cost,
                    bytes,
                    None,
                );
                return (BatchResponse::err(e), span, Duration::ZERO, None);
            }
        };

        // Write-stall backpressure: a write arriving while the engine has
        // a flush or L0 backlog pays a modeled stall delay before its ack.
        // The stall is recorded in `StorageMetrics`, so admission control
        // sees it at the next capacity estimation, and maintenance is
        // kicked so the backlog is actually draining while the write
        // waits.
        let stall_delay = if batch.is_write() && self.engine.write_stall().is_some() {
            let d = dur::ms(1);
            self.engine.with_lsm(|lsm| lsm.note_stall(d));
            self.maintain_storage();
            d
        } else {
            Duration::ZERO
        };

        let storage_span = span.child("storage.mvcc");
        storage_span.tag("requests", batch.requests.len());
        let appended_before = self.engine.wal_appended_seq();
        let result = self.execute_requests(&cluster, &batch, &followers);
        // The log sync starts at the append, beside replication, the way
        // Raft lets a leader write its disk in parallel with AppendEntries.
        // `wal_seq` is the highest sequence number the batch was given.
        let wal_seq = self.engine.wal_appended_seq();
        let appended = wal_seq > appended_before;
        if appended {
            self.arm_group_commit();
        }
        let (response, write_payload) = match result {
            Ok((results, write_payload)) => (BatchResponse::ok(results), write_payload),
            Err(e) => (BatchResponse::err(e), 0),
        };
        if write_payload > 0 {
            storage_span.tag("write_bytes", write_payload);
        }
        storage_span.end();

        // Traffic features for the estimated-CPU model.
        self.traffic
            .borrow_mut()
            .entry(batch.tenant)
            .or_default()
            .record(&batch, response.response_bytes);
        self.batches_served.set(self.batches_served.get() + 1);

        // Admission completion: actual CPU and actual physical write bytes
        // (raft log + state machine, the §5.1.4 linear model's target).
        let actual_bytes = (write_payload > 0).then(|| {
            let physical = 2.0 * write_payload as f64 + 96.0;
            self.disk.charge(physical);
            physical
        });
        // The append may have rotated the memtable: start its flush (and
        // any compaction now due) in this event.
        if appended {
            self.maintain_storage();
        }
        self.admission.borrow_mut().complete(
            now,
            batch.tenant,
            class,
            cpu_cost,
            bytes,
            actual_bytes,
        );

        // The quorum a write waits for. Only *live* followers can ack —
        // with a domain down, the commit waits for the surviving (possibly
        // slower) replicas instead of crediting acks from dead ones.
        let repl_delay = if write_payload > 0 {
            let inner = cluster.borrow();
            // Charge follower CPUs for the apply.
            let follower_cost = inner.cost_model.follower_apply_cpu_seconds(cpu_cost);
            for f in followers.iter().filter(|f| f.is_alive()) {
                f.cpu.charge(batch.tenant, follower_cost);
            }
            let acks: Vec<(Location, bool)> =
                followers.iter().map(|f| (f.location, f.is_alive())).collect();
            // The pre-execute gate above guarantees a live quorum.
            let topology = &inner.topology;
            crate::replication::quorum_commit_delay(&self.sim, topology, self.location, &acks)
                .unwrap_or(Duration::ZERO)
        } else {
            Duration::ZERO
        };
        let durable_at = (write_payload > 0).then_some(wal_seq);
        (response, span, stall_delay + repl_delay, durable_at)
    }

    /// Runs the MVCC work of a batch: evaluates it against this node's
    /// engine alone, then has each follower replay what that applied — at
    /// the single exit, because a batch that fails may have mutated first
    /// (an intent `check_intent` settled, an abandoned transaction's
    /// record) and the followers must see that too, in the same order.
    fn execute_requests(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        batch: &BatchRequest,
        followers: &[Rc<KvNode>],
    ) -> Result<(Vec<ResponseKind>, usize), KvError> {
        let mut log = Vec::new();
        let result = self.evaluate(cluster, batch, &mut log);
        for follower in followers.iter().filter(|_| !log.is_empty()) {
            log.iter().for_each(|applied| applied.replay(&follower.engine));
            follower.settle_write();
        }
        result
    }

    /// Evaluates a batch against this node's engine, appending every
    /// mutation it applies there to `log`.
    fn evaluate(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        batch: &BatchRequest,
        log: &mut Vec<mvcc::Applied>,
    ) -> Result<(Vec<ResponseKind>, usize), KvError> {
        // Only what the batch writes grows the range — not the refresh
        // spans a commit batch carries beside its writes.
        let anchor = Self::anchor_key(batch).ok_or(KvError::RangeNotFound)?;
        let written = batch.is_write().then(|| {
            let written = batch.requests.iter().filter(|r| r.is_write());
            written.map(|r| r.payload_bytes() as u64).sum::<u64>()
        });
        {
            let mut inner = cluster.borrow_mut();
            inner.directory.record_batch(anchor, written).ok_or(KvError::RangeNotFound)?;
        }

        let txn = &batch.txn;
        // A commit step of a transaction known to have committed is a
        // replay — the reply was lost and the client sent the sub-batch
        // again, or fell back to the staged protocol after a one-phase
        // commit it never heard back from. Ack without evaluating:
        // applying twice would double the write, and validating would trip
        // over the transaction's own committed versions. One that nothing
        // is known of is a first delivery only while the status table
        // cannot have forgotten it. Past that it may as well be the replay
        // of a one-phase commit, which left no record: refuse, evaluating
        // nothing.
        if batch.requests.iter().all(RequestKind::is_commit_step) {
            match self.txn_status(cluster, txn.txn_id, txn.write_ts) {
                Some(TxnStatus::Committed(_)) => {
                    return Ok((vec![ResponseKind::Ok; batch.requests.len()], 0));
                }
                None if ClusterInner::may_have_forgotten(txn.write_ts, self.sim.now()) => {
                    let refused = &cluster.borrow().degrade.ambiguous_commits;
                    refused.set(refused.get() + 1);
                    return Err(KvError::AmbiguousCommit);
                }
                _ => {}
            }
        }
        if batch.is_one_phase_commit() {
            return self.commit_one_phase(cluster, batch, log);
        }

        let (read_ts, own_txn) = (txn.start_ts, Some(txn.txn_id));
        let mut results = Vec::with_capacity(batch.requests.len());
        let mut write_payload = 0usize;
        let mut refreshed: Vec<(&Bytes, &Bytes)> = Vec::new();

        for req in &batch.requests {
            match req {
                RequestKind::Get { key } => {
                    self.check_snapshot(key, None, read_ts)?;
                    self.ts_cache.borrow_mut().record_read(self.sim.now(), key, read_ts);
                    match mvcc::get(&self.engine, key, read_ts, own_txn) {
                        mvcc::ReadResult::Value(v) => results.push(ResponseKind::Value(v)),
                        mvcc::ReadResult::Intent(intent) => {
                            match self.check_intent(cluster, key, &intent, read_ts, log) {
                                Some(v) => results.push(ResponseKind::Value(v)),
                                None => {
                                    return Err(KvError::IntentConflict {
                                        other_txn: intent.txn_id,
                                    })
                                }
                            }
                        }
                    }
                }
                RequestKind::Scan { start, end, limit } => {
                    self.check_snapshot(start, Some(end), read_ts)?;
                    let (mut pairs, intents) =
                        mvcc::scan(&self.engine, start, end, read_ts, *limit, own_txn);
                    if !intents.is_empty() {
                        // Try to resolve each via its txn status; any still
                        // pending fails the batch (client retries).
                        for (key, intent) in &intents {
                            let resolved = self.check_intent(cluster, key, intent, read_ts, log);
                            if resolved.is_none() {
                                return Err(KvError::IntentConflict { other_txn: intent.txn_id });
                            }
                        }
                        // All resolved: re-scan for a consistent result.
                        (pairs, _) = mvcc::scan(&self.engine, start, end, read_ts, *limit, own_txn);
                    }
                    self.record_scan(start, end, *limit, &pairs, read_ts);
                    results.push(ResponseKind::Pairs(pairs));
                }
                RequestKind::WriteIntent { key, value } => {
                    let (id, ts, since) = (txn.txn_id, txn.write_ts, txn.start_ts);
                    // An intent must land above every read of its key but
                    // the transaction's own refresh, marked at `ts` itself
                    // (read timestamps are unique).
                    let watermark = self.ts_cache.borrow().read_watermark(key);
                    if watermark > ts {
                        return Err(KvError::WriteTooOld { existing: watermark });
                    }
                    let write =
                        || mvcc::write_intent(&self.engine, key, id, ts, since, value.as_ref());
                    let intent = self.validate_write(cluster, key, since, log, write)?;
                    log.push(intent);
                    write_payload += key.len() + value.as_ref().map_or(0, |v| v.len());
                    results.push(ResponseKind::Ok);
                }
                RequestKind::EndTxn { commit } => {
                    // A transaction already aborted by a pusher must not
                    // commit: its intents are gone, so acknowledging the
                    // commit would silently lose the writes.
                    if self.txn_status(cluster, txn.txn_id, txn.write_ts)
                        == Some(TxnStatus::Aborted)
                    {
                        return Err(KvError::TxnAborted);
                    }
                    let status = if *commit {
                        TxnStatus::Committed(txn.write_ts)
                    } else {
                        TxnStatus::Aborted
                    };
                    let record = TxnRecord { txn_id: txn.txn_id, status };
                    self.persist_txn_record(cluster, record, log);
                    {
                        let mut inner = cluster.borrow_mut();
                        inner.finalize_txn(txn.txn_id, status, self.sim.now());
                        if *commit {
                            let n = &inner.degrade.commits_two_phase;
                            n.set(n.get() + 1);
                        }
                    }
                    write_payload += TXN_RECORD_PAYLOAD;
                    results.push(ResponseKind::Ok);
                }
                RequestKind::RefreshSpan { start, end, since } => {
                    self.refresh(cluster, batch, start, end, *since)?;
                    refreshed.push((start, end));
                    results.push(ResponseKind::Ok);
                }
                RequestKind::ResolveIntent { key, commit_ts } => {
                    // A clean-up never discards a committed write. The
                    // coordinator sends one whenever its commit failed,
                    // and a commit can fail there (deadline, no route
                    // left) after its `EndTxn` went through.
                    let commit_ts = commit_ts.or_else(|| {
                        match self.txn_status(cluster, txn.txn_id, txn.write_ts) {
                            Some(TxnStatus::Committed(ts)) => Some(ts),
                            _ => None,
                        }
                    });
                    log.extend(mvcc::resolve_intent(&self.engine, key, txn.txn_id, commit_ts));
                    write_payload += key.len();
                    results.push(ResponseKind::Ok);
                }
            }
        }
        // A staged commit validated these reads up to its write timestamp,
        // where its `EndTxn` will commit it: a later write stamped below
        // that must not land in them. Marked only once the batch went
        // through: a transaction whose commit failed has no reads left to
        // protect.
        self.record_spans(&refreshed, txn.write_ts);
        Ok((results, write_payload))
    }

    /// Evaluates a batch holding a whole transaction commit — its read
    /// refreshes, every write, and `EndTxn{commit}` — in one phase. The
    /// addressing check guarantees all of it lies in one range this node
    /// leads, and so that this node's timestamp cache holds every read of
    /// a key the transaction writes.
    ///
    /// The transaction commits at its read timestamp, where its reads
    /// were served and so are valid as they stand — unless a key it
    /// writes was read above that by someone else, when the commit must
    /// land above the newest such read and its reads are valid only if
    /// nothing they covered changed up to there: each refresh span is
    /// checked then, and only then. Per written key the foreign-intent and
    /// write-too-old checks follow. Only when all of it passed does
    /// anything apply, as committed versions at the commit timestamp in
    /// one WAL batch: no intents, nothing to resolve, no transaction
    /// record to resolve it by, and a failure leaves nothing of the
    /// transaction behind. A pushed commit's reads are then marked at the
    /// commit timestamp, which they were just validated up to. What
    /// recognises a replay is the status table entry made here (see
    /// `evaluate`); `write_ts` — when the commit was sent — stays what
    /// dates that, however old the read timestamp is.
    fn commit_one_phase(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        batch: &BatchRequest,
        log: &mut Vec<mvcc::Applied>,
    ) -> Result<(Vec<ResponseKind>, usize), KvError> {
        let txn = &batch.txn;
        let start_ts = txn.start_ts;
        // A mark at the read timestamp itself is the transaction's own. A
        // pushed commit takes its timestamp from the cluster clock, so that
        // no other transaction reads or commits at it.
        let newest_read = {
            let cache = self.ts_cache.borrow();
            let written = batch.requests.iter().filter_map(|req| match req {
                RequestKind::WriteIntent { key, .. } => Some(cache.read_watermark(key)),
                _ => None,
            });
            written.filter(|&mark| mark > start_ts).max()
        };
        let commit_ts = newest_read
            .map_or(start_ts, |mark| cluster.borrow().hlc.now(self.sim.now()).max(mark.next()));
        let pushed = commit_ts > start_ts;
        let mut refreshed: Vec<(&Bytes, &Bytes)> = Vec::new();
        let mut writes: Vec<(&Bytes, Option<&Bytes>)> = Vec::new();
        let mut write_payload = 0usize;
        for req in &batch.requests {
            match req {
                RequestKind::RefreshSpan { start, end, since } if pushed => {
                    self.refresh(cluster, batch, start, end, *since)?;
                    refreshed.push((start, end));
                }
                RequestKind::WriteIntent { key, value } => {
                    let id = txn.txn_id;
                    let check = || mvcc::check_write(&self.engine, key, id, commit_ts, start_ts);
                    self.validate_write(cluster, key, start_ts, log, check)?;
                    writes.push((key, value.as_ref()));
                    write_payload += key.len() + value.as_ref().map_or(0, |v| v.len());
                }
                // `is_one_phase_commit` admits nothing else but the
                // `EndTxn{commit}` itself.
                _ => {}
            }
        }
        log.push(mvcc::commit_one_phase(&self.engine, commit_ts, &writes));
        self.record_spans(&refreshed, commit_ts);
        let mut inner = cluster.borrow_mut();
        inner.finalize_txn(txn.txn_id, TxnStatus::Committed(commit_ts), self.sim.now());
        let degrade = &inner.degrade;
        degrade.commits_one_phase.set(degrade.commits_one_phase.get() + 1);
        if pushed {
            degrade.commits_pushed.set(degrade.commits_pushed.get() + 1);
        }
        Ok((vec![ResponseKind::Ok; batch.requests.len()], write_payload))
    }

    /// Checks that nothing in `[start, end)` changed after `since` — a
    /// commit step of `batch`'s transaction — counting a failure by
    /// whether the transaction also writes in the span or only read it.
    fn refresh(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        batch: &BatchRequest,
        start: &Bytes,
        end: &Bytes,
        since: Timestamp,
    ) -> Result<(), KvError> {
        let own_txn = Some(batch.txn.txn_id);
        // Every version carries a timestamp of the cluster clock, which
        // issues no wall time past the simulated now (that would take
        // 2^32 timestamps in one nanosecond).
        let until = Timestamp { wall: self.sim.now().as_nanos(), logical: u32::MAX };
        mvcc::refresh_span(&self.engine, start, end, since, until, own_txn).map_err(|existing| {
            let writes_inside = batch.requests.iter().any(|req| match req {
                RequestKind::WriteIntent { key, .. } => start <= key && key < end,
                _ => false,
            });
            let degrade = &cluster.borrow().degrade;
            let conflicts = if writes_inside {
                &degrade.refresh_conflicts_read_write
            } else {
                &degrade.refresh_conflicts_read_only
            };
            conflicts.set(conflicts.get() + 1);
            KvError::WriteTooOld { existing }
        })
    }

    /// [`ClusterInner::txn_status`] as of now.
    fn txn_status(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        txn_id: u64,
        write_ts: Timestamp,
    ) -> Option<TxnStatus> {
        cluster.borrow().txn_status(txn_id, write_ts, self.sim.now())
    }

    /// Persists `record` — what settles an intent of the transaction that
    /// outlives the status table.
    fn persist_txn_record(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        record: TxnRecord,
        log: &mut Vec<mvcc::Applied>,
    ) {
        log.push(mvcc::put_txn_record(&self.engine, &record));
        let written = &cluster.borrow().degrade.txn_records_written;
        written.set(written.get() + 1);
    }

    /// Runs `write` — a write of `key` by a transaction that read at
    /// `start_ts`, or the check of one — past another transaction's
    /// pending intent and a version committed past the transaction's
    /// snapshot. A foreign intent whose transaction has finalized is
    /// settled on the way, and `write` runs again.
    fn validate_write<T>(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        key: &Bytes,
        start_ts: Timestamp,
        log: &mut Vec<mvcc::Applied>,
        write: impl Fn() -> Result<T, mvcc::WriteConflict>,
    ) -> Result<T, KvError> {
        let outcome = match write() {
            Err(mvcc::WriteConflict::Intent(other)) => {
                if self.check_intent(cluster, key, &other, start_ts, log).is_none() {
                    return Err(KvError::IntentConflict { other_txn: other.txn_id });
                }
                write()
            }
            result => result,
        };
        outcome.map_err(|c| match c {
            mvcc::WriteConflict::WriteTooOld(existing) => KvError::WriteTooOld { existing },
            mvcc::WriteConflict::Intent(o) => KvError::IntentConflict { other_txn: o.txn_id },
        })
    }

    /// Refuses a read at `read_ts` of `[start, end)` — of the key `start`
    /// alone without an `end` — whose snapshot MVCC garbage collection may
    /// have reached: the read would return what is left, silently — a
    /// missing row, a short scan. Only a read older than the GC window can
    /// be (one that queued for seconds, or was sent again after an RPC
    /// timeout), and only if a key it reads was written meanwhile; every
    /// other read pays one comparison.
    fn check_snapshot(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        read_ts: Timestamp,
    ) -> Result<(), KvError> {
        let horizon = mvcc::gc_horizon(Timestamp::at(self.sim.now()));
        if read_ts >= horizon {
            return Ok(());
        }
        let point_end;
        let end = match end {
            Some(end) => end,
            None => {
                point_end = [start, &[0x00]].concat();
                &point_end
            }
        };
        if mvcc::snapshot_collected(&self.engine, start, end, read_ts, horizon) {
            return Err(KvError::SnapshotTooOld);
        }
        Ok(())
    }

    /// Marks what a scan of `[start, end)` examined at `read_ts`: all of
    /// the span, whatever it found there — or, when its limit stopped it,
    /// the span up to and including the last key it returned. A piece
    /// starting at a key the scan returned holds the engine's own copy of
    /// that key, which stays resident anyway.
    fn record_scan(
        &self,
        start: &Bytes,
        end: &Bytes,
        limit: usize,
        pairs: &[(Bytes, Bytes)],
        read_ts: Timestamp,
    ) {
        let start = match pairs.first() {
            Some((first, _)) if first == start => first,
            _ => start,
        };
        let mut end = Bound::end_of(start, end);
        if pairs.len() >= limit {
            if let Some((last, _)) = pairs.last() {
                end = end.min(Bound::After(last.clone()));
            }
        }
        self.ts_cache.borrow_mut().record_span(self.sim.now(), start, end, read_ts);
    }

    /// Marks each of `spans` read at `ts`.
    fn record_spans(&self, spans: &[(&Bytes, &Bytes)], ts: Timestamp) {
        let mut cache = self.ts_cache.borrow_mut();
        for (start, end) in spans {
            cache.record_span(self.sim.now(), start, Bound::end_of(start, end), ts);
        }
    }

    /// Checks an encountered intent against its transaction's status. If
    /// finalized, resolves the intent and returns the visible value;
    /// `None` means the owner is still pending.
    fn check_intent(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        key: &Bytes,
        intent: &mvcc::Intent,
        read_ts: Timestamp,
        log: &mut Vec<mvcc::Applied>,
    ) -> Option<Option<Bytes>> {
        // An intent carries its transaction's write timestamp.
        let commit_ts = match self.txn_status(cluster, intent.txn_id, intent.ts) {
            Some(TxnStatus::Committed(ts)) => Some(ts),
            Some(TxnStatus::Aborted) => None,
            Some(TxnStatus::Pending) | None => {
                // Push check: a transaction whose coordinator died (pod
                // crash, region outage) leaves intents that would block
                // readers forever — there is no one left to resolve them.
                // An intent untouched for longer than any plausible live
                // transaction marks its owner abandoned: abort it and
                // clear the intent, exactly like CockroachDB's pusher
                // aborting an expired transaction record.
                let now = self.sim.now().as_nanos();
                if now.saturating_sub(intent.ts.wall) < TXN_ABANDON_TIMEOUT.as_nanos() as u64 {
                    return None;
                }
                cluster.borrow_mut().finalize_txn(
                    intent.txn_id,
                    TxnStatus::Aborted,
                    self.sim.now(),
                );
                let record = TxnRecord { txn_id: intent.txn_id, status: TxnStatus::Aborted };
                self.persist_txn_record(cluster, record, log);
                let degrade = &cluster.borrow().degrade;
                degrade.txn_pushes.set(degrade.txn_pushes.get() + 1);
                None
            }
        };
        log.extend(mvcc::resolve_intent(&self.engine, key, intent.txn_id, commit_ts));
        // Snapshot semantics: a resolved value is visible only if it
        // committed at or below the reader's timestamp.
        match mvcc::get(&self.engine, key, read_ts, None) {
            mvcc::ReadResult::Value(v) => Some(v),
            mvcc::ReadResult::Intent(_) => None,
        }
    }

    /// Per-tenant cumulative traffic features.
    pub fn traffic_stats(&self, tenant: TenantId) -> TrafficStats {
        self.traffic.borrow().get(&tenant).copied().unwrap_or_default()
    }

    /// Current admission queue depth (for observability).
    pub fn admission_queue_len(&self) -> usize {
        self.admission.borrow().queue_len()
    }

    /// Per-tenant heaps the admission queues hold: tenants with queued
    /// work, so zero on an idle node however many tenants it has served.
    pub fn admission_tenant_heaps(&self) -> usize {
        self.admission.borrow().tenant_heaps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{KvCluster, KvClusterConfig};
    use crate::liveness::LivenessConfig;
    use crdb_admission::SlotController;
    use crdb_sim::Topology;

    /// The slot loop's interval.
    const TICK: Duration = Duration::from_millis(50);

    /// A three-node cluster whose first heartbeat falls after every test's
    /// window, so nothing enters an idle node's CPU unless a test puts it
    /// there.
    fn cluster() -> (Sim, KvCluster) {
        let sim = Sim::new(7);
        let liveness = LivenessConfig { ttl: dur::mins(20), heartbeat_interval: dur::mins(10) };
        let config = KvClusterConfig { liveness, ..Default::default() };
        let cluster = KvCluster::new(&sim, Topology::single_region("us-east1", 3), config);
        (sim, cluster)
    }

    fn nodes(cluster: &KvCluster) -> Vec<Rc<KvNode>> {
        cluster.node_ids().into_iter().filter_map(|id| cluster.node(id)).collect()
    }

    /// What a slot loop that never parks would hold: the same tick on the
    /// same grid, skipped while the node is down.
    struct Unparked {
        last_tick: Cell<(f64, SimTime)>,
        slots: RefCell<SlotController>,
    }

    /// Starts an [`Unparked`] loop beside `node`'s own; call it when the
    /// node is created, so the two share a grid. Its reads of the CPU fall
    /// on the instants the node's loop reads it at, or on an empty CPU, so
    /// they change nothing the node's loop sees.
    fn unparked(node: &Rc<KvNode>) -> Rc<Unparked> {
        let slots = SlotController::new(node.admission.borrow().slot_total());
        let unparked = Rc::new(Unparked {
            last_tick: Cell::new(node.last_tick.get()),
            slots: RefCell::new(slots),
        });
        let (node, held, sim) = (Rc::clone(node), Rc::clone(&unparked), node.sim.clone());
        task::spawn(&sim, async move {
            loop {
                task::sleep(&node.sim, TICK).await;
                if !node.is_alive() {
                    continue;
                }
                let (now, (last_runnable, last_at)) = (node.sim.now(), held.last_tick.get());
                let runnable = node.cpu.cumulative_runnable();
                let avg_runnable =
                    (runnable - last_runnable) / now.duration_since(last_at).as_secs_f64();
                held.slots.borrow_mut().tick(avg_runnable, node.cpu.vcpus());
                held.last_tick.set((runnable, now));
            }
        });
        unparked
    }

    /// 24 tasks of 0.2 CPU-seconds on the node's 8 vCPUs: 16 runnable for
    /// 0.6 s, which a 50 ms average reads as queueing and a 1 s one does
    /// not.
    fn burst(node: &KvNode) {
        for _ in 0..24 {
            node.cpu.charge(TenantId::SYSTEM, 0.2);
        }
    }

    /// Steps `strides` times 50 ms, off the grid, checking after each that
    /// the node's loop holds what the unparked one does, on the grid. A
    /// [`burst`] and the tick after it, where the loop parks again, take
    /// 13 strides.
    fn follows(sim: &Sim, node: &KvNode, unparked: &Unparked, strides: usize) {
        for _ in 0..strides {
            sim.run_for(TICK);
            assert_eq!(node.last_tick.get(), unparked.last_tick.get(), "at {}", sim.now());
            assert_eq!(node.admission.borrow().slot_total(), unparked.slots.borrow().total());
            let on_grid =
                u128::from(node.last_tick.get().1.as_nanos()).is_multiple_of(TICK.as_nanos());
            assert!(on_grid, "ticked off the grid at {}", sim.now());
        }
    }

    #[test]
    fn an_idle_cluster_takes_no_slot_tick_for_a_minute() {
        let (sim, cluster) = cluster();
        let nodes = nodes(&cluster);
        assert_eq!(nodes.len(), 3);
        sim.run_for(dur::secs(1));
        let parked: Vec<_> = nodes.iter().map(|n| n.last_tick.get()).collect();
        assert!(parked.iter().all(|&(_, at)| at == SimTime::ZERO + TICK), "{parked:?}");
        let tasks = sim.live_tasks();
        sim.run_for(dur::mins(1));
        // Every tick of a live node moves `last_tick` to its instant.
        let held: Vec<_> = nodes.iter().map(|n| n.last_tick.get()).collect();
        assert_eq!(held, parked, "a parked loop ticked");
        assert_eq!(sim.live_tasks(), tasks, "a parked loop is still a task");
    }

    #[test]
    fn a_woken_loop_ticks_on_its_grid_as_an_unparked_one() {
        let (sim, cluster) = cluster();
        let node = nodes(&cluster).remove(0);
        let unparked = unparked(&node);
        sim.run_for(dur::secs(1) + dur::us(7_300));
        assert_eq!(node.last_tick.get().1, SimTime::ZERO + TICK, "parked at its first tick");
        // Woken at 1.0073 s, the loop holds the unchanged integral at 1 s:
        // its tick at 1.05 s averages over 50 ms and sheds slots.
        burst(&node);
        follows(&sim, &node, &unparked, 13);
        assert!(node.admission.borrow().slot_total() < 16, "the burst shed slots");
        let parked = node.last_tick.get();
        sim.run_for(dur::secs(1));
        assert_eq!(node.last_tick.get(), parked, "parked again once the burst ended");
    }

    #[test]
    fn a_crash_while_parked_skips_ticks_as_an_unparked_loop_does() {
        let (sim, cluster) = cluster();
        let node = nodes(&cluster).remove(0);
        let unparked = unparked(&node);
        sim.run_for(dur::secs(1) + dur::us(7_300));
        node.set_alive(false);
        // The crash wakes the loop onto the tick an unparked loop took last.
        assert_eq!(node.last_tick.get(), (0.0, SimTime::from_secs_f64(1.0)));
        sim.run_for(dur::secs(1));
        assert_eq!(node.last_tick.get(), (0.0, SimTime::from_secs_f64(1.0)), "a down node ticks");
        // Revived at 2.0073 s, the first tick (2.05 s) averages the burst
        // over 1.05 s, back to the last tick before the crash, and keeps
        // every slot, as an unparked loop does.
        node.set_alive(true);
        burst(&node);
        sim.run_for(TICK);
        assert_eq!(node.last_tick.get().1, SimTime::from_secs_f64(2.05));
        assert_eq!(node.admission.borrow().slot_total(), 16, "averaged over 1.05 s");
        follows(&sim, &node, &unparked, 12);
    }

    #[test]
    fn a_crash_at_a_grid_instant_skips_that_tick_as_an_unparked_loop_does() {
        let (sim, cluster) = cluster();
        let node = nodes(&cluster).remove(0);
        let unparked = unparked(&node);
        // Scheduled before the tick at 1 s was, the crash comes first at
        // that instant: the unparked loop skips the tick, and the woken
        // one resumes at the grid instant before it.
        let crashing = Rc::clone(&node);
        sim.schedule_at(SimTime::from_secs_f64(1.0), move || crashing.set_alive(false));
        sim.run_for(dur::secs(2));
        assert_eq!(node.last_tick.get(), (0.0, SimTime::from_secs_f64(0.95)));
        assert_eq!(node.last_tick.get(), unparked.last_tick.get());
    }
}
