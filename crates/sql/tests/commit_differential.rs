//! Commit-path model check: the coordinator's two commit protocols
//! against what any serial execution would produce.
//!
//! Concurrent transactions — read-modify-write increments, sum-preserving
//! transfers, whole-keyspace audits, and inserts that write how many rows
//! their scan of the insert span saw — run through [`Txn`] on a full
//! [`KvCluster`] whose tenant keyspace starts as one range and is
//! force-split and lease-moved mid-run. Checked: no acked increment is
//! lost, the transfer sum never changes (not even inside a concurrent
//! reader's snapshot), no insert's scan missed a row committed before it
//! (a phantom), the one-phase commit is taken exactly when a
//! transaction's spans live in one range, multi-range transactions fall
//! back to the staged protocol and leave no intent behind when they
//! abort, and after every phase the replicas of every range hold the same
//! data (`tests/support/replica_oracle.rs`). The same mix runs again from
//! another region while every reply to it is dropped at random for seconds
//! at a time; there a commit can end neither acked nor refused but
//! ambiguous, and the model counts it as maybe applied — whole or not at
//! all. Then the targeted cases: a staged commit that aborts after
//! laying an intent, a one-phase commit whose replies are lost — for one
//! RPC timeout, for longer than the status table used to remember, and
//! across a split that turns the re-send into a staged commit, and for
//! longer than the KV client keeps trying, which a SQL node must report
//! and not run again — the same for a `KvClient::put`, which is a one-key
//! transaction, and a hostile coalesced batch addressed across a range
//! boundary.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use crdb_kv::batch::{BatchRequest, KvError, RequestKind};
use crdb_kv::client::{make_txn_meta, KvClient};
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_kv::{keys, mvcc, timing, Timestamp};
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::coord::{SqlError, Txn};
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::{SqlNode, SqlNodeConfig};
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::{Deadline, RangeId, RegionId, SqlInstanceId, TenantId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "../../../tests/support/replica_oracle.rs"]
mod replica_oracle;

const TENANT: TenantId = TenantId(2);
const ACCOUNTS: usize = 12;
const COUNTERS: usize = 6;
const OPENING_BALANCE: i64 = 100;

fn acct(i: usize) -> Bytes {
    Bytes::from(format!("acct/{i:02}"))
}

fn ctr(i: usize) -> Bytes {
    Bytes::from(format!("ctr/{i:02}"))
}

/// The insert span: rows keyed by the operation that wrote them, each
/// holding how many rows its writer's scan of the span saw.
const INSERTED: (&[u8], &[u8]) = (b"ins/", b"ins0");

/// Whether a commit that failed with `e` may have been applied. Anything
/// else that fails must be retryable.
fn ambiguous(e: &SqlError, what: &str) -> bool {
    if *e == SqlError::Kv(KvError::AmbiguousCommit) {
        return true;
    }
    assert!(e.is_retryable(), "{what}: {e}");
    false
}

fn num(v: &Option<Bytes>) -> i64 {
    let raw = v.as_ref().expect("key exists");
    std::str::from_utf8(raw).unwrap().parse().unwrap()
}

fn val(n: i64) -> Bytes {
    Bytes::from(n.to_string())
}

/// The replicas of every range hold the same data.
fn assert_replicas_equal(cluster: &KvCluster) {
    assert_eq!(replica_oracle::divergences(cluster), Vec::<String>::new());
}

/// A cluster whose tenant holds nothing but the test's keys (so a split
/// lands between them), three SQL-node clients with a cache each, and
/// every key at its opening value.
fn setup(seed: u64, topology: Topology, client_at: Location) -> (Sim, KvCluster, Vec<KvClient>) {
    let sim = Sim::new(seed);
    let config = KvClusterConfig { tenant_metadata_bytes: 0, ..Default::default() };
    let cluster = KvCluster::new(&sim, topology, config);
    let cert = cluster.create_tenant_homed(TENANT, Some(RegionId(0)));
    let clients: Vec<KvClient> =
        (0..3).map(|_| KvClient::new(cluster.clone(), cert.clone(), client_at)).collect();
    let txn = Txn::begin(&clients[0]);
    for i in 0..ACCOUNTS {
        txn.put(acct(i), val(OPENING_BALANCE));
    }
    for i in 0..COUNTERS {
        txn.put(ctr(i), val(0));
    }
    task::spawn(&sim, async move { txn.commit().await.expect("load") });
    sim.run_for(dur::secs(2));
    // Collected history is evidence lost: a version a follower never got
    // looks, once a newer one covers it, like one its GC took. Nothing
    // written less than a GC window ago can have been collected, so the
    // replicas are compared more often than that, for as long as the
    // simulation runs.
    let replicated = cluster.clone();
    sim.schedule_periodic(timing::GC_WINDOW / 2, move || {
        assert_replicas_equal(&replicated);
        true
    });
    (sim, cluster, clients)
}

fn single_region(seed: u64) -> (Sim, KvCluster, Vec<KvClient>) {
    setup(seed, Topology::single_region("us-east1", 3), Location::new(RegionId(0), 0))
}

/// Counts of commits that were acked, and of commits that ended ambiguous
/// and so may or may not have been applied.
#[derive(Default)]
struct Outcomes {
    acked: Cell<u64>,
    maybe: Cell<u64>,
}

impl Outcomes {
    fn count(&self, acked: bool) {
        let n = if acked { &self.acked } else { &self.maybe };
        n.set(n.get() + 1);
    }

    /// Whether `n` things happened, given these outcomes.
    fn admits(&self, n: u64) -> bool {
        (self.acked.get()..=self.acked.get() + self.maybe.get()).contains(&n)
    }
}

/// What the serial model needs from the run, plus what the protocol
/// assertions need.
#[derive(Default)]
struct Tally {
    /// Increments per counter.
    increments: RefCell<BTreeMap<usize, Outcomes>>,
    /// Inserted rows.
    inserts: Outcomes,
    /// Commits whose keys shared a leaseholder / did not, as the directory
    /// stood when the transaction began.
    one_range: Outcomes,
    cross_range: Outcomes,
    /// Cross-range commit attempts that aborted.
    aborted_cross_range: Cell<u64>,
    audits: Cell<u64>,
    /// Operations still running.
    in_flight: Cell<u32>,
}

struct Worker {
    sim: Sim,
    cluster: KvCluster,
    client: KvClient,
    rng: RefCell<SmallRng>,
    tally: Rc<Tally>,
    /// Operations left to start.
    budget: Cell<u32>,
    /// Which worker this is, and whether its mix includes inserts.
    id: u64,
    inserts: bool,
}

impl Worker {
    fn same_range(&self, a: &Bytes, b: &Bytes) -> bool {
        let holder = |k: &Bytes| self.cluster.leaseholder_of(&keys::make_key(TENANT, k));
        holder(a) == holder(b)
    }

    /// Starts the next operation, if any budget is left.
    fn next(self: &Rc<Self>) {
        if self.budget.get() == 0 {
            return;
        }
        self.budget.set(self.budget.get() - 1);
        self.tally.in_flight.set(self.tally.in_flight.get() + 1);
        let kinds = if self.inserts { 12 } else { 10 };
        let (kind, a, b, amount) = {
            let mut rng = self.rng.borrow_mut();
            let a = rng.gen_range(0..ACCOUNTS);
            let b = (a + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
            (rng.gen_range(0..kinds), a, b, rng.gen_range(1..20i64))
        };
        let this = Rc::clone(self);
        task::spawn(&self.sim, async move {
            match kind {
                0..=3 => this.increment(a % COUNTERS).await,
                4..=8 => this.transfer(a, b, amount).await,
                9 => this.audit().await,
                _ => {
                    this.insert(Bytes::from(format!("ins/{}-{:03}", this.id, this.budget.get())))
                        .await
                }
            }
            this.done();
        });
    }

    fn done(self: &Rc<Self>) {
        self.tally.in_flight.set(self.tally.in_flight.get() - 1);
        // A short think time keeps workers from running in lockstep.
        let pause = dur::us(self.rng.borrow_mut().gen_range(0..2_000));
        let this = Rc::clone(self);
        self.sim.schedule_after(pause, move || this.next());
    }

    /// `ctr = ctr + 1`, retried until it commits or may have.
    async fn increment(&self, c: usize) {
        let acked = loop {
            let txn = Txn::begin(&self.client);
            let Ok(v) = txn.read_many(&[ctr(c)]).await else { continue };
            txn.put(ctr(c), val(num(&v[0]) + 1));
            match txn.commit().await {
                Ok(()) => break true,
                Err(e) if ambiguous(&e, "increment") => break false,
                Err(_) => continue,
            }
        };
        let t = &self.tally;
        t.increments.borrow_mut().entry(c).or_default().count(acked);
        t.one_range.count(acked);
    }

    /// Moves `amount` from account `a` to account `b`, retried until it
    /// commits or may have.
    async fn transfer(&self, a: usize, b: usize, amount: i64) {
        let one_range = self.same_range(&acct(a), &acct(b));
        let t = &self.tally;
        let acked = loop {
            let txn = Txn::begin(&self.client);
            let Ok(vs) = txn.read_many(&[acct(a), acct(b)]).await else { continue };
            txn.put(acct(a), val(num(&vs[0]) - amount));
            txn.put(acct(b), val(num(&vs[1]) + amount));
            match txn.commit().await {
                Ok(()) => break true,
                Err(e) if ambiguous(&e, "transfer") => break false,
                Err(_) if !one_range => {
                    t.aborted_cross_range.set(t.aborted_cross_range.get() + 1);
                }
                Err(_) => {}
            }
        };
        (if one_range { &t.one_range } else { &t.cross_range }).count(acked);
    }

    /// Reads every account in one snapshot: a reader must never see half
    /// of a transfer, whichever protocol committed it.
    async fn audit(&self) {
        let rows = loop {
            let txn = Txn::begin(&self.client);
            let (start, end) = (Bytes::from_static(b"acct/"), Bytes::from_static(b"acct0"));
            if let Ok(rows) = txn.scan(start, end, usize::MAX).await {
                break rows;
            }
        };
        assert_eq!(rows.len(), ACCOUNTS);
        let sum: i64 = rows.iter().map(|(_, v)| num(&Some(v.clone()))).sum();
        assert_eq!(sum, ACCOUNTS as i64 * OPENING_BALANCE, "a snapshot saw a partial commit");
        self.tally.audits.set(self.tally.audits.get() + 1);
    }

    /// Scans the insert span and adds row `key` holding how many rows the
    /// scan saw, retried until it commits or may have. Serially, the
    /// inserts number themselves 0, 1, 2, … in commit order, so every
    /// snapshot of the span holds exactly the numbers below its size: a
    /// scan that missed a row committed before it — a row that landed
    /// beneath the scan — shows up as a number taken twice.
    async fn insert(&self, key: Bytes) {
        let (start, end) = INSERTED;
        let acked = loop {
            let txn = Txn::begin(&self.client);
            let scan = txn.scan(Bytes::from_static(start), Bytes::from_static(end), usize::MAX);
            let Ok(rows) = scan.await else { continue };
            assert_serial(&rows);
            txn.put(key.clone(), val(rows.len() as i64));
            match txn.commit().await {
                Ok(()) => break true,
                Err(e) if ambiguous(&e, "insert") => break false,
                Err(_) => continue,
            }
        };
        self.tally.inserts.count(acked);
        self.tally.one_range.count(acked);
    }
}

/// The insert span's rows number themselves 0, 1, 2, … with none missing
/// and none taken twice.
fn assert_serial(rows: &[(Bytes, Bytes)]) {
    let mut numbers: Vec<i64> = rows.iter().map(|(_, v)| num(&Some(v.clone()))).collect();
    numbers.sort_unstable();
    let serial: Vec<i64> = (0..rows.len() as i64).collect();
    assert_eq!(numbers, serial, "an insert's scan missed a row committed before it");
}

/// Runs `ops_each` operations on each of six workers to completion,
/// which must take less than `sim_secs`.
fn run_phase(
    sim: &Sim,
    cluster: &KvCluster,
    clients: &[KvClient],
    seed: u64,
    ops_each: u32,
    sim_secs: u64,
    inserts: bool,
) -> Rc<Tally> {
    let tally = Rc::new(Tally::default());
    for w in 0..6u64 {
        let worker = Rc::new(Worker {
            sim: sim.clone(),
            cluster: cluster.clone(),
            client: clients[w as usize % clients.len()].clone(),
            rng: RefCell::new(SmallRng::seed_from_u64(seed * 1_000 + w)),
            tally: Rc::clone(&tally),
            budget: Cell::new(ops_each),
            id: w,
            inserts,
        });
        worker.next();
    }
    sim.run_for(dur::secs(sim_secs));
    assert_eq!(tally.in_flight.get(), 0, "every operation finished");
    assert_replicas_equal(cluster);
    tally
}

/// While `on`, drops every message into `to` from any other region for a
/// random 1–8 s, lets them through for a random 2–8 s, and so on.
/// Requests out of `to` still arrive and are evaluated; it is their
/// replies that are lost, so the clients there send again what was
/// already applied. No one cut outlasts an RPC timeout, but a client's
/// copies can meet cut after cut until it runs out of routes, and a
/// commit that does ends ambiguous.
fn flap_replies(sim: &Sim, cluster: &KvCluster, to: RegionId, seed: u64, on: &Rc<Cell<bool>>) {
    fn step(sim: Sim, topology: Rc<Topology>, to: RegionId, mut rng: SmallRng, on: Rc<Cell<bool>>) {
        if !on.get() {
            return;
        }
        let others: Vec<RegionId> = topology.regions().filter(|&r| r != to).collect();
        others.iter().for_each(|&from| topology.partition_one_way(from, to));
        let (cut, open) = (rng.gen_range(1_000..8_000), rng.gen_range(2_000..8_000));
        let sim2 = sim.clone();
        sim.schedule_after(dur::ms(cut), move || {
            others.iter().for_each(|&from| topology.heal_one_way(from, to));
            let sim3 = sim2.clone();
            sim2.schedule_after(dur::ms(open), move || step(sim3, topology, to, rng, on));
        });
    }
    step(sim.clone(), cluster.topology(), to, SmallRng::seed_from_u64(seed), Rc::clone(on));
}

/// Reads `key` in a read-only transaction of its own.
fn read_now(sim: &Sim, client: &KvClient, key: &Bytes) -> i64 {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    let (txn, key) = (Txn::begin(client), key.clone());
    task::spawn(
        sim,
        async move { *o.borrow_mut() = Some(txn.read_many(&[key]).await.expect("read")) },
    );
    sim.run_for(dur::secs(5));
    let v = out.borrow_mut().take().expect("read finished");
    num(&v[0])
}

/// Scans `[start, end)` in a read-only transaction of its own.
fn scan_now(sim: &Sim, client: &KvClient, (start, end): (&[u8], &[u8])) -> Vec<(Bytes, Bytes)> {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    let (start, end) = (Bytes::copy_from_slice(start), Bytes::copy_from_slice(end));
    let txn = Txn::begin(client);
    task::spawn(sim, async move {
        *o.borrow_mut() = Some(txn.scan(start, end, usize::MAX).await.expect("scan"));
    });
    sim.run_for(dur::secs(5));
    let rows = out.borrow_mut().take();
    rows.expect("scan finished")
}

/// No replica of any node holds an intent on any of the test's keys.
fn assert_no_intents(cluster: &KvCluster) {
    let all = (0..ACCOUNTS).map(acct).chain((0..COUNTERS).map(ctr));
    for key in all.map(|k| keys::make_key(TENANT, &k)) {
        for id in cluster.node_ids() {
            let engine = &cluster.node(id).unwrap().engine;
            match mvcc::get(engine, &key, Timestamp::MAX, None) {
                mvcc::ReadResult::Value(_) => {}
                mvcc::ReadResult::Intent(i) => {
                    panic!("{key:?}: intent of txn {} on {id:?}", i.txn_id)
                }
            }
        }
    }
}

/// The model check. With `lost_replies` the clients sit in region 1, a
/// cross-region round trip away from every leaseholder, and the replies
/// to them are dropped at random throughout both phases: commits are
/// applied, never heard of, sent again and acked as replays — each
/// counted once, by the model and by the protocol counters alike — or,
/// when a client runs out of routes first, reported ambiguous, which the
/// model and the counters take as "once or not at all".
fn check_run(seed: u64, lost_replies: bool) {
    let (sim, cluster, clients) = if lost_replies {
        setup(seed, Topology::three_region(), Location::new(RegionId(1), 0))
    } else {
        single_region(seed)
    };
    let phase_secs = if lost_replies { 900 } else { 60 };
    let flapping = Rc::new(Cell::new(lost_replies));
    flap_replies(&sim, &cluster, RegionId(1), seed, &flapping);
    let degrade = cluster.degrade();
    let protocol_counts = || (degrade.commits_one_phase.get(), degrade.commits_two_phase.get());

    // Phase 1: one range. Every commit is one-phase.
    let loaded = protocol_counts();
    assert_eq!(loaded, (1, 0), "the load itself committed in one phase");
    let t1 = run_phase(&sim, &cluster, &clients, seed, 40, phase_secs, false);
    assert_eq!(t1.cross_range.acked.get() + t1.cross_range.maybe.get(), 0);
    let phase1 = protocol_counts();
    assert!(t1.one_range.admits(phase1.0 - loaded.0), "one-phase: {phase1:?}");
    assert_eq!(phase1.1, 0);

    // Split between the keys and move the right half's lease away (to
    // another region, when there is one: region 1 holds the clients).
    cluster.split_range(RangeId(1));
    assert_eq!(cluster.tenant_range_count(TENANT), 2);
    let right = keys::make_key(TENANT, &ctr(COUNTERS - 1));
    let old = cluster.leaseholder_of(&right).unwrap();
    let replicas = cluster.range_of(&right).unwrap().desc.replicas;
    let new = replicas.into_iter().rfind(|&n| n != old).unwrap();
    assert!(cluster.transfer_lease(&right, new));
    let split_accounts = !(1..ACCOUNTS).all(|i| {
        cluster.leaseholder_of(&keys::make_key(TENANT, &acct(i)))
            == cluster.leaseholder_of(&keys::make_key(TENANT, &acct(0)))
    });
    assert!(split_accounts, "the split must separate accounts for cross-range transfers to exist");
    let inserted = |k: &[u8]| keys::make_key(TENANT, k);
    assert_eq!(cluster.leaseholder_of(&inserted(INSERTED.0)), Some(new), "inserts: one range");

    // Phase 2: two ranges, every client cache stale at first, and inserts
    // into the right one. A commit is one-phase exactly when its keys
    // share a range.
    let t2 = run_phase(&sim, &cluster, &clients, seed + 1, 60, phase_secs, true);
    let after = protocol_counts();
    assert!(t2.cross_range.acked.get() > 10, "the mix exercised cross-range transfers");
    assert!(t2.aborted_cross_range.get() > 0, "the mix exercised cross-range aborts");
    assert!(t2.inserts.acked.get() > 5, "the mix exercised inserts");
    assert!(t1.audits.get() + t2.audits.get() > 10);
    assert!(degrade.commits_pushed.get() > 0, "some commits could not land at their reads");
    assert!(t2.one_range.admits(after.0 - phase1.0), "one-phase iff single-range: {after:?}");
    assert!(t2.cross_range.admits(after.1 - phase1.1), "staged iff multi-range: {after:?}");
    let ambiguous: u64 =
        [&t1, &t2].iter().map(|t| t.one_range.maybe.get() + t.cross_range.maybe.get()).sum();
    assert_eq!(degrade.ambiguous_commits.get(), ambiguous, "each ambiguous commit counted once");
    if lost_replies {
        assert!(cluster.topology().dropped_messages() > 20, "replies were lost");
        assert!(degrade.retries.get() > 20, "and their requests sent again");
    } else {
        assert_eq!(ambiguous, 0, "nothing is lost inside one healthy region");
    }

    // The serial model: every increment counted once — or, ambiguous,
    // once or not at all — the transfer sum untouched, the inserts
    // numbered in commit order, nothing provisional left anywhere.
    flapping.set(false);
    sim.run_for(dur::secs(if lost_replies { 60 } else { 5 })); // fire-and-forget resolutions land
    for c in 0..COUNTERS {
        let counted = [&t1, &t2].map(|t| {
            let increments = t.increments.borrow();
            increments.get(&c).map_or((0, 0), |o| (o.acked.get(), o.maybe.get()))
        });
        let (acked, maybe) = (counted[0].0 + counted[1].0, counted[0].1 + counted[1].1);
        let value = read_now(&sim, &clients[0], &ctr(c)) as u64;
        assert!(
            (acked..=acked + maybe).contains(&value),
            "counter {c}: {value} after {acked} acked and {maybe} ambiguous increments"
        );
    }
    let sum: i64 = (0..ACCOUNTS).map(|i| read_now(&sim, &clients[0], &acct(i))).sum();
    assert_eq!(sum, ACCOUNTS as i64 * OPENING_BALANCE);
    let rows = scan_now(&sim, &clients[0], INSERTED);
    assert_serial(&rows);
    assert!(t2.inserts.admits(rows.len() as u64), "{} rows inserted", rows.len());
    assert_no_intents(&cluster);
    assert_replicas_equal(&cluster);
}

#[test]
fn concurrent_commits_match_the_serial_model_seed_1() {
    check_run(1, false);
}

#[test]
fn concurrent_commits_match_the_serial_model_seed_2() {
    check_run(2, false);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_6() {
    check_run(6, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_7() {
    check_run(7, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_8() {
    check_run(8, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_9() {
    check_run(9, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_10() {
    check_run(10, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_11() {
    check_run(11, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_12() {
    check_run(12, true);
}

#[test]
fn commits_under_lost_replies_match_the_serial_model_seed_13() {
    check_run(13, true);
}
/// A staged commit that fails on one range after laying an intent on the
/// other must remove that intent.
#[test]
fn aborted_multi_range_commit_cleans_up_its_intents() {
    let (sim, cluster, clients) = single_region(3);
    cluster.split_range(RangeId(1));
    let (left, right) = (acct(0), ctr(COUNTERS - 1));
    let holder = |k: &Bytes| cluster.leaseholder_of(&keys::make_key(TENANT, k));
    let other = cluster.node_ids().into_iter().find(|&n| Some(n) != holder(&right)).unwrap();
    assert!(cluster.transfer_lease(&keys::make_key(TENANT, &right), other));
    assert_ne!(holder(&left), holder(&right));

    // B reads `left`, then A changes it and commits, then B commits a
    // write to both halves: B's refresh fails on the left range while its
    // blind write to the right range lands as an intent.
    let b = Txn::begin(&clients[1]);
    let b_read = Rc::new(Cell::new(false));
    let flag = Rc::clone(&b_read);
    let (reader, read) = (b.clone(), left.clone());
    task::spawn(&sim, async move { flag.set(reader.read_many(&[read]).await.is_ok()) });
    sim.run_for(dur::secs(1));
    assert!(b_read.get());
    let a = Txn::begin(&clients[0]);
    a.put(left.clone(), val(1));
    task::spawn(&sim, async move { a.commit().await.expect("a commits") });
    sim.run_for(dur::secs(1));

    let two_phase = cluster.degrade().commits_two_phase.get();
    b.put(left.clone(), val(2));
    b.put(right.clone(), val(2));
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    task::spawn(&sim, async move { *o.borrow_mut() = Some(b.commit().await) });
    sim.run_for(dur::secs(5));
    assert_eq!(*outcome.borrow(), Some(Err(SqlError::Retry("write too old".into()))));
    assert_eq!(cluster.degrade().commits_two_phase.get(), two_phase, "nothing committed");
    assert_no_intents(&cluster);
    assert_eq!(read_now(&sim, &clients[2], &left), 1);
    assert_eq!(read_now(&sim, &clients[2], &right), 0);
}

/// What a commit returned, and how long after it was sent.
type CommitOutcome = (Result<(), SqlError>, std::time::Duration);

/// A write from region 1 against leaseholders in region 0, every reply
/// to which is lost from the moment it was applied.
#[derive(Clone)]
struct LostReply {
    sim: Sim,
    cluster: KvCluster,
    clients: Vec<KvClient>,
    /// The keys' values before the write.
    before: Vec<i64>,
    outcome: Rc<RefCell<Option<CommitOutcome>>>,
}

/// Adds one to each of `keys` in one transaction whose commit is applied
/// in one phase — checked — and never heard of: region 0 → region 1 is
/// cut while the reply is on its way and stays cut for `outage`. Runs
/// the simulation until one second after the commit was sent.
fn commit_and_lose_the_reply(seed: u64, keys: &[Bytes], outage: std::time::Duration) -> LostReply {
    let run = LostReply::new(seed, keys);
    let txn = Txn::begin(&run.clients[0]);
    let (keys, run2) = (keys.to_vec(), run.clone());
    task::spawn(&run.sim, async move {
        let read = txn.read_many(&keys).await.expect("read");
        for (key, v) in keys.into_iter().zip(read) {
            txn.put(key, val(num(&v) + 1));
        }
        let acked = run2.sent(outage);
        acked(txn.commit().await);
    });
    run.lost()
}

/// The same for a [`KvClient::put`] of one more than `key` held: a one-key
/// transaction of its own, so the same one-phase commit.
fn put_and_lose_the_reply(seed: u64, key: &Bytes, outage: std::time::Duration) -> LostReply {
    let run = LostReply::new(seed, std::slice::from_ref(key));
    let acked = run.sent(outage);
    let value = val(run.before[0] + 1);
    let (client, key) = (run.clients[0].clone(), keys::make_key(TENANT, key));
    task::spawn(&run.sim, async move { acked(client.put(key, value).await.map_err(SqlError::Kv)) });
    run.lost()
}

impl LostReply {
    /// The cluster, loaded, with `keys`' values read.
    fn new(seed: u64, keys: &[Bytes]) -> LostReply {
        // The tenant's leaseholder lives in region 0; the SQL node in region 1.
        let (sim, cluster, clients) =
            setup(seed, Topology::three_region(), Location::new(RegionId(1), 0));
        let before: Vec<i64> = keys.iter().map(|k| read_now(&sim, &clients[0], k)).collect();
        // Start half-way between two of the status table's 30 s collections,
        // so that one falls in the last 20 s of a 75 s outage: a table that
        // forgot a commit after a minute has lost this one by the last re-send.
        sim.run_for(dur::secs(8));
        LostReply { sim, cluster, clients, before, outcome: Rc::default() }
    }

    /// Called as the write is sent: loses its replies for `outage`, and
    /// returns what the write reports its outcome to.
    fn sent(&self, outage: std::time::Duration) -> impl FnOnce(Result<(), SqlError>) + 'static {
        // The request is in flight (~50 ms one way; the reply leaves after
        // a ~100 ms quorum wait). Cut region 0 → region 1 once it has
        // arrived.
        let (cut, heal) = (self.cluster.topology(), self.cluster.topology());
        self.sim
            .schedule_after(dur::ms(80), move || cut.partition_one_way(RegionId(0), RegionId(1)));
        self.sim.schedule_after(outage, move || heal.heal_one_way(RegionId(0), RegionId(1)));
        let (sim, sent_at, outcome) = (self.sim.clone(), self.sim.now(), Rc::clone(&self.outcome));
        move |r| *outcome.borrow_mut() = Some((r, sim.now().duration_since(sent_at)))
    }

    /// Runs the simulation for a second: the write applied in one phase,
    /// and its reply never arrived.
    fn lost(self) -> LostReply {
        self.sim.run_for(dur::secs(1));
        let applied = self.cluster.degrade().commits_one_phase.get();
        assert_eq!(applied, 2, "the load and this write applied");
        assert!(self.outcome.borrow().is_none(), "but the reply never arrived");
        assert!(self.cluster.topology().dropped_messages() >= 1);
        self
    }

    /// Runs the simulation `secs` and returns the commit's outcome.
    fn outcome_after(&self, secs: u64) -> CommitOutcome {
        self.sim.run_for(dur::secs(secs));
        self.outcome.borrow_mut().take().expect("the commit came back")
    }

    /// The transaction is in the data exactly once, by the counters and
    /// by the values, and no copy of it was refused.
    fn assert_applied_once(&self, keys: &[Bytes]) {
        let degrade = self.cluster.degrade();
        assert_eq!(degrade.commits_one_phase.get(), 2, "the load and this commit, once");
        assert_eq!(degrade.commits_two_phase.get(), 0);
        assert_eq!(degrade.ambiguous_commits.get(), 0);
        assert_eq!(degrade.txn_records_written.get(), 0);
        for (key, before) in keys.iter().zip(&self.before) {
            assert_eq!(read_now(&self.sim, &self.clients[0], key), before + 1);
        }
        assert_replicas_equal(&self.cluster);
    }
}

/// A one-phase commit applies, its reply is lost to a partition, the KV
/// client times out and sends the batch again: the leaseholder knows the
/// transaction as committed and acks. `v = v + 1` is applied once.
#[test]
fn lost_one_phase_reply_is_acked_on_retry_and_applied_once() {
    let keys = [ctr(0)];
    let run = commit_and_lose_the_reply(4, &keys, dur::secs(5));
    let (result, took) = run.outcome_after(30);
    assert_eq!(result, Ok(()));
    assert!(took >= dur::secs(10), "acked by the retry after the RPC timeout: {took:?}");
    run.assert_applied_once(&keys);
}

/// The same with replies lost for 75 s — longer than the minute the
/// status table used to remember a commit for, after which the replay
/// check fell back on the transaction record a one-phase commit no longer
/// writes. Seven copies arrive over 80 s; the table acks every one.
#[test]
fn replies_lost_for_75_s_are_all_acked_from_the_status_table() {
    let keys = [ctr(0)];
    let run = commit_and_lose_the_reply(8, &keys, dur::secs(75));
    let (result, took) = run.outcome_after(120);
    assert_eq!(result, Ok(()));
    assert!(took >= dur::secs(75), "acked once a reply got through: {took:?}");
    assert!(run.cluster.degrade().retries.get() >= 6, "sent again and again meanwhile");
    run.assert_applied_once(&keys);
}

/// The range splits between the transaction's two keys while the replies
/// are lost, so the re-send no longer fits one range and the coordinator
/// falls back to the staged protocol — for a transaction that has already
/// committed. Both stages are acked as replays: no intent is laid over
/// the committed versions, no second commit is counted.
#[test]
fn split_during_the_outage_turns_the_resend_into_a_staged_replay() {
    let keys = [acct(0), ctr(COUNTERS - 1)];
    let run = commit_and_lose_the_reply(9, &keys, dur::secs(30));
    run.cluster.split_range(RangeId(1));
    let range_of = |k: &Bytes| run.cluster.range_of(&keys::make_key(TENANT, k)).unwrap().desc.id;
    assert_ne!(range_of(&keys[0]), range_of(&keys[1]), "the split separates the two keys");
    let (result, took) = run.outcome_after(90);
    assert_eq!(result, Ok(()));
    assert!(took >= dur::secs(30), "{took:?}");
    run.assert_applied_once(&keys);
    assert_no_intents(&run.cluster);
}

/// A `KvClient::put` is a one-key transaction, so a copy re-sent after a
/// lost reply is acked from the status table like any commit's, and the
/// write is applied and counted once.
#[test]
fn lost_put_reply_is_acked_from_the_status_table_and_applied_once() {
    let keys = [ctr(0)];
    let run = put_and_lose_the_reply(4, &keys[0], dur::secs(5));
    let (result, took) = run.outcome_after(30);
    assert_eq!(result, Ok(()));
    assert!(took >= dur::secs(10), "acked by the re-send after the RPC timeout: {took:?}");
    run.assert_applied_once(&keys);
}

/// A `KvClient::put` whose replies stay lost for longer than the client
/// keeps sending it may have been applied, and the client says so: it
/// ends `AmbiguousCommit`, as a commit does, not `Unavailable`. It was.
#[test]
fn put_whose_replies_stay_lost_past_the_resend_budget_is_ambiguous() {
    let keys = [ctr(0)];
    let outage = timing::TXN_STATUS_RETENTION + dur::secs(60);
    let run = put_and_lose_the_reply(6, &keys[0], outage);
    let (result, took) = run.outcome_after(outage.as_secs() - 10);
    assert_eq!(result, Err(SqlError::Kv(KvError::AmbiguousCommit)), "after {took:?}");
    let degrade = run.cluster.degrade();
    assert_eq!(degrade.ambiguous_commits.get(), 1);
    assert_eq!(degrade.commits_one_phase.get(), 2, "the load and this put, once");
    run.cluster.topology().heal_all();
    assert_eq!(read_now(&run.sim, &run.clients[0], &keys[0]), run.before[0] + 1);
    assert_replicas_equal(&run.cluster);
}

/// The replies stay lost for longer than the KV client keeps trying. It
/// cannot tell "applied, never heard of" from "never applied", says so
/// (`AmbiguousCommit`, where it used to say `Unavailable`), and the SQL
/// node's autocommit retry — which re-runs an `UPDATE` on `Unavailable` —
/// leaves the statement alone: `v = v + 1` ran once and is applied once.
#[test]
fn ambiguous_commit_is_reported_and_not_rerun_by_the_autocommit_retry() {
    let sim = Sim::new(10);
    let cluster = KvCluster::new(&sim, Topology::three_region(), KvClusterConfig::default());
    let cert = cluster.create_tenant_homed(TENANT, Some(RegionId(0)));
    let location = Location::new(RegionId(1), 0);
    let client = KvClient::new(cluster.clone(), cert, location);
    let config = SqlNodeConfig { location, ..Default::default() };
    let node = SqlNode::new(&sim, SqlInstanceId(1), client, config);
    let starting = Rc::clone(&node);
    task::spawn(&sim, async move {
        starting.start(&SystemDatabase::optimized(RegionId(0), vec![RegionId(0)])).await
    });
    sim.run_for(dur::secs(5));
    let session = node.open_session("app").expect("node is ready");
    let exec = |sql: &str, secs: u64| -> Result<QueryOutput, SqlError> {
        let out = Rc::new(RefCell::new(None));
        let (o, node, text) = (Rc::clone(&out), Rc::clone(&node), sql.to_string());
        task::spawn(&sim, async move {
            *o.borrow_mut() =
                Some(node.execute_with_deadline(session, &text, vec![], Deadline::NONE).await)
        });
        sim.run_for(dur::secs(secs));
        let done = out.borrow_mut().take();
        done.unwrap_or_else(|| panic!("{sql}: did not complete"))
    };
    exec("CREATE TABLE t (k INT PRIMARY KEY, v INT)", 5).expect("create");
    exec("INSERT INTO t VALUES (1, 0)", 5).expect("insert");

    // Every reply into region 1 is lost from the instant the UPDATE's
    // commit is applied.
    let degrade = cluster.degrade();
    let (applied, statements) = (degrade.commits_one_phase.get(), node.queries_executed.get());
    let topology = cluster.topology();
    let (cut, counters) = (Rc::clone(&topology), Rc::clone(&degrade));
    sim.schedule_periodic(dur::us(100), move || {
        if counters.commits_one_phase.get() == applied {
            return true;
        }
        cut.partition_one_way(RegionId(0), RegionId(1));
        cut.partition_one_way(RegionId(2), RegionId(1));
        false
    });
    let outcome = exec("UPDATE t SET v = v + 1 WHERE k = 1", 400);
    assert_eq!(outcome.err(), Some(SqlError::Kv(KvError::AmbiguousCommit)));
    assert_eq!(degrade.ambiguous_commits.get(), 1);
    assert_eq!(node.queries_executed.get(), statements + 1, "the statement ran once");

    topology.heal_all();
    let rows = exec("SELECT v FROM t WHERE k = 1", 30).expect("select").rows;
    assert_eq!(rows, vec![vec![Datum::Int(1)]], "and is applied once");
    assert_eq!(degrade.commits_one_phase.get(), applied + 1);
}

/// A coalesced batch whose second key lies outside the range of its first
/// is rejected whole by the leaseholder, with that range's authoritative
/// descriptor, and nothing of it is applied.
#[test]
fn batch_addressed_across_a_range_boundary_is_rejected_whole() {
    let (sim, cluster, clients) = single_region(5);
    cluster.split_range(RangeId(1));
    let (left, right) = (acct(0), ctr(COUNTERS - 1));
    let (pleft, pright) = (keys::make_key(TENANT, &left), keys::make_key(TENANT, &right));
    // Both halves still share a leaseholder: only the addressing is wrong.
    let holder = cluster.leaseholder_of(&pleft).unwrap();
    assert_eq!(cluster.leaseholder_of(&pright), Some(holder));

    let txn = make_txn_meta(&cluster, pleft.clone());
    let put = |key: &Bytes| RequestKind::WriteIntent { key: key.clone(), value: Some(val(-1)) };
    let batch = BatchRequest {
        tenant: TENANT,
        txn,
        deadline: Deadline::NONE,
        requests: vec![put(&pleft), put(&pright)],
    };
    let response = Rc::new(RefCell::new(None));
    let r = Rc::clone(&response);
    let node = cluster.node(holder).unwrap();
    let serve = node.serve(clients[0].cert().clone(), batch);
    task::spawn(&sim, async move { *r.borrow_mut() = Some(serve.await) });
    sim.run_for(dur::secs(1));
    let response = response.borrow_mut().take().expect("answered");
    match response.error {
        Some(KvError::RangeKeyMismatch(info)) => {
            assert_eq!(info.leaseholder, holder);
            assert!(info.desc.contains(&pleft) && !info.desc.contains(&pright));
        }
        other => panic!("expected a range-key mismatch, got {other:?}"),
    }
    assert_eq!(read_now(&sim, &clients[0], &left), OPENING_BALANCE);
    assert_eq!(read_now(&sim, &clients[0], &right), 0);

    // The same two writes through a transaction are regrouped per range.
    let txn = Txn::begin(&clients[0]);
    txn.put(left.clone(), val(-1));
    txn.put(right.clone(), val(-1));
    task::spawn(&sim, async move { txn.commit().await.expect("the staged commit") });
    sim.run_for(dur::secs(1));
    assert_eq!(read_now(&sim, &clients[0], &left), -1);
    assert_eq!(read_now(&sim, &clients[0], &right), -1);
}
