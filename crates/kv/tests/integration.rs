//! End-to-end KV cluster tests: batches travel the full path — client
//! routing, simulated network, authorization, lease checks, admission
//! control, CPU service, MVCC execution, quorum replication — against a
//! real multi-node cluster on the discrete-event simulator.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use crdb_kv::auth::TenantCert;
use crdb_kv::batch::{BatchRequest, BatchResponse, KvError, RequestKind, ResponseKind};
use crdb_kv::client::{make_txn_meta, KvClient};
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_kv::keys;
use crdb_kv::mvcc::{self, ReadResult};
use crdb_kv::node::{KvNode, FSYNC_INTERVAL};
use crdb_kv::range::Placement;
use crdb_kv::timing::{RPC_TIMEOUT, TXN_STATUS_RETENTION};
use crdb_kv::txn::TxnMeta;
use crdb_kv::Timestamp;
use crdb_obs::trace::SpanView;
use crdb_obs::Trace;
use crdb_sim::{task, Location, Sim, Topology};
use crdb_util::time::dur;
use crdb_util::time::SimTime;
use crdb_util::{Deadline, NodeId, RegionId, TenantId};

fn setup(seed: u64) -> (Sim, KvCluster) {
    let sim = Sim::new(seed);
    let cluster =
        KvCluster::new(&sim, Topology::single_region("us-east1", 3), KvClusterConfig::default());
    (sim, cluster)
}

fn client_for(cluster: &KvCluster, tenant: TenantId) -> KvClient {
    let cert = cluster.create_tenant(tenant);
    KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0))
}

fn k(t: u64, s: &str) -> Bytes {
    keys::make_key(TenantId(t), s.as_bytes())
}

/// Sends `batch` through `client` in a task of its own; `cb` gets the reply.
fn send(client: &KvClient, batch: BatchRequest, cb: impl FnOnce(BatchResponse) + 'static) {
    let client = client.clone();
    task::spawn(&client.cluster().sim.clone(), async move { cb(client.send(batch).await) });
}

/// Writes `key = value` through `client` in a task of its own.
fn put(
    client: &KvClient,
    key: Bytes,
    value: Bytes,
    cb: impl FnOnce(Result<(), KvError>) + 'static,
) {
    let client = client.clone();
    task::spawn(&client.cluster().sim.clone(), async move { cb(client.put(key, value).await) });
}

/// Reads `key` through `client` in a read-only transaction of its own,
/// begun now.
fn get(client: &KvClient, key: Bytes, cb: impl FnOnce(Result<Option<Bytes>, KvError>) + 'static) {
    let txn = make_txn_meta(client.cluster(), key.clone());
    let requests = vec![RequestKind::Get { key }];
    let batch = BatchRequest { tenant: client.cert().tenant(), ..txn_batch(&txn, requests) };
    send(client, batch, move |resp| {
        cb(match (resp.error, resp.results.as_slice()) {
            (Some(e), _) => Err(e),
            (None, [ResponseKind::Value(v)]) => Ok(v.clone()),
            (None, other) => panic!("a get answered {other:?}"),
        })
    });
}

#[test]
fn put_get_roundtrip_over_network() {
    let (sim, cluster) = setup(1);
    let client = client_for(&cluster, TenantId(2));
    let got = Rc::new(RefCell::new(None));

    let g = Rc::clone(&got);
    let c2 = client.clone();
    put(&client, k(2, "hello"), Bytes::from_static(b"world"), move |r| {
        r.expect("put succeeds");
        get(&c2, k(2, "hello"), move |r| {
            *g.borrow_mut() = Some(r.expect("get succeeds"));
        });
    });
    sim.run_for(dur::secs(2));
    assert_eq!(*got.borrow(), Some(Some(Bytes::from_static(b"world"))));
    // The operation took simulated time (network + admission + CPU).
    assert!(sim.events_executed() > 4);
}

/// A write passes a transaction's checks whoever sends it: a
/// `KvClient::put` of a key holding another transaction's pending intent
/// conflicts with it instead of landing a committed version beside it.
#[test]
fn put_of_a_key_under_a_pending_intent_conflicts_and_writes_nothing() {
    let (sim, cluster) = setup(61);
    let client = client_for(&cluster, TenantId(2));
    let key = k(2, "locked");
    let pending = make_txn_meta(&cluster, key.clone());
    let intent =
        RequestKind::WriteIntent { key: key.clone(), value: Some(Bytes::from_static(b"theirs")) };
    let laid = Rc::new(RefCell::new(None));
    let l = Rc::clone(&laid);
    send(&client, txn_batch(&pending, vec![intent]), move |resp| {
        *l.borrow_mut() = Some(resp.error)
    });
    sim.run_for(dur::ms(100));
    assert_eq!(*laid.borrow(), Some(None), "the intent is laid");

    let wrote = Rc::new(RefCell::new(None));
    let p = Rc::clone(&wrote);
    put(&client, key.clone(), Bytes::from_static(b"mine"), move |r| *p.borrow_mut() = Some(r));
    sim.run_for(dur::ms(100));
    assert_eq!(*wrote.borrow(), Some(Err(KvError::IntentConflict { other_txn: pending.txn_id })));
    let end = Bytes::from([key.as_ref(), &[0x00]].concat());
    for id in cluster.range_of(&key).expect("range").desc.replicas {
        let engine = &cluster.node(id).expect("replica").engine;
        let (horizon, until) = (Timestamp::ZERO, Timestamp::MAX);
        let committed = mvcc::readable_user_keys(engine, &key, &end, horizon, until, usize::MAX);
        assert!(committed.is_empty(), "node {id:?} holds a version beside the intent");
    }
}

#[test]
fn unauthorized_cross_tenant_read_rejected_end_to_end() {
    let (sim, cluster) = setup(2);
    let t2 = client_for(&cluster, TenantId(2));
    let _t3 = client_for(&cluster, TenantId(3));
    let result = Rc::new(RefCell::new(None));

    // Tenant 2's client asks for tenant 3's key.
    let r = Rc::clone(&result);
    get(&t2, k(3, "secret"), move |res| {
        *r.borrow_mut() = Some(res);
    });
    sim.run_for(dur::secs(2));
    assert_eq!(*result.borrow(), Some(Err(KvError::Unauthorized)));
}

#[test]
fn scan_spanning_split_ranges() {
    let (sim, cluster) = setup(3);
    let client = client_for(&cluster, TenantId(2));

    // Write enough rows, then force a split so the scan crosses ranges.
    let written = Rc::new(RefCell::new(0u32));
    for i in 0..50u32 {
        let w = Rc::clone(&written);
        put(&client, k(2, &format!("row/{i:04}")), Bytes::from(vec![b'x'; 64]), move |r| {
            r.expect("put");
            *w.borrow_mut() += 1;
        });
    }
    sim.run_for(dur::secs(5));
    assert_eq!(*written.borrow(), 50);

    // Force splits so the scan crosses range boundaries.
    for id in 1..=4u64 {
        cluster.split_range(crdb_util::RangeId(id));
    }
    assert!(cluster.tenant_range_count(TenantId(2)) >= 2, "tenant has multiple ranges");

    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let scan = RequestKind::Scan { start: k(2, "row/"), end: k(2, "row0"), limit: 1000 };
    let reader = make_txn_meta(&cluster, k(2, "row/"));
    send(&client, txn_batch(&reader, vec![scan]), move |resp| {
        assert_eq!(resp.error, None);
        match resp.results.into_iter().next() {
            Some(ResponseKind::Pairs(pairs)) => *g.borrow_mut() = Some(pairs),
            other => panic!("a scan answers pairs: {other:?}"),
        }
    });
    sim.run_for(dur::secs(5));
    let rows = got.borrow().clone().expect("scan finished");
    assert_eq!(rows.len(), 50, "all rows found across ranges");
    // Sorted and complete.
    for (i, (key, _)) in rows.iter().enumerate() {
        assert_eq!(key, &k(2, &format!("row/{i:04}")));
    }
}

#[test]
fn transactional_commit_is_atomic_and_isolated() {
    let (sim, cluster) = setup(4);
    let client = client_for(&cluster, TenantId(2));

    // Seed two accounts.
    put(&client, k(2, "acct/a"), Bytes::from_static(b"100"), |r| r.unwrap());
    put(&client, k(2, "acct/b"), Bytes::from_static(b"0"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    // Transfer: write intents on both keys, then commit, then resolve.
    let txn = make_txn_meta(&cluster, k(2, "acct/a"));
    let write = BatchRequest {
        tenant: TenantId(2),
        txn: txn.clone(),
        deadline: Deadline::NONE,
        requests: vec![
            RequestKind::WriteIntent {
                key: k(2, "acct/a"),
                value: Some(Bytes::from_static(b"60")),
            },
            RequestKind::WriteIntent {
                key: k(2, "acct/b"),
                value: Some(Bytes::from_static(b"40")),
            },
        ],
    };
    let committed = Rc::new(RefCell::new(false));
    {
        let client2 = client.clone();
        let txn2 = txn.clone();
        let committed = Rc::clone(&committed);
        send(&client, write, move |resp| {
            assert!(resp.is_ok(), "intents written: {:?}", resp.error);
            let commit = BatchRequest {
                tenant: TenantId(2),
                txn: txn2.clone(),
                deadline: Deadline::NONE,
                requests: vec![RequestKind::EndTxn { commit: true }],
            };
            let client3 = client2.clone();
            let txn3 = txn2.clone();
            send(&client2, commit, move |resp| {
                assert!(resp.is_ok(), "commit: {:?}", resp.error);
                let resolve = BatchRequest {
                    tenant: TenantId(2),
                    txn: txn3.clone(),
                    deadline: Deadline::NONE,
                    requests: vec![
                        RequestKind::ResolveIntent {
                            key: k(2, "acct/a"),
                            commit_ts: Some(txn3.write_ts),
                        },
                        RequestKind::ResolveIntent {
                            key: k(2, "acct/b"),
                            commit_ts: Some(txn3.write_ts),
                        },
                    ],
                };
                let committed = Rc::clone(&committed);
                send(&client3, resolve, move |resp| {
                    assert!(resp.is_ok());
                    *committed.borrow_mut() = true;
                });
            });
        });
    }
    sim.run_for(dur::secs(5));
    assert!(*committed.borrow());

    // Both new values visible (responses may arrive in either order).
    let vals = Rc::new(RefCell::new(std::collections::BTreeMap::new()));
    for key in ["acct/a", "acct/b"] {
        let v = Rc::clone(&vals);
        get(&client, k(2, key), move |r| {
            v.borrow_mut().insert(key, r.unwrap());
        });
    }
    sim.run_for(dur::secs(2));
    assert_eq!(vals.borrow().get("acct/a"), Some(&Some(Bytes::from_static(b"60"))));
    assert_eq!(vals.borrow().get("acct/b"), Some(&Some(Bytes::from_static(b"40"))));
}

#[test]
fn aborted_txn_leaves_no_trace() {
    let (sim, cluster) = setup(5);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "key"), Bytes::from_static(b"original"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    let txn = make_txn_meta(&cluster, k(2, "key"));
    let write = BatchRequest {
        tenant: TenantId(2),
        txn: txn.clone(),
        deadline: Deadline::NONE,
        requests: vec![RequestKind::WriteIntent {
            key: k(2, "key"),
            value: Some(Bytes::from_static(b"doomed")),
        }],
    };
    {
        let client2 = client.clone();
        let txn2 = txn.clone();
        send(&client, write, move |resp| {
            assert!(resp.is_ok());
            let abort = BatchRequest {
                tenant: TenantId(2),
                txn: txn2.clone(),
                deadline: Deadline::NONE,
                requests: vec![
                    RequestKind::EndTxn { commit: false },
                    RequestKind::ResolveIntent { key: k(2, "key"), commit_ts: None },
                ],
            };
            send(&client2, abort, move |resp| assert!(resp.is_ok()));
        });
    }
    sim.run_for(dur::secs(5));

    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(&client, k(2, "key"), move |r| *g.borrow_mut() = Some(r.unwrap()));
    sim.run_for(dur::secs(2));
    assert_eq!(*got.borrow(), Some(Some(Bytes::from_static(b"original"))));
}

#[test]
fn reader_waits_out_pending_intent_then_sees_commit() {
    let (sim, cluster) = setup(6);
    let client = client_for(&cluster, TenantId(2));

    let txn = make_txn_meta(&cluster, k(2, "contested"));
    let write = BatchRequest {
        tenant: TenantId(2),
        txn: txn.clone(),
        deadline: Deadline::NONE,
        requests: vec![RequestKind::WriteIntent {
            key: k(2, "contested"),
            value: Some(Bytes::from_static(b"v1")),
        }],
    };
    send(&client, write, |resp| assert!(resp.is_ok()));
    sim.run_for(dur::secs(1));

    // A foreign reader at a later timestamp hits the intent and retries;
    // commit the txn shortly after, and the read completes.
    let got = Rc::new(RefCell::new(None));
    {
        let g = Rc::clone(&got);
        get(&client, k(2, "contested"), move |r| *g.borrow_mut() = Some(r));
    }
    {
        let client2 = client.clone();
        let txn2 = txn.clone();
        sim.schedule_after(dur::ms(20), move || {
            let commit = BatchRequest {
                tenant: TenantId(2),
                txn: txn2.clone(),
                deadline: Deadline::NONE,
                requests: vec![RequestKind::EndTxn { commit: true }],
            };
            send(&client2, commit, |resp| assert!(resp.is_ok()));
        });
    }
    sim.run_for(dur::secs(10));
    let r = got.borrow().clone().expect("read completed");
    assert_eq!(r.unwrap(), Some(Bytes::from_static(b"v1")), "read resolved the committed intent");
}

#[test]
fn write_write_conflict_surfaces_as_error() {
    let (sim, cluster) = setup(7);
    let client = client_for(&cluster, TenantId(2));

    let txn1 = make_txn_meta(&cluster, k(2, "hot"));
    let w1 = BatchRequest {
        tenant: TenantId(2),
        txn: txn1.clone(),
        deadline: Deadline::NONE,
        requests: vec![RequestKind::WriteIntent {
            key: k(2, "hot"),
            value: Some(Bytes::from_static(b"1")),
        }],
    };
    send(&client, w1, |resp| assert!(resp.is_ok()));
    sim.run_for(dur::secs(1));

    // A second txn tries to write the same key while txn1 is pending: it
    // retries for a while, then fails with a conflict.
    let txn2 = make_txn_meta(&cluster, k(2, "hot"));
    let w2 = BatchRequest {
        tenant: TenantId(2),
        txn: txn2.clone(),
        deadline: Deadline::NONE,
        requests: vec![RequestKind::WriteIntent {
            key: k(2, "hot"),
            value: Some(Bytes::from_static(b"2")),
        }],
    };
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    send(&client, w2, move |resp| *o.borrow_mut() = Some(resp.error));
    sim.run_for(dur::secs(30));
    let oc = outcome.borrow().clone();
    match oc {
        Some(Some(KvError::IntentConflict { other_txn })) => assert_eq!(other_txn, txn1.txn_id),
        other => panic!("expected intent conflict, got {other:?}"),
    }
}

#[test]
fn lease_transfer_redirects_clients() {
    let (sim, cluster) = setup(8);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "x"), Bytes::from_static(b"1"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    // Kill the leaseholder of the tenant's range.
    let holder = {
        let ids = cluster.node_ids();
        ids.into_iter()
            .find(|&n| {
                cluster.lease_count(n) > 0 && {
                    // find the node holding tenant 2's lease
                    true
                }
            })
            .unwrap()
    };
    cluster.set_node_alive(holder, false);
    sim.run_for(dur::secs(30)); // liveness lapses, lease moves

    // The client's cached leaseholder is stale; the request must redirect
    // and still succeed.
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(&client, k(2, "x"), move |r| *g.borrow_mut() = Some(r));
    sim.run_for(dur::secs(10));
    let g = got.borrow().clone();
    match g {
        Some(Ok(v)) => assert_eq!(v, Some(Bytes::from_static(b"1"))),
        other => panic!("read after lease transfer failed: {other:?}"),
    }
}

#[test]
fn multi_region_write_pays_quorum_latency() {
    let sim = Sim::new(9);
    let cluster = KvCluster::new(
        &sim,
        Topology::three_region(),
        KvClusterConfig { nodes_per_region: 1, ..Default::default() },
    );
    let cert = cluster.create_tenant(TenantId(2));
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));

    let done_at = Rc::new(RefCell::new(None));
    let d = Rc::clone(&done_at);
    let s2 = sim.clone();
    let start = sim.now();
    put(&client, k(2, "geo"), Bytes::from_static(b"v"), move |r| {
        r.unwrap();
        *d.borrow_mut() = Some(s2.now().duration_since(start));
    });
    sim.run_for(dur::secs(5));
    let elapsed = done_at.borrow().expect("write finished");
    // Replicas are one per region; quorum needs the faster of the
    // us→europe (~105ms) RTT, so the write takes at least ~100ms and far
    // less than the slowest path would suggest.
    assert!(elapsed > dur::ms(80), "quorum latency paid: {elapsed:?}");
    assert!(elapsed < dur::ms(400), "not waiting for the slowest replica: {elapsed:?}");
}

#[test]
fn admission_keeps_noisy_neighbor_from_starving_victim() {
    let (sim, cluster) = setup(10);
    let noisy = client_for(&cluster, TenantId(2));
    let victim = client_for(&cluster, TenantId(3));

    // The noisy tenant floods 400 writes; the victim sends 20 point reads
    // spread over the same window.
    for i in 0..400u32 {
        put(&noisy, k(2, &format!("n{i:05}")), Bytes::from(vec![0u8; 256]), |_| {});
    }
    // Seed the victim's key.
    put(&victim, k(3, "v"), Bytes::from_static(b"ok"), |r| r.unwrap());
    sim.run_for(dur::ms(100));

    let latencies = Rc::new(RefCell::new(Vec::new()));
    for i in 0..20u32 {
        let lat = Rc::clone(&latencies);
        let victim2 = victim.clone();
        let sim2 = sim.clone();
        sim.schedule_after(dur::ms(100 + i as u64 * 10), move || {
            let start = sim2.now();
            let sim3 = sim2.clone();
            let lat = Rc::clone(&lat);
            get(&victim2, k(3, "v"), move |r| {
                r.expect("victim read succeeds");
                lat.borrow_mut().push(sim3.now().duration_since(start));
            });
        });
    }
    sim.run_for(dur::secs(30));
    let lats = latencies.borrow();
    assert_eq!(lats.len(), 20, "all victim reads completed");
    let max = lats.iter().max().unwrap();
    assert!(*max < dur::ms(500), "victim reads stay fast under admission control: max {max:?}");
}

#[test]
fn deterministic_replay_same_seed() {
    let run = |seed| {
        let (sim, cluster) = setup(seed);
        let client = client_for(&cluster, TenantId(2));
        let done = Rc::new(RefCell::new(SimTime::ZERO));
        for i in 0..50u32 {
            let d = Rc::clone(&done);
            let s = sim.clone();
            put(&client, k(2, &format!("d{i}")), Bytes::from_static(b"v"), move |r| {
                r.unwrap();
                *d.borrow_mut() = s.now();
            });
        }
        sim.run_for(dur::secs(5));
        let at = done.borrow().as_nanos();
        (at, sim.events_executed())
    };
    assert_eq!(run(11), run(11), "same seed, same trace");
    assert_ne!(run(11).0, run(12).0, "different seed, different timing");
}

#[test]
fn crash_leaseholder_mid_run_reroutes_within_retry_budget() {
    let (sim, cluster) = setup(13);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "x"), Bytes::from_static(b"1"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    // Crash the leaseholder and read *immediately* — no grace period. The
    // client's bounded retry loop (backoff capped at 1.6 s, budget ~19 s)
    // must absorb the liveness expiry (TTL 9 s) and lease transfer.
    let holder = cluster.leaseholder_of(&k(2, "x")).expect("range exists");
    cluster.set_node_alive(holder, false);
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(&client, k(2, "x"), move |r| *g.borrow_mut() = Some(r));
    sim.run_for(dur::secs(30));
    match got.borrow().clone() {
        Some(Ok(v)) => assert_eq!(v, Some(Bytes::from_static(b"1"))),
        other => panic!("read across leaseholder crash failed: {other:?}"),
    }
    assert_ne!(cluster.leaseholder_of(&k(2, "x")), Some(holder), "lease moved off dead node");

    // Restart heals: heartbeats resume and the node can serve again.
    cluster.set_node_alive(holder, true);
    sim.run_for(dur::secs(15));
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(&client, k(2, "x"), move |r| *g.borrow_mut() = Some(r));
    sim.run_for(dur::secs(10));
    assert!(matches!(got.borrow().clone(), Some(Ok(Some(_)))), "reads work after restart");
}

#[test]
fn partition_fails_fast_with_typed_unavailable() {
    let sim = Sim::new(14);
    let cluster = KvCluster::new(
        &sim,
        Topology::three_region(),
        KvClusterConfig { nodes_per_region: 1, ..Default::default() },
    );
    let cert = cluster.create_tenant(TenantId(2));
    let writer = KvClient::new(cluster.clone(), cert.clone(), Location::new(RegionId(0), 0));
    put(&writer, k(2, "p"), Bytes::from_static(b"v"), |r| r.unwrap());
    sim.run_for(dur::secs(3));

    // A reader in a region other than the leaseholder's, then a partition
    // between the two. The leaseholder stays live (liveness is a global
    // control plane), so the lease will not move: the client must fail
    // fast with the typed error instead of hanging or retrying forever.
    let holder = cluster.leaseholder_of(&k(2, "p")).expect("range exists");
    let holder_region = cluster.node_location(holder).unwrap().region;
    let reader_region = RegionId((holder_region.raw() + 1) % 3);
    let reader = KvClient::new(cluster.clone(), cert, Location::new(reader_region, 0));
    cluster.topology().partition(reader_region, holder_region);

    let start = sim.now();
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let s2 = sim.clone();
    get(&reader, k(2, "p"), move |r| *g.borrow_mut() = Some((r, s2.now().duration_since(start))));
    sim.run_for(dur::secs(60));
    match got.borrow().clone() {
        Some((Err(KvError::Unavailable), elapsed)) => {
            assert!(elapsed < dur::secs(2), "failed fast, not by timeout: {elapsed:?}");
        }
        other => panic!("expected fail-fast Unavailable, got {other:?}"),
    }

    // Healing the partition restores service.
    cluster.topology().heal_all();
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(&reader, k(2, "p"), move |r| *g.borrow_mut() = Some(r));
    sim.run_for(dur::secs(5));
    assert_eq!(*got.borrow(), Some(Ok(Some(Bytes::from_static(b"v")))));
}

#[test]
fn total_outage_exhausts_retries_into_unavailable() {
    let (sim, cluster) = setup(15);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "x"), Bytes::from_static(b"1"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    // Kill every node: no lease transfer can rescue the request, so the
    // bounded routing retries must exhaust into the typed terminal error
    // instead of looping forever.
    for id in cluster.node_ids() {
        cluster.set_node_alive(id, false);
    }
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(&client, k(2, "x"), move |r| *g.borrow_mut() = Some(r));
    sim.run_for(dur::secs(120));
    assert_eq!(*got.borrow(), Some(Err(KvError::Unavailable)), "typed error after exhaustion");
}

#[test]
fn deadline_bounds_outage_and_schedules_no_retry_past_it() {
    let (sim, cluster) = setup(16);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "x"), Bytes::from_static(b"1"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    // Same total outage as above, but the batch carries a 2s deadline.
    // Without one, routing retries burn ~19s before the typed error;
    // with one, the error must surface by the deadline because neither a
    // retry backoff nor an RPC timeout may be scheduled past it.
    for id in cluster.node_ids() {
        cluster.set_node_alive(id, false);
    }
    let deadline_at = sim.now() + dur::secs(2);
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let s2 = sim.clone();
    let read = |deadline| BatchRequest {
        deadline,
        ..txn_batch(&make_txn_meta(&cluster, k(2, "x")), vec![RequestKind::Get { key: k(2, "x") }])
    };
    let batch = read(Deadline::at(deadline_at));
    send(&client, batch, move |resp| *g.borrow_mut() = Some((resp.error, s2.now())));
    sim.run_for(dur::secs(120));

    let (error, finished_at) = got.borrow_mut().take().expect("batch completed");
    assert!(
        matches!(error, Some(KvError::DeadlineExceeded) | Some(KvError::Unavailable)),
        "typed terminal error, got {error:?}"
    );
    assert!(
        finished_at <= deadline_at,
        "error surfaced at {finished_at:?}, past the {deadline_at:?} deadline: a retry or \
         timeout was scheduled beyond it"
    );
    // An already-expired deadline never touches the network.
    let g2 = Rc::new(RefCell::new(None));
    let g2c = Rc::clone(&g2);
    let expired = read(Deadline::at(sim.now()));
    send(&client, expired, move |resp| *g2c.borrow_mut() = Some(resp.error));
    assert_eq!(
        *g2.borrow(),
        Some(Some(KvError::DeadlineExceeded)),
        "expired deadline fails synchronously"
    );
    assert!(cluster.degrade().deadline_exceeded.get() > 0, "deadline expiry was counted");
}

#[test]
fn abandoned_txn_intent_is_pushed_and_cannot_later_commit() {
    let (sim, cluster) = setup(17);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "x"), Bytes::from_static(b"committed"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    // An orphan writes an intent and then its coordinator "dies": no
    // EndTxn, no cleanup ever arrives.
    let orphan = make_txn_meta(&cluster, k(2, "x"));
    let write = BatchRequest {
        tenant: TenantId(2),
        txn: orphan.clone(),
        deadline: Deadline::NONE,
        requests: vec![RequestKind::WriteIntent {
            key: k(2, "x"),
            value: Some(Bytes::from_static(b"orphaned")),
        }],
    };
    send(&client, write, |resp| assert!(resp.error.is_none(), "{:?}", resp.error));
    sim.run_for(dur::secs(2));

    // Within the abandonment window the intent still blocks readers
    // (conflict budget exhausts into the typed conflict).
    let early = Rc::new(RefCell::new(None));
    {
        let e = Rc::clone(&early);
        get(&client, k(2, "x"), move |r| *e.borrow_mut() = Some(r));
    }
    sim.run_for(dur::secs(2));
    assert_eq!(
        *early.borrow(),
        Some(Err(KvError::IntentConflict { other_txn: orphan.txn_id })),
        "live-window intent still blocks"
    );

    // Past TXN_ABANDON_TIMEOUT a conflicting reader pushes the orphan:
    // the intent is aborted away and the committed value reads through.
    sim.run_for(dur::secs(10));
    let pushed = Rc::new(RefCell::new(None));
    {
        let p = Rc::clone(&pushed);
        get(&client, k(2, "x"), move |r| *p.borrow_mut() = Some(r));
    }
    sim.run_for(dur::secs(5));
    assert_eq!(
        *pushed.borrow(),
        Some(Ok(Some(Bytes::from_static(b"committed")))),
        "push-abort clears the abandoned intent"
    );
    assert!(cluster.degrade().txn_pushes.get() > 0, "push was counted");

    // The pushed transaction must not be able to commit afterwards: its
    // intents are gone, so an acknowledged commit would lose the writes.
    let end = BatchRequest {
        tenant: TenantId(2),
        txn: orphan.clone(),
        deadline: Deadline::NONE,
        requests: vec![RequestKind::EndTxn { commit: true }],
    };
    let commit = Rc::new(RefCell::new(None));
    {
        let c = Rc::clone(&commit);
        send(&client, end, move |resp| *c.borrow_mut() = Some(resp.error));
    }
    sim.run_for(dur::secs(5));
    assert_eq!(
        *commit.borrow(),
        Some(Some(KvError::TxnAborted)),
        "a pushed txn's commit is refused"
    );
}

/// A batch of `txn`'s for tenant 2: its reads are served at the
/// transaction's start timestamp.
fn txn_batch(txn: &TxnMeta, requests: Vec<RequestKind>) -> BatchRequest {
    BatchRequest { tenant: TenantId(2), txn: txn.clone(), deadline: Deadline::NONE, requests }
}

/// Longer than the transaction status table remembers a finalized
/// transaction: the KV client's whole re-send window, about six minutes,
/// plus two of the table's 30 s collection periods.
const STATUS_TABLE_FORGOT: std::time::Duration =
    TXN_STATUS_RETENTION.saturating_add(std::time::Duration::from_secs(60));

/// Sends `batch`, runs the simulation two seconds, and returns the
/// batch's error (`None` = acked).
fn send_and_wait(sim: &Sim, client: &KvClient, batch: BatchRequest) -> Option<KvError> {
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    send(client, batch, move |resp| *o.borrow_mut() = Some(resp.error));
    sim.run_for(dur::secs(2));
    let error = outcome.borrow_mut().take();
    error.expect("batch answered")
}

/// Reads `key` in a transaction of its own and runs the simulation five
/// seconds.
fn get_and_wait(sim: &Sim, client: &KvClient, key: Bytes) -> Result<Option<Bytes>, KvError> {
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    get(client, key, move |r| *g.borrow_mut() = Some(r));
    sim.run_for(dur::secs(5));
    let result = got.borrow_mut().take();
    result.expect("get answered")
}

/// Regression: a staged commit whose resolution never arrives (crashed
/// coordinator, lost fire-and-forget cleanup batch) leaves a committed
/// transaction's intent behind. A reader that met it after the status
/// table had forgotten the transaction took "not in the table" for
/// "pending", declared the intent abandoned, overwrote the `Committed`
/// record with `Aborted` and dropped an acked write. The persisted record
/// is what settles an intent that outlives the table.
#[test]
fn committed_intent_that_outlives_the_status_table_still_reads_committed() {
    let (sim, cluster) = setup(18);
    let client = client_for(&cluster, TenantId(2));
    put(&client, k(2, "x"), Bytes::from_static(b"old"), |r| r.unwrap());
    sim.run_for(dur::secs(2));

    let txn = make_txn_meta(&cluster, k(2, "x"));
    let write =
        RequestKind::WriteIntent { key: k(2, "x"), value: Some(Bytes::from_static(b"new")) };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&txn, vec![write])), None);
    let end = RequestKind::EndTxn { commit: true };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&txn, vec![end])), None, "commit acked");

    // No `ResolveIntent` ever arrives, and the table forgets.
    sim.run_for(STATUS_TABLE_FORGOT);
    assert_eq!(
        get_and_wait(&sim, &client, k(2, "x")),
        Ok(Some(Bytes::from_static(b"new"))),
        "an acked commit is never lost"
    );
    assert_eq!(cluster.degrade().txn_pushes.get(), 0, "a committed transaction is not pushed");
}

/// The same, with the intent in a range that shares no replica set with
/// the anchor range: the record lives on the anchor's replicas, and the
/// intent's leaseholder must still find it.
#[test]
fn committed_intent_is_settled_by_a_record_on_another_replica_set() {
    let (sim, cluster, cert) = setup_pinned(19);
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    let (anchor, far) = (k(2, "a"), k(2, "~p/x"));
    let replicas = |key: &Bytes| cluster.range_of(key).expect("range").desc.replicas;
    assert_ne!(replicas(&anchor), replicas(&far));

    let txn = make_txn_meta(&cluster, anchor.clone());
    let write = |key: &Bytes| RequestKind::WriteIntent {
        key: key.clone(),
        value: Some(Bytes::from_static(b"new")),
    };
    let intents = txn_batch(&txn, vec![write(&anchor), write(&far)]);
    assert_eq!(send_and_wait(&sim, &client, intents), None);
    let end = RequestKind::EndTxn { commit: true };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&txn, vec![end])), None, "commit acked");

    sim.run_for(STATUS_TABLE_FORGOT);
    let committed = Ok(Some(Bytes::from_static(b"new")));
    assert_eq!(get_and_wait(&sim, &client, far), committed);
    assert_eq!(get_and_wait(&sim, &client, anchor), committed);
    assert_eq!(cluster.degrade().txn_pushes.get(), 0);
}

/// Regression: a read sent again after an RPC timeout is ten seconds older
/// than its snapshot, twice the MVCC GC window. If its key was overwritten
/// meanwhile, the version it should return is gone, and it was answered
/// with whatever was left — here, "no such key".
#[test]
fn read_below_the_gc_horizon_is_refused_not_answered_wrong() {
    let (sim, cluster) = setup(22);
    let client = client_for(&cluster, TenantId(2));
    let put = |value: &'static [u8]| {
        put(&client, k(2, "x"), Bytes::from_static(value), |r| r.unwrap());
        sim.run_for(dur::secs(1));
    };
    put(b"v1");
    let snapshot = make_txn_meta(&cluster, k(2, "x"));
    let read_at_snapshot = || {
        let gets = vec![RequestKind::Get { key: k(2, "x") }, RequestKind::Get { key: k(2, "y") }];
        txn_batch(&snapshot, gets)
    };
    put(b"v2");
    assert_eq!(send_and_wait(&sim, &client, read_at_snapshot()), None, "history still there");

    // v2 passes the GC horizon; the next write collects v1 beneath it.
    sim.run_for(dur::secs(6));
    put(b"v3");
    assert_eq!(send_and_wait(&sim, &client, read_at_snapshot()), Some(KvError::SnapshotTooOld));
    assert_eq!(get_and_wait(&sim, &client, k(2, "x")), Ok(Some(Bytes::from_static(b"v3"))));
}

/// Regression: a coordinator cleans up after every commit it saw fail, by
/// resolving its intents as aborted — and a commit can fail at the
/// coordinator (deadline, no route left) after its `EndTxn` went through.
/// The clean-up then deleted committed data, key by key.
#[test]
fn abort_cleanup_never_discards_a_committed_intent() {
    let (sim, cluster) = setup(21);
    let client = client_for(&cluster, TenantId(2));
    let txn = make_txn_meta(&cluster, k(2, "x"));
    let write =
        RequestKind::WriteIntent { key: k(2, "x"), value: Some(Bytes::from_static(b"new")) };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&txn, vec![write])), None);
    let end = RequestKind::EndTxn { commit: true };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&txn, vec![end])), None, "committed");

    let cleanup = RequestKind::ResolveIntent { key: k(2, "x"), commit_ts: None };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&txn, vec![cleanup])), None);
    assert_eq!(get_and_wait(&sim, &client, k(2, "x")), Ok(Some(Bytes::from_static(b"new"))));
}

/// The one ordering rule of evaluate-then-replay: what a batch applied
/// before it failed still reaches the followers. A batch settles a
/// committed transaction's leftover intent on `a` — met by a read, or by
/// the validation of a write — and then fails on a pending intent on `b`:
/// `a` is settled on every replica, not on the leaseholder alone.
#[test]
fn intent_settled_by_a_batch_that_then_fails_is_settled_on_every_replica() {
    for (seed, by_write) in [(23, false), (24, true)] {
        let (sim, cluster) = setup(seed);
        let client = client_for(&cluster, TenantId(2));
        let (a, b) = (k(2, "a"), k(2, "b"));
        let write = |key: &Bytes, value: &'static [u8]| RequestKind::WriteIntent {
            key: key.clone(),
            value: Some(Bytes::from_static(value)),
        };
        // `a`: committed, its resolution never arrived. `b`: still pending.
        let done = make_txn_meta(&cluster, a.clone());
        assert_eq!(send_and_wait(&sim, &client, txn_batch(&done, vec![write(&a, b"done")])), None);
        let end = RequestKind::EndTxn { commit: true };
        assert_eq!(send_and_wait(&sim, &client, txn_batch(&done, vec![end])), None);
        let pending = make_txn_meta(&cluster, b.clone());
        let laid = send_and_wait(&sim, &client, txn_batch(&pending, vec![write(&b, b"pending")]));
        assert_eq!(laid, None);

        let third = make_txn_meta(&cluster, a.clone());
        let requests = if by_write {
            vec![write(&a, b"third"), write(&b, b"third")]
        } else {
            vec![RequestKind::Get { key: a.clone() }, RequestKind::Get { key: b.clone() }]
        };
        assert_eq!(
            send_and_wait(&sim, &client, txn_batch(&third, requests)),
            Some(KvError::IntentConflict { other_txn: pending.txn_id }),
            "the batch fails on `b`"
        );
        for id in cluster.node_ids() {
            let engine = &cluster.node(id).unwrap().engine;
            let settled = match mvcc::get(engine, &a, Timestamp::MAX, None) {
                ReadResult::Value(v) => v == Some(Bytes::from_static(b"done")),
                ReadResult::Intent(over_it) => over_it.txn_id == third.txn_id,
            };
            assert!(settled, "{id:?} still holds the committed intent (by_write: {by_write})");
        }
    }
}

/// Regression: the `EndTxn` guard against committing a pushed transaction
/// read the status table only, so a commit arriving after the pusher's
/// `Aborted` entry had been collected was acked although its intents were
/// gone. The pusher's persisted record refuses it.
#[test]
fn commit_of_a_pushed_txn_is_refused_after_the_status_table_forgot_the_push() {
    let (sim, cluster) = setup(20);
    let client = client_for(&cluster, TenantId(2));
    let orphan = make_txn_meta(&cluster, k(2, "x"));
    let write =
        RequestKind::WriteIntent { key: k(2, "x"), value: Some(Bytes::from_static(b"orphaned")) };
    assert_eq!(send_and_wait(&sim, &client, txn_batch(&orphan, vec![write])), None);

    sim.run_for(dur::secs(12));
    assert_eq!(get_and_wait(&sim, &client, k(2, "x")), Ok(None), "pushed away");
    assert_eq!(cluster.degrade().txn_pushes.get(), 1);

    sim.run_for(STATUS_TABLE_FORGOT);
    let end = RequestKind::EndTxn { commit: true };
    assert_eq!(
        send_and_wait(&sim, &client, txn_batch(&orphan, vec![end])),
        Some(KvError::TxnAborted),
        "its intents are gone: acking would lose the write"
    );
    assert_eq!(get_and_wait(&sim, &client, k(2, "x")), Ok(None));
}

/// Regression: a redirect used to carry only a leaseholder hint, so after
/// a split plus a lease move a client's stale whole-span cache entry had
/// its leaseholder flipped back and forth by the two halves' redirects
/// and never learned the new descriptors — every other request paid a
/// redirect, forever. A redirect now carries the authoritative descriptor
/// and leaseholder: one redirect per half, ever.
#[test]
fn split_plus_lease_move_costs_one_redirect_per_half() {
    let sim = Sim::new(15);
    let config = KvClusterConfig { tenant_metadata_bytes: 0, ..Default::default() };
    let cluster = KvCluster::new(&sim, Topology::single_region("us-east1", 3), config);
    let client = client_for(&cluster, TenantId(2));
    let keys: Vec<Bytes> = (0..8).map(|i| k(2, &format!("row/{i}"))).collect();
    for key in &keys {
        put(&client, key.clone(), Bytes::from_static(b"v"), |r| r.expect("put"));
    }
    sim.run_for(dur::secs(2));
    let meta_lookups = client.cache_stats().0;

    // Split, then move the right half's lease to another replica.
    cluster.split_range(crdb_util::RangeId(1));
    assert_eq!(cluster.tenant_range_count(TenantId(2)), 2);
    let (left, right) = (&keys[0], &keys[7]);
    let old = cluster.leaseholder_of(right).unwrap();
    let new = cluster.node_ids().into_iter().find(|&n| n != old).unwrap();
    assert!(cluster.transfer_lease(right, new));
    assert_eq!(cluster.leaseholder_of(left), Some(old));
    assert_eq!(cluster.leaseholder_of(right), Some(new));

    // Alternate between the halves, one request at a time.
    let redirects = || cluster.degrade().redirects.get();
    let before = (redirects(), cluster.degrade().retries.get());
    let ok = Rc::new(RefCell::new(0u32));
    for round in 0..20 {
        for key in [left, right] {
            let ok = Rc::clone(&ok);
            get(&client, key.clone(), move |r| {
                assert_eq!(r, Ok(Some(Bytes::from_static(b"v"))));
                *ok.borrow_mut() += 1;
            });
            sim.run_for(dur::ms(100));
        }
        assert!(redirects() - before.0 <= 2, "round {round}: {} redirects", redirects() - before.0);
    }
    assert_eq!(*ok.borrow(), 40);
    assert_eq!(redirects() - before.0, 1, "only the moved half ever redirects");
    assert_eq!(cluster.degrade().retries.get() - before.1, 1);
    // The left half's descriptor came from META once the redirect's
    // descriptor had evicted the stale whole-span entry.
    assert_eq!(client.cache_stats().0 - meta_lookups, 1);
}

/// Routing a batch is a loop over its requests, not a recursion: a bulk
/// read's worth of requests in one batch must not grow the stack.
#[test]
fn huge_batch_is_one_rpc_and_does_not_overflow_the_stack() {
    let (sim, cluster) = setup(16);
    let client = client_for(&cluster, TenantId(2));
    let requests: Vec<RequestKind> =
        (0..50_000).map(|i| RequestKind::Get { key: k(2, &format!("bulk/{i:06}")) }).collect();
    let batch = txn_batch(&make_txn_meta(&cluster, k(2, "bulk/")), requests);
    let served: u64 =
        cluster.node_ids().iter().map(|&n| cluster.node(n).unwrap().batches_served.get()).sum();
    let done = Rc::new(RefCell::new(false));
    let d = Rc::clone(&done);
    send(&client, batch, move |resp| {
        assert_eq!(resp.results.len(), 50_000, "{:?}", resp.error);
        *d.borrow_mut() = true;
    });
    sim.run_for(dur::secs(5));
    assert!(*done.borrow());
    let after: u64 =
        cluster.node_ids().iter().map(|&n| cluster.node(n).unwrap().batches_served.get()).sum();
    assert_eq!(after - served, 1, "one range, one RPC");
}

/// A three-region, nine-node cluster; tenant 2 homed in region 0 with the
/// keys from `~p/` on cut off into a range pinned to region 1.
fn setup_pinned(seed: u64) -> (Sim, KvCluster, TenantCert) {
    let sim = Sim::new(seed);
    let cluster = KvCluster::new(&sim, Topology::three_region(), KvClusterConfig::default());
    let cert = cluster.create_tenant_homed(TenantId(2), Some(RegionId(0)));
    cluster.split_at(&k(2, "~p/"), Placement::Pinned(RegionId(1))).expect("cut");
    (sim, cluster, cert)
}

/// Puts `key` and runs the simulation `wait_secs`; the result and how
/// long it took.
fn timed_put(
    sim: &Sim,
    client: &KvClient,
    key: Bytes,
    wait_secs: u64,
) -> (Result<(), KvError>, std::time::Duration) {
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let (s2, start) = (sim.clone(), sim.now());
    put(client, key, Bytes::from_static(b"v"), move |r| {
        *g.borrow_mut() = Some((r, s2.now().duration_since(start)));
    });
    sim.run_for(dur::secs(wait_secs));
    let done = got.borrow_mut().take();
    done.expect("put finished")
}

fn region_of(cluster: &KvCluster, node: NodeId) -> RegionId {
    cluster.node_location(node).expect("node exists").region
}

#[test]
fn pinned_range_has_three_zones_of_one_region_and_commits_there() {
    let (sim, cluster, cert) = setup_pinned(31);
    let pinned = cluster.range_of(&k(2, "~p/x")).expect("pinned range");
    assert_eq!(pinned.placement, Placement::Pinned(RegionId(1)));
    assert_eq!(pinned.desc.start, k(2, "~p/"));
    assert_eq!(pinned.desc.end, keys::tenant_span_end(TenantId(2)));
    let locations: Vec<Location> =
        pinned.desc.replicas.iter().map(|&n| cluster.node_location(n).unwrap()).collect();
    assert!(locations.iter().all(|l| l.region == RegionId(1)), "{locations:?}");
    let mut zones: Vec<u32> = locations.iter().map(|l| l.zone).collect();
    zones.sort();
    assert_eq!(zones, [0, 1, 2], "one replica per zone");
    assert_eq!(region_of(&cluster, pinned.lease.holder), RegionId(1));

    // Everything below the cut is still the tenant's one spread range.
    let spread = cluster.range_of(&k(2, "tbl/1")).expect("main range");
    assert_eq!(spread.placement, Placement::Spread);
    assert_eq!(spread.desc.end, k(2, "~p/"));
    assert_eq!(region_of(&cluster, spread.lease.holder), RegionId(0));
    assert_eq!(cluster.tenant_range_count(TenantId(2)), 2);

    // Cutting where a range already starts, or cutting off keys that
    // hold data, is refused.
    assert!(cluster.split_at(&k(2, "~p/"), Placement::Spread).is_none());
    assert!(cluster.split_at(&k(2, "system/meta/0001"), Placement::Pinned(RegionId(2))).is_none());
    assert_eq!(cluster.tenant_range_count(TenantId(2)), 2);

    // A writer in region 1 commits on an inter-zone quorum; the same
    // writer's row in the spread range waits for another region.
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(1), 0));
    let (r, local) = timed_put(&sim, &client, k(2, "~p/row"), 5);
    r.expect("pinned write");
    assert!(local < dur::ms(10), "in-region round trip and quorum: {local:?}");
    let (r, remote) = timed_put(&sim, &client, k(2, "tbl/row"), 5);
    r.expect("spread write");
    assert!(remote > dur::ms(150), "cross-region round trip and quorum: {remote:?}");
}

#[test]
fn pinned_range_survives_a_zone_outage() {
    let (sim, cluster, cert) = setup_pinned(32);
    // The leaseholder's zone goes down; the client sits in another one.
    let holder = cluster.leaseholder_of(&k(2, "~p/a")).unwrap();
    let zone = cluster.node_location(holder).unwrap().zone;
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(1), (zone + 1) % 3));
    timed_put(&sim, &client, k(2, "~p/a"), 2).0.expect("write before the outage");
    cluster.topology().set_zone_dark(RegionId(1), zone, true);
    for n in cluster.nodes_in_zone(RegionId(1), zone) {
        cluster.set_node_alive(n, false);
    }

    // Two of three replicas are left. While the lease sits in the dark
    // zone the write fails fast; once liveness has moved it — to another
    // zone of the same region, there being nowhere else — it goes through.
    assert_eq!(timed_put(&sim, &client, k(2, "~p/b"), 1).0, Err(KvError::Unavailable));
    sim.run_for(dur::secs(15));
    timed_put(&sim, &client, k(2, "~p/b"), 5).0.expect("write during the zone outage");
    let after = cluster.range_of(&k(2, "~p/b")).unwrap();
    let new_loc = cluster.node_location(after.lease.holder).unwrap();
    assert_eq!(new_loc.region, RegionId(1));
    assert_ne!(new_loc.zone, zone);
    assert!(cluster.lease_transfers() >= 1);
}

#[test]
fn pinned_range_fails_fast_under_a_region_outage_while_the_spread_range_serves() {
    let (sim, cluster, cert) = setup_pinned(33);
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    timed_put(&sim, &client, k(2, "~p/a"), 2).0.expect("pinned write before the outage");
    timed_put(&sim, &client, k(2, "tbl/a"), 2).0.expect("spread write before the outage");

    cluster.topology().set_region_dark(RegionId(1), true);
    for n in cluster.nodes_in_region(RegionId(1)) {
        cluster.set_node_alive(n, false);
    }
    // Past the liveness TTL and a lease-check pass: the pinned range has
    // no live replica to take its lease, the spread range has two.
    sim.run_for(dur::secs(15));

    let (r, elapsed) = timed_put(&sim, &client, k(2, "~p/b"), 60);
    assert_eq!(r, Err(KvError::Unavailable));
    assert!(elapsed < dur::secs(2), "failed fast, not by timeout: {elapsed:?}");
    timed_put(&sim, &client, k(2, "tbl/b"), 60).0.expect("spread range keeps serving");
    let pinned = cluster.range_of(&k(2, "~p/b")).unwrap();
    assert_eq!(region_of(&cluster, pinned.lease.holder), RegionId(1), "the lease stayed put");

    // The region comes back: so does the partition.
    cluster.topology().set_region_dark(RegionId(1), false);
    for n in cluster.nodes_in_region(RegionId(1)) {
        cluster.set_node_alive(n, true);
    }
    sim.run_for(dur::secs(15));
    timed_put(&sim, &client, k(2, "~p/c"), 60).0.expect("pinned write after recovery");
}

/// A batch answers at its first failing sub-batch, and its other
/// sub-batches still run to their end: here the pinned range's sub-batch
/// fails fast across a dark region, and the spread range's, first sent
/// only after the batch has answered, still reaches its leaseholder.
#[test]
fn a_batch_answers_at_its_first_failing_sub_batch_while_the_rest_still_run() {
    let (sim, cluster, cert) = setup_pinned(34);
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    timed_put(&sim, &client, k(2, "~p/a"), 2).0.expect("pinned write before the outage");
    timed_put(&sim, &client, k(2, "tbl/a"), 2).0.expect("spread write before the outage");
    cluster.topology().set_region_dark(RegionId(1), true);
    for n in cluster.nodes_in_region(RegionId(1)) {
        cluster.set_node_alive(n, false);
    }
    sim.run_for(dur::secs(15));

    let spread = cluster.node(cluster.leaseholder_of(&k(2, "tbl/a")).unwrap()).unwrap();
    let served_before = spread.batches_served.get();
    let reads =
        vec![RequestKind::Get { key: k(2, "~p/a") }, RequestKind::Get { key: k(2, "tbl/a") }];
    let batch = txn_batch(&make_txn_meta(&cluster, k(2, "tbl/a")), reads);
    let answered = Rc::new(RefCell::new(None));
    let (a, node) = (Rc::clone(&answered), Rc::clone(&spread));
    send(&client, batch, move |resp| {
        *a.borrow_mut() = Some((resp.error, node.batches_served.get()))
    });
    let at_answer = answered.borrow_mut().take();
    assert_eq!(at_answer, Some((Some(KvError::Unavailable), served_before)), "answered at once");
    sim.run_for(dur::secs(2));
    assert_eq!(spread.batches_served.get(), served_before + 1, "the other sub-batch ran on");
}

#[test]
fn pinned_leases_never_leave_their_region() {
    let sim = Sim::new(34);
    let cluster = KvCluster::new(&sim, Topology::three_region(), KvClusterConfig::default());
    // Twelve tenants homed in region 0, each with a partition pinned to
    // region 1: region 2's nodes lead nothing, so a rebalancer that
    // looked across regions would have every reason to move leases there.
    let tenants: Vec<u64> = (2..14).collect();
    for &t in &tenants {
        cluster.create_tenant_homed(TenantId(t), Some(RegionId(0)));
        cluster.split_at(&k(t, "~p/"), Placement::Pinned(RegionId(1))).expect("cut");
    }
    let victims = cluster.nodes_in_region(RegionId(1));
    for step in 0..30 {
        // Node failures inside the pinned region keep the lease checks
        // busy: one node down for 50 s, then two, then all back.
        match step {
            3 => cluster.set_node_alive(victims[0], false),
            8 => cluster.set_node_alive(victims[1], false),
            13 => victims.iter().for_each(|&n| cluster.set_node_alive(n, true)),
            _ => {}
        }
        sim.run_for(dur::secs(10));
        for &t in &tenants {
            let pinned = cluster.range_of(&k(t, "~p/x")).unwrap();
            assert_eq!(region_of(&cluster, pinned.lease.holder), RegionId(1), "tenant {t}");
            let main = cluster.range_of(&k(t, "tbl/x")).unwrap();
            assert_eq!(region_of(&cluster, main.lease.holder), RegionId(0), "tenant {t}");
        }
    }
    assert!(cluster.lease_transfers() >= 1, "the failures did move leases");
    // Inside region 1 the load evened out again.
    let counts: Vec<usize> = victims.iter().map(|&n| cluster.lease_count(n)).collect();
    assert!(counts.iter().all(|&c| c >= 1), "every node leads some ranges: {counts:?}");
    assert_eq!(cluster.lease_count(cluster.nodes_in_region(RegionId(2))[0]), 0);
}

#[test]
fn group_commit_amortises_fsyncs_on_the_leaseholder() {
    let (sim, cluster) = setup(41);
    let client = client_for(&cluster, TenantId(2));
    timed_put(&sim, &client, k(2, "w/warm"), 1).0.expect("route-learning put");
    let leaseholder = cluster.leaseholder_of(&k(2, "w/0000")).expect("range has a lease");
    let engine = cluster.node(leaseholder).expect("leaseholder exists").engine.clone();
    let before = engine.metrics();

    // 128 writes to one range, one every 25 µs: 20 per group-commit window.
    const WRITES: usize = 128;
    let latencies = Rc::new(RefCell::new(Vec::new()));
    for i in 0..WRITES {
        let (l, s2, c2) = (Rc::clone(&latencies), sim.clone(), client.clone());
        sim.schedule_after(dur::us(25 * i as u64), move || {
            let start = s2.now();
            put(&c2, k(2, &format!("w/{i:04}")), Bytes::from(vec![b'x'; 128]), move |r| {
                r.expect("burst put");
                l.borrow_mut().push(s2.now().duration_since(start));
            });
        });
    }
    sim.run_for(dur::secs(1));

    let latencies = latencies.borrow();
    assert_eq!(latencies.len(), WRITES, "every write acked");
    let d = engine.metrics().delta(&before);
    assert_eq!(d.wal_batches, WRITES as u64, "one WAL batch per write on the leaseholder");
    // Measured: 7 fsyncs, 18 batches each on average (a window opens at
    // the first append it covers and its fsync takes everything appended
    // by then, writes still waiting on their quorum included). A node
    // that synced per batch reads 1.
    assert!(d.batches_per_fsync() >= 16.0, "{} fsyncs for {} batches", d.fsyncs, d.wal_batches);
    assert_eq!(d.stall_events, 0);
    // The sync runs beside the quorum wait and is over before the quorum
    // answers, so an ack is hops, CPU and quorum and no fsync wait at all:
    // the luckiest write (3.15 ms) and the unluckiest (3.25 ms) differ by
    // network jitter alone.
    let (fastest, slowest) = (latencies.iter().min().unwrap(), latencies.iter().max().unwrap());
    assert!(*slowest - *fastest < FSYNC_INTERVAL, "acks between {fastest:?} and {slowest:?}");
    assert!(*slowest < dur::ms(4), "slowest ack {slowest:?}");
}

// ---- The ack rule: a write acks at the later of its quorum and its
// ---- sync, and never before its sync.

/// What one put, handed straight to its leaseholder, was seen to do.
struct ObservedPut {
    /// The WAL sequence number its append was given, and when.
    seq: u64,
    appended_at: SimTime,
    /// When the node responded, and the engine's durability mark then.
    acked_at: SimTime,
    synced_at_ack: u64,
    /// The children of its `kv.serve` span, in order.
    phases: Vec<SpanView>,
}

impl ObservedPut {
    fn phase(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|s| s.name == name).map(|s| s.duration())
    }
}

/// A cluster whose ranges have `replicas` replicas (one per zone), tenant
/// 2's certificate, and the node leading tenant 2's range.
fn leaseholder_with(seed: u64, replicas: usize) -> (Sim, KvCluster, TenantCert, Rc<KvNode>) {
    let sim = Sim::new(seed);
    let config = KvClusterConfig { replication_factor: replicas, ..KvClusterConfig::default() };
    let cluster = KvCluster::new(&sim, Topology::single_region("us-east1", 3), config);
    let cert = cluster.create_tenant(TenantId(2));
    sim.run_for(dur::secs(1));
    let range = cluster.range_of(&k(2, "w/0000")).expect("tenant range");
    assert_eq!(range.desc.replicas.len(), replicas);
    let node = cluster.node(range.lease.holder).expect("leaseholder exists");
    (sim, cluster, cert, node)
}

/// Hands `node` `puts` one-key batches, `gap` apart, with no network on
/// either side — so each response callback runs at the instant the node
/// responds — and steps the simulation an event at a time, so that every
/// WAL append is attributed to the put that made it. With `crash_after`,
/// the node is killed once that many puts have appended.
fn put_at_leaseholder(
    sim: &Sim,
    cluster: &KvCluster,
    cert: &TenantCert,
    node: &Rc<KvNode>,
    puts: usize,
    gap: Duration,
    crash_after: Option<usize>,
) -> Vec<ObservedPut> {
    let engine = node.engine.clone();
    let keys: Vec<Bytes> = (0..puts).map(|i| k(2, &format!("w/{i:04}"))).collect();
    let acks = Rc::new(RefCell::new(vec![None; puts]));
    let (trace, root) = Trace::start("puts", sim.clock());
    for (i, key) in keys.iter().enumerate() {
        let (node, cert, cluster, key) =
            (Rc::clone(node), cert.clone(), cluster.clone(), key.clone());
        let (acks, sim2, engine, root) =
            (Rc::clone(&acks), sim.clone(), engine.clone(), root.clone());
        sim.schedule_after(gap * i as u32, move || {
            let batch = commit_of(&make_txn_meta(&cluster, key.clone()), &key, &[b'x'; 128]);
            let _in_trace = root.enter();
            receive(&cluster.sim, &node, &cert, batch, move |resp| {
                assert!(resp.is_ok(), "put {i}: {:?}", resp.error);
                acks.borrow_mut()[i] = Some((sim2.now(), engine.wal_synced_seq()));
            });
        });
    }

    let applied = |i: usize| {
        matches!(mvcc::get(&engine, &keys[i], Timestamp::MAX, None), ReadResult::Value(Some(_)))
    };
    let mut appends: Vec<Option<(u64, SimTime)>> = vec![None; puts];
    let before = engine.wal_appended_seq();
    let mut appended = before;
    let give_up = sim.now() + dur::secs(1);
    while acks.borrow().iter().any(Option::is_none) {
        assert!(sim.step() && sim.now() < give_up, "a put was never acked");
        let seq = engine.wal_appended_seq();
        if seq == appended {
            continue;
        }
        assert_eq!(seq, appended + 1, "one event evaluates one put, in one WAL batch");
        appended = seq;
        let put = (0..puts).find(|&i| appends[i].is_none() && applied(i)).expect("a put's append");
        appends[put] = Some((seq, sim.now()));
        if crash_after == Some((seq - before) as usize) {
            cluster.set_node_alive(node.id, false);
        }
    }
    root.end();

    // The i-th `kv.serve` under the root is the i-th batch received.
    let spans = trace.spans();
    let serves: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].name == "kv.serve").collect();
    assert_eq!(serves.len(), puts);
    let acks = acks.borrow();
    (0..puts)
        .map(|i| {
            let (seq, appended_at) = appends[i].expect("acked, so appended");
            let (acked_at, synced_at_ack) = acks[i].expect("acked");
            let phases: Vec<SpanView> =
                spans.iter().filter(|s| s.parent == Some(serves[i])).cloned().collect();
            // Whatever the write waited for, the phases tile its service.
            let serve = &spans[serves[i]];
            assert_eq!(phases[0].start, serve.start);
            for pair in phases.windows(2) {
                assert_eq!(pair[1].start, pair[0].end.expect("ended"), "put {i}: phases overlap");
            }
            assert_eq!(phases.last().expect("phases").end, serve.end);
            assert_eq!(serve.end, Some(acked_at), "the span ends with the response");
            ObservedPut { seq, appended_at, acked_at, synced_at_ack, phases }
        })
        .collect()
}

#[test]
fn group_commit_sync_overlaps_the_quorum_wait() {
    // An isolated put to a range spread over three zones: the fsync armed
    // at its append fires while the quorum is still out, so the ack waits
    // for CPU and quorum and nothing else.
    let (sim, cluster, cert, node) = leaseholder_with(42, 3);
    let started = sim.now();
    let put = put_at_leaseholder(&sim, &cluster, &cert, &node, 1, Duration::ZERO, None).remove(0);
    let names: Vec<&str> = put.phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["admission.queue", "kv.cpu", "storage.mvcc", "replication.quorum"]);
    let quorum = put.phase("replication.quorum").unwrap();
    assert!(quorum > FSYNC_INTERVAL, "an inter-zone round trip outlasts the sync: {quorum:?}");
    assert_eq!(put.acked_at, put.appended_at + quorum, "acked the instant the quorum answered");
    assert_eq!(
        put.acked_at.duration_since(started),
        put.phase("kv.cpu").unwrap() + quorum,
        "CPU + quorum, no fsync wait on top"
    );
    assert!(put.synced_at_ack >= put.seq);
    assert_eq!(node.engine.metrics().fsyncs, 1, "the one fsync ran during the quorum wait");
}

#[test]
fn group_commit_outlasting_the_quorum_is_what_the_ack_waits_for() {
    // A single-replica range has no quorum to wait for: the ack lands
    // exactly one window after the append, on the fsync that append armed.
    let (sim, cluster, cert, node) = leaseholder_with(43, 1);
    let put = put_at_leaseholder(&sim, &cluster, &cert, &node, 1, Duration::ZERO, None).remove(0);
    let names: Vec<&str> = put.phases.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["admission.queue", "kv.cpu", "storage.mvcc", "wal.group_commit"]);
    assert_eq!(put.phase("wal.group_commit"), Some(FSYNC_INTERVAL));
    assert_eq!(put.acked_at, put.appended_at + FSYNC_INTERVAL);
    assert_eq!(put.synced_at_ack, put.seq, "acked by the fsync that covered it");
}

#[test]
fn group_commit_never_acks_a_write_before_its_sync() {
    for replicas in [3, 1] {
        // A burst, 20 writes per window: whichever of quorum and sync is
        // the later one, no callback runs ahead of the durability mark.
        let (sim, cluster, cert, node) = leaseholder_with(44, replicas);
        let burst = put_at_leaseholder(&sim, &cluster, &cert, &node, 128, dur::us(25), None);
        for (i, put) in burst.iter().enumerate() {
            assert!(
                put.synced_at_ack >= put.seq,
                "{replicas} replicas, put {i}: acked at mark {} with sequence number {}",
                put.synced_at_ack,
                put.seq
            );
            let waited = put.acked_at.duration_since(put.appended_at);
            let quorum = put.phase("replication.quorum").unwrap_or(Duration::ZERO);
            assert!(
                waited <= quorum.max(FSYNC_INTERVAL),
                "put {i}: later of the two, not their sum"
            );
            // The residual wait has a span exactly when there is one.
            let residual = put.phase("wal.group_commit");
            assert_eq!(residual, (waited > quorum).then(|| waited - quorum), "put {i}");
        }
        let m = node.engine.metrics();
        assert!(m.batches_per_fsync() >= 16.0, "{} fsyncs for {} batches", m.fsyncs, m.wal_batches);

        // The leaseholder dies between the appends and their acks. The
        // armed fsync still fires (the appended bytes are on its disk),
        // and only then do the acks go out.
        let (sim, cluster, cert, node) = leaseholder_with(45, replicas);
        let doomed = put_at_leaseholder(&sim, &cluster, &cert, &node, 8, dur::us(10), Some(8));
        assert!(!node.is_alive());
        let crashed_at = doomed.iter().map(|p| p.appended_at).max().unwrap();
        for (i, put) in doomed.iter().enumerate() {
            assert!(put.acked_at > crashed_at, "put {i} was acked before the crash");
            assert!(put.synced_at_ack >= put.seq, "{replicas} replicas, put {i} across the crash");
        }
    }
}

#[test]
fn dead_follower_is_charged_no_apply_cpu() {
    let (sim, cluster, cert, node) = leaseholder_with(46, 3);
    let range = cluster.range_of(&k(2, "w/0000")).unwrap();
    let followers: Vec<Rc<KvNode>> = (range.desc.replicas.iter())
        .filter(|&&n| n != node.id)
        .map(|&n| cluster.node(n).unwrap())
        .collect();
    let (dead, live) = (&followers[0], &followers[1]);
    cluster.set_node_alive(dead.id, false);
    // Whatever the node had in flight when it died drains first.
    sim.run_for(dur::ms(100));
    let before = (dead.cpu.cumulative_busy(), live.cpu.cumulative_busy());

    put_at_leaseholder(&sim, &cluster, &cert, &node, 32, dur::us(25), None);
    sim.run_for(dur::ms(100));
    assert_eq!(dead.cpu.cumulative_busy(), before.0, "a crashed node burns no CPU");
    assert!(live.cpu.cumulative_busy() > before.1, "the live follower applied the writes");
    // Its engine is its disk: the replays still landed there.
    let replayed = mvcc::get(&dead.engine, &k(2, "w/0000"), Timestamp::MAX, None);
    assert!(matches!(replayed, ReadResult::Value(Some(_))));
}

/// A batch whose deadline passes while it waits in admission is answered
/// once, with a typed error: it is never granted, and never left without
/// a reply (which would also leave its `kv.serve` span open).
#[test]
fn batch_that_expires_in_the_admission_queue_gets_one_typed_reply() {
    let (sim, cluster, cert, node) = leaseholder_with(71, 3);
    let key = k(2, "x");
    let read = |deadline| BatchRequest {
        deadline,
        ..txn_batch(
            &make_txn_meta(&cluster, key.clone()),
            vec![RequestKind::Get { key: key.clone() }],
        )
    };
    // Older transactions fill the CPU slots and the queue ahead of it.
    let served = Rc::new(RefCell::new(0));
    for _ in 0..400 {
        let served = Rc::clone(&served);
        receive(&sim, &node, &cert, read(Deadline::NONE), move |resp| {
            assert!(resp.is_ok(), "{:?}", resp.error);
            *served.borrow_mut() += 1;
        });
    }
    let replies = Rc::new(RefCell::new(Vec::new()));
    let r = Rc::clone(&replies);
    receive(&sim, &node, &cert, read(Deadline::at(sim.now() + dur::ms(1))), move |resp| {
        r.borrow_mut().push(resp.error);
    });
    sim.run_for(dur::secs(2));
    assert_eq!(*served.borrow(), 400, "the queue drained");
    assert_eq!(*replies.borrow(), [Some(KvError::DeadlineExceeded)]);
}

// ---- The timestamp cache: a commit stamped before a read it cannot
// ---- see lands above that read, wherever the read was served.

/// Hands `batch` straight to `node`, serving it in a task of its own with
/// no network on either side: `cb` gets the response the instant the node
/// answers.
fn receive(
    sim: &Sim,
    node: &Rc<KvNode>,
    cert: &TenantCert,
    batch: BatchRequest,
    cb: impl FnOnce(BatchResponse) + 'static,
) {
    let serve = Rc::clone(node).serve(cert.clone(), batch);
    task::spawn(sim, async move { cb(serve.await) });
}

/// Hands `batch` straight to `node` and runs the simulation until it
/// answers (a quorum round trip inside one region is well under 100 ms).
fn serve(sim: &Sim, node: &Rc<KvNode>, cert: &TenantCert, batch: BatchRequest) -> BatchResponse {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    receive(sim, node, cert, batch, move |resp| *o.borrow_mut() = Some(resp));
    sim.run_for(dur::ms(100));
    let answered = out.borrow_mut().take();
    answered.expect("the node answered")
}

/// `txn`'s one-phase commit of one write: `key = value`.
fn commit_of(txn: &TxnMeta, key: &Bytes, value: &'static [u8]) -> BatchRequest {
    let write =
        RequestKind::WriteIntent { key: key.clone(), value: Some(Bytes::from_static(value)) };
    txn_batch(txn, vec![write, RequestKind::EndTxn { commit: true }])
}

/// The pairs a scan of `[start, end)` by `reader` returns from `node`.
fn scan_at(
    sim: &Sim,
    node: &Rc<KvNode>,
    cert: &TenantCert,
    (start, end, limit): (&Bytes, &Bytes, usize),
    reader: &TxnMeta,
) -> Vec<(Bytes, Bytes)> {
    let scan = RequestKind::Scan { start: start.clone(), end: end.clone(), limit };
    let resp = serve(sim, node, cert, txn_batch(reader, vec![scan]));
    assert!(resp.is_ok(), "{:?}", resp.error);
    match resp.results.into_iter().next() {
        Some(ResponseKind::Pairs(pairs)) => pairs,
        other => panic!("a scan answers pairs: {other:?}"),
    }
}

/// Regression: the cache used to be bumped only under the keys a scan
/// *returned*, so a scan that found nothing left no mark. A commit
/// stamped before it then landed beneath it, and the same scan at the same
/// timestamp, read again, returned a row it had not.
#[test]
fn ts_cache_empty_scan_is_not_written_beneath() {
    let (sim, cluster, cert, node) = leaseholder_with(51, 3);
    let (start, end) = (k(2, "p/"), k(2, "p0"));
    let txn = make_txn_meta(&cluster, start.clone());
    let reader = make_txn_meta(&cluster, start.clone());
    assert!(txn.start_ts < reader.start_ts);
    assert_eq!(scan_at(&sim, &node, &cert, (&start, &end, usize::MAX), &reader), vec![]);

    let outcome = serve(&sim, &node, &cert, commit_of(&txn, &k(2, "p/x"), b"v")).error;
    let again = scan_at(&sim, &node, &cert, (&start, &end, usize::MAX), &reader);
    assert!(
        again.is_empty(),
        "commit outcome {outcome:?}: a write appeared beneath a finished read"
    );
    assert_eq!(outcome, None, "the commit went through, above the scan");
    assert_eq!(cluster.degrade().commits_pushed.get(), 1);
    let later = make_txn_meta(&cluster, start.clone());
    assert_eq!(scan_at(&sim, &node, &cert, (&start, &end, usize::MAX), &later).len(), 1);
}

/// A scan its limit stopped read its span only up to the last key it
/// returned: what lies past that may still be written beneath it, and
/// what lies before it may not.
#[test]
fn ts_cache_limited_scan_protects_up_to_its_resume_key() {
    let (sim, cluster, cert, node) = leaseholder_with(52, 3);
    for key in [k(2, "p/b"), k(2, "p/d")] {
        let put = commit_of(&make_txn_meta(&cluster, key.clone()), &key, b"row");
        assert!(serve(&sim, &node, &cert, put).is_ok());
    }
    let (before, past) =
        (make_txn_meta(&cluster, k(2, "p/a")), make_txn_meta(&cluster, k(2, "p/c")));
    let (start, end) = (k(2, "p/"), k(2, "p0"));
    let reader = make_txn_meta(&cluster, start.clone());
    let first = scan_at(&sim, &node, &cert, (&start, &end, 1), &reader);
    assert_eq!(first.iter().map(|(key, _)| key.clone()).collect::<Vec<_>>(), vec![k(2, "p/b")]);

    for txn in [&before, &past] {
        let outcome = serve(&sim, &node, &cert, commit_of(txn, &txn.anchor_key, b"new"));
        assert_eq!(outcome.error, None);
    }
    let at_read = |key: &str| mvcc::get(&node.engine, &k(2, key), reader.start_ts, None);
    assert_eq!(at_read("p/a"), ReadResult::Value(None), "before the resume key: pushed above");
    assert_eq!(at_read("p/c"), ReadResult::Value(Some(Bytes::from_static(b"new"))), "past it");
    assert_eq!(cluster.degrade().commits_pushed.get(), 1);
    // The limited scan, read again, returns what it returned.
    assert_eq!(scan_at(&sim, &node, &cert, (&start, &end, 1), &reader), first);
}

/// A point read that found nothing protects its key like one that found
/// a value.
#[test]
fn ts_cache_get_of_an_absent_key_is_not_written_beneath() {
    let (sim, cluster, cert, node) = leaseholder_with(53, 3);
    let key = k(2, "g/absent");
    let txn = make_txn_meta(&cluster, key.clone());
    let reader = make_txn_meta(&cluster, key.clone());
    let read = || txn_batch(&reader, vec![RequestKind::Get { key: key.clone() }]);
    let get = serve(&sim, &node, &cert, read());
    assert_eq!(get.results, vec![ResponseKind::Value(None)]);

    assert_eq!(serve(&sim, &node, &cert, commit_of(&txn, &key, b"v")).error, None);
    assert_eq!(mvcc::get(&node.engine, &key, reader.start_ts, None), ReadResult::Value(None));
    let again = serve(&sim, &node, &cert, read());
    assert_eq!(again.results, vec![ResponseKind::Value(None)]);
}

/// The cache lives on the node that served the read. After the lease
/// moves, the new holder has never seen that read, so it counts its whole
/// range read at the lease start: a commit stamped before the read lands
/// above the transfer, not beneath the read.
#[test]
fn ts_cache_read_by_the_old_leaseholder_survives_a_lease_transfer() {
    let (sim, cluster, cert, old) = leaseholder_with(54, 3);
    let key = k(2, "l/x");
    let txn = make_txn_meta(&cluster, key.clone());
    let reader = make_txn_meta(&cluster, key.clone());
    let read = txn_batch(&reader, vec![RequestKind::Get { key: key.clone() }]);
    let get = serve(&sim, &old, &cert, read);
    assert_eq!(get.results, vec![ResponseKind::Value(None)]);

    let replicas = cluster.range_of(&key).expect("range").desc.replicas;
    let to = replicas.into_iter().find(|&n| n != old.id).expect("another replica");
    let before_transfer = cluster.now_ts();
    assert!(cluster.transfer_lease(&key, to));
    let new = cluster.node(to).expect("new leaseholder");
    assert_eq!(serve(&sim, &new, &cert, commit_of(&txn, &key, b"v")).error, None);
    assert_eq!(cluster.degrade().commits_pushed.get(), 1, "pushed off its read timestamp");
    for engine in [&old.engine, &new.engine] {
        assert_eq!(mvcc::get(engine, &key, reader.start_ts, None), ReadResult::Value(None));
        assert_eq!(mvcc::get(engine, &key, before_transfer, None), ReadResult::Value(None));
        let latest = mvcc::get(engine, &key, Timestamp::MAX, None);
        assert_eq!(latest, ReadResult::Value(Some(Bytes::from_static(b"v"))));
    }
}

/// A node that restarts has lost its cache, reads and all; what it must
/// assume instead is that everything was read up to its restart.
#[test]
fn ts_cache_restart_forgets_the_marks_but_not_what_they_protected() {
    let (sim, cluster, cert, node) = leaseholder_with(55, 3);
    let key = k(2, "r/x");
    let txn = make_txn_meta(&cluster, key.clone());
    let reader = make_txn_meta(&cluster, key.clone());
    let read = txn_batch(&reader, vec![RequestKind::Get { key: key.clone() }]);
    let get = serve(&sim, &node, &cert, read);
    assert_eq!(get.results, vec![ResponseKind::Value(None)]);

    cluster.set_node_alive(node.id, false);
    let before_restart = cluster.now_ts();
    cluster.set_node_alive(node.id, true);
    assert_eq!(cluster.leaseholder_of(&key), Some(node.id), "too quick to lose the lease");
    assert_eq!(serve(&sim, &node, &cert, commit_of(&txn, &key, b"v")).error, None);
    assert_eq!(mvcc::get(&node.engine, &key, before_restart, None), ReadResult::Value(None));
    assert_eq!(cluster.degrade().commits_pushed.get(), 1);
}

/// A one-phase commit nobody read across commits where it read, which is
/// where its reads stand without re-validation: a row another transaction
/// wrote after the read does not restart it.
#[test]
fn ts_cache_unpushed_commit_lands_at_its_read_timestamp_without_a_refresh() {
    let (sim, cluster, cert, node) = leaseholder_with(56, 3);
    let (read, written) = (k(2, "w/read"), k(2, "w/written"));
    let put = |key: &Bytes| {
        let put = commit_of(&make_txn_meta(&cluster, key.clone()), key, b"0");
        assert!(serve(&sim, &node, &cert, put).is_ok());
    };
    put(&read);
    let txn = make_txn_meta(&cluster, written.clone());
    let get =
        serve(&sim, &node, &cert, txn_batch(&txn, vec![RequestKind::Get { key: read.clone() }]));
    assert_eq!(get.results, vec![ResponseKind::Value(Some(Bytes::from_static(b"0")))]);
    // Someone else writes what the transaction read, then it commits.
    put(&read);
    let refresh = RequestKind::RefreshSpan {
        start: read.clone(),
        end: Bytes::from([read.as_ref(), &[0x00]].concat()),
        since: txn.start_ts,
    };
    let write =
        RequestKind::WriteIntent { key: written.clone(), value: Some(Bytes::from_static(b"1")) };
    let commit = txn_batch(&txn, vec![refresh, write, RequestKind::EndTxn { commit: true }]);
    assert_eq!(serve(&sim, &node, &cert, commit).error, None, "serialised before the other write");
    let degrade = cluster.degrade();
    assert_eq!((degrade.commits_pushed.get(), degrade.refresh_conflicts_read_only.get()), (0, 0));
    let at_start = mvcc::get(&node.engine, &written, txn.start_ts, None);
    assert_eq!(at_start, ReadResult::Value(Some(Bytes::from_static(b"1"))));
}

/// A pushed commit takes its timestamp from the cluster clock, not the
/// instant just above the read that pushed it: that instant may be another
/// transaction's read timestamp, and that transaction's blind write of the
/// key would then land at the very same version and replace it.
#[test]
fn ts_cache_pushed_commit_takes_a_timestamp_nobody_else_holds() {
    let (sim, cluster, cert, node) = leaseholder_with(58, 3);
    let key = k(2, "u/x");
    let early = make_txn_meta(&cluster, key.clone());
    let reader = make_txn_meta(&cluster, key.clone());
    let late = make_txn_meta(&cluster, key.clone());
    assert_eq!(late.start_ts, reader.start_ts.next(), "issued in the same instant");
    let read = txn_batch(&reader, vec![RequestKind::Get { key: key.clone() }]);
    let get = serve(&sim, &node, &cert, read);
    assert!(get.is_ok());

    assert_eq!(serve(&sim, &node, &cert, commit_of(&early, &key, b"early")).error, None);
    assert_eq!(cluster.degrade().commits_pushed.get(), 1);
    assert_eq!(mvcc::get(&node.engine, &key, late.start_ts, None), ReadResult::Value(None));
    // `late` read before `early` committed, so its write of the key lands
    // above `early`'s or not at all.
    let error = serve(&sim, &node, &cert, commit_of(&late, &key, b"late")).error;
    assert!(matches!(error, Some(KvError::WriteTooOld { .. })), "{error:?}");
    let latest = mvcc::get(&node.engine, &key, Timestamp::MAX, None);
    assert_eq!(latest, ReadResult::Value(Some(Bytes::from_static(b"early"))));
}

/// The same transaction, but a key it writes was read after its read
/// timestamp: it must commit above that read, its reads are re-validated
/// up to there, and the write it missed now fails it — a conflict on a
/// span it only read.
#[test]
fn ts_cache_pushed_commit_refreshes_its_reads_and_counts_the_conflict() {
    let (sim, cluster, cert, node) = leaseholder_with(57, 3);
    let (read, written) = (k(2, "w/read"), k(2, "w/written"));
    let put = |key: &Bytes| {
        let put = commit_of(&make_txn_meta(&cluster, key.clone()), key, b"0");
        assert!(serve(&sim, &node, &cert, put).is_ok());
    };
    put(&read);
    let txn = make_txn_meta(&cluster, written.clone());
    let get =
        serve(&sim, &node, &cert, txn_batch(&txn, vec![RequestKind::Get { key: read.clone() }]));
    assert!(get.is_ok());
    put(&read);
    let later = RequestKind::Get { key: written.clone() };
    let reader = make_txn_meta(&cluster, written.clone());
    assert!(serve(&sim, &node, &cert, txn_batch(&reader, vec![later])).is_ok());

    let refresh = RequestKind::RefreshSpan {
        start: read.clone(),
        end: Bytes::from([read.as_ref(), &[0x00]].concat()),
        since: txn.start_ts,
    };
    let write =
        RequestKind::WriteIntent { key: written.clone(), value: Some(Bytes::from_static(b"1")) };
    let commit = txn_batch(&txn, vec![refresh, write, RequestKind::EndTxn { commit: true }]);
    let degrade = cluster.degrade();
    let one_phase = degrade.commits_one_phase.get();
    let error = serve(&sim, &node, &cert, commit).error;
    assert!(matches!(error, Some(KvError::WriteTooOld { .. })), "{error:?}");
    assert_eq!(degrade.refresh_conflicts_read_only.get(), 1);
    assert_eq!(degrade.refresh_conflicts_read_write.get(), 0);
    let committed = degrade.commits_one_phase.get() - one_phase;
    assert_eq!((committed, degrade.commits_pushed.get()), (0, 0));
    assert_eq!(mvcc::get(&node.engine, &written, Timestamp::MAX, None), ReadResult::Value(None));
}

// ---- A batch's cost in simulator events, and the tasks it leaves.

/// Starts a batch with `start`, which sets the flag it is handed once the
/// batch is answered, and steps `sim` until then: the events the batch
/// took. What it left running (follower applies, a WAL sync) settles
/// outside the count.
fn events_of(sim: &Sim, start: impl FnOnce(Rc<Cell<bool>>)) -> u64 {
    let done = Rc::new(Cell::new(false));
    let before = sim.events_executed();
    start(Rc::clone(&done));
    while !done.get() {
        assert!(sim.step(), "the batch was never answered");
    }
    let took = sim.events_executed() - before;
    sim.run_for(dur::secs(1));
    took
}

/// Pins the simulator events one KV batch takes from the client to a
/// range's leaseholder and back, its route cached and its quorum live. A
/// wake polls its task inline, so serving a batch adds no event of its
/// own: an executor that scheduled each poll would add one per wake to
/// every count here.
#[test]
fn each_kv_batch_takes_a_fixed_number_of_events() {
    let (sim, cluster) = setup(23);
    let client = client_for(&cluster, TenantId(2));
    let key = k(2, "e");
    let value = Bytes::from_static(b"v");
    put(&client, key.clone(), value.clone(), |r| r.expect("warm-up put"));
    sim.run_for(dur::secs(1));
    let read = |done: Rc<Cell<bool>>| {
        let value = value.clone();
        get(&client, key.clone(), move |r| {
            assert_eq!(r, Ok(Some(value)));
            done.set(true);
        })
    };
    let get_events = events_of(&sim, read);
    let put_events = events_of(&sim, |done| {
        put(&client, key.clone(), value.clone(), move |r| {
            r.expect("put");
            done.set(true);
        })
    });
    // The lease moves under the client's cached route: the batch is
    // redirected, and rerouted to the new holder.
    let replicas = cluster.range_of(&key).expect("range").desc.replicas;
    let old = cluster.leaseholder_of(&key).expect("leaseholder");
    let to = replicas.into_iter().find(|&n| n != old).expect("another replica");
    assert!(cluster.transfer_lease(&key, to));
    let redirects = cluster.degrade().redirects.get();
    let redirected_events = events_of(&sim, read);
    assert_eq!(cluster.degrade().redirects.get(), redirects + 1);
    // A read is its two hops and its CPU slot; the redirect adds a round
    // trip. A write also waits out its quorum and its group commit, and
    // the follower applies and the disk write it started land meanwhile.
    assert_eq!((get_events, put_events, redirected_events), (3, 8, 5));
}

/// Every task a batch runs in ends with it, whether the batch succeeds,
/// loses its reply to a one-way partition, expires in the admission queue
/// or is in flight on a node that dies: a task parked on a wake that
/// nothing will send stays in the executor for good. The cluster's control
/// loops are tasks too, so the count to come back to is the one before any
/// batch is sent.
#[test]
fn no_task_outlives_its_batch() {
    let sim = Sim::new(19);
    let config = KvClusterConfig { nodes_per_region: 1, ..Default::default() };
    let cluster = KvCluster::new(&sim, Topology::three_region(), config);
    let cert = cluster.create_tenant(TenantId(2));
    sim.run_for(dur::secs(1));
    let loops = sim.live_tasks();
    let key = k(2, "t");
    let holder = cluster.leaseholder_of(&key).expect("range");
    let node = cluster.node(holder).expect("leaseholder exists");
    let home = cluster.node_location(holder).expect("placed").region;
    let near = KvClient::new(cluster.clone(), cert.clone(), Location::new(home, 0));
    let answered: Rc<RefCell<Vec<&str>>> = Rc::default();
    let answer = |name: &'static str| {
        let answered = Rc::clone(&answered);
        move |error: Option<KvError>| {
            answered.borrow_mut().push(name);
            error
        }
    };

    // Succeeds.
    let ok = answer("ok");
    put(&near, key.clone(), Bytes::from_static(b"v"), move |r| assert_eq!(ok(r.err()), None));
    sim.run_for(dur::secs(1));

    // Served, but its reply never gets back: the client times out.
    let far_region = RegionId((home.raw() + 1) % 3);
    let far = KvClient::new(cluster.clone(), cert.clone(), Location::new(far_region, 0));
    cluster.topology().partition_one_way(home, far_region);
    let txn = make_txn_meta(&cluster, key.clone());
    let lost = BatchRequest {
        deadline: Deadline::at(sim.now() + dur::secs(12)),
        ..txn_batch(&txn, vec![RequestKind::Get { key: key.clone() }])
    };
    let served = node.batches_served.get();
    let timed_out = answer("timed out");
    send(&far, lost, move |resp| assert!(timed_out(resp.error).is_some()));
    sim.run_for(dur::secs(15));
    assert!(node.batches_served.get() > served, "the node served the batch");
    cluster.topology().heal_all();

    // Expires in the admission queue, behind older transactions' reads.
    let read = |deadline| BatchRequest {
        deadline,
        ..txn_batch(
            &make_txn_meta(&cluster, key.clone()),
            vec![RequestKind::Get { key: key.clone() }],
        )
    };
    for _ in 0..400 {
        receive(&sim, &node, &cert, read(Deadline::NONE), |resp| assert!(resp.is_ok()));
    }
    let expired = answer("expired");
    receive(&sim, &node, &cert, read(Deadline::at(sim.now() + dur::ms(1))), move |resp| {
        assert_eq!(expired(resp.error), Some(KvError::DeadlineExceeded))
    });
    sim.run_for(dur::secs(2));

    // In flight (its quorum out) when its leaseholder dies.
    let dying = answer("node died");
    put(&near, key.clone(), Bytes::from_static(b"w"), move |r| drop(dying(r.err())));
    let served = node.batches_served.get();
    while node.batches_served.get() == served {
        assert!(sim.step(), "the put reached the node");
    }
    cluster.set_node_alive(holder, false);

    sim.run_for(RPC_TIMEOUT * 6);
    assert_eq!(sim.live_tasks(), loops, "a task outlived its batch");
    assert_eq!(*answered.borrow(), ["ok", "timed out", "expired", "node died"]);
}
