//! Replica-equality oracle: what the leaseholder evaluated, every
//! follower replayed, so the replicas of a range hold the same data by
//! construction. This checks that they do. Test-side code: a test (or the
//! soak harness) includes this file with `#[path]`.
//!
//! Per range, over its span on each replica's engine (`kv::mvcc` lays
//! versions under `'v' + key`, intents under `'i' + key`):
//!
//! - **intents** byte for byte;
//! - **versions** after passing each engine's entries through
//!   `mvcc::compaction_gc` at the present GC horizon. The collectors run
//!   when they run — a memtable holds what another replica flushed, one
//!   node's compaction is ahead of another's — so the engines may differ
//!   in history no read can return; the readable history must agree.
//!
//! **Transaction records** (`'t' + txn id`) carry no user key and so
//! belong to no span: a record is written to the replicas of whichever
//! range the `EndTxn` or the push was addressed to. Every record a node
//! holds must therefore be held, byte for byte, by every replica of some
//! range that node replicates.

use std::collections::BTreeSet;

use bytes::Bytes;
use crdb_kv::cluster::KvCluster;
use crdb_kv::{mvcc, KvNode, Timestamp};

type Entries = Vec<(Bytes, Bytes)>;

/// The entries of `node`'s engine under `tag + [start, end)` that `dropped`
/// does not reject.
fn entries(
    node: &KvNode,
    tag: u8,
    (start, end): (&[u8], &[u8]),
    mut dropped: impl FnMut(&Bytes, Option<&Bytes>) -> bool,
) -> Entries {
    let bound = |key: &[u8]| [&[tag], key].concat();
    let mut out = Entries::new();
    node.engine.scan_visit(&bound(start), &bound(end), |k, v| {
        if !dropped(k, Some(v)) {
            out.push((k.clone(), v.clone()));
        }
        true
    });
    out
}

fn first_difference(a: &Entries, b: &Entries) -> String {
    let at = a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    format!("entry {at}: {:?} vs {:?}", a.get(at), b.get(at))
}

/// Every way the replicas of `kv`'s ranges disagree right now; empty when
/// they are equal.
pub fn divergences(kv: &KvCluster) -> Vec<String> {
    let horizon = mvcc::gc_horizon(Timestamp::at(kv.sim.now()));
    let ranges = kv.ranges();
    let mut found = Vec::new();
    for range in &ranges {
        let id = range.desc.id;
        let span = (range.desc.start.as_ref(), range.desc.end.as_ref());
        let held = |replica| {
            kv.node(replica).map(|node| {
                let versions = entries(&node, b'v', span, mvcc::compaction_gc(horizon));
                (versions, entries(&node, b'i', span, |_, _| false))
            })
        };
        let missing = |replica| format!("{id:?}: replica {replica:?} is no node of the cluster");
        let Some((&first, followers)) = range.desc.replicas.split_first() else { continue };
        let Some(expect) = held(first) else {
            found.push(missing(first));
            continue;
        };
        for &other in followers {
            let Some(got) = held(other) else {
                found.push(missing(other));
                continue;
            };
            for (what, a, b) in [("versions", &expect.0, &got.0), ("intents", &expect.1, &got.1)] {
                if a != b {
                    let at = first_difference(a, b);
                    found.push(format!("{id:?}: {what} on {first:?} vs {other:?} differ at {at}"));
                }
            }
        }
    }
    let replica_sets: BTreeSet<_> = ranges.iter().map(|r| &r.desc.replicas).collect();
    for id in kv.node_ids() {
        let Some(node) = kv.node(id) else { continue };
        for (key, record) in entries(&node, b't', (&[], &[0xff; 9]), |_, _| false) {
            let holds =
                |n| kv.node(n).is_some_and(|n| n.engine.get(&key).as_ref() == Some(&record));
            let everywhere = |set: &&Vec<_>| set.contains(&id) && set.iter().copied().all(holds);
            if !replica_sets.iter().any(everywhere) {
                found.push(format!(
                    "transaction record {key:?} on {id:?} is on no whole replica set"
                ));
            }
        }
    }
    found
}
