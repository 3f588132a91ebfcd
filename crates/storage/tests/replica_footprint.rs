//! What a write costs the host on the three replicas that apply it.
//!
//! A KV write is evaluated once and its batch replayed on every replica
//! (`mvcc::Applied::replay`). Each entry of the batch is one allocation
//! that every replica's memtable indexes by handle, so a replica pays for
//! its index slot and nothing else: this is the heap an entry pins across
//! three memtables, beyond its key and value bytes, and it must be a
//! function of the seed alone.

use bytes::Bytes;
use crdb_storage::{Engine, LsmConfig, WriteBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "../../util/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

const REPLICAS: usize = 3;
const WRITES: usize = 10_000;
/// Heap an entry may pin across the replicas' memtables: the 182 B this
/// scenario measures plus a quarter. It was 366 B while each replica's
/// memtable held a 64-byte key-and-value copy of every entry in its own
/// B-tree leaves.
const CEILING_BYTES: usize = 227;

/// Live heap bytes that `WRITES` sequential single-put batches, each
/// applied to every replica, add beyond their keys and values, and how
/// many allocations it took.
fn replicated_writes_cost(seed: u64) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let writes: Vec<(Bytes, Bytes)> = (0..WRITES)
        .map(|i| {
            let value = vec![rng.gen::<u8>(); rng.gen_range(50..150)];
            (Bytes::from(format!("key{i:08}")), Bytes::from(value))
        })
        .collect();
    let replicas: Vec<Engine> = (0..REPLICAS).map(|_| Engine::new(LsmConfig::default())).collect();
    let (before, allocations) = (counting_alloc::live_bytes(), counting_alloc::allocations());

    for (key, value) in &writes {
        let mut batch = WriteBatch::new();
        batch.put(key.clone(), value.clone());
        for replica in &replicas {
            replica.apply(&batch);
            replica.group_commit();
        }
    }

    let after = counting_alloc::live_bytes();
    for replica in &replicas {
        let frozen = replica.with_lsm(|lsm| lsm.frozen_count());
        assert_eq!(frozen, 0, "every write stays in the active memtable");
    }
    (after.saturating_sub(before), counting_alloc::allocations() - allocations)
}

#[test]
fn an_entry_on_three_replicas_costs_one_allocation_and_three_index_slots() {
    let (bytes, allocations) = replicated_writes_cost(11);
    let per_entry = bytes / WRITES;
    println!(
        "an entry on {REPLICAS} replicas pins {per_entry} B ({allocations} allocations in all)"
    );
    assert!(
        per_entry <= CEILING_BYTES,
        "an entry on {REPLICAS} replicas pins {per_entry} B (ceiling {CEILING_BYTES} B)"
    );
    // The engine is deterministic, so what it allocates is too.
    assert_eq!(replicated_writes_cost(11), (bytes, allocations), "same seed, different heap use");
}
