//! Property tests for the generational slab: random alloc/free/reuse
//! interleavings never alias live handles, freed-slot reuse is
//! deterministic (LIFO), and iteration order is stable across same-seed
//! runs.

use std::collections::BTreeMap;

use crdb_util::slab::{Slab, Slot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove {
        pick: u64,
    },
    /// Probe a handle that was freed earlier: must observe `None`.
    ProbeStale {
        pick: u64,
    },
}

fn random_ops(rng: &mut SmallRng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.gen_range(0..10) {
            0..=4 => Op::Insert(rng.gen()),
            5..=7 => Op::Remove { pick: rng.gen() },
            _ => Op::ProbeStale { pick: rng.gen() },
        })
        .collect()
}

/// Runs an op stream against the slab and a `BTreeMap<Slot, u64>` model,
/// checking the full contract at every step. Returns a transcript of
/// (handle bits, value) per op for cross-run stability checks.
fn run_model(ops: &[Op]) -> Vec<(u64, u64)> {
    let mut slab: Slab<u64> = Slab::new();
    let mut model: BTreeMap<Slot, u64> = BTreeMap::new();
    let mut live: Vec<Slot> = Vec::new();
    let mut dead: Vec<Slot> = Vec::new();
    let mut transcript = Vec::new();

    for &op in ops {
        match op {
            Op::Insert(v) => {
                let slot = slab.insert(v);
                assert!(
                    model.insert(slot, v).is_none(),
                    "a fresh handle must never equal a live one (aliasing): {slot:?}"
                );
                // The new handle must also differ from every *dead* handle
                // ever issued — stale handles stay stale forever.
                assert!(!dead.contains(&slot), "reused handle aliases a freed one: {slot:?}");
                live.push(slot);
                transcript.push((slot.to_bits(), v));
            }
            Op::Remove { pick } => {
                if live.is_empty() {
                    continue;
                }
                let slot = live.swap_remove((pick % live.len() as u64) as usize);
                let expect = model.remove(&slot);
                let got = slab.remove(slot);
                assert_eq!(got, expect, "remove returns the inserted value");
                dead.push(slot);
                transcript.push((slot.to_bits(), u64::MAX));
            }
            Op::ProbeStale { pick } => {
                if dead.is_empty() {
                    continue;
                }
                let slot = dead[(pick % dead.len() as u64) as usize];
                assert_eq!(slab.get(slot), None, "stale handle must read None");
                assert_eq!(slab.remove(slot), None, "stale handle must not remove");
            }
        }
        // Invariants after every op:
        assert_eq!(slab.len(), model.len());
        for (&slot, &v) in &model {
            assert_eq!(slab.get(slot), Some(&v), "live handle reads its own value");
        }
        // Iteration is index-ordered and covers exactly the live set.
        let mut last_index = None;
        let mut seen = 0usize;
        for (slot, &v) in slab.iter() {
            assert!(last_index < Some(slot.index()), "iteration strictly index-ordered");
            last_index = Some(slot.index());
            assert_eq!(model.get(&slot), Some(&v));
            seen += 1;
        }
        assert_eq!(seen, model.len());
    }
    transcript
}

#[test]
fn seeded_random_interleavings_uphold_contract() {
    for seed in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = 40 + (seed as usize * 7) % 200;
        let ops = random_ops(&mut rng, len);
        run_model(&ops);
    }
}

#[test]
fn same_seed_runs_allocate_identically() {
    // Freed-slot reuse must be deterministic: two runs of the same op
    // stream produce the same handle (index *and* generation) at every
    // step, hence identical transcripts.
    for seed in [3u64, 17, 99, 12345] {
        let ops = random_ops(&mut SmallRng::seed_from_u64(seed), 250);
        let a = run_model(&ops);
        let b = run_model(&ops);
        assert_eq!(a, b, "seed {seed}: slab allocation must be reproducible");
    }
}

#[test]
fn reuse_is_lifo_under_bulk_churn() {
    let mut slab = Slab::new();
    let slots: Vec<Slot> = (0..100u64).map(|v| slab.insert(v)).collect();
    // Free a scattered subset, remembering the order.
    let freed: Vec<Slot> = slots.iter().copied().skip(1).step_by(3).collect();
    for &s in &freed {
        slab.remove(s);
    }
    // Inserts must reuse exactly the freed indices in reverse order.
    for &expect in freed.iter().rev() {
        let got = slab.insert(0);
        assert_eq!(got.index(), expect.index());
        assert_eq!(got.generation(), expect.generation() + 1);
    }
    // Fully reoccupied: the next insert grows the arena.
    assert_eq!(slab.insert(0).index(), 100);
}
