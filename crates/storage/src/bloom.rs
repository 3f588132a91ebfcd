//! Per-table bloom filters for the point-read path.
//!
//! `Lsm::get` must consult every L0 table plus one file per level; without
//! filters each consultation is a binary search over the table's entries.
//! Pebble attaches a bloom filter to every sstable for exactly this reason:
//! most tables do not contain the probed key, and a few cache-resident
//! words of filter bits answer "definitely not here" without touching the
//! entries at all. The filter here is the classic double-hashing
//! construction (Kirsch–Mitzenmatcher): two seeded 64-bit hashes `h1`,
//! `h2` derive the `k` probe positions `h1 + i·h2 mod m`.
//!
//! Hashing is **seeded and deterministic** — no per-process randomness —
//! so the same table contents always produce the same filter, keeping
//! whole-simulation runs byte-reproducible (the PR 1 invariant). Filter
//! bits are charged to the table's `size` so the write-amplification
//! models fitted on flush/compaction bytes stay honest about the real
//! bytes a flush produces.

/// Filter bits budgeted per key. 10 bits/key puts the false-positive rate
/// near 1% with `k = 7` probes — the same default Pebble and LevelDB use.
pub const BITS_PER_KEY: usize = 10;

/// Fixed seeds for the two probe hashes. Arbitrary odd constants; changing
/// them changes every filter deterministically.
const SEED_1: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// FNV-1a over the key with a seeded offset basis, strengthened with a
/// splitmix64 finalizer so short keys still spread across all 64 bits.
fn hash_seeded(key: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // splitmix64 finalizer
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// An immutable bloom filter over a table's keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// Bit array, 64 bits per word.
    words: Box<[u64]>,
    /// Number of probe positions per key.
    k: u32,
}

impl BloomFilter {
    /// Builds a filter over `keys` at [`BITS_PER_KEY`] bits per key.
    pub fn build<'a>(keys: impl Iterator<Item = &'a [u8]>) -> Self {
        Self::with_bits_per_key(keys, BITS_PER_KEY)
    }

    /// Builds a filter with an explicit bits-per-key budget (micro-bench
    /// and test hook).
    pub fn with_bits_per_key<'a>(
        keys: impl Iterator<Item = &'a [u8]>,
        bits_per_key: usize,
    ) -> Self {
        let keys: Vec<&[u8]> = keys.collect();
        let num_bits = (keys.len() * bits_per_key).max(64);
        let words = num_bits.div_ceil(64);
        // k ≈ bits_per_key · ln 2 minimizes the false-positive rate.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let mut filter = BloomFilter { words: vec![0u64; words].into_boxed_slice(), k };
        for key in keys {
            let (h1, h2) = Self::probe_hashes(key);
            let m = filter.num_bits();
            let mut h = h1;
            for _ in 0..k {
                let bit = (h % m) as usize;
                if let Some(word) = filter.words.get_mut(bit / 64) {
                    *word |= 1u64 << (bit % 64);
                }
                h = h.wrapping_add(h2);
            }
        }
        filter
    }

    fn probe_hashes(key: &[u8]) -> (u64, u64) {
        let h1 = hash_seeded(key, SEED_1);
        // Force h2 odd so successive probes cycle through distinct bits
        // even when m is a power of two.
        let h2 = hash_seeded(key, SEED_2) | 1;
        (h1, h2)
    }

    fn num_bits(&self) -> u64 {
        (self.words.len() * 64) as u64
    }

    /// Whether the key *may* be present. `false` is definitive — the key
    /// was never added; `true` may be a false positive (~1% at the default
    /// sizing).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::probe_hashes(key);
        let m = self.num_bits();
        let mut h = h1;
        for _ in 0..self.k {
            let bit = (h % m) as usize;
            if self.words.get(bit / 64).is_some_and(|word| word & (1u64 << (bit % 64)) == 0) {
                return false;
            }
            h = h.wrapping_add(h2);
        }
        true
    }

    /// Size of the filter's bit array in bytes — charged to the owning
    /// table's `size` so flush/compaction byte accounting includes it.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()));
        for k in &ks {
            assert!(filter.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(10_000);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()));
        let mut fp = 0usize;
        let probes = 10_000usize;
        for i in 0..probes {
            let missing = format!("absent{i:08}");
            if filter.may_contain(missing.as_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false-positive rate {rate} too high");
    }

    #[test]
    fn deterministic_across_builds() {
        let ks = keys(1_000);
        let a = BloomFilter::build(ks.iter().map(|k| k.as_slice()));
        let b = BloomFilter::build(ks.iter().map(|k| k.as_slice()));
        assert_eq!(a.words, b.words);
        assert_eq!(a.k, b.k);
    }

    #[test]
    fn empty_filter_rejects_everything_cheaply() {
        let filter = BloomFilter::build(std::iter::empty());
        assert!(!filter.may_contain(b"anything"));
        assert_eq!(filter.byte_len(), 8, "minimum one word");
    }

    #[test]
    fn size_scales_with_keys() {
        let small = BloomFilter::build(keys(10).iter().map(|k| k.as_slice()));
        let large = BloomFilter::build(keys(10_000).iter().map(|k| k.as_slice()));
        assert!(large.byte_len() > small.byte_len());
        // ~10 bits/key → ~1.25 bytes/key.
        assert!(large.byte_len() >= 10_000 * BITS_PER_KEY / 8);
    }
}
