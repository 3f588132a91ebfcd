//! Immutable sorted tables.
//!
//! An [`SsTable`] is a sorted, immutable run of [`Entry`] handles
//! produced by a flush, a compaction or an embedder that ingests it whole
//! ([`crate::Lsm::ingest_table`]). Tables carry the metadata the LSM needs
//! for file selection: key bounds, payload size and a monotonically
//! increasing table number that establishes recency among overlapping L0
//! tables. A flush moves its memtable's handles in and a compaction's
//! output holds the handles of the entries it keeps, so no entry is
//! copied after its write batch built it. The handle array and the bloom
//! filter are shared too, so every engine that ingests one table holds
//! the same allocation under a file number of its own.

use std::sync::Arc;

use crate::bloom::BloomFilter;
use crate::{Entry, Key, Value};

/// Per-entry index overhead used in size accounting.
const ENTRY_OVERHEAD: usize = 16;

/// An immutable sorted run of entries.
#[derive(Debug, Clone)]
pub struct SsTable {
    /// Monotonic file number; larger = newer data (used for L0 precedence).
    num: u64,
    /// Exactly `len()` slots: a table lives as long as any snapshot that
    /// pinned it, so the builder's growth slack is not carried along.
    entries: Arc<[Entry]>,
    /// Bloom filter over the table's keys, consulted before any binary
    /// search on the point-read path.
    bloom: Arc<BloomFilter>,
    size: usize,
}

impl SsTable {
    /// Builds a table from entries that must already be sorted by key with
    /// no duplicates. Panics in debug builds if the invariant is violated.
    pub fn new(num: u64, entries: Vec<Entry>) -> Self {
        debug_assert!(
            entries.is_sorted_by(|a, b| a < b),
            "sstable entries must be strictly sorted"
        );
        let bloom = BloomFilter::build(entries.iter().map(|e| e.key().as_ref()));
        // Filter bits count toward the table's size: flushes and
        // compactions physically write them, and the write-amp models are
        // fitted on these sizes.
        let size = entries.iter().map(|e| e.payload_len() + ENTRY_OVERHEAD).sum::<usize>()
            + bloom.byte_len();
        SsTable { num, entries: entries.into(), bloom: Arc::new(bloom), size }
    }

    /// This table under another engine's file number, sharing its entries
    /// and bloom filter.
    pub(crate) fn renumbered(&self, num: u64) -> SsTable {
        SsTable { num, ..self.clone() }
    }

    /// Whether the two share one allocation of entries and of filter.
    #[cfg(test)]
    pub(crate) fn shares_allocation_with(&self, other: &SsTable) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries) && Arc::ptr_eq(&self.bloom, &other.bloom)
    }

    /// The table's file number.
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Key and value bytes of its entries — what a caller wrote, before
    /// per-entry overhead and the filter.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.entries.iter().map(Entry::payload_len).sum()
    }

    /// Approximate on-disk size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest key, if non-empty.
    pub fn min_key(&self) -> Option<&Key> {
        self.entries.first().map(Entry::key)
    }

    /// Largest key, if non-empty.
    pub fn max_key(&self) -> Option<&Key> {
        self.entries.last().map(Entry::key)
    }

    /// Point lookup. `Some(None)` = tombstone, `None` = key not in table.
    pub fn get(&self, key: &[u8]) -> Option<Option<Value>> {
        self.entries
            .binary_search_by(|e| e.key().as_ref().cmp(key))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|e| e.value().cloned())
    }

    /// Consults the bloom filter: `false` means the key is definitively
    /// absent and the table's entries need not be searched.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.may_contain(key)
    }

    /// Bytes occupied by the table's bloom filter (included in [`size`]).
    ///
    /// [`size`]: SsTable::size
    pub fn bloom_bytes(&self) -> usize {
        self.bloom.byte_len()
    }

    /// Whether this table's key bounds overlap `[start, end)`.
    pub fn overlaps(&self, start: &[u8], end: &[u8]) -> bool {
        match (self.min_key(), self.max_key()) {
            (Some(min), Some(max)) => min.as_ref() < end && max.as_ref() >= start,
            _ => false,
        }
    }

    /// Whether this table's key bounds overlap `[min, max]` (inclusive).
    pub(crate) fn overlaps_bounds(&self, min: &[u8], max: &[u8]) -> bool {
        match (self.min_key(), self.max_key()) {
            (Some(tmin), Some(tmax)) => tmin.as_ref() <= max && tmax.as_ref() >= min,
            _ => false,
        }
    }

    /// All entries, in key order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Entries within `[start, end)`, by binary search on the bounds.
    pub fn range(&self, start: &[u8], end: &[u8]) -> &[Entry] {
        let lo = self.entries.partition_point(|e| e.key().as_ref() < start);
        let hi = self.entries.partition_point(|e| e.key().as_ref() < end);
        self.entries.get(lo..hi).unwrap_or_default()
    }
}

/// Builds tables, splitting output at a target size — used by compactions
/// so bottom levels consist of roughly uniform files.
pub struct TableBuilder {
    target_size: usize,
    next_num: u64,
    current: Vec<Entry>,
    current_size: usize,
    done: Vec<SsTable>,
}

impl TableBuilder {
    /// Creates a builder producing tables of roughly `target_size` bytes,
    /// numbering them from `first_num`.
    pub fn new(target_size: usize, first_num: u64) -> Self {
        TableBuilder {
            target_size,
            next_num: first_num,
            current: Vec::new(),
            current_size: 0,
            done: Vec::new(),
        }
    }

    /// Appends a handle to the next entry (keys must arrive in strictly
    /// increasing order across all `add` calls).
    pub fn add(&mut self, entry: &Entry) {
        self.current_size += entry.payload_len() + ENTRY_OVERHEAD;
        self.current.push(entry.clone());
        if self.current_size >= self.target_size {
            self.cut();
        }
    }

    fn cut(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.current);
        self.done.push(SsTable::new(self.next_num, entries));
        self.next_num += 1;
        self.current_size = 0;
    }

    /// Finishes the in-progress table and returns all built tables together
    /// with the next unused file number.
    pub fn finish(mut self) -> (Vec<SsTable>, u64) {
        self.cut();
        (self.done, self.next_num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn table(num: u64, keys: &[(&str, Option<&str>)]) -> SsTable {
        SsTable::new(num, keys.iter().map(|(k, v)| Entry::new(b(k), v.map(b))).collect())
    }

    #[test]
    fn get_and_bounds() {
        let t = table(1, &[("b", Some("2")), ("d", None), ("f", Some("6"))]);
        assert_eq!(t.get(b"b"), Some(Some(b("2"))));
        assert_eq!(t.get(b"d"), Some(None), "tombstone");
        assert_eq!(t.get(b"c"), None);
        assert_eq!(t.min_key().unwrap(), &b("b"));
        assert_eq!(t.max_key().unwrap(), &b("f"));
    }

    #[test]
    fn overlap_checks() {
        let t = table(1, &[("c", Some("1")), ("g", Some("2"))]);
        assert!(t.overlaps(b"a", b"d"));
        assert!(t.overlaps(b"g", b"z"));
        assert!(!t.overlaps(b"a", b"c"), "end bound is exclusive");
        assert!(!t.overlaps(b"h", b"z"));
    }

    #[test]
    fn range_slicing() {
        let t = table(1, &[("a", Some("1")), ("c", Some("3")), ("e", Some("5"))]);
        let r = t.range(b"b", b"e");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].key(), &b("c"));
        assert_eq!(t.range(b"a", b"z").len(), 3);
        assert_eq!(t.range(b"x", b"z").len(), 0);
    }

    #[test]
    fn builder_splits_at_target() {
        let mut builder = TableBuilder::new(64, 10);
        for i in 0..20u32 {
            builder.add(&Entry::new(Bytes::from(format!("key{i:04}")), Some(b("0123456789"))));
        }
        let (tables, next) = builder.finish();
        assert!(tables.len() > 1, "should split: {}", tables.len());
        assert_eq!(next, 10 + tables.len() as u64);
        // Tables must be disjoint and ordered.
        for w in tables.windows(2) {
            assert!(w[0].max_key().unwrap() < w[1].min_key().unwrap());
        }
        let total: usize = tables.iter().map(|t| t.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn size_accounts_payload_and_filter() {
        let t = table(1, &[("abc", Some("defgh"))]);
        assert_eq!(t.size(), 3 + 5 + ENTRY_OVERHEAD + t.bloom_bytes());
        assert!(t.bloom_bytes() > 0, "filter bits are physically written");
    }

    #[test]
    fn bloom_filters_point_probes() {
        let t = table(1, &[("b", Some("2")), ("d", None), ("f", Some("6"))]);
        assert!(t.may_contain(b"b"));
        assert!(t.may_contain(b"d"), "tombstones are still in the filter");
        assert!(t.may_contain(b"f"));
        // A filter over 3 keys has ≥ 64 bits: absent probes miss reliably.
        let misses =
            ["a", "c", "e", "g", "zz"].iter().filter(|k| !t.may_contain(k.as_bytes())).count();
        assert!(misses >= 4, "expected most absent keys filtered, got {misses}/5");
    }
}
