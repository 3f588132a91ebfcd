//! The mutable in-memory write buffer.
//!
//! All writes land in the memtable first (after the WAL); when it exceeds
//! the configured size it is frozen and flushed to an L0 table. Deletions
//! are tombstones (`None`) so they shadow older values in lower levels
//! until compacted away at the bottom. The memtable holds [`Entry`]
//! handles, so every replica that applies one batch indexes the batch's
//! own entries.

use std::collections::{btree_set, BTreeSet};
use std::ops::Bound;

use bytes::Bytes;

use crate::{Entry, Key, Value};

/// Per-entry bookkeeping overhead, approximating allocator and index cost.
const ENTRY_OVERHEAD: usize = 24;

/// What one entry is counted at in [`Memtable::approx_bytes`].
fn entry_bytes(entry: &Entry) -> usize {
    entry.payload_len() + ENTRY_OVERHEAD
}

/// An atomic batch of writes applied through the WAL as one record.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    entries: Vec<Entry>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Adds a put of `key` → `value`.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> &mut Self {
        self.entries.push(Entry::new(key.into(), Some(value.into())));
        self
    }

    /// Adds a deletion tombstone for `key`.
    pub fn delete(&mut self, key: impl Into<Bytes>) -> &mut Self {
        self.entries.push(Entry::new(key.into(), None));
        self
    }

    /// The entries in application order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of mutations in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total encoded payload size in bytes (keys + values).
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(Entry::payload_len).sum()
    }
}

/// The ordered in-memory buffer of recent writes.
#[derive(Debug, Default)]
pub struct Memtable {
    set: BTreeSet<Entry>,
    approx_bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Applies one mutation. An overwrite gives back what the entry it
    /// replaces was counted at.
    pub fn apply(&mut self, entry: Entry) {
        self.approx_bytes += entry_bytes(&entry);
        if let Some(old) = self.set.replace(entry) {
            self.approx_bytes -= entry_bytes(&old);
        }
    }

    /// Applies a whole batch atomically, sharing its entries.
    pub fn apply_batch(&mut self, batch: &WriteBatch) {
        for entry in batch.entries() {
            self.apply(entry.clone());
        }
    }

    /// Looks up a key. `Some(None)` means a tombstone shadows the key;
    /// `None` means the memtable has no information about the key.
    pub fn get(&self, key: &[u8]) -> Option<Option<Value>> {
        self.set.get(key).map(|e| e.value().cloned())
    }

    /// Physically removes, and returns in key order, every entry in
    /// `[start, end)` that `drops` answers `true` for. No tombstone takes
    /// an entry's place: see [`crate::Lsm::collect_in_memtable`] for what
    /// that asks of `drops`.
    pub fn remove_where(
        &mut self,
        start: &[u8],
        end: &[u8],
        mut drops: impl FnMut(&Key, Option<&Value>) -> bool,
    ) -> Vec<Entry> {
        let doomed: Vec<Entry> =
            self.range(start, end).filter(|e| drops(e.key(), e.value())).cloned().collect();
        for entry in &doomed {
            if self.set.remove(entry) {
                self.approx_bytes -= entry_bytes(entry);
            }
        }
        doomed
    }

    /// Whether any entry's key lies in `[min, max]` (inclusive).
    pub(crate) fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        if min > max {
            return false; // `BTreeSet::range` panics on inverted bounds
        }
        self.set.range::<[u8], _>((Bound::Included(min), Bound::Included(max))).next().is_some()
    }

    /// Iterates entries with `start <= key < end` in key order. Returns
    /// the concrete B-tree cursor so the LSM's merge iterator can hold it
    /// as a lazy source; bounds are borrowed, so no allocation happens.
    pub fn range<'a>(&'a self, start: &[u8], end: &[u8]) -> btree_set::Range<'a, Entry> {
        self.set.range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
    }

    /// All entries in key order, consuming the table (used by flush).
    pub fn into_entries(self) -> Vec<Entry> {
        self.set.into_iter().collect()
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of distinct keys (including tombstones).
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Applies `key` → `value` (`None` = tombstone) as one entry.
    fn put(m: &mut Memtable, key: &str, value: Option<&str>) {
        m.apply(Entry::new(b(key), value.map(b)));
    }

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        put(&mut m, "a", Some("1"));
        assert_eq!(m.get(b"a"), Some(Some(b("1"))));
        put(&mut m, "a", None);
        assert_eq!(m.get(b"a"), Some(None), "tombstone is visible");
        assert_eq!(m.get(b"zz"), None, "unknown key is absent");
    }

    #[test]
    fn last_write_wins() {
        let mut m = Memtable::new();
        put(&mut m, "k", Some("v1"));
        put(&mut m, "k", Some("v2"));
        assert_eq!(m.get(b"k"), Some(Some(b("v2"))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let mut m = Memtable::new();
        for k in ["d", "a", "c", "b", "e"] {
            put(&mut m, k, Some(k));
        }
        let keys: Vec<_> = m.range(b"b", b"e").map(|e| e.key().clone()).collect();
        assert_eq!(keys, vec![b("b"), b("c"), b("d")]);
    }

    #[test]
    fn batch_is_ordered_and_atomicish() {
        let mut batch = WriteBatch::new();
        batch.put(b("x"), b("1")).delete(b("y")).put(b("x"), b("2"));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.payload_bytes(), 1 + 1 + 1 + 1 + 1);
        let mut m = Memtable::new();
        m.apply_batch(&batch);
        assert_eq!(m.get(b"x"), Some(Some(b("2"))), "later entry in batch wins");
        assert_eq!(m.get(b"y"), Some(None));
    }

    #[test]
    fn size_accounting_grows_and_shrinks_on_overwrite() {
        let mut m = Memtable::new();
        put(&mut m, "key", Some("0123456789"));
        let s1 = m.approx_bytes();
        put(&mut m, "key", Some("x"));
        let s2 = m.approx_bytes();
        assert!(s2 < s1, "overwrite with smaller value shrinks: {s1} -> {s2}");
        assert!(s2 > 0);
    }

    #[test]
    fn overwrites_count_one_entry() {
        let mut once = Memtable::new();
        put(&mut once, "key", Some("value"));
        let mut many = Memtable::new();
        for _ in 0..10 {
            put(&mut many, "key", Some("value"));
        }
        assert_eq!(many.approx_bytes(), once.approx_bytes());
        assert_eq!(once.approx_bytes(), 3 + 5 + ENTRY_OVERHEAD);
        put(&mut many, "key", None);
        assert_eq!(many.approx_bytes(), 3 + ENTRY_OVERHEAD, "a tombstone replaces the value");
    }

    #[test]
    fn overlap_is_inclusive_at_both_bounds() {
        let mut m = Memtable::new();
        put(&mut m, "c", Some("1"));
        put(&mut m, "e", None);
        assert!(m.overlaps(b"a", b"c"));
        assert!(m.overlaps(b"e", b"z"));
        assert!(m.overlaps(b"d", b"e"), "a tombstone is an entry");
        assert!(!m.overlaps(b"a", b"b"));
        assert!(!m.overlaps(b"ca", b"d"));
        assert!(!m.overlaps(b"z", b"a"), "empty bounds");
    }

    #[test]
    fn into_entries_sorted() {
        let mut m = Memtable::new();
        put(&mut m, "b", Some("2"));
        put(&mut m, "a", Some("1"));
        let entries = m.into_entries();
        assert_eq!(entries[0].key(), &b("a"));
        assert_eq!(entries[1].key(), &b("b"));
    }
}
