//! The mutable in-memory write buffer.
//!
//! All writes land in the memtable first (after the WAL); when it exceeds
//! the configured size it is frozen and flushed to an L0 table. Deletions
//! are tombstones (`None`) so they shadow older values in lower levels
//! until compacted away at the bottom.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

use bytes::Bytes;

use crate::{Key, Value};

/// Per-entry bookkeeping overhead, approximating allocator and index cost.
const ENTRY_OVERHEAD: usize = 24;

/// What one entry is counted at in [`Memtable::approx_bytes`].
fn entry_bytes(key_len: usize, value: Option<&Value>) -> usize {
    key_len + value.map_or(0, |v| v.len()) + ENTRY_OVERHEAD
}

/// An atomic batch of writes applied through the WAL as one record.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    entries: Vec<(Key, Option<Value>)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Adds a put of `key` → `value`.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> &mut Self {
        self.entries.push((key.into(), Some(value.into())));
        self
    }

    /// Adds a deletion tombstone for `key`.
    pub fn delete(&mut self, key: impl Into<Bytes>) -> &mut Self {
        self.entries.push((key.into(), None));
        self
    }

    /// The entries in application order.
    pub fn entries(&self) -> &[(Key, Option<Value>)] {
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
        self.entries.iter().map(|(k, v)| k.len() + v.as_ref().map_or(0, |v| v.len())).sum()
    }
}

/// The ordered in-memory buffer of recent writes.
#[derive(Debug, Default)]
pub struct Memtable {
    map: BTreeMap<Key, Option<Value>>,
    approx_bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Applies one mutation. An overwrite gives back what the entry it
    /// replaces was counted at.
    pub fn apply(&mut self, key: Key, value: Option<Value>) {
        let key_len = key.len();
        self.approx_bytes += entry_bytes(key_len, value.as_ref());
        if let Some(old) = self.map.insert(key, value) {
            self.approx_bytes -= entry_bytes(key_len, old.as_ref());
        }
    }

    /// Applies a whole batch atomically.
    pub fn apply_batch(&mut self, batch: &WriteBatch) {
        for (k, v) in batch.entries() {
            self.apply(k.clone(), v.clone());
        }
    }

    /// Looks up a key. `Some(None)` means a tombstone shadows the key;
    /// `None` means the memtable has no information about the key.
    pub fn get(&self, key: &[u8]) -> Option<Option<Value>> {
        self.map.get(key).cloned()
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
    ) -> Vec<(Key, Option<Value>)> {
        let keys: Vec<Key> = self
            .range(start, end)
            .filter(|(k, v)| drops(k, v.as_ref()))
            .map(|(k, _)| k.clone())
            .collect();
        keys.into_iter()
            .filter_map(|key| {
                let entry = self.map.remove(&key)?;
                self.approx_bytes -= entry_bytes(key.len(), entry.as_ref());
                Some((key, entry))
            })
            .collect()
    }

    /// Whether any entry's key lies in `[min, max]` (inclusive).
    pub(crate) fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        if min > max {
            return false; // `BTreeMap::range` panics on inverted bounds
        }
        self.map.range::<[u8], _>((Bound::Included(min), Bound::Included(max))).next().is_some()
    }

    /// Iterates entries with `start <= key < end` in key order. Returns
    /// the concrete B-tree cursor so the LSM's merge iterator can hold it
    /// as a lazy source; bounds are borrowed, so no allocation happens.
    pub fn range<'a>(
        &'a self,
        start: &[u8],
        end: &[u8],
    ) -> btree_map::Range<'a, Key, Option<Value>> {
        self.map.range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
    }

    /// All entries in key order, consuming the table (used by flush).
    pub fn into_entries(self) -> Vec<(Key, Option<Value>)> {
        self.map.into_iter().collect()
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of distinct keys (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.apply(b("a"), Some(b("1")));
        assert_eq!(m.get(b"a"), Some(Some(b("1"))));
        m.apply(b("a"), None);
        assert_eq!(m.get(b"a"), Some(None), "tombstone is visible");
        assert_eq!(m.get(b"zz"), None, "unknown key is absent");
    }

    #[test]
    fn last_write_wins() {
        let mut m = Memtable::new();
        m.apply(b("k"), Some(b("v1")));
        m.apply(b("k"), Some(b("v2")));
        assert_eq!(m.get(b"k"), Some(Some(b("v2"))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let mut m = Memtable::new();
        for k in ["d", "a", "c", "b", "e"] {
            m.apply(b(k), Some(b(k)));
        }
        let keys: Vec<_> = m.range(b"b", b"e").map(|(k, _)| k.clone()).collect();
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
        m.apply(b("key"), Some(b("0123456789")));
        let s1 = m.approx_bytes();
        m.apply(b("key"), Some(b("x")));
        let s2 = m.approx_bytes();
        assert!(s2 < s1, "overwrite with smaller value shrinks: {s1} -> {s2}");
        assert!(s2 > 0);
    }

    #[test]
    fn overwrites_count_one_entry() {
        let mut once = Memtable::new();
        once.apply(b("key"), Some(b("value")));
        let mut many = Memtable::new();
        for _ in 0..10 {
            many.apply(b("key"), Some(b("value")));
        }
        assert_eq!(many.approx_bytes(), once.approx_bytes());
        assert_eq!(once.approx_bytes(), 3 + 5 + ENTRY_OVERHEAD);
        many.apply(b("key"), None);
        assert_eq!(many.approx_bytes(), 3 + ENTRY_OVERHEAD, "a tombstone replaces the value");
    }

    #[test]
    fn overlap_is_inclusive_at_both_bounds() {
        let mut m = Memtable::new();
        m.apply(b("c"), Some(b("1")));
        m.apply(b("e"), None);
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
        m.apply(b("b"), Some(b("2")));
        m.apply(b("a"), Some(b("1")));
        let entries = m.into_entries();
        assert_eq!(entries[0].0, b("a"));
        assert_eq!(entries[1].0, b("b"));
    }
}
