//! K-way merging across LSM sources — lazy and allocation-free.
//!
//! A read must see the newest version of every key across the memtable,
//! any frozen memtables, the L0 tables (newest file first) and one run per
//! lower level. [`MergeIter`] merges already-sorted entry streams with a
//! "lowest source index wins" rule, so callers order sources from newest
//! to oldest. Tombstones are preserved (`None` values) so the caller can
//! decide whether to surface or elide them.
//!
//! The merge is *streaming*: sources are borrowed (table slices, a
//! memtable's `BTreeSet` range cursor, or a lazy per-level cursor), heap
//! entries hold `&[u8]` key references instead of cloned keys, and nothing
//! is pulled from a source until the merge actually needs it. A `limit`-10
//! scan over a million-entry span therefore touches ~10 entries per source
//! instead of materializing every span. It yields `&Entry`, so a
//! compaction that keeps an entry keeps a handle to it, not a copy.

use std::cmp::Reverse;
use std::collections::btree_set;
use std::collections::BinaryHeap;

use crate::sstable::SsTable;
use crate::Entry;

/// One sorted input to a [`MergeIter`], borrowed from the LSM.
pub enum Source<'a> {
    /// A sorted slice of entries: one sstable's in-range window, or any
    /// pre-sorted run.
    Slice(&'a [Entry]),
    /// A memtable range cursor.
    Mem(btree_set::Range<'a, Entry>),
    /// A lazy cursor over a level's non-overlapping, sorted tables,
    /// clamped to `[start, end)`. Tables are sliced to the bounds only
    /// when the cursor reaches them, so a bounded scan never binary
    /// searches (or touches) tables past its stopping point.
    Level {
        /// The level's tables, sorted by min key, already positioned so
        /// the first table is the first that could intersect the bounds.
        tables: &'a [SsTable],
        /// Inclusive scan start.
        start: &'a [u8],
        /// Exclusive scan end.
        end: &'a [u8],
    },
}

/// A primed source: the cursor state plus its current (peeked) entry.
struct SourceState<'a> {
    kind: SourceCursor<'a>,
    current: Option<&'a Entry>,
}

enum SourceCursor<'a> {
    Slice {
        entries: &'a [Entry],
        pos: usize,
    },
    Mem(btree_set::Range<'a, Entry>),
    Level {
        tables: &'a [SsTable],
        start: &'a [u8],
        end: &'a [u8],
        /// Index of the table the cursor is currently inside.
        table_idx: usize,
        /// In-range window of the current table.
        window: &'a [Entry],
        pos: usize,
    },
}

impl<'a> SourceState<'a> {
    fn new(source: Source<'a>) -> Self {
        let kind = match source {
            Source::Slice(entries) => SourceCursor::Slice { entries, pos: 0 },
            Source::Mem(range) => SourceCursor::Mem(range),
            Source::Level { tables, start, end } => {
                SourceCursor::Level { tables, start, end, table_idx: 0, window: &[], pos: 0 }
            }
        };
        let mut state = SourceState { kind, current: None };
        state.advance();
        state
    }

    /// Pulls the next entry into `current` (or `None` at exhaustion).
    fn advance(&mut self) {
        self.current = match &mut self.kind {
            SourceCursor::Slice { entries, pos } => {
                let item = entries.get(*pos);
                *pos += 1;
                item
            }
            SourceCursor::Mem(range) => range.next(),
            SourceCursor::Level { tables, start, end, table_idx, window, pos } => loop {
                if let Some(entry) = window.get(*pos) {
                    *pos += 1;
                    break Some(entry);
                }
                // Current window exhausted: move to the next table that
                // intersects the bounds.
                let table = match tables.get(*table_idx) {
                    Some(t) => t,
                    None => break None,
                };
                *table_idx += 1;
                if table.min_key().is_none_or(|k| k.as_ref() >= *end) {
                    // Tables are sorted: nothing further can intersect.
                    *tables = &[];
                    break None;
                }
                *window = table.range(start, end);
                *pos = 0;
            },
        };
    }
}

/// A streaming k-way merge over sorted sources. `sources[0]` is the
/// newest; on a key collision the entry from the lowest-indexed source
/// wins. Yields entries (tombstones included) in ascending key order with
/// duplicates (older versions) suppressed.
pub struct MergeIter<'a> {
    sources: Vec<SourceState<'a>>,
    /// Min-heap of (current key, source index): pop smallest key,
    /// tie-break by the smaller (newer) source index.
    heap: BinaryHeap<Reverse<(&'a [u8], usize)>>,
    last_key: Option<&'a [u8]>,
}

impl<'a> MergeIter<'a> {
    /// Builds a merge over `sources`, ordered newest to oldest.
    pub fn new(sources: Vec<Source<'a>>) -> Self {
        let sources: Vec<SourceState<'a>> = sources.into_iter().map(SourceState::new).collect();
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (idx, src) in sources.iter().enumerate() {
            if let Some(e) = src.current {
                heap.push(Reverse((e.key().as_ref(), idx)));
            }
        }
        MergeIter { sources, heap, last_key: None }
    }
}

impl<'a> Iterator for MergeIter<'a> {
    type Item = &'a Entry;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(Reverse((key, idx))) = self.heap.pop() {
            // A heap entry is pushed only for a source's current entry.
            let Some(src) = self.sources.get_mut(idx) else { continue };
            let Some(entry) = src.current.take() else { continue };
            src.advance();
            if let Some(e) = src.current {
                self.heap.push(Reverse((e.key().as_ref(), idx)));
            }
            if self.last_key == Some(key) {
                continue; // an older source produced the same key
            }
            self.last_key = Some(key);
            return Some(entry);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Key, Value};
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn src(pairs: &[(&str, Option<&str>)]) -> Vec<Entry> {
        pairs.iter().map(|(k, v)| Entry::new(b(k), v.map(b))).collect()
    }

    /// The whole merge, as owned pairs.
    fn merge_runs(sources: Vec<Source<'_>>) -> Vec<(Key, Option<Value>)> {
        MergeIter::new(sources).map(|e| (e.key().clone(), e.value().cloned())).collect()
    }

    /// Merges runs, newest first.
    fn merge(runs: &[Vec<Entry>]) -> Vec<(Key, Option<Value>)> {
        merge_runs(runs.iter().map(|r| Source::Slice(r)).collect())
    }

    fn pairs(entries: &[(&str, Option<&str>)]) -> Vec<(Key, Option<Value>)> {
        entries.iter().map(|(k, v)| (b(k), v.map(b))).collect()
    }

    #[test]
    fn newest_source_wins() {
        let merged = merge(&[
            src(&[("a", Some("new")), ("c", None)]),
            src(&[("a", Some("old")), ("b", Some("1")), ("c", Some("old"))]),
        ]);
        assert_eq!(merged, pairs(&[("a", Some("new")), ("b", Some("1")), ("c", None)]));
    }

    #[test]
    fn three_way_merge_is_sorted() {
        let merged = merge(&[
            src(&[("b", Some("2"))]),
            src(&[("d", Some("4")), ("f", Some("6"))]),
            src(&[("a", Some("1")), ("c", Some("3")), ("e", Some("5"))]),
        ]);
        let keys: Vec<_> = merged.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b("a"), b("b"), b("c"), b("d"), b("e"), b("f")]);
    }

    #[test]
    fn empty_sources_are_fine() {
        assert!(merge(&[]).is_empty());
        assert!(merge(&[vec![], vec![]]).is_empty());
        let merged = merge(&[vec![], src(&[("a", Some("1"))])]);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn duplicate_keys_across_many_sources() {
        let merged = merge(&[
            src(&[("k", Some("v3"))]),
            src(&[("k", Some("v2"))]),
            src(&[("k", Some("v1"))]),
        ]);
        assert_eq!(merged, pairs(&[("k", Some("v3"))]));
    }

    #[test]
    fn merge_iter_is_lazy_over_slices() {
        let a = src(&[("a", Some("1")), ("c", Some("3")), ("e", Some("5"))]);
        let d = src(&[("b", Some("2")), ("d", Some("4")), ("f", Some("6"))]);
        let mut it = MergeIter::new(vec![Source::Slice(&a), Source::Slice(&d)]);
        // Pull only two entries; the rest of both runs is never visited.
        assert_eq!(it.next().map(Entry::key), Some(&b("a")));
        assert_eq!(it.next().map(Entry::key), Some(&b("b")));
        drop(it);
    }

    #[test]
    fn level_source_walks_tables_lazily() {
        let t1 = SsTable::new(1, src(&[("a", Some("1")), ("b", Some("2"))]));
        let t2 = SsTable::new(2, src(&[("c", Some("3")), ("d", Some("4"))]));
        let t3 = SsTable::new(3, src(&[("e", Some("5"))]));
        let tables = vec![t1, t2, t3];
        let merged = merge_runs(vec![Source::Level { tables: &tables, start: b"b", end: b"d" }]);
        assert_eq!(merged, pairs(&[("b", Some("2")), ("c", Some("3"))]));
    }

    #[test]
    fn mem_source_merges_with_slices() {
        let set: std::collections::BTreeSet<Entry> =
            src(&[("b", Some("mem")), ("x", None)]).into_iter().collect();
        let older = src(&[("a", Some("1")), ("b", Some("old")), ("x", Some("gone"))]);
        let merged =
            merge_runs(vec![Source::Mem(set.range::<Entry, _>(..)), Source::Slice(&older)]);
        assert_eq!(merged, pairs(&[("a", Some("1")), ("b", Some("mem")), ("x", None)]));
    }
}
