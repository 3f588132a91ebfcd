//! The write-ahead log.
//!
//! Every write batch is appended to the WAL before being applied to the
//! memtable; the WAL is truncated when its memtable flushes. Under
//! simulation durability is modelled, not exercised: a crashed node keeps
//! its engine, so nothing ever replays a log. The WAL therefore keeps no
//! bytes. It counts what each record would occupy ([`encoded_len`]) and
//! tracks which batches a modelled fsync has covered.

use std::collections::VecDeque;

use crate::memtable::WriteBatch;

/// Aggregate result of one group commit: the batches a single modeled
/// fsync made durable. `batches == 0` means the sync had nothing to cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommit {
    /// Number of write batches made durable by this sync.
    pub batches: u64,
    /// WAL record bytes ([`encoded_len`]) made durable by this sync.
    pub bytes: u64,
    /// Sequence number of the last batch covered (0 when `batches == 0`).
    pub last_seq: u64,
}

/// A group-commit log.
///
/// Batches are appended immediately (each gets a monotonically increasing
/// sequence number) but only become durable when a sync covers them. One
/// `sync_through`/`sync_all` call models one fsync: every batch appended
/// since the previous sync rides the same flush, so the fsync cost is
/// amortized across the group and all of them commit together. The first
/// appended batch gets sequence number 1.
#[derive(Debug, Default)]
pub struct WalWriter {
    /// Sequence number of the last appended batch (0 before the first).
    appended_seq: u64,
    /// All batches with `seq <= synced_seq` are durable.
    synced_seq: u64,
    /// Appended-but-unsynced batches: `(seq, record bytes)`, oldest first.
    pending: VecDeque<(u64, u64)>,
}

impl WalWriter {
    /// Appends one batch without syncing. Returns its sequence number and
    /// its record's length ([`encoded_len`]).
    pub fn append(&mut self, batch: &WriteBatch) -> (u64, u64) {
        let bytes = encoded_len(batch);
        self.appended_seq += 1;
        self.pending.push_back((self.appended_seq, bytes));
        (self.appended_seq, bytes)
    }

    /// Commits every pending batch with `seq <= seq` as one modeled fsync.
    /// Batches appended after the modeled fsync began ride the next group.
    pub fn sync_through(&mut self, seq: u64) -> GroupCommit {
        let mut group = GroupCommit::default();
        if seq <= self.synced_seq {
            return group;
        }
        while let Some(&(s, b)) = self.pending.front() {
            if s > seq {
                break;
            }
            self.pending.pop_front();
            group.batches += 1;
            group.bytes += b;
            group.last_seq = s;
        }
        self.synced_seq = seq.min(self.appended_seq);
        group
    }

    /// Syncs everything appended so far as one group.
    pub fn sync_all(&mut self) -> GroupCommit {
        self.sync_through(self.appended_seq)
    }

    /// Discards all records. Batches that were appended but never synced
    /// are reported back as a final group: the caller only truncates once
    /// their data is durable elsewhere (flushed to data files).
    pub fn truncate(&mut self) -> GroupCommit {
        let mut group = GroupCommit::default();
        while let Some((s, b)) = self.pending.pop_front() {
            group.batches += 1;
            group.bytes += b;
            group.last_seq = s;
        }
        self.synced_seq = self.appended_seq;
        group
    }

    /// Number of appended batches not yet covered by a sync.
    pub fn unsynced_batches(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Sequence number of the last batch appended (0 before the first).
    pub fn appended_seq(&self) -> u64 {
        self.appended_seq
    }

    /// The durability mark: every batch with a sequence number at or
    /// below it is durable — covered by a sync, or by the data files a
    /// truncate followed. Never ahead of [`WalWriter::appended_seq`].
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }
}

/// The length of the WAL record for `batch`: `[count u32]` then per entry
/// `[klen u32][k][has_value u8]`, and `[vlen u32][v]` when it has a value.
pub fn encoded_len(batch: &WriteBatch) -> u64 {
    let mut len = 4;
    for e in batch.entries() {
        len += 4 + e.key().len() + 1 + e.value().map_or(0, |v| 4 + v.len());
    }
    len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(k: &str) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes().to_vec(), &b"v"[..]);
        b
    }

    #[test]
    fn encoded_len_follows_the_record_layout() {
        assert_eq!(encoded_len(&WriteBatch::new()), 4, "an empty batch is its count");
        let mut b = WriteBatch::new();
        b.put(&b"alpha"[..], &b"1"[..]);
        assert_eq!(encoded_len(&b), 4 + (4 + 5 + 1 + 4 + 1));
        b.delete(&b"beta"[..]);
        assert_eq!(
            encoded_len(&b),
            4 + (4 + 5 + 1 + 4 + 1) + (4 + 4 + 1),
            "no length for no value"
        );
        b.put(&b""[..], &b""[..]);
        assert_eq!(
            encoded_len(&b),
            4 + (4 + 5 + 1 + 4 + 1) + (4 + 4 + 1) + (4 + 1 + 4),
            "an empty value still has its length"
        );
        // The writer reports, and its groups add up, what the layout says.
        let mut w = WalWriter::default();
        assert_eq!(w.append(&b).1, encoded_len(&b));
        assert_eq!(w.append(&batch_of("k")).1, 4 + (4 + 1 + 1 + 4 + 1));
        assert_eq!(w.sync_all().bytes, encoded_len(&b) + 15);
    }

    #[test]
    fn wal_writer_groups_batches_per_sync() {
        let mut w = WalWriter::default();
        let (s1, _) = w.append(&batch_of("a"));
        let (s2, _) = w.append(&batch_of("b"));
        let (s3, _) = w.append(&batch_of("c"));
        assert_eq!((s1, s2, s3), (1, 2, 3));
        assert_eq!(w.unsynced_batches(), 3);
        let g = w.sync_all();
        assert_eq!(g.batches, 3, "one fsync committed the whole group");
        assert_eq!(g.last_seq, 3);
        assert!(g.bytes > 0);
        assert_eq!(w.unsynced_batches(), 0);
        // A second sync with nothing pending is a no-op group.
        assert_eq!(w.sync_all(), GroupCommit::default());
    }

    #[test]
    fn wal_writer_sync_through_splits_groups() {
        let mut w = WalWriter::default();
        for k in ["a", "b", "c", "d"] {
            w.append(&batch_of(k));
        }
        let g1 = w.sync_through(2);
        assert_eq!((g1.batches, g1.last_seq), (2, 2));
        assert_eq!(w.unsynced_batches(), 2, "later appends ride the next group");
        let g2 = w.sync_all();
        assert_eq!((g2.batches, g2.last_seq), (2, 4));
    }

    #[test]
    fn wal_writer_truncate_reports_unsynced_residue() {
        let mut w = WalWriter::default();
        w.append(&batch_of("a"));
        w.sync_all();
        w.append(&batch_of("b"));
        let g = w.truncate();
        assert_eq!(g.batches, 1, "the unsynced batch is surfaced at truncate");
        assert_eq!(w.unsynced_batches(), 0);
        // Sequence numbers keep rising across a truncate.
        let (s, _) = w.append(&batch_of("c"));
        assert_eq!(s, 3);
    }

    #[test]
    fn synced_seq_is_the_one_durability_mark() {
        let mut w = WalWriter::default();
        assert_eq!((w.appended_seq(), w.synced_seq()), (0, 0));
        // An empty sync has nothing to cover and moves nothing.
        assert_eq!(w.sync_all(), GroupCommit::default());
        assert_eq!((w.appended_seq(), w.synced_seq()), (0, 0));

        for k in ["a", "b", "c", "d"] {
            w.append(&batch_of(k));
        }
        assert_eq!((w.appended_seq(), w.synced_seq()), (4, 0), "appending makes nothing durable");
        w.sync_through(2);
        assert_eq!(w.synced_seq(), 2);
        // Syncing at or below the mark is a no-op; it never moves back.
        assert_eq!(w.sync_through(1), GroupCommit::default());
        assert_eq!(w.synced_seq(), 2);
        // A sync cannot cover what has not been appended.
        w.sync_through(99);
        assert_eq!((w.appended_seq(), w.synced_seq()), (4, 4));

        w.append(&batch_of("e"));
        w.sync_all();
        assert_eq!((w.appended_seq(), w.synced_seq()), (5, 5));
        assert_eq!(w.sync_all(), GroupCommit::default());
        assert_eq!(w.synced_seq(), 5);

        // A truncate follows a flush: the unsynced tail is durable in
        // data files, so the mark covers it too.
        w.append(&batch_of("f"));
        w.append(&batch_of("g"));
        assert_eq!((w.appended_seq(), w.synced_seq()), (7, 5));
        w.truncate();
        assert_eq!((w.appended_seq(), w.synced_seq()), (7, 7));
        let (s, _) = w.append(&batch_of("h"));
        assert_eq!((s, w.appended_seq(), w.synced_seq()), (8, 8, 7));
    }
}
