//! The write-ahead log.
//!
//! Every write batch is appended to the WAL before being applied to the
//! memtable; the WAL is truncated when its memtable flushes. Two sinks are
//! provided: an in-memory sink (the default under simulation, where
//! durability is modelled rather than exercised) and a file sink with
//! length-prefixed, CRC-32-checksummed records that can actually be
//! replayed after a crash.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::memtable::WriteBatch;

/// A structural failure on the WAL read path. Replay treats any of these
/// at the log tail as crash residue (stop, keep the intact prefix);
/// anywhere else they are surfaced to the caller as typed errors rather
/// than panics, so chaos schedules exercise recovery instead of aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The buffer ends before the bytes its framing promises.
    Truncated {
        /// Byte offset the missing bytes were expected at.
        at: usize,
        /// Bytes the framing promised from `at`.
        needed: usize,
        /// Bytes actually available from `at`.
        have: usize,
    },
    /// A record's payload fails its CRC.
    Corrupt {
        /// Byte offset of the record's header.
        at: usize,
        /// CRC the header carries.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// A batch entry's has-value tag is neither 0 nor 1.
    BadTag {
        /// Byte offset of the tag.
        at: usize,
        /// The tag byte found.
        tag: u8,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Truncated { at, needed, have } => {
                write!(f, "wal record truncated at byte {at}: need {needed} bytes, have {have}")
            }
            WalError::Corrupt { at, expected, actual } => write!(
                f,
                "wal record at byte {at} corrupt: crc {expected:#010x} expected, {actual:#010x} read"
            ),
            WalError::BadTag { at, tag } => {
                write!(f, "wal batch entry at byte {at} has invalid has-value tag {tag}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Reads a little-endian `u32` at `pos`, typed-error on short buffers.
fn read_u32(buf: &[u8], pos: usize) -> Result<u32, WalError> {
    match buf.get(pos..pos + 4) {
        Some(b) => {
            let mut le = [0u8; 4];
            le.copy_from_slice(b);
            Ok(u32::from_le_bytes(le))
        }
        None => {
            Err(WalError::Truncated { at: pos, needed: 4, have: buf.len().saturating_sub(pos) })
        }
    }
}

/// Borrows `len` bytes at `pos`, typed-error on short buffers.
fn read_bytes(buf: &[u8], pos: usize, len: usize) -> Result<&[u8], WalError> {
    buf.get(pos..pos + len).ok_or(WalError::Truncated {
        at: pos,
        needed: len,
        have: buf.len().saturating_sub(pos),
    })
}

/// Destination for WAL records.
pub trait WalSink: Send {
    /// Appends one encoded record.
    fn append(&mut self, record: &[u8]) -> io::Result<()>;
    /// Appends `batch` as one record and returns the record's length. A
    /// sink that stores records encodes it ([`encode_batch`]); one that
    /// only counts them need not.
    fn append_batch(&mut self, batch: &WriteBatch) -> io::Result<u64> {
        let record = encode_batch(batch);
        self.append(&record)?;
        Ok(record.len() as u64)
    }
    /// Makes appended records durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Discards all records (after a successful flush).
    fn truncate(&mut self) -> io::Result<()>;
    /// Total bytes appended since the last truncate.
    fn size(&self) -> u64;
}

/// An in-memory sink that only tracks size — used under simulation.
#[derive(Debug, Default)]
pub struct MemWal {
    bytes: u64,
    records: u64,
}

impl MemWal {
    /// Creates an empty in-memory WAL.
    pub fn new() -> Self {
        MemWal::default()
    }

    /// Number of records appended since the last truncate.
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl WalSink for MemWal {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.bytes += record.len() as u64;
        self.records += 1;
        Ok(())
    }

    fn append_batch(&mut self, batch: &WriteBatch) -> io::Result<u64> {
        let len = encoded_len(batch);
        self.bytes += len;
        self.records += 1;
        Ok(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.bytes = 0;
        self.records = 0;
        Ok(())
    }

    fn size(&self) -> u64 {
        self.bytes
    }
}

/// CRC-32 (IEEE) implemented locally to avoid an extra dependency.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// A file-backed WAL sink writing `[len u32][crc u32][payload]` records.
pub struct FileWal {
    writer: BufWriter<File>,
    path: std::path::PathBuf,
    bytes: u64,
}

impl FileWal {
    /// Opens (creating or appending to) a WAL file at `path`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(FileWal { writer: BufWriter::new(file), path, bytes })
    }

    /// Reads back every intact record in a WAL file, stopping at the first
    /// torn or corrupt record (crash-recovery semantics).
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Vec<Vec<u8>>> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        loop {
            match frame_record(&buf, pos) {
                Ok(Some((payload, next))) => {
                    records.push(payload.to_vec());
                    pos = next;
                }
                // Clean end of log.
                Ok(None) => break,
                // Torn tail or corrupt record: crash residue — stop here
                // and recover everything before it.
                Err(_) => break,
            }
        }
        Ok(records)
    }
}

/// Frames the record at `pos`: `Ok(Some((payload, next_pos)))` for an
/// intact record, `Ok(None)` at the clean end of the buffer, and a typed
/// [`WalError`] when the framing is torn or the payload fails its CRC.
fn frame_record(buf: &[u8], pos: usize) -> Result<Option<(&[u8], usize)>, WalError> {
    if pos >= buf.len() {
        return Ok(None);
    }
    let len = read_u32(buf, pos)? as usize;
    let crc = read_u32(buf, pos + 4)?;
    let payload = read_bytes(buf, pos + 8, len)?;
    let actual = crc32(payload);
    if actual != crc {
        return Err(WalError::Corrupt { at: pos, expected: crc, actual });
    }
    Ok(Some((payload, pos + 8 + len)))
}

impl WalSink for FileWal {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let len = record.len() as u32;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&crc32(record).to_le_bytes())?;
        self.writer.write_all(record)?;
        self.bytes += 8 + record.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new().write(true).truncate(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.bytes = 0;
        Ok(())
    }

    fn size(&self) -> u64 {
        self.bytes
    }
}

/// Aggregate result of one group commit: the batches a single modeled
/// fsync made durable. `batches == 0` means the sync had nothing to cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommit {
    /// Number of write batches made durable by this sync.
    pub batches: u64,
    /// WAL record bytes (including framing) made durable by this sync.
    pub bytes: u64,
    /// Sequence number of the last batch covered (0 when `batches == 0`).
    pub last_seq: u64,
}

/// A group-commit front end over a [`WalSink`].
///
/// Batches are appended immediately (each gets a monotonically increasing
/// sequence number) but only become durable when a sync covers them. One
/// `sync_through`/`sync_all` call models one fsync: every batch appended
/// since the previous sync rides the same flush, so the fsync cost is
/// amortized across the group and all of them commit together.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    /// Sequence number the next appended batch will receive.
    next_seq: u64,
    /// All batches with `seq <= synced_seq` are durable.
    synced_seq: u64,
    /// Appended-but-unsynced batches: `(seq, record bytes)`, oldest first.
    pending: VecDeque<(u64, u64)>,
}

impl WalWriter {
    /// Wraps a sink; the first appended batch gets sequence number 1.
    pub fn new(sink: Box<dyn WalSink>) -> Self {
        WalWriter { sink, next_seq: 1, synced_seq: 0, pending: VecDeque::new() }
    }

    /// Appends one batch without syncing. Returns its sequence number and
    /// the encoded record length (framing included).
    pub fn append(&mut self, batch: &WriteBatch) -> io::Result<(u64, u64)> {
        let bytes = self.sink.append_batch(batch)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((seq, bytes));
        Ok((seq, bytes))
    }

    /// Syncs the sink and commits every pending batch with `seq <= seq`.
    /// Batches appended after the modeled fsync began ride the next group.
    pub fn sync_through(&mut self, seq: u64) -> io::Result<GroupCommit> {
        if seq <= self.synced_seq {
            return Ok(GroupCommit::default());
        }
        self.sink.sync()?;
        let mut group = GroupCommit::default();
        while let Some(&(s, b)) = self.pending.front() {
            if s > seq {
                break;
            }
            self.pending.pop_front();
            group.batches += 1;
            group.bytes += b;
            group.last_seq = s;
        }
        self.synced_seq = seq.min(self.appended_seq());
        Ok(group)
    }

    /// Syncs everything appended so far as one group.
    pub fn sync_all(&mut self) -> io::Result<GroupCommit> {
        self.sync_through(self.appended_seq())
    }

    /// Discards all records. Batches that were appended but never synced
    /// are reported back as a final group: the caller only truncates once
    /// their data is durable elsewhere (flushed to data files).
    pub fn truncate(&mut self) -> io::Result<GroupCommit> {
        self.sink.truncate()?;
        let mut group = GroupCommit::default();
        while let Some((s, b)) = self.pending.pop_front() {
            group.batches += 1;
            group.bytes += b;
            group.last_seq = s;
        }
        self.synced_seq = self.appended_seq();
        Ok(group)
    }

    /// Number of appended batches not yet covered by a sync.
    pub fn unsynced_batches(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Sequence number of the last batch appended (0 before the first).
    pub fn appended_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The durability mark: every batch with a sequence number at or
    /// below it is durable — covered by a sync, or by the data files a
    /// truncate followed. Never ahead of [`WalWriter::appended_seq`].
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Total bytes in the underlying sink since its last truncate.
    pub fn size(&self) -> u64 {
        self.sink.size()
    }
}

/// Encodes a [`WriteBatch`] into one WAL record:
/// `[count u32]` then per entry `[klen u32][k][has_value u8][vlen u32][v]`.
pub fn encode_batch(batch: &WriteBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(batch.payload_bytes() + 16);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for (k, v) in batch.entries() {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        match v {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
    out
}

/// The length of the record [`encode_batch`] makes of `batch`, without
/// making it.
pub fn encoded_len(batch: &WriteBatch) -> u64 {
    let mut len = 4;
    for (k, v) in batch.entries() {
        len += 4 + k.len() + 1 + v.as_ref().map_or(0, |v| 4 + v.len());
    }
    len as u64
}

/// Decodes a WAL record produced by [`encode_batch`], reporting *where*
/// and *how* a malformed record fails instead of a bare `None`.
pub fn decode_batch_strict(record: &[u8]) -> Result<WriteBatch, WalError> {
    let mut batch = WriteBatch::new();
    let mut pos = 0usize;
    let count = read_u32(record, pos)? as usize;
    pos += 4;
    for _ in 0..count {
        let klen = read_u32(record, pos)? as usize;
        pos += 4;
        let key = read_bytes(record, pos, klen)?.to_vec();
        pos += klen;
        let has_value =
            *record.get(pos).ok_or(WalError::Truncated { at: pos, needed: 1, have: 0 })?;
        pos += 1;
        match has_value {
            1 => {
                let vlen = read_u32(record, pos)? as usize;
                pos += 4;
                let value = read_bytes(record, pos, vlen)?.to_vec();
                pos += vlen;
                batch.put(key, value);
            }
            0 => {
                batch.delete(key);
            }
            tag => return Err(WalError::BadTag { at: pos - 1, tag }),
        }
    }
    Ok(batch)
}

/// Decodes a WAL record produced by [`encode_batch`]. Thin `Option`
/// wrapper over [`decode_batch_strict`] for callers that only care
/// whether the record is intact.
pub fn decode_batch(record: &[u8]) -> Option<WriteBatch> {
    decode_batch_strict(record).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn mem_wal_counts_bytes() {
        let mut w = MemWal::new();
        w.append(b"hello").unwrap();
        w.append(b"worlds!").unwrap();
        assert_eq!(w.size(), 12);
        assert_eq!(w.records(), 2);
        w.truncate().unwrap();
        assert_eq!(w.size(), 0);
    }

    #[test]
    fn batch_roundtrip() {
        let mut batch = WriteBatch::new();
        batch.put(&b"alpha"[..], &b"1"[..]).delete(&b"beta"[..]).put(&b""[..], &b""[..]);
        let encoded = encode_batch(&batch);
        let decoded = decode_batch(&encoded).expect("decodes");
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded.entries()[0].0.as_ref(), b"alpha");
        assert_eq!(decoded.entries()[1].1, None);
        assert_eq!(decoded.entries()[2].0.len(), 0);
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut batch = WriteBatch::new();
        batch.put(&b"key"[..], &b"value"[..]);
        let encoded = encode_batch(&batch);
        assert!(decode_batch(&encoded[..encoded.len() - 1]).is_none());
    }

    #[test]
    fn file_wal_replay_roundtrip() {
        let dir = std::env::temp_dir().join(format!("crdb-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
        }
        let records = FileWal::replay(&path).unwrap();
        assert_eq!(records, vec![b"first".to_vec(), b"second".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_wal_replay_stops_at_corruption() {
        let dir = std::env::temp_dir().join(format!("crdb-wal-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"bad-to-be").unwrap();
            wal.sync().unwrap();
        }
        // Flip a payload byte of the second record.
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let records = FileWal::replay(&path).unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_wal_replay_recovers_before_torn_tail() {
        // A crash mid-append leaves a partial final record: the header may
        // be complete but the payload cut short, or the header itself may
        // be torn. Replay must stop cleanly at the tear and return every
        // record written (and synced) before it.
        let dir = std::env::temp_dir().join(format!("crdb-wal-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tear.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"bravo-longer-payload").unwrap();
            wal.append(b"charlie").unwrap();
            wal.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let intact = vec![b"alpha".to_vec(), b"bravo-longer-payload".to_vec()];
        // Tear points: inside the last record's payload (header promises
        // more bytes than the file holds), mid-header with the length
        // present but the crc torn, and mid-header inside the length.
        let tail_start = full.len() - (8 + b"charlie".len());
        for cut in [tail_start + 8 + 3, tail_start + 5, tail_start + 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let records = FileWal::replay(&path).unwrap();
            assert_eq!(records, intact, "tear at byte {cut} must keep prior records");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_wal_appends_after_torn_tail_recovery() {
        // After recovery the engine keeps using the log: re-opening a torn
        // WAL and appending must yield a file whose replay still starts
        // with the surviving records. (Appends land after the torn bytes,
        // so replay stops at the tear — the recovered prefix is what
        // matters; a real engine rewrites the log from it on flush.)
        let dir = std::env::temp_dir().join(format!("crdb-wal-tear2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tear-append.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).unwrap();
            wal.append(b"keep").unwrap();
            wal.append(b"torn-away").unwrap();
            wal.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert_eq!(FileWal::replay(&path).unwrap(), vec![b"keep".to_vec()]);

        // Recovery path: replay the survivors, rewrite the log from them,
        // then keep appending.
        let survivors = FileWal::replay(&path).unwrap();
        let mut wal = FileWal::open(&path).unwrap();
        wal.truncate().unwrap();
        for r in &survivors {
            wal.append(r).unwrap();
        }
        wal.append(b"post-crash").unwrap();
        wal.sync().unwrap();
        assert_eq!(FileWal::replay(&path).unwrap(), vec![b"keep".to_vec(), b"post-crash".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    fn batch_of(k: &str) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes().to_vec(), &b"v"[..]);
        b
    }

    #[test]
    fn encoded_len_is_the_length_encode_batch_produces() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        let mut mem = WalWriter::new(Box::new(MemWal::new()));
        for _ in 0..200 {
            let mut batch = WriteBatch::new();
            for _ in 0..rng.gen_range(0..6usize) {
                let key = vec![b'k'; rng.gen_range(0..40usize)];
                match rng.gen_range(0..3u32) {
                    0 => batch.delete(key),
                    1 => batch.put(key, Vec::new()),
                    _ => batch.put(key, vec![b'v'; rng.gen_range(1..300usize)]),
                };
            }
            let encoded = encode_batch(&batch).len() as u64;
            assert_eq!(encoded_len(&batch), encoded, "{batch:?}");
            // The counting sink reports what an encoding sink would.
            assert_eq!(mem.append(&batch).unwrap().1, encoded);
        }
        assert_eq!(encoded_len(&WriteBatch::new()), 4);
    }

    #[test]
    fn wal_writer_groups_batches_per_sync() {
        let mut w = WalWriter::new(Box::new(MemWal::new()));
        let (s1, _) = w.append(&batch_of("a")).unwrap();
        let (s2, _) = w.append(&batch_of("b")).unwrap();
        let (s3, _) = w.append(&batch_of("c")).unwrap();
        assert_eq!((s1, s2, s3), (1, 2, 3));
        assert_eq!(w.unsynced_batches(), 3);
        let g = w.sync_all().unwrap();
        assert_eq!(g.batches, 3, "one fsync committed the whole group");
        assert_eq!(g.last_seq, 3);
        assert!(g.bytes > 0);
        assert_eq!(w.unsynced_batches(), 0);
        // A second sync with nothing pending is a no-op group.
        assert_eq!(w.sync_all().unwrap(), GroupCommit::default());
    }

    #[test]
    fn wal_writer_sync_through_splits_groups() {
        let mut w = WalWriter::new(Box::new(MemWal::new()));
        for k in ["a", "b", "c", "d"] {
            w.append(&batch_of(k)).unwrap();
        }
        let g1 = w.sync_through(2).unwrap();
        assert_eq!((g1.batches, g1.last_seq), (2, 2));
        assert_eq!(w.unsynced_batches(), 2, "later appends ride the next group");
        let g2 = w.sync_all().unwrap();
        assert_eq!((g2.batches, g2.last_seq), (2, 4));
    }

    #[test]
    fn wal_writer_truncate_reports_unsynced_residue() {
        let mut w = WalWriter::new(Box::new(MemWal::new()));
        w.append(&batch_of("a")).unwrap();
        w.sync_all().unwrap();
        w.append(&batch_of("b")).unwrap();
        let g = w.truncate().unwrap();
        assert_eq!(g.batches, 1, "the unsynced batch is surfaced at truncate");
        assert_eq!(w.unsynced_batches(), 0);
        assert_eq!(w.size(), 0);
        // Sequence numbers keep rising across a truncate.
        let (s, _) = w.append(&batch_of("c")).unwrap();
        assert_eq!(s, 3);
    }

    #[test]
    fn synced_seq_is_the_one_durability_mark() {
        let mut w = WalWriter::new(Box::new(MemWal::new()));
        assert_eq!((w.appended_seq(), w.synced_seq()), (0, 0));
        // An empty sync has nothing to cover and moves nothing.
        assert_eq!(w.sync_all().unwrap(), GroupCommit::default());
        assert_eq!((w.appended_seq(), w.synced_seq()), (0, 0));

        for k in ["a", "b", "c", "d"] {
            w.append(&batch_of(k)).unwrap();
        }
        assert_eq!((w.appended_seq(), w.synced_seq()), (4, 0), "appending makes nothing durable");
        w.sync_through(2).unwrap();
        assert_eq!(w.synced_seq(), 2);
        // Syncing at or below the mark is a no-op; it never moves back.
        assert_eq!(w.sync_through(1).unwrap(), GroupCommit::default());
        assert_eq!(w.synced_seq(), 2);
        // A sync cannot cover what has not been appended.
        w.sync_through(99).unwrap();
        assert_eq!((w.appended_seq(), w.synced_seq()), (4, 4));

        w.append(&batch_of("e")).unwrap();
        w.sync_all().unwrap();
        assert_eq!((w.appended_seq(), w.synced_seq()), (5, 5));
        assert_eq!(w.sync_all().unwrap(), GroupCommit::default());
        assert_eq!(w.synced_seq(), 5);

        // A truncate follows a flush: the unsynced tail is durable in
        // data files, so the mark covers it too.
        w.append(&batch_of("f")).unwrap();
        w.append(&batch_of("g")).unwrap();
        assert_eq!((w.appended_seq(), w.synced_seq()), (7, 5));
        w.truncate().unwrap();
        assert_eq!((w.appended_seq(), w.synced_seq()), (7, 7));
        let (s, _) = w.append(&batch_of("h")).unwrap();
        assert_eq!((s, w.appended_seq(), w.synced_seq()), (8, 8, 7));
    }

    #[test]
    fn file_wal_truncate_resets() {
        let dir = std::env::temp_dir().join(format!("crdb-wal-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = FileWal::open(&path).unwrap();
        wal.append(b"data").unwrap();
        assert!(wal.size() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.size(), 0);
        assert!(FileWal::replay(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
