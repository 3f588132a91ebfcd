//! Multi-version concurrency control over the LSM engine.
//!
//! Every logical key stores a history of timestamped versions plus at most
//! one provisional *write intent*. The storage layout inside each node's
//! engine:
//!
//! ```text
//! 'v' + key + 0x00 + (MAX - ts.wall) + (MAX - ts.logical) -> [1][value] | [0]
//! 'i' + key                                               -> intent meta
//! 't' + txn_id                                            -> txn record
//! ```
//!
//! The 0x00 separator between user key and inverted timestamp keeps scan
//! bounds correct when one user key is a prefix of another (or of a span
//! end); span scans additionally filter decoded user keys against the
//! requested bounds.
//!
//! Inverted timestamps make newer versions sort first, so "newest version
//! ≤ read_ts" is a short forward scan. Tombstoned versions (deletes) are
//! materialized as `[0]` so history is preserved until GC.
//!
//! # Reads lend, and hand out slices
//!
//! A walk compares user keys where the engine's iterator lends them. The
//! keys a read *returns* — one per user key, never the older versions it
//! passes — are `Bytes` slices of the engine's own version keys, so a
//! scan's reply is handles onto memory the engine holds anyway.
//!
//! # Evaluate once, replay everywhere
//!
//! Every mutator takes **one** engine — the leaseholder's — reads what it
//! must, applies there, and returns what it did as an [`Applied`]: the
//! batch, nothing else. A follower [`Applied::replay`]s that and reads
//! nothing a transaction checks: no intent re-decoded, no conflict
//! re-checked.
//!
//! # Garbage collection
//!
//! History older than [`GC_WINDOW`] has one collector, [`compaction_gc`],
//! with one definition of garbage and two call sites. Every compaction
//! merges through it (`Lsm::finish_compaction`, at the horizon of the
//! instant the job was claimed), so a flushed version goes when the job
//! that next rewrites it runs. And every replica, the leaseholder
//! included, runs it over the written key's versions in its own active
//! memtable when it applies a batch ([`Applied::replay`], at the horizon
//! of the version written), so history that never left memory is removed
//! before a flush writes it. That horizon comes from the batch, so each
//! replica decides alone, and a key's versions are written in timestamp
//! order, so the newest version at or below it is in the active memtable
//! whenever anything it shadows there is.

use bytes::{BufMut, Bytes, BytesMut};
use crdb_storage::{Engine, Entry, IngestError, SsTable, WriteBatch};

use crate::hlc::Timestamp;
use crate::timing::GC_WINDOW;
use crate::txn::TxnRecord;

/// The oldest snapshot still readable at `now`: GC keeps, per key, the
/// newest version at or below it and everything newer.
pub fn gc_horizon(now: Timestamp) -> Timestamp {
    Timestamp { wall: now.wall.saturating_sub(GC_WINDOW.as_nanos() as u64), logical: 0 }
}

const VERSION_TAG: u8 = b'v';
const INTENT_TAG: u8 = b'i';
const TXN_TAG: u8 = b't';

fn version_key(key: &[u8], ts: Timestamp) -> Bytes {
    let mut b = BytesMut::with_capacity(key.len() + 14);
    put_version_key(&mut b, key, ts);
    b.freeze()
}

fn put_version_key(b: &mut BytesMut, key: &[u8], ts: Timestamp) {
    b.put_u8(VERSION_TAG);
    b.put_slice(key);
    b.put_u8(0x00); // separator: see module docs
    b.put_u64(u64::MAX - ts.wall);
    b.put_u32(u32::MAX - ts.logical);
}

fn version_prefix(key: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(key.len() + 1);
    b.put_u8(VERSION_TAG);
    b.put_slice(key);
    b.freeze()
}

/// An exclusive end past every version of `key`: its `'v' + key + 0x00`
/// prefix and more 0xff bytes than any timestamp.
fn versions_end(key: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(key.len() + 15);
    b.put_u8(VERSION_TAG);
    b.put_slice(key);
    b.put_u8(0x00);
    b.put_slice(&[0xff; 13]);
    b.freeze()
}

/// The storage spans of the versions of `[start, end)` that `window`
/// picks, in the order [`visit_versions`] walks them. The last is the walk
/// from `'v' + start` to `'v' + end`: it reaches every version of every
/// key below `end` and none of `end`'s own, nor of a key extending `end`.
/// But a key of the span that `end` extends through a 0x00 byte
/// (`end = key + 0x00 + rest`) has versions, `'v' + key + 0x00 + ts`,
/// that sort past `'v' + end` wherever the timestamp bytes sort past
/// `rest`. For each such key, the part of `window(key)` past the walk
/// comes first. SQL's self-delimiting keys never extend one another, so
/// there those spans hold nothing.
fn version_spans(
    start: &[u8],
    end: &[u8],
    window: impl Fn(&[u8]) -> (Bytes, Bytes),
) -> Vec<(Bytes, Bytes)> {
    let walk_end = version_prefix(end);
    let keys =
        end.iter().enumerate().filter(|&(_, &b)| b == 0x00).filter_map(|(at, _)| end.get(..at));
    let mut spans: Vec<_> = keys
        .filter(|key| *key >= start)
        .filter_map(|key| {
            let (lo, hi) = window(key);
            let lo = lo.max(walk_end.clone());
            (lo < hi).then_some((lo, hi))
        })
        .collect();
    spans.push((version_prefix(start), walk_end));
    spans
}

/// Visits in one counted scan the versions of `[start, end)` that `window`
/// picks ([`version_spans`]). The walk also meets keys outside the span:
/// `visit` passes over those.
fn visit_versions(
    engine: &Engine,
    (start, end): (&[u8], &[u8]),
    window: impl Fn(&[u8]) -> (Bytes, Bytes),
    visit: impl FnMut(&Bytes, &Bytes) -> bool,
) {
    let spans = version_spans(start, end, window);
    let spans: Vec<_> = spans.iter().map(|(lo, hi)| (&lo[..], &hi[..])).collect();
    engine.scan_visit_spans(&spans, visit);
}

fn intent_key(key: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(key.len() + 1);
    b.put_u8(INTENT_TAG);
    b.put_slice(key);
    b.freeze()
}

fn txn_key(txn_id: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(9);
    b.put_u8(TXN_TAG);
    b.put_u64(txn_id);
    b.freeze()
}

/// Splits a version storage key into its `'v' + key + 0x00` prefix — equal
/// for two storage keys exactly when they are versions of one user key —
/// and its timestamp, borrowing both. `None` for anything that is not a
/// version key, whatever its tail looks like.
fn split_version_key(storage_key: &[u8]) -> Option<(&[u8], Timestamp)> {
    let (prefix, ts) = storage_key.split_at_checked(storage_key.len().checked_sub(12)?)?;
    if prefix.len() < 2 || prefix.first() != Some(&VERSION_TAG) || prefix.last() != Some(&0x00) {
        return None;
    }
    let (wall, logical) = ts.split_at_checked(8)?;
    let wall = u64::MAX - u64::from_be_bytes(wall.try_into().ok()?);
    let logical = u32::MAX - u32::from_be_bytes(logical.try_into().ok()?);
    Some((prefix, Timestamp { wall, logical }))
}

/// Splits a version storage key back into `(user_key, ts)`, borrowing
/// the user key: walks compare it where it lies, and the one version a
/// walk hands on is cut out of the engine's own buffer by
/// [`user_key_slice`].
fn decode_version_key(storage_key: &[u8]) -> Option<(&[u8], Timestamp)> {
    let (prefix, ts) = split_version_key(storage_key)?;
    Some((prefix.get(1..prefix.len() - 1)?, ts))
}

/// The `user` key [`decode_version_key`] found in `storage_key`, as a
/// slice sharing the engine's buffer — no copy per returned key.
fn user_key_slice(storage_key: &Bytes, user: &[u8]) -> Bytes {
    storage_key.slice(1..1 + user.len())
}

fn encode_value(value: Option<&Bytes>) -> Bytes {
    match value {
        Some(v) => {
            let mut b = BytesMut::with_capacity(v.len() + 1);
            b.put_u8(1);
            b.put_slice(v);
            b.freeze()
        }
        None => Bytes::from_static(&[0]),
    }
}

fn decode_value(raw: &Bytes) -> Option<Bytes> {
    match raw.first() {
        Some(1) => Some(raw.slice(1..)),
        _ => None,
    }
}

/// A provisional write by an in-flight transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Intent {
    /// Owning transaction.
    pub txn_id: u64,
    /// Provisional timestamp.
    pub ts: Timestamp,
    /// Provisional value (`None` = delete).
    pub value: Option<Bytes>,
}

fn encode_intent(intent: &Intent) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u64(intent.txn_id);
    b.put_u64(intent.ts.wall);
    b.put_u32(intent.ts.logical);
    match &intent.value {
        Some(v) => {
            b.put_u8(1);
            b.put_slice(v);
        }
        None => b.put_u8(0),
    }
    b.freeze()
}

fn decode_intent(raw: &Bytes) -> Option<Intent> {
    let (txn_id, rest) = raw.split_first_chunk()?;
    let (wall, rest) = rest.split_first_chunk()?;
    let (logical, rest) = rest.split_first_chunk()?;
    let (&has_value, _) = rest.split_first()?;
    let ts = Timestamp { wall: u64::from_be_bytes(*wall), logical: u32::from_be_bytes(*logical) };
    let value = (has_value == 1).then(|| raw.slice(21..));
    Some(Intent { txn_id: u64::from_be_bytes(*txn_id), ts, value })
}

/// Result of an MVCC point read.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadResult {
    /// The newest committed value at or below the read timestamp (`None` =
    /// no value / deleted).
    Value(Option<Bytes>),
    /// The read ran into an intent from another transaction.
    Intent(Intent),
}

/// Pre-encodes a value for [`version_table`]; the result is a plain
/// `Bytes` the caller can refcount-clone across many rows.
pub(crate) fn encode_version_value(value: Option<&Bytes>) -> Bytes {
    encode_value(value)
}

/// One committed version at `ts` of each of `keys` (user keys in
/// ascending order), each holding `encoded_value`, as one sorted table to
/// ingest whole ([`ingest_versions`]). Every storage key is a slice of
/// one buffer and every value the one payload, so the table costs the
/// host one key buffer and one run of entries ([`Entry::run`]) — shared
/// by every engine that ingests it.
pub(crate) fn version_table(keys: &[Bytes], ts: Timestamp, encoded_value: &Bytes) -> SsTable {
    let mut buf = BytesMut::with_capacity(keys.iter().map(|k| k.len() + 14).sum());
    let mut ends = Vec::with_capacity(keys.len());
    for key in keys {
        put_version_key(&mut buf, key, ts);
        ends.push(buf.len());
    }
    let buf = buf.freeze();
    let mut start = 0;
    let pairs = ends
        .into_iter()
        .map(|end| {
            let key = buf.slice(start..end);
            start = end;
            (key, Some(encoded_value.clone()))
        })
        .collect();
    SsTable::new(0, Entry::run(pairs))
}

/// Ingests a [`version_table`] into `engine` with no WAL record. An
/// engine whose memtable already holds a key inside the table's bounds
/// refuses it, and takes the same versions as one ordinary write instead.
pub(crate) fn ingest_versions(engine: &Engine, table: &SsTable) {
    match engine.ingest_table(table) {
        Ok(_) | Err(IngestError::Empty) => {}
        Err(IngestError::OverlapsMemtable) => {
            let mut batch = WriteBatch::new();
            for entry in table.entries() {
                if let Some(value) = entry.value() {
                    batch.put(entry.key().clone(), value.clone());
                }
            }
            engine.apply(&batch);
        }
    }
}

/// Whether the engine holds nothing under the user keys `[start, end)`:
/// no version and no intent. `until` is the newest timestamp a version may
/// carry (the cluster passes its clock's ceiling) and bounds the walk where
/// keys extend one another through a 0x00 byte, as in [`refresh_span`].
pub fn span_is_empty(engine: &Engine, start: &[u8], end: &[u8], until: Timestamp) -> bool {
    let mut empty = true;
    let window = |key: &[u8]| (version_key(key, until), versions_end(key));
    visit_versions(engine, (start, end), window, |k, _| {
        empty = !decode_version_key(k).is_some_and(|(user, _)| (start..end).contains(&user));
        empty
    });
    engine.scan_visit(&intent_key(start), &intent_key(end), |_, _| {
        empty = false;
        false
    });
    empty
}

/// The distinct user keys, in order, under the first `limit` versions of
/// `[start, end)` that a read at or above `horizon` could return — what a
/// size-based split weighs a range by. Versions [`compaction_gc`] would
/// drop at that horizon are passed over, wherever they still are: its
/// filter sees the walk in storage order, as a compaction shows it. `until`
/// bounds the walk as in [`span_is_empty`].
pub fn readable_user_keys(
    engine: &Engine,
    start: &[u8],
    end: &[u8],
    horizon: Timestamp,
    until: Timestamp,
    limit: usize,
) -> Vec<Bytes> {
    let mut spans = version_spans(start, end, |key| (version_key(key, until), versions_end(key)));
    spans.sort();
    let spans: Vec<_> = spans.iter().map(|(lo, hi)| (&lo[..], &hi[..])).collect();
    let mut unreadable = compaction_gc(horizon);
    let mut users: Vec<Bytes> = Vec::new();
    let mut versions = 0;
    engine.scan_visit_spans(&spans, |k, raw| {
        let readable = !unreadable(k, Some(raw));
        let hit = decode_version_key(k).filter(|(u, _)| !u.is_empty() && (start..end).contains(u));
        let Some((user, _)) = hit.filter(|_| readable) else { return true };
        versions += 1;
        if users.last().is_none_or(|last| last.as_ref() != user) {
            users.push(user_key_slice(k, user));
        }
        versions < limit
    });
    // Keys extending others through 0x00 interleave with their versions.
    users.sort();
    users.dedup();
    users
}

/// What a mutator did to the engine it evaluated on: the batch it applied.
#[derive(Debug)]
pub struct Applied {
    batch: WriteBatch,
}

impl Applied {
    /// Replays `batch` on the leaseholder's `engine`: evaluation and
    /// replication do one thing.
    fn evaluate(engine: &Engine, batch: WriteBatch) -> Applied {
        let applied = Applied { batch };
        applied.replay(engine);
        applied
    }

    /// Applies the batch to `engine` (one WAL record, the same refcounted
    /// buffers on every replica), then, under each version it put, runs
    /// [`compaction_gc`] at that version's [`gc_horizon`] over the key's
    /// versions in the engine's active memtable: whatever the new version
    /// shadows for every read inside the GC window goes before a flush
    /// writes it (hot keys otherwise accumulate history that every span
    /// scan must walk and every flush must write). Version keys are
    /// written once, so removing one exposes nothing older.
    pub fn replay(&self, engine: &Engine) {
        engine.apply(&self.batch);
        for entry in self.batch.entries() {
            if let (Some((key, ts)), Some(_)) = (decode_version_key(entry.key()), entry.value()) {
                let horizon = gc_horizon(ts);
                let (start, end) = (version_key(key, horizon), versions_end(key));
                engine.with_lsm(|lsm| {
                    lsm.collect_in_memtable(&start, &end, &mut compaction_gc(horizon))
                });
            }
        }
    }
}

/// Writes a committed version directly, past every check a transaction's
/// write passes. No KV request does this: it seeds engines for tests and
/// the `perf` probes.
pub fn put_version(engine: &Engine, key: &[u8], ts: Timestamp, value: Option<&Bytes>) -> Applied {
    let mut batch = WriteBatch::new();
    batch.put(version_key(key, ts), encode_value(value));
    Applied::evaluate(engine, batch)
}

/// Reads the newest committed version of `key` at or below `ts`. If
/// `observe_intents` and an intent (from a different transaction than
/// `own_txn`) exists with `intent.ts <= ts`, the intent is surfaced.
pub fn get(engine: &Engine, key: &[u8], ts: Timestamp, own_txn: Option<u64>) -> ReadResult {
    if let Some(raw) = engine.get(&intent_key(key)) {
        if let Some(intent) = decode_intent(&raw) {
            if Some(intent.txn_id) == own_txn {
                // Read-your-writes: the provisional value wins.
                return ReadResult::Value(intent.value);
            }
            if intent.ts <= ts {
                return ReadResult::Intent(intent);
            }
        }
    }
    let start = version_key(key, ts); // newest version <= ts sorts first
    let prefix_end = versions_end(key);
    // Streaming read with early termination: the first entry at or after
    // `start` is the newest visible version — the iterator pulls exactly
    // one entry per level instead of materializing the version chain.
    let mut result = None;
    engine.scan_visit(&start, &prefix_end, |k, raw| {
        if let Some((user, _vts)) = decode_version_key(k) {
            if user == key {
                result = Some(decode_value(raw));
            }
        }
        false // only the first entry matters
    });
    ReadResult::Value(result.flatten())
}

/// A scan's live pairs plus every foreign intent found in the span.
pub type ScanResult = (Vec<(Bytes, Bytes)>, Vec<(Bytes, Intent)>);

/// Scans `[start, end)` at `ts`, returning up to `limit` live pairs and
/// every foreign intent encountered in the span.
pub fn scan(
    engine: &Engine,
    start: &[u8],
    end: &[u8],
    ts: Timestamp,
    limit: usize,
    own_txn: Option<u64>,
) -> ScanResult {
    // Collect intents over the span. `own_intents` is a BTreeMap so its
    // post-walk drain below is in key order — a HashMap here let hash
    // iteration order pick *which* own-intent keys survived a `limit`
    // truncation, leaking nondeterminism into scan results (PR 1
    // invariant).
    let mut intents = Vec::new();
    let mut own_intents: std::collections::BTreeMap<Bytes, Option<Bytes>> = Default::default();
    engine.scan_visit(&intent_key(start), &intent_key(end), |k, raw| {
        if let (Some(intent), Some(_tag)) = (decode_intent(raw), k.first()) {
            let user = k.slice(1..);
            if Some(intent.txn_id) == own_txn {
                own_intents.insert(user, intent.value);
            } else if intent.ts <= ts {
                intents.push((user, intent));
            }
        }
        true
    });
    // Walk versions, picking the newest committed <= ts per user key.
    // The walk streams out of the LSM's merge iterator and stops pulling
    // as soon as `limit` live pairs exist — a limit-10 scan over a hot
    // key's version chain no longer pays for the whole span. The
    // versions past `'v' + end` (`version_spans`) are walked first, in
    // the same scan, and each key's newest there waits in `probed` unless
    // the main walk finds a newer one.
    let window = |key: &[u8]| (version_key(key, ts), versions_end(key));
    let mut probed: Vec<(Bytes, Option<Bytes>)> = Vec::new();
    let mut out: Vec<(Bytes, Bytes)> = Vec::new();
    let mut current: Option<Bytes> = None;
    visit_versions(engine, (start, end), window, |k, raw| {
        let Some((user, vts)) = decode_version_key(k) else { return out.len() < limit };
        // Past the limit only a key an emitted one extends through a 0x00
        // byte can still make the cut: its versions sort after that key's.
        if out.len() >= limit && !out.iter().any(|(e, _)| extends_through_zero(e, user)) {
            return false;
        }
        if user < start || user >= end {
            return true;
        }
        // Past `'v' + end`: a version only a probe reaches.
        if k.get(1..).is_some_and(|rest| rest >= end) {
            if vts <= ts && probed.iter().all(|(u, _)| u.as_ref() != user) {
                probed.push((user_key_slice(k, user), decode_value(raw)));
            }
            return true;
        }
        if current.as_deref() == Some(user) {
            return true; // already emitted (or skipped) the newest visible
        }
        if vts > ts {
            return true; // newer than the snapshot; keep looking older
        }
        if !probed.is_empty() {
            probed.retain(|(u, _)| u.as_ref() != user);
        }
        // Own provisional write shadows the committed version.
        let value = match own_intents.remove(user) {
            Some(v) => v,
            None => decode_value(raw),
        };
        let user = user_key_slice(k, user);
        if let Some(v) = value {
            out.push((user.clone(), v));
        }
        current = Some(user);
        true
    });
    // Keys only a probe reached, and own intents on keys with no
    // committed versions, still surface. A key that another extends
    // through a 0x00 byte sorts after it in storage, so only these and a
    // walk over such keys leave the pairs out of order and call for a
    // sort (and its scratch buffer, as large as the reply).
    for (user, value) in probed {
        let value = own_intents.remove(&user).unwrap_or(value);
        if let Some(v) = value {
            out.push((user, v));
        }
    }
    let own = own_intents.into_iter().filter(|(user, _)| (start..end).contains(&user.as_ref()));
    out.extend(own.filter_map(|(user, value)| Some((user, value?))));
    if !out.is_sorted_by(|a, b| a.0 < b.0) {
        out.sort_by(|a, b| a.0.cmp(&b.0));
    }
    out.truncate(limit);
    (out, intents)
}

/// Whether `longer` is `key` + 0x00 + anything.
fn extends_through_zero(longer: &[u8], key: &[u8]) -> bool {
    longer.strip_prefix(key).is_some_and(|rest| rest.first() == Some(&0))
}

/// Conflict detected while writing an intent.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteConflict {
    /// A committed version newer than the writer's timestamp exists.
    WriteTooOld(Timestamp),
    /// Another transaction holds an intent on the key.
    Intent(Intent),
}

/// Checks that `txn_id` may write `key` at `ts`: no other transaction
/// holds an intent on it (one's own may be rewritten — the last write in
/// the transaction wins) and nothing committed past the writer's view.
///
/// `read_since` is the transaction's snapshot timestamp: a committed
/// version newer than it fails the write even when it is older than the
/// (pushed) provisional timestamp `ts`. This is the per-key atomic
/// read-modify-write validation that closes the gap between a refresh and
/// the write; a write never lands below a committed version of its key.
pub fn check_write(
    engine: &Engine,
    key: &[u8],
    txn_id: u64,
    ts: Timestamp,
    read_since: Timestamp,
) -> Result<(), WriteConflict> {
    if let Some(raw) = engine.get(&intent_key(key)) {
        if let Some(existing) = decode_intent(&raw) {
            if existing.txn_id != txn_id {
                return Err(WriteConflict::Intent(existing));
            }
        }
    }
    // Nothing may have committed past the snapshot (or past the
    // provisional write timestamp).
    let threshold = read_since.min(ts);
    match newest_version_ts(engine, key) {
        Some(vts) if vts > threshold => Err(WriteConflict::WriteTooOld(vts)),
        _ => Ok(()),
    }
}

/// Writes a provisional intent for `txn_id` at `ts` if [`check_write`]
/// allows it.
pub fn write_intent(
    engine: &Engine,
    key: &[u8],
    txn_id: u64,
    ts: Timestamp,
    read_since: Timestamp,
    value: Option<&Bytes>,
) -> Result<Applied, WriteConflict> {
    check_write(engine, key, txn_id, ts, read_since)?;
    let intent = Intent { txn_id, ts, value: value.cloned() };
    let mut batch = WriteBatch::new();
    batch.put(intent_key(key), encode_intent(&intent));
    Ok(Applied::evaluate(engine, batch))
}

/// One-phase commit: applies every write of a transaction as a committed
/// version at `commit_ts`, as **one** batch — one WAL record, so a crash
/// keeps all of the transaction or none of it. No intents are written,
/// and therefore no transaction record: a record exists to settle
/// intents. The caller validated every key with [`check_write`] first.
pub fn commit_one_phase(
    engine: &Engine,
    commit_ts: Timestamp,
    writes: &[(&Bytes, Option<&Bytes>)],
) -> Applied {
    let mut batch = WriteBatch::new();
    for (key, value) in writes {
        batch.put(version_key(key, commit_ts), encode_value(*value));
    }
    Applied::evaluate(engine, batch)
}

fn newest_version_ts(engine: &Engine, key: &[u8]) -> Option<Timestamp> {
    engine
        .scan(&version_prefix(key), &versions_end(key), 1)
        .first()
        .and_then(|(k, _)| decode_version_key(k))
        .filter(|(user, _)| *user == key)
        .map(|(_, ts)| ts)
}

/// Resolves `txn_id`'s intent on `key`: commit promotes it to a version
/// at `commit_ts`; abort discards it. Resolution is idempotent, may race
/// with other resolvers, and is a no-op when the key's intent belongs to a
/// *different* transaction — without the ownership check, a failed
/// transaction's cleanup could delete a concurrent transaction's intent
/// and silently lose its committed write.
pub fn resolve_intent(
    engine: &Engine,
    key: &[u8],
    txn_id: u64,
    commit_ts: Option<Timestamp>,
) -> Option<Applied> {
    let intent = decode_intent(&engine.get(&intent_key(key))?)?;
    if intent.txn_id != txn_id {
        return None;
    }
    let mut batch = WriteBatch::new();
    batch.delete(intent_key(key));
    if let Some(ts) = commit_ts {
        batch.put(version_key(key, ts), encode_value(intent.value.as_ref()));
    }
    Some(Applied::evaluate(engine, batch))
}

/// Persists a transaction record.
pub fn put_txn_record(engine: &Engine, record: &TxnRecord) -> Applied {
    let mut batch = WriteBatch::new();
    batch.put(txn_key(record.txn_id), record.encode());
    Applied::evaluate(engine, batch)
}

/// Loads a transaction record.
pub fn get_txn_record(engine: &Engine, txn_id: u64) -> Option<TxnRecord> {
    engine.get(&txn_key(txn_id)).and_then(|raw| TxnRecord::decode(&raw))
}

/// The MVCC collector (see the module docs for its two call sites): a
/// filter shown entries in key order — per user key, versions newest
/// first — by a compaction job (`Lsm::finish_compaction`) or a replica's
/// active memtable (`Lsm::collect_in_memtable`). The first live
/// version at or below `horizon` is the newest one any supported read of
/// that key can return (its *cover*: a value or an MVCC delete marker);
/// every older version of the same user key is dropped. Versions above the
/// horizon, intents, transaction records and engine tombstones pass
/// through, and a tombstoned version is no cover — no read returns it.
///
/// The verdict needs nothing outside what it is shown: a cover it is not
/// shown drops nothing here, and a version dropped here may leave older
/// copies elsewhere — in lower levels, in frozen memtables — which the
/// same cover shadows for every read at or above the horizon until their
/// own compaction meets one.
pub fn compaction_gc(horizon: Timestamp) -> impl FnMut(&Bytes, Option<&Bytes>) -> bool {
    // Storage key of the cover the walk last passed.
    let mut cover = Bytes::new();
    move |storage_key, value| {
        let Some((prefix, ts)) = split_version_key(storage_key) else { return false };
        if value.is_none() || ts > horizon {
            return false;
        }
        if split_version_key(&cover).is_some_and(|(covered, _)| covered == prefix) {
            return true;
        }
        cover = storage_key.clone();
        false
    }
}

/// Validates that nothing in `[start, end)` changed after `since`:
/// returns `Err(ts)` if a committed version in `(since, until]` exists,
/// or if another transaction holds an intent in the span. `until` is the
/// newest timestamp a version may carry — a node passes its clock's
/// ceiling — and bounds the walk where keys extend one another through
/// a 0x00 byte. A commit's *read refresh*: run whenever the commit does
/// not happen at the timestamp its reads were served at.
pub fn refresh_span(
    engine: &Engine,
    start: &[u8],
    end: &[u8],
    since: Timestamp,
    until: Timestamp,
    own_txn: Option<u64>,
) -> Result<(), Timestamp> {
    // Foreign intents in the span are conflicts regardless of timestamp.
    // Both walks stream and stop at the first conflict instead of
    // materializing the span.
    let mut conflict: Option<Timestamp> = None;
    engine.scan_visit(&intent_key(start), &intent_key(end), |_, raw| {
        if let Some(intent) = decode_intent(raw) {
            if Some(intent.txn_id) != own_txn {
                conflict = Some(intent.ts);
                return false;
            }
        }
        true
    });
    if let Some(ts) = conflict {
        return Err(ts);
    }
    match find_version(engine, start, end, since, until) {
        Some(ts) => Err(ts),
        None => Ok(()),
    }
}

/// The timestamp of the first version, in storage order, of a user key in
/// `[start, end)` above `after` and at or below `until`. Streams, and
/// stops at the hit.
fn find_version(
    engine: &Engine,
    start: &[u8],
    end: &[u8],
    after: Timestamp,
    until: Timestamp,
) -> Option<Timestamp> {
    let window = |key: &[u8]| (version_key(key, until), version_key(key, after));
    let mut found = None;
    visit_versions(engine, (start, end), window, |k, _| {
        if let Some((user, vts)) = decode_version_key(k) {
            if user >= start && user < end && vts > after && vts <= until {
                found = Some(vts);
            }
        }
        found.is_none()
    });
    found
}

/// Whether garbage collection may already have taken what a read of
/// `[start, end)` at `read_ts` should return: some key of the span has a
/// version above `read_ts` that is at or below `horizon`, where it covers
/// — and so condemns — every older version of that key. "May": the
/// collectors run when they run, but from here on the read cannot be
/// trusted.
pub fn snapshot_collected(
    engine: &Engine,
    start: &[u8],
    end: &[u8],
    read_ts: Timestamp,
    horizon: Timestamp,
) -> bool {
    find_version(engine, start, end, read_ts, horizon).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnStatus;
    use crdb_storage::LsmConfig;

    fn engine() -> Engine {
        Engine::new(LsmConfig::tiny())
    }

    fn ts(wall: u64) -> Timestamp {
        Timestamp { wall, logical: 0 }
    }

    fn window() -> u64 {
        GC_WINDOW.as_nanos() as u64
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn versions_are_read_at_snapshot() {
        let e = engine();
        put_version(&e, b"k", ts(10), Some(&b("v10")));
        put_version(&e, b"k", ts(20), Some(&b("v20")));
        assert_eq!(get(&e, b"k", ts(5), None), ReadResult::Value(None));
        assert_eq!(get(&e, b"k", ts(10), None), ReadResult::Value(Some(b("v10"))));
        assert_eq!(get(&e, b"k", ts(15), None), ReadResult::Value(Some(b("v10"))));
        assert_eq!(get(&e, b"k", ts(25), None), ReadResult::Value(Some(b("v20"))));
    }

    #[test]
    fn delete_version_hides_value() {
        let e = engine();
        put_version(&e, b"k", ts(10), Some(&b("v")));
        put_version(&e, b"k", ts(20), None);
        assert_eq!(get(&e, b"k", ts(15), None), ReadResult::Value(Some(b("v"))));
        assert_eq!(get(&e, b"k", ts(25), None), ReadResult::Value(None));
    }

    #[test]
    fn intent_lifecycle_commit() {
        let e = engine();
        put_version(&e, b"k", ts(10), Some(&b("old")));
        write_intent(&e, b"k", 1, ts(20), ts(20), Some(&b("new"))).unwrap();
        // Foreign reader at ts>=20 sees the intent.
        match get(&e, b"k", ts(25), None) {
            ReadResult::Intent(i) => assert_eq!(i.txn_id, 1),
            other => panic!("expected intent, got {other:?}"),
        }
        // Reader below the intent timestamp reads around it.
        assert_eq!(get(&e, b"k", ts(15), None), ReadResult::Value(Some(b("old"))));
        // Own transaction reads its provisional value.
        assert_eq!(get(&e, b"k", ts(25), Some(1)), ReadResult::Value(Some(b("new"))));
        resolve_intent(&e, b"k", 1, Some(ts(30)));
        assert_eq!(get(&e, b"k", ts(35), None), ReadResult::Value(Some(b("new"))));
        assert_eq!(get(&e, b"k", ts(25), None), ReadResult::Value(Some(b("old"))));
    }

    #[test]
    fn intent_lifecycle_abort() {
        let e = engine();
        write_intent(&e, b"k", 1, ts(20), ts(20), Some(&b("doomed"))).unwrap();
        resolve_intent(&e, b"k", 1, None);
        assert_eq!(get(&e, b"k", ts(30), None), ReadResult::Value(None));
        // Idempotent.
        resolve_intent(&e, b"k", 1, None);
        // Wrong owner: no-op.
        write_intent(&e, b"k", 7, ts(40), ts(40), Some(&b("again"))).unwrap();
        resolve_intent(&e, b"k", 9, None);
        assert_eq!(get(&e, b"k", ts(50), Some(7)), ReadResult::Value(Some(b("again"))));
    }

    #[test]
    fn write_conflicts() {
        let e = engine();
        put_version(&e, b"k", ts(30), Some(&b("newer")));
        match write_intent(&e, b"k", 1, ts(20), ts(20), Some(&b("late"))) {
            Err(WriteConflict::WriteTooOld(t)) => assert_eq!(t, ts(30)),
            other => panic!("expected WriteTooOld, got {other:?}"),
        }
        write_intent(&e, b"other", 1, ts(40), ts(40), Some(&b("mine"))).unwrap();
        match write_intent(&e, b"other", 2, ts(50), ts(50), Some(&b("theirs"))) {
            Err(WriteConflict::Intent(i)) => assert_eq!(i.txn_id, 1),
            other => panic!("expected intent conflict, got {other:?}"),
        }
        // Rewriting one's own intent succeeds.
        write_intent(&e, b"other", 1, ts(45), ts(45), Some(&b("mine2"))).unwrap();
        assert_eq!(get(&e, b"other", ts(60), Some(1)), ReadResult::Value(Some(b("mine2"))));
    }

    #[test]
    fn one_phase_commit_is_one_wal_batch_with_no_record_and_no_intents() {
        let e = engine();
        put_version(&e, b"a", ts(10), Some(&b("old")));
        let before = e.metrics().wal_batches;
        assert_eq!(check_write(&e, b"a", 7, ts(30), ts(20)), Ok(()));
        assert_eq!(check_write(&e, b"b", 7, ts(30), ts(20)), Ok(()));
        let (ka, kb, va) = (b("a"), b("b"), b("new"));
        commit_one_phase(&e, ts(30), &[(&ka, Some(&va)), (&kb, None)]);
        assert_eq!(e.metrics().wal_batches, before + 1, "every write shares one WAL batch");
        // Nothing provisional was laid down, so nothing is there to settle
        // it: the engine holds versions and nothing else.
        assert_eq!(get_txn_record(&e, 7), None);
        let stored = e.scan(&[], &[0xff], usize::MAX);
        assert_eq!(stored.len(), 3, "{stored:?}");
        assert!(stored.iter().all(|(k, _)| k.first() == Some(&VERSION_TAG)), "{stored:?}");
        // Committed versions, visible to anyone from the commit timestamp
        // on and to no one below it.
        assert_eq!(get(&e, b"a", ts(35), None), ReadResult::Value(Some(b("new"))));
        assert_eq!(get(&e, b"a", ts(25), None), ReadResult::Value(Some(b("old"))));
        assert_eq!(get(&e, b"b", ts(35), None), ReadResult::Value(None));
        // A later writer whose snapshot predates the commit is too old.
        assert_eq!(
            check_write(&e, b"a", 8, ts(40), ts(20)),
            Err(WriteConflict::WriteTooOld(ts(30)))
        );
    }

    #[test]
    fn scan_merges_versions_and_skips_deletes() {
        let e = engine();
        for (k, t, v) in
            [("a", 10, Some("a1")), ("b", 10, Some("b1")), ("b", 20, None), ("c", 30, Some("c1"))]
        {
            put_version(&e, k.as_bytes(), ts(t), v.map(b).as_ref());
        }
        let (pairs, intents) = scan(&e, b"a", b"z", ts(25), 100, None);
        assert!(intents.is_empty());
        assert_eq!(pairs, vec![(b("a"), b("a1"))]);
        let (pairs, _) = scan(&e, b"a", b"z", ts(15), 100, None);
        assert_eq!(pairs.len(), 2, "b visible before its delete");
        let (pairs, _) = scan(&e, b"a", b"z", ts(35), 100, None);
        assert_eq!(pairs, vec![(b("a"), b("a1")), (b("c"), b("c1"))]);
    }

    #[test]
    fn scan_surfaces_foreign_intents_and_merges_own() {
        let e = engine();
        put_version(&e, b"a", ts(10), Some(&b("a1")));
        write_intent(&e, b"b", 7, ts(20), ts(20), Some(&b("mine"))).unwrap();
        write_intent(&e, b"c", 8, ts(20), ts(20), Some(&b("theirs"))).unwrap();
        let (pairs, intents) = scan(&e, b"a", b"z", ts(30), 100, Some(7));
        assert_eq!(pairs, vec![(b("a"), b("a1")), (b("b"), b("mine"))]);
        assert_eq!(intents.len(), 1);
        assert_eq!(intents[0].0, b("c"));
        assert_eq!(intents[0].1.txn_id, 8);
        // An own intent on a key with no committed version is a row like
        // any other under a limit, in key order, however many committed
        // keys after it would fill the limit.
        let e = engine();
        put_version(&e, b"b", ts(10), Some(&b("b1")));
        put_version(&e, b"c", ts(10), Some(&b("c1")));
        write_intent(&e, b"a", 7, ts(20), ts(20), Some(&b("mine"))).unwrap();
        let (pairs, _) = scan(&e, b"a", b"z", ts(30), 2, Some(7));
        assert_eq!(pairs, vec![(b("a"), b("mine")), (b("b"), b("b1"))]);
        let (pairs, _) = scan(&e, b"a", b"z", ts(30), 100, Some(7));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn scan_limit_applies_to_live_rows() {
        let e = engine();
        for i in 0..10u32 {
            put_version(&e, format!("k{i}").as_bytes(), ts(10), Some(&b("v")));
        }
        let (pairs, _) = scan(&e, b"k", b"l", ts(20), 3, None);
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, b("k0"));
    }

    #[test]
    fn txn_records_roundtrip() {
        let e = engine();
        let rec = TxnRecord { txn_id: 42, status: TxnStatus::Committed(ts(99)) };
        put_txn_record(&e, &rec);
        assert_eq!(get_txn_record(&e, 42), Some(rec));
        assert_eq!(get_txn_record(&e, 43), None);
    }

    #[test]
    fn truncated_encodings_decode_to_none_never_panic() {
        let stored = version_key(b"key", ts(10));
        assert_eq!(decode_version_key(&stored), Some((&b"key"[..], ts(10))));
        for cut in 0..stored.len() {
            assert_eq!(decode_version_key(&stored[..cut]), None, "version key cut at {cut}");
        }
        let intent = Intent { txn_id: 7, ts: ts(10), value: None };
        let stored = encode_intent(&intent);
        assert_eq!(decode_intent(&stored), Some(intent));
        for cut in 0..stored.len() {
            assert_eq!(decode_intent(&stored.slice(..cut)), None, "intent cut at {cut}");
        }
    }

    #[test]
    fn readable_user_keys_pass_over_history_below_the_horizon() {
        let e = engine();
        for t in [10, 20, 30, 40] {
            put_version(&e, b"a", ts(t), Some(&b("v")));
        }
        put_version(&e, b"b", ts(15), Some(&b("v")));
        put_version(&e, b"c", ts(50), Some(&b("v")));
        // At horizon 35 `a` weighs two versions (40, and 30 that covers
        // the rest), so the first three readable versions reach `b`.
        let sample =
            |start, end, horizon, limit| readable_user_keys(&e, start, end, horizon, ts(60), limit);
        assert_eq!(sample(b"a", b"z", ts(35), 3), vec![b("a"), b("b")]);
        assert_eq!(sample(b"a", b"z", ts(35), 9), vec![b("a"), b("b"), b("c")]);
        // With all of its history readable, `a` alone fills the sample.
        assert_eq!(sample(b"a", b"z", ts(0), 3), vec![b("a")]);
        // Span bounds are on user keys.
        assert_eq!(sample(b"b", b"c", ts(35), 9), vec![b("b")]);
    }

    #[test]
    fn a_walk_pulls_nothing_of_the_history_of_its_end_key() {
        let e = engine();
        put_version(&e, b"a", ts(10), Some(&b("v")));
        // `b` is where the span ends, and `b\x01` extends it: neither has
        // a version that the span could return.
        for t in 1..=50 {
            put_version(&e, b"b", ts(t), Some(&b("w")));
            put_version(&e, b"b\x01", ts(t), Some(&b("w")));
        }
        let pulled = |read: &dyn Fn()| {
            let before = e.metrics().scan_entries_pulled;
            read();
            e.metrics().scan_entries_pulled - before
        };
        let scanned = pulled(&|| {
            let (pairs, _) = scan(&e, b"a", b"b", ts(60), 10, None);
            assert_eq!(pairs, vec![(b("a"), b("v"))]);
        });
        assert_eq!(scanned, 1, "a scan short of its limit pulls `a`'s one version");
        let refreshed =
            pulled(&|| assert_eq!(refresh_span(&e, b"a", b"b", ts(5), ts(60), None), Err(ts(10))));
        assert_eq!(refreshed, 1, "a refresh stops at its hit");
        let checked = pulled(&|| assert!(!snapshot_collected(&e, b"a", b"b", ts(10), ts(60))));
        assert_eq!(checked, 1, "a snapshot check with nothing to find");
        let empty = pulled(&|| assert!(!span_is_empty(&e, b"a", b"b", ts(60))));
        assert_eq!(empty, 1);
    }

    #[test]
    fn a_span_that_ends_past_a_key_through_a_zero_byte_reaches_its_versions() {
        let e = engine();
        put_version(&e, b"k", ts(10), Some(&b("v")));
        // `k\0\x01` lies past both ends: what the walk passes to reach
        // `k`'s versions is left out by key.
        put_version(&e, b"k\0\x01", ts(10), Some(&b("w")));
        for end in [&b"k\0"[..], b"k\0\0"] {
            let (pairs, _) = scan(&e, b"k", end, ts(20), 10, None);
            assert_eq!(pairs, vec![(b("k"), b("v"))], "scan to {end:?}");
            let refreshed = refresh_span(&e, b"k", end, ts(5), ts(20), None);
            assert_eq!(refreshed, Err(ts(10)), "refresh to {end:?}");
            assert!(snapshot_collected(&e, b"k", end, ts(5), ts(15)), "collected to {end:?}");
            assert!(!snapshot_collected(&e, b"k", end, ts(10), ts(15)), "nothing above 10");
            assert!(!span_is_empty(&e, b"k", end, ts(20)), "empty to {end:?}");
            let sample = readable_user_keys(&e, b"k", end, ts(0), ts(20), 10);
            assert_eq!(sample, vec![b("k")], "sample to {end:?}");
        }
        assert!(span_is_empty(&e, b"k\0\0", b"k\0\x01", ts(20)), "nothing between the two keys");
        // `k\0`'s versions sort before `k`'s: the reply is in key order,
        // and a limit keeps the keys that come first in it.
        put_version(&e, b"k\0", ts(10), Some(&b("x")));
        let (pairs, _) = scan(&e, b"k", b"k\0\0", ts(20), 10, None);
        assert_eq!(pairs, vec![(b("k"), b("v")), (b("k\0"), b("x"))]);
        let (pairs, _) = scan(&e, b"k", b"k\0\0", ts(20), 1, None);
        assert_eq!(pairs, vec![(b("k"), b("v"))]);
        // An `end` whose rest sorts between `k`'s versions: 30 sorts before
        // `'v' + end`, 20 and 10 after it. At horizon 25 the sample weighs
        // them in storage order, after `k\0\x01`'s, so 30 counts, 20 covers
        // and 10 is collected.
        let e = engine();
        for t in [10, 20, 30] {
            put_version(&e, b"k", ts(t), Some(&b("v")));
        }
        put_version(&e, b"k\0\x01", ts(10), Some(&b("w")));
        let end = b"k\0\xff\xff\xff\xff\xff\xff\xff\xe5";
        let sample = |limit| readable_user_keys(&e, b"k", end, ts(25), ts(40), limit);
        assert_eq!(sample(1), vec![b("k\0\x01")]);
        assert_eq!(sample(3), vec![b("k"), b("k\0\x01")]);
        // A span past `k` walks by `k`'s newest versions, which are not its.
        assert!(span_is_empty(&e, b"k\0\x02", end, ts(40)));
        // Inside the span, `k\0\0`'s versions come first, then `k\0`'s,
        // then `k`'s: past the limit the walk goes on through the keys an
        // emitted one extends, and the reply keeps those first by key.
        let e = engine();
        for key in [&b"k"[..], b"k\0", b"k\0\0", b"l"] {
            put_version(&e, key, ts(10), Some(&b("v")));
        }
        for limit in 1..=3 {
            let (pairs, _) = scan(&e, b"k", b"l", ts(20), limit, None);
            let keys: Vec<Bytes> = pairs.into_iter().map(|(k, _)| k).collect();
            let want = [b("k"), b("k\0"), b("k\0\0")];
            assert_eq!(keys, want.get(..limit).unwrap_or_default(), "limit {limit}");
        }
    }

    #[test]
    fn a_snapshot_is_collected_once_a_newer_version_passes_the_horizon() {
        let e = engine();
        put_version(&e, b"a", ts(10), Some(&b("v10")));
        put_version(&e, b"a", ts(30), Some(&b("v30")));
        put_version(&e, b"b", ts(10), Some(&b("v10")));
        // `a` at 20 should read v10, which v30 covers from horizon 30 on.
        assert!(!snapshot_collected(&e, b"a", b"a\0", ts(20), ts(29)));
        assert!(snapshot_collected(&e, b"a", b"a\0", ts(20), ts(30)));
        assert!(snapshot_collected(&e, b"a", b"z", ts(20), ts(40)), "one key condemns the span");
        // A read that already sees the cover loses nothing, nor does one
        // of a key never overwritten, nor any read at or above the horizon.
        assert!(!snapshot_collected(&e, b"a", b"a\0", ts(30), ts(40)));
        assert!(!snapshot_collected(&e, b"b", b"z", ts(20), ts(40)), "not written since");
        assert!(!snapshot_collected(&e, b"a", b"z", ts(40), ts(40)));
        // It is a promise about what GC may do, and GC does it: the next
        // write of `a` a window later removes v10 from the memtable.
        put_version(&e, b"a", ts(30 + window()), Some(&b("later")));
        assert_eq!(get(&e, b"a", ts(20), None), ReadResult::Value(None), "silently wrong");
    }

    #[test]
    fn gc_drops_old_versions_but_keeps_snapshot() {
        let e = engine();
        for t in [10, 20, 30, 40] {
            put_version(&e, b"k", ts(t), Some(&b(&format!("v{t}"))));
        }
        // A write a window past 25 collects what no read at or above 25
        // can return.
        put_version(&e, b"k", ts(25 + window()), Some(&b("later")));
        assert_eq!(e.metrics().gc_versions_dropped, 1);
        // Reads at >= 20 still work; reads below 20 lost history.
        assert_eq!(get(&e, b"k", ts(25), None), ReadResult::Value(Some(b("v20"))));
        assert_eq!(get(&e, b"k", ts(45), None), ReadResult::Value(Some(b("v40"))));
        assert_eq!(get(&e, b"k", ts(15), None), ReadResult::Value(None));
    }
}
