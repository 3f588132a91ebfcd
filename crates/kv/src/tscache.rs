//! The timestamp cache: per-key high-water marks of read timestamps.
//!
//! A write whose timestamp is at or below a key's read watermark is
//! rejected (retryably) — without this, a commit whose timestamp was
//! assigned before its intents physically land could invalidate a
//! concurrent reader's snapshot.
//!
//! Memory is bounded the way CockroachDB bounds it, with a **low-water
//! mark**: a read is kept under its key for at least [`RETENTION`] (and
//! less than two) after the key was last read, then folded into one floor
//! that answers for every key not in the cache. The floor is therefore
//! always at least `RETENTION` stale. No live transaction is older than
//! that ([`TXN_ABANDON_TIMEOUT`](crate::timing::TXN_ABANDON_TIMEOUT): past
//! it, pushers abort it), so the floor never rejects a write a per-key
//! entry would have let through.

use std::collections::BTreeMap;

use bytes::Bytes;
use crdb_util::time::SimTime;

use crate::hlc::Timestamp;
use crate::timing::TS_CACHE_RETENTION as RETENTION;

/// One key's watermark and the generation it was last read in. (Flat, not
/// a `Timestamp` beside a counter: sixteen bytes, what the timestamp alone
/// would take.)
struct Mark {
    wall: u64,
    logical: u32,
    generation: u32,
}

impl Mark {
    fn new(read_ts: Timestamp, generation: u32) -> Mark {
        Mark { wall: read_ts.wall, logical: read_ts.logical, generation }
    }

    fn read_ts(&self) -> Timestamp {
        Timestamp { wall: self.wall, logical: self.logical }
    }
}

/// Per-key read watermarks over a floor, aged in generations `RETENTION`
/// long: every read stamps its key's entry with the current generation,
/// and when a generation ends, the entries last read *before the one that
/// is ending* — not read for at least `RETENTION` — fold into `floor`.
pub(crate) struct TsCache {
    marks: BTreeMap<Bytes, Mark>,
    generation: u32,
    /// When the current generation began.
    generation_since: SimTime,
    /// The newest read timestamp among the entries already folded away.
    floor: Timestamp,
}

impl TsCache {
    pub(crate) fn new(now: SimTime) -> TsCache {
        TsCache {
            marks: BTreeMap::new(),
            generation: 0,
            generation_since: now,
            floor: Timestamp::ZERO,
        }
    }

    /// Records a read of `key` at `read_ts`, made at `now`.
    pub(crate) fn record_read(&mut self, now: SimTime, key: &Bytes, read_ts: Timestamp) {
        if now.duration_since(self.generation_since) >= RETENTION {
            let (ending, floor) = (self.generation, &mut self.floor);
            self.marks.retain(|_, mark| {
                let keep = mark.generation == ending;
                if !keep {
                    *floor = (*floor).max(mark.read_ts());
                }
                keep
            });
            self.generation += 1;
            self.generation_since = now;
        }
        let generation = self.generation;
        match self.marks.get_mut(key) {
            Some(mark) => *mark = Mark::new(mark.read_ts().max(read_ts), generation),
            None => {
                self.marks.insert(key.clone(), Mark::new(read_ts, generation));
            }
        }
    }

    /// The newest timestamp `key` may have been read at: a write at or
    /// below it must not land.
    pub(crate) fn read_watermark(&self, key: &Bytes) -> Timestamp {
        self.marks.get(key).map_or(Timestamp::ZERO, Mark::read_ts).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("k{i:06}"))
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn a_retained_read_rejects_at_its_own_timestamp_and_no_higher() {
        let mut cache = TsCache::new(at(0));
        let read_ts = Timestamp::at(at(3));
        cache.record_read(at(3), &key(1), read_ts);
        // A lower read of the same key does not lower the mark.
        cache.record_read(at(4), &key(1), Timestamp::at(at(2)));
        // Through a rotation and up to the next one the entry answers for
        // its key exactly; other keys see nothing.
        for now in [4, 9, 10, 15, 19] {
            cache.record_read(at(now), &key(2), Timestamp::ZERO);
            assert_eq!(cache.read_watermark(&key(1)), read_ts, "at {now} s");
            assert_eq!(cache.read_watermark(&key(3)), Timestamp::ZERO, "at {now} s");
        }
    }

    #[test]
    fn the_floor_is_never_fresher_than_the_retention() {
        // A read every 10 ms at the current time, over distinct keys: the
        // worst case for the old clear-at-100,000 cliff, which raised the
        // floor to the newest read and failed every commit in flight.
        let mut cache = TsCache::new(at(0));
        let step = dur::ms(10);
        let mut now = at(0);
        for i in 0..20_000u64 {
            now = now.saturating_add(step);
            cache.record_read(now, &key(i), Timestamp::at(now));
            let unread = cache.read_watermark(&key(u64::MAX));
            assert!(
                unread == Timestamp::ZERO || unread.to_sim_time().saturating_add(RETENTION) <= now,
                "floor {unread} at {now:?}: a commit timestamp taken inside the last \
                 {RETENTION:?} was rejected on a key nobody read"
            );
        }
        assert!(cache.floor > Timestamp::ZERO, "generations rotated into the floor");
    }

    #[test]
    fn a_working_set_read_again_and_again_is_held_once() {
        let mut cache = TsCache::new(at(0));
        for now in 1..=50 {
            for k in 0..100 {
                cache.record_read(at(now), &key(k), Timestamp::at(at(now)));
            }
            assert_eq!(cache.marks.len(), 100, "at {now} s");
        }
        // Nothing ever aged out, so nothing reached the floor, and every
        // key still answers with its own newest read.
        assert_eq!(cache.floor, Timestamp::ZERO);
        assert_eq!(cache.read_watermark(&key(7)), Timestamp::at(at(50)));
    }

    #[test]
    fn size_is_bounded_by_the_reads_of_two_retentions() {
        let mut cache = TsCache::new(at(0));
        let per_retention = 1_000u64;
        let step = RETENTION / per_retention as u32;
        let mut now = at(0);
        for i in 0..10 * per_retention {
            now = now.saturating_add(step);
            cache.record_read(now, &key(i), Timestamp::at(now));
            let held = cache.marks.len();
            assert!(held as u64 <= 2 * per_retention, "{held} entries after {i} reads");
        }
        // What rotated out still rejects, through the floor.
        assert!(cache.read_watermark(&key(0)) >= Timestamp::at(at(0).saturating_add(step)));
    }
}
