//! The timestamp cache: high-water marks of read timestamps over key
//! spans.
//!
//! A write whose timestamp is at or below the read watermark of its key
//! must not land there: some read at that timestamp already answered
//! without it. Every read marks the span it *examined* — a point read its
//! key, a scan its whole span (cut at its resume key when its limit
//! stopped it) — whether or not anything was found there, so a row that
//! appears beneath a finished scan is refused like one that changes
//! beneath a finished get. A one-phase commit uses the watermark to pick
//! its commit timestamp (`kv::node`).
//!
//! The cache is a ratcheting map of non-overlapping `[start, end)`
//! pieces: marking a span raises every part of it to at least the new
//! timestamp, and runs of equal marks merge into one piece, so a table
//! scan over ten thousand point pieces leaves one. A piece holds the
//! buffers of the keys that bound it, and a point — most pieces — holds
//! its key alone: its end is "just after the key" and allocates nothing.
//!
//! Memory is bounded the way CockroachDB bounds it, with a **low-water
//! mark**: a mark is kept under its span for at least [`RETENTION`] (and
//! less than two) after the span was last raised, then folded into one
//! floor that answers for every key the pieces do not cover. The floor is
//! therefore always at least `RETENTION` stale. No live transaction is
//! older than that ([`TXN_ABANDON_TIMEOUT`](crate::timing::TXN_ABANDON_TIMEOUT):
//! past it, pushers abort it), so the floor never rejects a write a piece
//! would have let through.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

use bytes::Bytes;
use crdb_util::time::SimTime;

use crate::hlc::Timestamp;
use crate::timing::TS_CACHE_RETENTION as RETENTION;

/// A position in key order: a key itself, or the position just after it
/// (`key + 0x00`, the least key greater than it), kept as the key it
/// follows so that it costs no allocation.
#[derive(Clone, Debug)]
pub(crate) enum Bound {
    At(Bytes),
    After(Bytes),
}

/// A [`Bound`] borrowed apart: the key, and whether it is the position
/// just after it.
type Parts<'a> = (&'a [u8], bool);

fn cmp_parts((a, a_after): Parts, (b, b_after): Parts) -> Ordering {
    // `a` against `b + 0x00`: as against `b` while `a` is the shorter,
    // else `a`'s head against `b`, then its tail against the `0x00`.
    fn against_after(a: &[u8], b: &[u8]) -> Ordering {
        match a.split_at_checked(b.len()) {
            Some((head, tail)) => head.cmp(b).then_with(|| tail.cmp([0x00].as_slice())),
            None => a.cmp(b),
        }
    }
    match (a_after, b_after) {
        (false, false) | (true, true) => a.cmp(b),
        (false, true) => against_after(a, b),
        (true, false) => against_after(b, a).reverse(),
    }
}

impl Bound {
    /// The exclusive end of a span `[start, end)`: just after `start`
    /// when the span holds that one key.
    pub(crate) fn end_of(start: &Bytes, end: &Bytes) -> Bound {
        if cmp_parts((end, false), (start, true)).is_eq() {
            Bound::After(start.clone())
        } else {
            Bound::At(end.clone())
        }
    }

    fn parts(&self) -> Parts<'_> {
        match self {
            Bound::At(k) => (k, false),
            Bound::After(k) => (k, true),
        }
    }

    /// The key at this position — allocated, for a position just after
    /// a key.
    fn into_key(self) -> Bytes {
        match self {
            Bound::At(k) => k,
            Bound::After(k) => Bytes::from([k.as_ref(), &[0x00]].concat()),
        }
    }
}

impl Ord for Bound {
    fn cmp(&self, other: &Bound) -> Ordering {
        cmp_parts(self.parts(), other.parts())
    }
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Bound) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Bound {
    fn eq(&self, other: &Bound) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Bound {}

/// One piece, keyed by its start: its end, its watermark, and the
/// generation it was last raised in. Twenty-four bytes — the watermark
/// flat beside the generation, a point's end implied.
struct Piece {
    /// `None`: the piece is the one key it starts at.
    end: Option<Box<Bound>>,
    wall: u64,
    logical: u32,
    generation: u32,
}

impl Piece {
    fn read_ts(&self) -> Timestamp {
        Timestamp { wall: self.wall, logical: self.logical }
    }

    fn end_parts<'a>(&'a self, start: &'a [u8]) -> Parts<'a> {
        self.end.as_ref().map_or((start, true), |end| end.parts())
    }

    fn end(&self, start: &Bytes) -> Bound {
        self.end.as_ref().map_or_else(|| Bound::After(start.clone()), |end| (**end).clone())
    }
}

/// Span read watermarks over a floor, aged in generations `RETENTION`
/// long: every raise stamps the raised part with the current generation,
/// and when a generation ends, the pieces last raised *before the one
/// that is ending* — not raised for at least `RETENTION` — fold into
/// `floor`.
pub(crate) struct TsCache {
    /// Non-overlapping pieces by start.
    pieces: BTreeMap<Bytes, Piece>,
    generation: u32,
    /// When the current generation began.
    generation_since: SimTime,
    /// Answers for everything the pieces do not: the newest timestamp
    /// among the pieces already folded away, or what a node that lost its
    /// cache must assume was read.
    floor: Timestamp,
}

impl TsCache {
    /// An empty cache at `now`, under `floor`: zero for a node that never
    /// served a read, the restart time for one that lost its cache.
    pub(crate) fn new(now: SimTime, floor: Timestamp) -> TsCache {
        TsCache { pieces: BTreeMap::new(), generation: 0, generation_since: now, floor }
    }

    /// Records a read of the one key `key` at `read_ts`, made at `now`.
    pub(crate) fn record_read(&mut self, now: SimTime, key: &Bytes, read_ts: Timestamp) {
        self.record_span(now, key, Bound::After(key.clone()), read_ts);
    }

    /// Records a read of every key from `start` up to `end` at `ts`, made
    /// at `now`: each part of the span ends up marked at least `ts`.
    pub(crate) fn record_span(&mut self, now: SimTime, start: &Bytes, end: Bound, ts: Timestamp) {
        self.age(now);
        if ts <= self.floor || cmp_parts((start, false), end.parts()).is_ge() {
            return;
        }
        self.lay(start, end, ts);
    }

    /// Lays `[start, end)` at `ts` over the pieces: each part of it ends up
    /// marked at least `ts`, and equal marks merge.
    fn lay(&mut self, start: &Bytes, end: Bound, ts: Timestamp) {
        // The pieces the span overlaps, walked back from its end to the one
        // it starts in, and the piece that ends where it starts, if any. If
        // they cover it without a gap, all marked at least `ts`, this is a
        // re-read and nothing changes.
        let before_end = match &end {
            Bound::At(e) => self.pieces.range::<Bytes, _>(..e),
            Bound::After(e) => self.pieces.range::<Bytes, _>(..=e),
        };
        let (mut overlapped, mut left): (Vec<Bytes>, _) = (Vec::new(), None);
        let (mut covered, mut cursor) = (true, end.parts());
        for (key, piece) in before_end.rev() {
            let piece_end = piece.end_parts(key);
            match cmp_parts(piece_end, (start, false)) {
                Ordering::Greater => {}
                Ordering::Equal => {
                    left = Some((key.clone(), piece.read_ts()));
                    break;
                }
                Ordering::Less => break,
            }
            covered &= cmp_parts(piece_end, cursor).is_ge() && piece.read_ts() >= ts;
            cursor = (key, false);
            overlapped.push(key.clone());
        }
        if covered && cmp_parts(cursor, (start, false)).is_le() {
            return;
        }

        // Lay the span over them, left to right: what lies outside it
        // keeps its mark, what lies inside is raised to `ts` where it was
        // lower, and equal marks merge as they are laid.
        let generation = self.generation;
        let from = Bound::At(start.clone());
        let mut laid = Run::default();
        let mut cursor = from.clone();
        for key in overlapped.into_iter().rev() {
            let Some(piece) = self.pieces.remove(&key) else { continue };
            let (piece_end, mark, gen) = (piece.end(&key), piece.read_ts(), piece.generation);
            let piece_start = Bound::At(key);
            if piece_start < from {
                laid.push(piece_start.clone(), from.clone(), mark, gen);
            } else if cursor < piece_start {
                laid.push(cursor, piece_start.clone(), ts, generation);
            }
            let inside = (piece_start.max(from.clone()), piece_end.clone().min(end.clone()));
            let raised = if mark >= ts { (mark, gen) } else { (ts, generation) };
            laid.push(inside.0, inside.1.clone(), raised.0, raised.1);
            cursor = inside.1;
            if piece_end > end {
                laid.push(end.clone(), piece_end, mark, gen);
            }
        }
        if cursor < end {
            laid.push(cursor, end.clone(), ts, generation);
        }

        // Where the span's first or last part was laid at its own bound, it
        // may touch a piece outside marked alike: merge with it.
        let mut laid = laid.0;
        if let (Some((left_start, mark)), Some(first)) = (left, laid.first_mut()) {
            if first.start == from && first.mark == mark {
                if let Some(piece) = self.pieces.remove(&left_start) {
                    first.start = Bound::At(left_start);
                    first.generation = first.generation.max(piece.generation);
                }
            }
        }
        if let Some(last) = laid.last_mut().filter(|last| last.end == end) {
            let right = match &end {
                Bound::At(e) => self.pieces.range::<Bytes, _>(e..).next(),
                Bound::After(e) => self.pieces.range::<Bytes, _>((Excluded(e), Unbounded)).next(),
            };
            let touching = right.filter(|(right_start, right)| {
                cmp_parts((right_start, false), end.parts()).is_eq() && right.read_ts() == last.mark
            });
            if let Some(right_start) = touching.map(|(right_start, _)| right_start.clone()) {
                if let Some(piece) = self.pieces.remove(&right_start) {
                    last.end = piece.end(&right_start);
                    last.generation = last.generation.max(piece.generation);
                }
            }
        }
        laid.into_iter().for_each(|piece| self.insert(piece));
    }

    /// Inserts a piece that overlaps none.
    fn insert(&mut self, Laid { start, end, mark, generation }: Laid) {
        let start = start.into_key();
        let point = cmp_parts(end.parts(), (&start, true)).is_eq();
        let end = (!point).then(|| Box::new(end));
        let piece = Piece { end, wall: mark.wall, logical: mark.logical, generation };
        self.pieces.insert(start, piece);
    }

    /// Ends the current generation if it has lasted `RETENTION`, folding
    /// the pieces not raised in it into the floor.
    fn age(&mut self, now: SimTime) {
        if now.duration_since(self.generation_since) < RETENTION {
            return;
        }
        let (ending, floor) = (self.generation, &mut self.floor);
        self.pieces.retain(|_, piece| {
            let keep = piece.generation == ending;
            if !keep {
                *floor = (*floor).max(piece.read_ts());
            }
            keep
        });
        self.generation += 1;
        self.generation_since = now;
    }

    /// The newest timestamp `key` may have been read at: a write at or
    /// below it must not land.
    pub(crate) fn read_watermark(&self, key: &[u8]) -> Timestamp {
        let piece = self
            .pieces
            .range::<[u8], _>((Unbounded, Included(key)))
            .next_back()
            .filter(|(start, piece)| cmp_parts((key, false), piece.end_parts(start)).is_lt());
        piece.map_or(Timestamp::ZERO, |(_, p)| p.read_ts()).max(self.floor)
    }
}

/// A piece being laid, before it goes into the map.
struct Laid {
    start: Bound,
    end: Bound,
    mark: Timestamp,
    generation: u32,
}

/// Pieces laid left to right, each starting where the last one ended; a
/// piece with the last one's mark extends it instead.
#[derive(Default)]
struct Run(Vec<Laid>);

impl Run {
    fn push(&mut self, start: Bound, end: Bound, mark: Timestamp, generation: u32) {
        if start >= end {
            return;
        }
        match self.0.last_mut() {
            Some(last) if last.mark == mark => {
                last.end = end;
                last.generation = last.generation.max(generation);
            }
            _ => self.0.push(Laid { start, end, mark, generation }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("k{i:06}"))
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    fn span(start: u64, end: u64) -> (Bytes, Bound) {
        (key(start), Bound::At(key(end)))
    }

    #[test]
    fn a_retained_read_rejects_at_its_own_timestamp_and_no_higher() {
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
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
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
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
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
        for now in 1..=50 {
            for k in 0..100 {
                cache.record_read(at(now), &key(k), Timestamp::at(at(now)));
            }
            assert_eq!(cache.pieces.len(), 100, "at {now} s");
        }
        // Nothing ever aged out, so nothing reached the floor, and every
        // key still answers with its own newest read.
        assert_eq!(cache.floor, Timestamp::ZERO);
        assert_eq!(cache.read_watermark(&key(7)), Timestamp::at(at(50)));
    }

    #[test]
    fn size_is_bounded_by_the_reads_of_two_retentions() {
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
        let per_retention = 1_000u64;
        let step = RETENTION / per_retention as u32;
        let mut now = at(0);
        for i in 0..10 * per_retention {
            now = now.saturating_add(step);
            cache.record_read(now, &key(i), Timestamp::at(now));
            let held = cache.pieces.len();
            assert!(held as u64 <= 2 * per_retention, "{held} entries after {i} reads");
        }
        // What rotated out still rejects, through the floor.
        assert!(cache.read_watermark(&key(0)) >= Timestamp::at(at(0).saturating_add(step)));
    }

    #[test]
    fn a_span_covers_keys_nobody_returned_and_ends_where_it_ends() {
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
        let ts = Timestamp::at(at(1));
        let (start, end) = span(10, 20);
        cache.record_span(at(1), &start, end, ts);
        for (k, expect) in
            [(9, Timestamp::ZERO), (10, ts), (15, ts), (19, ts), (20, Timestamp::ZERO)]
        {
            assert_eq!(cache.read_watermark(&key(k)), expect, "key {k}");
        }
        // Between a key and the least key after it there is nothing: a
        // span `[k, k + 0x00)` is the point `k`.
        let k = key(30);
        let mut successor = k.to_vec();
        successor.push(0x00);
        let end = Bound::end_of(&k, &Bytes::from(successor));
        assert!(matches!(end, Bound::After(_)));
        cache.record_span(at(1), &k, end, ts);
        assert_eq!(cache.read_watermark(&k), ts);
        let mut longer = k.to_vec();
        longer.extend_from_slice(&[0x00, 0x00]);
        assert_eq!(cache.read_watermark(&Bytes::from(longer)), Timestamp::ZERO);
    }

    #[test]
    fn a_point_read_allocates_no_end_key() {
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
        let keys: Vec<Bytes> = (0..100).map(key).collect();
        for k in &keys[..50] {
            cache.record_read(at(1), k, Timestamp::at(at(1)));
        }
        // A point given as the span `[k, k + 0x00)` is the same point.
        for k in &keys[50..] {
            let end = Bound::end_of(k, &Bytes::from([k.as_ref(), &[0x00]].concat()));
            cache.record_span(at(1), k, end, Timestamp::at(at(1)));
        }
        assert_eq!(cache.pieces.len(), keys.len());
        for (k, (start, piece)) in keys.iter().zip(&cache.pieces) {
            // The piece is keyed by the caller's buffer and holds no end.
            assert_eq!(start.as_ptr(), k.as_ptr());
            assert!(piece.end.is_none(), "a point piece is [k, after k): {start:?}");
        }
    }

    #[test]
    fn a_table_scan_over_point_pieces_leaves_one_piece() {
        let mut cache = TsCache::new(at(0), Timestamp::ZERO);
        for i in 0..10_000u64 {
            let read_ts = Timestamp { wall: at(1).as_nanos(), logical: i as u32 % 7 };
            cache.record_read(at(1), &key(i), read_ts);
        }
        assert_eq!(cache.pieces.len(), 10_000);
        let scanned = Timestamp::at(at(2));
        let (start, end) = span(0, 10_000);
        cache.record_span(at(2), &start, end, scanned);
        assert_eq!(cache.pieces.len(), 1);
        // Read again below its mark, or over part of it: nothing changes.
        let (start, end) = span(5, 50);
        cache.record_span(at(3), &start, end, Timestamp::at(at(1)));
        assert_eq!(cache.pieces.len(), 1);
        // Spans marked alike merge with the piece they touch, on either
        // side: the batch that scanned the table also scans what follows.
        for (first, last) in [(10_000, 20_000), (30_000, 40_000), (20_000, 30_000)] {
            let (start, end) = span(first, last);
            cache.record_span(at(2), &start, end, scanned);
        }
        assert_eq!(cache.pieces.len(), 1);
        // A newer read inside it cuts it in three.
        cache.record_read(at(3), &key(70), Timestamp::at(at(3)));
        assert_eq!(cache.pieces.len(), 3);
        assert_eq!(cache.read_watermark(&key(69)), scanned);
        assert_eq!(cache.read_watermark(&key(70)), Timestamp::at(at(3)));
        assert_eq!(cache.read_watermark(&key(71)), scanned);
        assert_eq!(cache.read_watermark(&key(39_999)), scanned);
    }

    /// What a read recorded: its span (`end == None`: the point `start`),
    /// its timestamp, and when it was made.
    struct Read {
        start: Bytes,
        end: Option<Bytes>,
        ts: Timestamp,
        made: SimTime,
    }

    impl Read {
        fn covers(&self, k: &Bytes) -> bool {
            match &self.end {
                None => *k == self.start,
                Some(end) => self.start <= *k && k < end,
            }
        }
    }

    /// The cache against a list of every read it was told about, under
    /// random points, spans, lookups and rotations. It may answer for a
    /// key with nothing below the newest read covering it (that would let
    /// a write land beneath a read), and with nothing above it but the
    /// newest read made at least `RETENTION` ago (the floor's staleness).
    #[test]
    fn span_cache_matches_a_list_of_reads() {
        let keyspace = 120u64;
        // Every key the reads can bound, and the key just after each.
        let probes: Vec<Bytes> = (0..=keyspace + 12)
            .flat_map(|i| {
                let mut successor = key(i).to_vec();
                successor.push(0x00);
                [key(i), Bytes::from(successor)]
            })
            .collect();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cache = TsCache::new(at(0), Timestamp::ZERO);
            let mut reads: Vec<Read> = Vec::new();
            // Per probe, the newest read covering it.
            let mut exact = vec![Timestamp::ZERO; probes.len()];
            // The newest read made at least `RETENTION` ago, and how many
            // reads are that old.
            let (mut stale, mut aged) = (Timestamp::ZERO, 0usize);
            let mut now = at(0);
            for step in 0..3_000u32 {
                now = now.saturating_add(dur::ms(rng.gen_range(0..40)));
                // Timestamps run a little behind the clock, unordered.
                let lag = dur::ms(rng.gen_range(0..3_000));
                let ts = Timestamp::at(SimTime::from_nanos(
                    now.as_nanos().saturating_sub(lag.as_nanos() as u64),
                ));
                let first = rng.gen_range(0..keyspace);
                let a = key(first);
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        cache.record_read(now, &a, ts);
                        reads.push(Read { start: a, end: None, ts, made: now });
                    }
                    2 => {
                        // Mostly short spans, now and then a table scan.
                        let width = if rng.gen_range(0..20) == 0 { keyspace } else { 12 };
                        let b = key(first + rng.gen_range(0..=width));
                        let end = Bound::end_of(&a, &b);
                        cache.record_span(now, &a, end, ts);
                        reads.push(Read { start: a, end: Some(b), ts, made: now });
                    }
                    _ => {
                        // A point given as a span: `[a, a + 0x00)`.
                        let mut successor = a.to_vec();
                        successor.push(0x00);
                        let end = Bound::end_of(&a, &Bytes::from(successor));
                        cache.record_span(now, &a, end, ts);
                        reads.push(Read { start: a, end: None, ts, made: now });
                    }
                }
                if let Some(read) = reads.last() {
                    for (probe, newest) in probes.iter().zip(exact.iter_mut()) {
                        if read.covers(probe) {
                            *newest = (*newest).max(read.ts);
                        }
                    }
                }
                // Reads are listed in the order they were made.
                while reads.get(aged).is_some_and(|r| r.made.saturating_add(RETENTION) <= now) {
                    stale = stale.max(reads[aged].ts);
                    aged += 1;
                }
                let looked_up: Vec<usize> = if step % 100 == 0 {
                    (0..probes.len()).collect()
                } else {
                    (0..6).map(|_| rng.gen_range(0..probes.len())).collect()
                };
                for i in looked_up {
                    let got = cache.read_watermark(&probes[i]);
                    assert!(
                        exact[i] <= got && got <= exact[i].max(stale),
                        "seed {seed} step {step} key {:?}: {got} against exact {}, stale {stale}",
                        probes[i],
                        exact[i]
                    );
                }
                // Pieces never overlap.
                let pieces: Vec<(&Bytes, &Piece)> = cache.pieces.iter().collect();
                for pair in pieces.windows(2) {
                    let ((left_start, left), (right_start, _)) = (pair[0], pair[1]);
                    let order = cmp_parts(left.end_parts(left_start), (right_start, false));
                    assert!(order.is_le(), "seed {seed} step {step}: overlap");
                }
            }
            assert!(cache.floor > Timestamp::ZERO, "seed {seed}: rotations happened");
        }
    }
}
