//! Row ↔ KV encoding.
//!
//! The SQL layer "translates \[tables\] into key-value pairs for persistence
//! and distribution" (§3.1). Layout (all inside the tenant's keyspace
//! segment — the tenant prefix is added by the KV client, not here):
//!
//! ```text
//! primary row:  tbl/<table_id>/<index 1>/<pk datums…>    -> value datums
//! index entry:  tbl/<table_id>/<index_id>/<idx datums…>/<pk datums…> -> ()
//! ```
//!
//! Datum key encoding is order-preserving so that PK range constraints
//! become KV spans.

use bytes::{BufMut, Bytes, BytesMut};
use crdb_kv::keys as kvkeys;

use crate::schema::{TableDescriptor, PRIMARY_INDEX_ID};
use crate::value::{Datum, Row};

const TYPE_NULL: u8 = 0x00;
const TYPE_INT: u8 = 0x01;
const TYPE_FLOAT: u8 = 0x02;
const TYPE_STR: u8 = 0x03;
const TYPE_BOOL: u8 = 0x04;

/// Appends an order-preserving encoding of one datum to a key.
pub fn encode_key_datum(b: &mut BytesMut, d: &Datum) {
    match d {
        Datum::Null => b.put_u8(TYPE_NULL),
        Datum::Int(i) => {
            b.put_u8(TYPE_INT);
            // Flip the sign bit so negative ints sort before positive.
            b.put_u64((*i as u64) ^ (1 << 63));
        }
        Datum::Float(f) => {
            b.put_u8(TYPE_FLOAT);
            // IEEE-754 total-order trick, keyed on the sign *bit*, not on
            // `>= 0.0`: `-0.0` passes that test with the bit set, and its
            // key would decode as NaN. It is stored as `0.0`, its SQL
            // equal, so both find the same row.
            let bits = if *f == 0.0 { 0 } else { f.to_bits() };
            let key = if bits >> 63 == 0 { bits ^ (1 << 63) } else { !bits };
            b.put_u64(key);
        }
        Datum::Str(s) => {
            b.put_u8(TYPE_STR);
            kvkeys::encode_str(b, s);
        }
        Datum::Bool(v) => {
            b.put_u8(TYPE_BOOL);
            b.put_u8(*v as u8);
        }
    }
}

/// Decodes one key datum, returning it and the remaining slice.
pub fn decode_key_datum(buf: &[u8]) -> Option<(Datum, &[u8])> {
    let mut d = Datum::Null;
    let rest = read_key_datum(buf, Some(&mut d))?;
    Some((d, rest))
}

/// Walks past one key datum without producing it (and without allocating
/// for it), checking it exactly as [`decode_key_datum`] would.
pub fn skip_key_datum(buf: &[u8]) -> Option<&[u8]> {
    read_key_datum(buf, None)
}

/// The `String` a slot already holds, emptied, or a new one: a row buffer
/// reused from pair to pair stops allocating once its strings have grown.
fn recycled_string(slot: &mut Datum) -> String {
    match std::mem::replace(slot, Datum::Null) {
        Datum::Str(mut s) => {
            s.clear();
            s
        }
        _ => String::new(),
    }
}

/// Reads the key datum at the front of `buf` into `slot`, or just past it
/// when there is no slot, and returns the rest. Either way every byte is
/// checked, so what decodes does not depend on who wanted the column.
fn read_key_datum<'a>(buf: &'a [u8], mut slot: Option<&mut Datum>) -> Option<&'a [u8]> {
    let (&tag, rest) = buf.split_first()?;
    let (datum, rest) = match tag {
        TYPE_NULL => (Datum::Null, rest),
        TYPE_INT => {
            let (v, rest) = kvkeys::decode_u64(rest)?;
            (Datum::Int((v ^ (1 << 63)) as i64), rest)
        }
        TYPE_FLOAT => {
            let (v, rest) = kvkeys::decode_u64(rest)?;
            let bits = if v & (1 << 63) != 0 { v ^ (1 << 63) } else { !v };
            (Datum::Float(f64::from_bits(bits)), rest)
        }
        TYPE_STR => {
            let Some(slot) = slot.as_deref_mut() else {
                return kvkeys::decode_str_with(rest, |_| {});
            };
            let mut s = recycled_string(slot);
            let rest = kvkeys::decode_str_with(rest, |piece| s.push_str(piece))?;
            (Datum::Str(s), rest)
        }
        TYPE_BOOL => {
            let (&v, rest) = rest.split_first()?;
            (Datum::Bool(v == 1), rest)
        }
        _ => return None,
    };
    if let Some(slot) = slot {
        *slot = datum;
    }
    Some(rest)
}

/// The key prefix of a table's index: `tbl/<table_id>/<index_id>/`.
pub fn index_prefix(table_id: u64, index_id: u64) -> BytesMut {
    let mut b = BytesMut::with_capacity(24);
    b.put_slice(b"tbl/");
    kvkeys::encode_u64(&mut b, table_id);
    kvkeys::encode_u64(&mut b, index_id);
    b
}

/// The exclusive end of an index's key span.
pub fn index_prefix_end(table_id: u64, index_id: u64) -> Bytes {
    index_prefix(table_id, index_id + 1).freeze()
}

/// The key a table's `ANALYZE` statistics are stored under:
/// `tstat/<table_id>`. Lives next to the `desc/` descriptor keys inside
/// the tenant keyspace so catalog loads pick statistics up with the
/// same scan machinery.
pub fn stats_key(table_id: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_slice(b"tstat/");
    kvkeys::encode_u64(&mut b, table_id);
    b.freeze()
}

/// Inclusive start of the span holding every table's statistics.
pub fn stats_span_start() -> Bytes {
    Bytes::from_static(b"tstat/")
}

/// Exclusive end of the statistics span.
pub fn stats_span_end() -> Bytes {
    Bytes::from_static(b"tstat0")
}

/// Column `i` of `row`; a column past the row's end reads as NULL.
pub(crate) fn column(row: &Row, i: usize) -> &Datum {
    row.get(i).unwrap_or(&Datum::Null)
}

/// Encodes a row's primary key: `tbl/<id>/1/<pk datums>`.
pub fn primary_key(table: &TableDescriptor, row: &Row) -> Bytes {
    let mut b = index_prefix(table.id, PRIMARY_INDEX_ID);
    for &i in &table.primary_key {
        encode_key_datum(&mut b, column(row, i));
    }
    b.freeze()
}

/// Encodes a primary key directly from PK datums (for point lookups).
pub fn primary_key_from_datums(table: &TableDescriptor, pk: &[Datum]) -> Bytes {
    let mut b = index_prefix(table.id, PRIMARY_INDEX_ID);
    for d in pk {
        encode_key_datum(&mut b, d);
    }
    b.freeze()
}

/// Encodes a prefix of the primary key (for span constraints); returns the
/// inclusive start of the span covered by the prefix.
pub fn key_with_prefix(table: &TableDescriptor, index_id: u64, datums: &[Datum]) -> Bytes {
    let mut b = index_prefix(table.id, index_id);
    for d in datums {
        encode_key_datum(&mut b, d);
    }
    b.freeze()
}

/// The exclusive end of the span sharing `prefix`: prefix + 0xff.
pub fn prefix_span_end(prefix: &Bytes) -> Bytes {
    let mut b = BytesMut::from(prefix.as_ref());
    b.put_u8(0xff);
    b.freeze()
}

/// Encodes the non-PK column values of a row.
pub fn encode_row_value(table: &TableDescriptor, row: &Row) -> Bytes {
    let mut b = BytesMut::new();
    for i in table.value_columns() {
        encode_value_datum(&mut b, column(row, i));
    }
    b.freeze()
}

fn encode_value_datum(b: &mut BytesMut, d: &Datum) {
    match d {
        Datum::Null => b.put_u8(TYPE_NULL),
        Datum::Int(i) => {
            b.put_u8(TYPE_INT);
            b.put_i64(*i);
        }
        Datum::Float(f) => {
            b.put_u8(TYPE_FLOAT);
            b.put_f64(*f);
        }
        Datum::Str(s) => {
            b.put_u8(TYPE_STR);
            b.put_u32(s.len() as u32);
            b.put_slice(s.as_bytes());
        }
        Datum::Bool(v) => {
            b.put_u8(TYPE_BOOL);
            b.put_u8(*v as u8);
        }
    }
}

/// [`read_key_datum`] for the value encoding. A string's length prefix is
/// held against the bytes that remain before anything is sized by it.
fn read_value_datum<'a>(buf: &'a [u8], mut slot: Option<&mut Datum>) -> Option<&'a [u8]> {
    let (&tag, rest) = buf.split_first()?;
    let (datum, rest) = match tag {
        TYPE_NULL => (Datum::Null, rest),
        TYPE_INT => {
            let (v, rest) = rest.split_first_chunk()?;
            (Datum::Int(i64::from_be_bytes(*v)), rest)
        }
        TYPE_FLOAT => {
            let (v, rest) = rest.split_first_chunk()?;
            (Datum::Float(f64::from_be_bytes(*v)), rest)
        }
        TYPE_STR => {
            let (n, rest) = rest.split_first_chunk()?;
            let (text, rest) = rest.split_at_checked(u32::from_be_bytes(*n) as usize)?;
            let text = std::str::from_utf8(text).ok()?;
            let Some(slot) = slot.as_deref_mut() else { return Some(rest) };
            let mut s = recycled_string(slot);
            s.push_str(text);
            (Datum::Str(s), rest)
        }
        TYPE_BOOL => {
            let (&v, rest) = rest.split_first()?;
            (Datum::Bool(v == 1), rest)
        }
        _ => return None,
    };
    if let Some(slot) = slot {
        *slot = datum;
    }
    Some(rest)
}

/// What follows `tbl/<table_id>/<index_id>/` in `key`, if it starts so.
fn strip_index_prefix(key: &[u8], table_id: u64, index_id: u64) -> Option<&[u8]> {
    let (table, rest) = kvkeys::decode_u64(key.strip_prefix(b"tbl/")?)?;
    let (index, rest) = kvkeys::decode_u64(rest)?;
    (table == table_id && index == index_id).then_some(rest)
}

/// Reconstructs a full row from a primary-index KV pair.
pub fn decode_row(table: &TableDescriptor, key: &[u8], value: &[u8]) -> Option<Row> {
    let mut row = Row::new();
    decode_row_into(table, key, value, None, &mut row).then_some(row)
}

/// Decodes a primary-index KV pair into `row`, a buffer the caller keeps
/// from one pair to the next (a `String` in it is refilled, not
/// replaced). Only the columns `needed` marks — `None`: every column —
/// are produced; the others are walked over, checked, and their slots
/// left alone (NULL in a buffer this function sized). `false` exactly
/// when [`decode_row`] gives `None`, and then `row` holds nothing usable.
pub fn decode_row_into(
    table: &TableDescriptor,
    key: &[u8],
    value: &[u8],
    needed: Option<&[bool]>,
    row: &mut Row,
) -> bool {
    if row.len() != table.columns.len() {
        row.clear();
        row.resize(table.columns.len(), Datum::Null);
    }
    let wanted = |i: usize| needed.is_none_or(|n| n.get(i).copied().unwrap_or(false));
    let mut decode = || {
        let mut rest = strip_index_prefix(key, table.id, PRIMARY_INDEX_ID)?;
        for &i in &table.primary_key {
            let slot = row.get_mut(i)?;
            rest = read_key_datum(rest, wanted(i).then_some(slot))?;
        }
        let mut rest = value;
        for i in table.value_columns() {
            let slot = row.get_mut(i)?;
            rest = read_value_datum(rest, wanted(i).then_some(slot))?;
        }
        Some(())
    };
    decode().is_some()
}

/// Where each primary-key column ends in a primary-index `key`: the
/// lengths of `tbl/<id>/1/<pk₁>`, `tbl/<id>/1/<pk₁>/<pk₂>`, … in order,
/// stopping short where the key stops parsing. Two rows share a
/// primary-key prefix exactly when their keys agree up to its end.
pub fn primary_key_prefix_ends<'a>(
    table: &'a TableDescriptor,
    key: &'a [u8],
) -> impl Iterator<Item = usize> + 'a {
    let mut rest = strip_index_prefix(key, table.id, PRIMARY_INDEX_ID);
    table.primary_key.iter().map_while(move |_| {
        rest = skip_key_datum(rest?);
        Some(key.len() - rest?.len())
    })
}

/// Encodes a secondary-index entry key for a row:
/// `tbl/<id>/<index_id>/<indexed datums…>/<pk datums…>`.
pub fn index_entry_key(
    table: &TableDescriptor,
    index_id: u64,
    columns: &[usize],
    row: &Row,
) -> Bytes {
    let mut b = index_prefix(table.id, index_id);
    for &i in columns {
        encode_key_datum(&mut b, column(row, i));
    }
    for &i in &table.primary_key {
        encode_key_datum(&mut b, column(row, i));
    }
    b.freeze()
}

/// Extracts the primary-key datums from a secondary-index entry key.
pub fn decode_index_entry(
    table: &TableDescriptor,
    index_id: u64,
    n_indexed: usize,
    key: &[u8],
) -> Option<Vec<Datum>> {
    let mut rest = strip_index_prefix(key, table.id, index_id)?;
    for _ in 0..n_indexed {
        rest = skip_key_datum(rest)?;
    }
    let mut pk = Vec::with_capacity(table.primary_key.len());
    for _ in 0..table.primary_key.len() {
        let (d, r) = decode_key_datum(rest)?;
        pk.push(d);
        rest = r;
    }
    Some(pk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, IndexDescriptor};
    use crate::value::ColumnType;

    fn table() -> TableDescriptor {
        TableDescriptor {
            id: 52,
            name: "t".into(),
            columns: vec![
                Column { name: "a".into(), ty: ColumnType::Int, nullable: false },
                Column { name: "b".into(), ty: ColumnType::String, nullable: false },
                Column { name: "c".into(), ty: ColumnType::Float, nullable: true },
                Column { name: "d".into(), ty: ColumnType::Bool, nullable: true },
            ],
            primary_key: vec![0, 1],
            indexes: vec![IndexDescriptor { id: 2, name: "b_idx".into(), columns: vec![1] }],
        }
    }

    fn row(a: i64, b: &str, c: f64, d: bool) -> Row {
        vec![Datum::Int(a), Datum::Str(b.into()), Datum::Float(c), Datum::Bool(d)]
    }

    #[test]
    fn row_roundtrip() {
        let t = table();
        let r = row(-5, "hello", 2.75, true);
        let key = primary_key(&t, &r);
        let value = encode_row_value(&t, &r);
        let decoded = decode_row(&t, &key, &value).expect("decodes");
        assert_eq!(decoded, r);
    }

    #[test]
    fn null_values_roundtrip() {
        let t = table();
        let r = vec![Datum::Int(1), Datum::Str("x".into()), Datum::Null, Datum::Null];
        let key = primary_key(&t, &r);
        let value = encode_row_value(&t, &r);
        assert_eq!(decode_row(&t, &key, &value).unwrap(), r);
    }

    #[test]
    fn key_encoding_preserves_order() {
        let datums = [
            Datum::Int(i64::MIN),
            Datum::Int(-1),
            Datum::Int(0),
            Datum::Int(1),
            Datum::Int(i64::MAX),
        ];
        let mut keys: Vec<Bytes> = Vec::new();
        for d in &datums {
            let mut b = BytesMut::new();
            encode_key_datum(&mut b, d);
            keys.push(b.freeze());
        }
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "int order preserved");
        }
        // Floats, including negatives and infinities; `-0.0` is `0.0`.
        let floats = [f64::NEG_INFINITY, -10.5, -0.25, 0.0, -0.0, 0.25, 10.5, f64::INFINITY];
        let mut keys: Vec<Bytes> = Vec::new();
        for f in floats {
            let mut b = BytesMut::new();
            encode_key_datum(&mut b, &Datum::Float(f));
            keys.push(b.freeze());
        }
        for (w, f) in keys.windows(2).zip(floats.windows(2)) {
            assert_eq!(Some(w[0].cmp(&w[1])), f[0].partial_cmp(&f[1]), "float order at {f:?}");
        }
    }

    #[test]
    fn string_keys_are_prefix_safe() {
        let t = table();
        let r1 = row(1, "ab", 0.0, false);
        let r2 = row(1, "ab\u{0}c", 0.0, false);
        let k1 = primary_key(&t, &r1);
        let k2 = primary_key(&t, &r2);
        assert_ne!(k1, k2);
        assert!(k1 < k2);
        assert_eq!(decode_row(&t, &k2, &encode_row_value(&t, &r2)).unwrap(), r2);
    }

    #[test]
    fn span_prefix_covers_rows() {
        let t = table();
        let span_start = key_with_prefix(&t, PRIMARY_INDEX_ID, &[Datum::Int(7)]);
        let span_end = prefix_span_end(&span_start);
        for b in ["a", "m", "zz"] {
            let key = primary_key(&t, &row(7, b, 0.0, false));
            assert!(key >= span_start && key < span_end, "{b} inside span");
        }
        let outside = primary_key(&t, &row(8, "a", 0.0, false));
        assert!(outside >= span_end);
    }

    #[test]
    fn index_entry_roundtrip() {
        let t = table();
        let r = row(9, "bee", 1.0, true);
        let key = index_entry_key(&t, 2, &[1], &r);
        let pk = decode_index_entry(&t, 2, 1, &key).expect("decodes");
        assert_eq!(pk, vec![Datum::Int(9), Datum::Str("bee".into())]);
    }

    #[test]
    fn index_spans_are_disjoint_per_index() {
        let end = index_prefix_end(52, PRIMARY_INDEX_ID);
        let idx2_start = index_prefix(52, 2).freeze();
        assert_eq!(end, idx2_start, "index spans tile the table span");
    }

    #[test]
    fn needed_columns_decode_into_a_reused_row() {
        let t = table();
        let mut buf = Row::new();
        for (i, r) in
            [row(1, "first", 0.5, true), row(2, "second, longer", 1.5, false)].iter().enumerate()
        {
            let (key, value) = (primary_key(&t, r), encode_row_value(&t, r));
            // Columns b (key) and c (value); a and d are walked over.
            let needed = [false, true, true];
            assert!(decode_row_into(&t, &key, &value, Some(&needed), &mut buf), "row {i}");
            assert_eq!(buf, vec![Datum::Null, r[1].clone(), r[2].clone(), Datum::Null]);
            let mut all = Row::new();
            assert!(decode_row_into(&t, &key, &value, None, &mut all));
            assert_eq!(&all, r);
        }
    }

    #[test]
    fn prefix_ends_cut_the_key_where_the_columns_end() {
        let t = table();
        let r = row(7, "seven", 0.0, false);
        let key = primary_key(&t, &r);
        let ends: Vec<usize> = primary_key_prefix_ends(&t, &key).collect();
        let prefixes: Vec<Bytes> =
            (1..=2).map(|n| key_with_prefix(&t, PRIMARY_INDEX_ID, &r[..n])).collect();
        assert_eq!(ends, prefixes.iter().map(Bytes::len).collect::<Vec<_>>());
        assert!(prefixes.iter().all(|p| key.starts_with(p)));
        // A key that stops parsing yields the ends before the break.
        assert_eq!(primary_key_prefix_ends(&t, &key[..key.len() - 1]).count(), 1);
        assert_eq!(primary_key_prefix_ends(&t, b"tbl/").count(), 0);
    }

    /// Every way of asking for `key` / `value`: all columns, none, and
    /// each one alone. The verdict must not depend on who is asking.
    fn decodes_consistently(t: &TableDescriptor, key: &[u8], value: &[u8]) -> Option<Row> {
        let whole = decode_row(t, key, value);
        let n = t.columns.len();
        let masks = std::iter::once(vec![false; n])
            .chain((0..n).map(|c| (0..n).map(|i| i == c).collect::<Vec<bool>>()));
        for needed in masks {
            let mut buf = vec![Datum::Str("stale".into()); n];
            let ok = decode_row_into(t, key, value, Some(&needed), &mut buf);
            assert_eq!(ok, whole.is_some(), "needed {needed:?} changed the verdict");
            for (i, row) in whole.iter().flat_map(|r| r.iter().enumerate()) {
                if needed[i] {
                    assert_eq!(format!("{:?}", buf[i]), format!("{row:?}"), "column {i}");
                }
            }
        }
        whole
    }

    #[test]
    fn cut_flipped_and_hostile_encodings_decode_to_none_never_panic() {
        let t = table();
        let r = row(-5, "h\u{e9}llo\0w", 2.75, true);
        let wide = TableDescriptor {
            columns: t
                .columns
                .iter()
                .cloned()
                .chain([Column { name: "e".into(), ty: ColumnType::String, nullable: true }])
                .collect(),
            ..t.clone()
        };
        let mut wide_row = r.clone();
        wide_row.push(Datum::Str("tail \u{1f980}".into()));
        for (t, r) in [(&t, &r), (&wide, &wide_row)] {
            let (key, value) = (primary_key(t, r), encode_row_value(t, r));
            let entry = index_entry_key(t, 2, &[1], r);
            assert_eq!(decodes_consistently(t, &key, &value).as_ref(), Some(r));
            // Cut at every offset: a short key, value or entry is no row.
            for cut in 0..key.len() {
                assert_eq!(decodes_consistently(t, &key[..cut], &value), None, "key cut {cut}");
            }
            for cut in 0..value.len() {
                assert_eq!(decodes_consistently(t, &key, &value[..cut]), None, "value cut {cut}");
            }
            for cut in 0..entry.len() {
                assert_eq!(decode_index_entry(t, 2, 1, &entry[..cut]), None, "entry cut {cut}");
            }
            // Flip every byte, every way that matters to a tag, a length
            // or an escape: any verdict, but a verdict.
            for flip in [0x01u8, 0x02, 0x80, 0xff] {
                for at in 0..key.len() {
                    let mut k = key.to_vec();
                    k[at] ^= flip;
                    decodes_consistently(t, &k, &value);
                }
                for at in 0..value.len() {
                    let mut v = value.to_vec();
                    v[at] ^= flip;
                    decodes_consistently(t, &key, &v);
                }
                for at in 0..entry.len() {
                    let mut e = entry.to_vec();
                    e[at] ^= flip;
                    decode_index_entry(t, 2, 1, &e);
                }
            }
            // A length prefix wherever four bytes fit, promising more than
            // the value holds — by one byte, and by gigabytes: refused
            // against the bytes that remain, before anything is sized.
            // Where a string's prefix really is, the verdict is known.
            let real_prefix = match r.last() {
                Some(Datum::Str(text)) => Some(value.len() - text.len() - 4),
                _ => None,
            };
            for at in 0..value.len().saturating_sub(3) {
                for hostile in [u32::MAX, i32::MAX as u32, (value.len() - at) as u32] {
                    let mut v = value.to_vec();
                    v[at..at + 4].copy_from_slice(&hostile.to_be_bytes());
                    let decoded = decodes_consistently(t, &key, &v);
                    if real_prefix == Some(at) {
                        assert_eq!(decoded, None, "length {hostile:#x} at {at}");
                    }
                }
            }
        }
    }
}
