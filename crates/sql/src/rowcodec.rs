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
    match *buf.first()? {
        TYPE_NULL => Some((Datum::Null, &buf[1..])),
        TYPE_INT => {
            let (v, rest) = kvkeys::decode_u64(&buf[1..])?;
            Some((Datum::Int((v ^ (1 << 63)) as i64), rest))
        }
        TYPE_FLOAT => {
            let (v, rest) = kvkeys::decode_u64(&buf[1..])?;
            let bits = if v & (1 << 63) != 0 { v ^ (1 << 63) } else { !v };
            Some((Datum::Float(f64::from_bits(bits)), rest))
        }
        TYPE_STR => {
            let (s, rest) = kvkeys::decode_str(&buf[1..])?;
            Some((Datum::Str(s), rest))
        }
        TYPE_BOOL => Some((Datum::Bool(*buf.get(1)? == 1), &buf[2..])),
        _ => None,
    }
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

/// Encodes a row's primary key: `tbl/<id>/1/<pk datums>`.
pub fn primary_key(table: &TableDescriptor, row: &Row) -> Bytes {
    let mut b = index_prefix(table.id, PRIMARY_INDEX_ID);
    for &i in &table.primary_key {
        encode_key_datum(&mut b, &row[i]);
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
        encode_value_datum(&mut b, &row[i]);
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

fn decode_value_datum(buf: &[u8]) -> Option<(Datum, &[u8])> {
    match *buf.first()? {
        TYPE_NULL => Some((Datum::Null, &buf[1..])),
        TYPE_INT => {
            let v = i64::from_be_bytes(buf.get(1..9)?.try_into().ok()?);
            Some((Datum::Int(v), &buf[9..]))
        }
        TYPE_FLOAT => {
            let v = f64::from_be_bytes(buf.get(1..9)?.try_into().ok()?);
            Some((Datum::Float(v), &buf[9..]))
        }
        TYPE_STR => {
            let n = u32::from_be_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
            let s = String::from_utf8(buf.get(5..5 + n)?.to_vec()).ok()?;
            Some((Datum::Str(s), &buf[5 + n..]))
        }
        TYPE_BOOL => Some((Datum::Bool(*buf.get(1)? == 1), &buf[2..])),
        _ => None,
    }
}

/// Reconstructs a full row from a primary-index KV pair.
pub fn decode_row(table: &TableDescriptor, key: &[u8], value: &[u8]) -> Option<Row> {
    let prefix = index_prefix(table.id, PRIMARY_INDEX_ID);
    let mut rest = key.strip_prefix(prefix.as_ref())?;
    let mut row: Row = vec![Datum::Null; table.columns.len()];
    for &i in &table.primary_key {
        let (d, r) = decode_key_datum(rest)?;
        row[i] = d;
        rest = r;
    }
    let mut vrest = value;
    for i in table.value_columns() {
        let (d, r) = decode_value_datum(vrest)?;
        row[i] = d;
        vrest = r;
    }
    Some(row)
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
        encode_key_datum(&mut b, &row[i]);
    }
    for &i in &table.primary_key {
        encode_key_datum(&mut b, &row[i]);
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
    let prefix = index_prefix(table.id, index_id);
    let mut rest = key.strip_prefix(prefix.as_ref())?;
    for _ in 0..n_indexed {
        let (_, r) = decode_key_datum(rest)?;
        rest = r;
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
}
