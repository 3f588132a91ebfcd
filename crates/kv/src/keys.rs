//! Key encoding and the per-tenant keyspace (§3.2.1).
//!
//! Every tenant owns a contiguous segment of the logical keyspace,
//! identified by a prefix:
//!
//! ```text
//! [0xfe][tenant_id: u64 BE][user key bytes...]
//! ```
//!
//! The prefix is added by the tenant's SQL layer when issuing KV requests
//! and stripped when returning results; the KV authorizer verifies that a
//! tenant's requests never leave its segment. Big-endian tenant IDs keep
//! tenants contiguous and ordered, so "no two tenants share a range" is
//! enforceable with simple bound checks.

use bytes::{BufMut, Bytes, BytesMut};
use crdb_util::TenantId;

/// Tag byte introducing a tenant-prefixed key.
pub const TENANT_TAG: u8 = 0xfe;

/// Length of a tenant prefix: tag + 8-byte big-endian tenant id.
pub const TENANT_PREFIX_LEN: usize = 9;

/// The tenant prefix for `tenant`.
pub fn tenant_prefix(tenant: TenantId) -> Bytes {
    let mut b = BytesMut::with_capacity(TENANT_PREFIX_LEN);
    b.put_u8(TENANT_TAG);
    b.put_u64(tenant.raw());
    b.freeze()
}

/// First key of the tenant's segment (inclusive).
pub fn tenant_span_start(tenant: TenantId) -> Bytes {
    tenant_prefix(tenant)
}

/// First key *after* the tenant's segment (exclusive end).
pub fn tenant_span_end(tenant: TenantId) -> Bytes {
    let mut b = BytesMut::with_capacity(TENANT_PREFIX_LEN);
    b.put_u8(TENANT_TAG);
    b.put_u64(tenant.raw() + 1);
    b.freeze()
}

/// Prepends the tenant prefix to a user key.
pub fn make_key(tenant: TenantId, user_key: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(TENANT_PREFIX_LEN + user_key.len());
    b.put_u8(TENANT_TAG);
    b.put_u64(tenant.raw());
    b.put_slice(user_key);
    b.freeze()
}

/// Extracts the owning tenant of a prefixed key, if well-formed.
pub fn key_tenant(key: &[u8]) -> Option<TenantId> {
    let (&tag, rest) = key.split_first()?;
    let (id, _) = rest.split_first_chunk()?;
    (tag == TENANT_TAG).then(|| TenantId(u64::from_be_bytes(*id)))
}

/// Strips the tenant prefix, returning the user key as a slice of `key`'s
/// buffer. Returns `None` for a key outside `tenant`'s segment.
pub fn strip_prefix(tenant: TenantId, key: &Bytes) -> Option<Bytes> {
    (key_tenant(key)? == tenant).then(|| key.slice(TENANT_PREFIX_LEN..))
}

/// Whether `key` lies inside `tenant`'s segment.
pub fn in_tenant_span(tenant: TenantId, key: &[u8]) -> bool {
    key_tenant(key) == Some(tenant)
}

/// Whether the span `[start, end)` lies entirely inside `tenant`'s
/// segment. An empty or inverted span is rejected.
pub fn span_in_tenant(tenant: TenantId, start: &[u8], end: &[u8]) -> bool {
    if start >= end {
        return false;
    }
    let lo = tenant_span_start(tenant);
    let hi = tenant_span_end(tenant);
    start >= lo.as_ref() && end <= hi.as_ref()
}

/// Appends an order-preserving encoding of a `u64` to a key buffer —
/// used by the SQL layer for table/index/primary-key encoding.
pub fn encode_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u64(v);
}

/// Decodes a `u64` written by [`encode_u64`], returning the value and the
/// remaining slice.
pub fn decode_u64(buf: &[u8]) -> Option<(u64, &[u8])> {
    let (v, rest) = buf.split_first_chunk()?;
    Some((u64::from_be_bytes(*v), rest))
}

/// Appends an order-preserving string encoding: the bytes followed by a
/// 0x00 0x01 terminator (0x00 bytes inside are escaped as 0x00 0xff).
pub fn encode_str(buf: &mut BytesMut, s: &str) {
    for &b in s.as_bytes() {
        if b == 0x00 {
            buf.put_u8(0x00);
            buf.put_u8(0xff);
        } else {
            buf.put_u8(b);
        }
    }
    buf.put_u8(0x00);
    buf.put_u8(0x01);
}

/// Decodes a string written by [`encode_str`].
pub fn decode_str(buf: &[u8]) -> Option<(String, &[u8])> {
    let mut out = String::new();
    let rest = decode_str_with(buf, |piece| out.push_str(piece))?;
    Some((out, rest))
}

/// Walks a string written by [`encode_str`], handing its text to `piece`
/// a run at a time (the runs between escaped 0x00 bytes, and those bytes),
/// and returns what follows the terminator. A caller that only wants to
/// get past the string allocates nothing; the text is checked all the same.
pub fn decode_str_with(buf: &[u8], mut piece: impl FnMut(&str)) -> Option<&[u8]> {
    let mut rest = buf;
    loop {
        let run = rest.iter().position(|&b| b == 0x00)?;
        let (text, after) = rest.split_at_checked(run)?;
        piece(std::str::from_utf8(text).ok()?);
        let (escape, after) = after.get(1..)?.split_first()?;
        rest = after;
        match escape {
            0x01 => return Some(rest),
            0xff => piece("\0"),
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_prefixing_roundtrip() {
        let k = make_key(TenantId(7), b"table/1/row");
        assert_eq!(key_tenant(&k), Some(TenantId(7)));
        assert_eq!(strip_prefix(TenantId(7), &k).unwrap().as_ref(), b"table/1/row");
        assert_eq!(strip_prefix(TenantId(8), &k), None);
    }

    #[test]
    fn tenant_segments_are_contiguous_and_ordered() {
        let end7 = tenant_span_end(TenantId(7));
        let start8 = tenant_span_start(TenantId(8));
        assert_eq!(end7, start8, "segments tile the keyspace");
        assert!(tenant_span_start(TenantId(7)) < end7);
        // Every key of tenant 7 sorts before every key of tenant 8.
        let k7 = make_key(TenantId(7), &[0xff; 32]);
        let k8 = make_key(TenantId(8), &[0x00]);
        assert!(k7 < k8);
    }

    #[test]
    fn span_containment() {
        let t = TenantId(5);
        let a = make_key(t, b"a");
        let b = make_key(t, b"b");
        assert!(span_in_tenant(t, &a, &b));
        assert!(span_in_tenant(t, &tenant_span_start(t), &tenant_span_end(t)));
        assert!(!span_in_tenant(t, &a, &tenant_span_end(TenantId(6))));
        assert!(!span_in_tenant(t, &b, &a), "inverted span rejected");
        assert!(!span_in_tenant(TenantId(6), &a, &b));
    }

    #[test]
    fn u64_encoding_preserves_order() {
        let mut prev = BytesMut::new();
        encode_u64(&mut prev, 0);
        for v in [1u64, 2, 255, 256, 1 << 20, u64::MAX] {
            let mut cur = BytesMut::new();
            encode_u64(&mut cur, v);
            assert!(prev.as_ref() < cur.as_ref(), "order preserved at {v}");
            let (decoded, rest) = decode_u64(&cur).unwrap();
            assert_eq!(decoded, v);
            assert!(rest.is_empty());
            prev = cur;
        }
    }

    #[test]
    fn str_encoding_roundtrip_and_order() {
        for s in ["", "a", "hello", "with\0nul", "with\0\0two"] {
            let mut b = BytesMut::new();
            encode_str(&mut b, s);
            let (decoded, rest) = decode_str(&b).unwrap();
            assert_eq!(decoded, s);
            assert!(rest.is_empty());
        }
        // Prefix-free: "a" < "aa" in encoded form.
        let mut a = BytesMut::new();
        encode_str(&mut a, "a");
        let mut aa = BytesMut::new();
        encode_str(&mut aa, "aa");
        assert!(a.as_ref() < aa.as_ref());
    }

    #[test]
    fn truncated_keys_decode_to_none_never_panic() {
        let key = make_key(TenantId(7), b"row");
        for cut in 0..TENANT_PREFIX_LEN {
            assert_eq!(key_tenant(&key[..cut]), None, "cut at {cut}");
            assert_eq!(strip_prefix(TenantId(7), &key.slice(..cut)), None, "cut at {cut}");
        }
        assert_eq!(strip_prefix(TenantId(7), &key.slice(..TENANT_PREFIX_LEN)), Some(Bytes::new()));
        let mut composite = BytesMut::new();
        encode_u64(&mut composite, 42);
        encode_str(&mut composite, "with\0nul");
        for cut in 0..composite.len() {
            let cut_key = &composite[..cut];
            let whole = decode_u64(cut_key).and_then(|(_, rest)| decode_str(rest));
            assert_eq!(whole, None, "cut at {cut}");
        }
        // Every byte flipped every way that matters to an escape or a
        // terminator: a verdict, never a panic.
        for flip in [0x01u8, 0x02, 0x80, 0xff] {
            for at in 0..key.len() {
                let mut k = key.to_vec();
                k[at] ^= flip;
                key_tenant(&k);
                strip_prefix(TenantId(7), &Bytes::from(k));
            }
            for at in 0..composite.len() {
                let mut k = composite.to_vec();
                k[at] ^= flip;
                decode_u64(&k).and_then(|(_, rest)| decode_str(rest));
            }
        }
    }

    #[test]
    fn composite_keys_decode_in_sequence() {
        let mut b = BytesMut::new();
        encode_u64(&mut b, 42);
        encode_str(&mut b, "warehouse");
        encode_u64(&mut b, 7);
        let (v1, rest) = decode_u64(&b).unwrap();
        let (s, rest) = decode_str(rest).unwrap();
        let (v2, rest) = decode_u64(rest).unwrap();
        assert_eq!((v1, s.as_str(), v2), (42, "warehouse", 7));
        assert!(rest.is_empty());
    }
}
