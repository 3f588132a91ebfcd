//! Transaction metadata and records.
//!
//! A transaction's authoritative state is its *transaction record*, stored
//! in the range holding the transaction's anchor key (its first write).
//! Writers lay down intents pointing at the record; committing flips the
//! record to `Committed(ts)` — the atomic commit point — after which
//! intents are resolved (synchronously by the coordinator here; lazily by
//! readers when they encounter a stale intent). A transaction that
//! commits in one phase lays no intents and so has no record.

use bytes::{BufMut, Bytes, BytesMut};

use crate::hlc::Timestamp;

/// Transaction status as recorded in the txn record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// In flight.
    Pending,
    /// Committed at the given timestamp.
    Committed(Timestamp),
    /// Aborted; intents must be discarded.
    Aborted,
}

/// The persistent transaction record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// The transaction ID.
    pub txn_id: u64,
    /// Current status.
    pub status: TxnStatus,
}

impl TxnRecord {
    /// Serializes the record.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(24);
        b.put_u64(self.txn_id);
        match self.status {
            TxnStatus::Pending => b.put_u8(0),
            TxnStatus::Committed(ts) => {
                b.put_u8(1);
                b.put_u64(ts.wall);
                b.put_u32(ts.logical);
            }
            TxnStatus::Aborted => b.put_u8(2),
        }
        b.freeze()
    }

    /// Deserializes a record.
    pub fn decode(raw: &[u8]) -> Option<TxnRecord> {
        let (txn_id, rest) = raw.split_first_chunk()?;
        let (&tag, rest) = rest.split_first()?;
        let status = match tag {
            0 => TxnStatus::Pending,
            1 => {
                let (wall, rest) = rest.split_first_chunk()?;
                let (logical, _) = rest.split_first_chunk()?;
                let (wall, logical) = (u64::from_be_bytes(*wall), u32::from_be_bytes(*logical));
                TxnStatus::Committed(Timestamp { wall, logical })
            }
            2 => TxnStatus::Aborted,
            _ => return None,
        };
        Some(TxnRecord { txn_id: u64::from_be_bytes(*txn_id), status })
    }
}

/// The transaction context attached to a [`crate::BatchRequest`].
#[derive(Debug, Clone)]
pub struct TxnMeta {
    /// Unique transaction ID (issued by the coordinator).
    pub txn_id: u64,
    /// The key whose range holds the transaction record.
    pub anchor_key: Bytes,
    /// The read timestamp, where a one-phase commit commits unless a read
    /// of a key it writes pushes it higher (also the admission queue's
    /// fairness key, §5.1.2).
    pub start_ts: Timestamp,
    /// When the commit was sent: what a leaseholder dates a re-sent copy
    /// by, and the staged protocol's intent and commit timestamp.
    pub write_ts: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_all_statuses() {
        for status in [
            TxnStatus::Pending,
            TxnStatus::Committed(Timestamp { wall: 123, logical: 4 }),
            TxnStatus::Aborted,
        ] {
            let rec = TxnRecord { txn_id: 99, status };
            let decoded = TxnRecord::decode(&rec.encode()).expect("decodes");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TxnRecord::decode(b""), None);
        assert_eq!(TxnRecord::decode(&[0u8; 8]), None);
        let mut bad = TxnRecord { txn_id: 1, status: TxnStatus::Pending }.encode().to_vec();
        bad[8] = 9;
        assert_eq!(TxnRecord::decode(&bad), None);
        let committed = TxnStatus::Committed(Timestamp { wall: 123, logical: 4 });
        let whole = TxnRecord { txn_id: 1, status: committed }.encode();
        for cut in 0..whole.len() {
            assert_eq!(TxnRecord::decode(&whole[..cut]), None, "cut at {cut}");
        }
        // Every byte flipped every way that matters to a tag, and a
        // hostile `u32` wherever four bytes fit: a verdict, never a panic.
        for flip in [0x01u8, 0x02, 0x80, 0xff] {
            for at in 0..whole.len() {
                let mut v = whole.to_vec();
                v[at] ^= flip;
                TxnRecord::decode(&v);
            }
        }
        for at in 0..whole.len() - 3 {
            for hostile in [u32::MAX, i32::MAX as u32, (whole.len() - at) as u32] {
                let mut v = whole.to_vec();
                v[at..at + 4].copy_from_slice(&hostile.to_be_bytes());
                TxnRecord::decode(&v);
            }
        }
    }
}
