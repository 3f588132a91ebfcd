//! Table statistics collected by `ANALYZE` and consumed by the
//! cost-based planner.
//!
//! Statistics live in the tenant's own keyspace (a `tstat/<table id>`
//! key next to the `desc/` descriptors — the FoundationDB Record Layer
//! shape of keeping per-tenant metadata inside the tenant), so a SQL
//! pod that cold-starts for the tenant reads them back with the same
//! catalog scan machinery and every pod plans with the same numbers:
//! the paper's "same query, same plan" contract (§6.7) extends to
//! statistics because they are versioned KV state, not process state.
//!
//! All counts are integers. The planner's cost model is integer-only so
//! plan choice can never depend on float rounding (see `plan.rs`).

use std::collections::BTreeMap;

/// Statistics for one table, collected by a full scan of the primary
/// index at `ANALYZE` time.
///
/// `distinct_prefixes[index_id][k-1]` holds the number of distinct
/// `k`-column key prefixes observed for that index — e.g. for an index
/// on `(s_w_id, s_i_id)`, element 0 counts distinct warehouses and
/// element 1 counts distinct `(warehouse, item)` pairs. The planner
/// divides `row_count` by the relevant prefix count to estimate rows
/// per equality seek.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStatistics {
    /// Table these statistics describe.
    pub table_id: u64,
    /// Total rows in the primary index at collection time.
    pub row_count: u64,
    /// Average encoded primary-key length in bytes (0 when empty).
    pub avg_key_bytes: u64,
    /// Average encoded row-value length in bytes (0 when empty).
    pub avg_value_bytes: u64,
    /// Distinct prefix counts per index id (primary included).
    pub distinct_prefixes: BTreeMap<u64, Vec<u64>>,
    /// Simulation time (nanoseconds) the collection scan started.
    pub created_at_nanos: u64,
}

impl TableStatistics {
    /// Distinct count for the first `prefix_len` columns of `index_id`,
    /// if collected. `prefix_len` of zero never matches.
    pub fn distinct_prefix(&self, index_id: u64, prefix_len: usize) -> Option<u64> {
        if prefix_len == 0 {
            return None;
        }
        self.distinct_prefixes.get(&index_id).and_then(|v| v.get(prefix_len - 1)).copied()
    }

    /// Serializes to the stored value format (length-prefixed integers,
    /// same hand-rolled style as the table descriptor codec).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.table_id.to_be_bytes());
        out.extend_from_slice(&self.row_count.to_be_bytes());
        out.extend_from_slice(&self.avg_key_bytes.to_be_bytes());
        out.extend_from_slice(&self.avg_value_bytes.to_be_bytes());
        out.extend_from_slice(&self.created_at_nanos.to_be_bytes());
        out.extend_from_slice(&(self.distinct_prefixes.len() as u32).to_be_bytes());
        for (index_id, counts) in &self.distinct_prefixes {
            out.extend_from_slice(&index_id.to_be_bytes());
            out.extend_from_slice(&(counts.len() as u32).to_be_bytes());
            for c in counts {
                out.extend_from_slice(&c.to_be_bytes());
            }
        }
        out
    }

    /// Parses the stored value format; `None` on any truncation.
    pub fn decode(buf: &[u8]) -> Option<TableStatistics> {
        let mut r = Reader { buf, pos: 0 };
        let table_id = r.u64()?;
        let row_count = r.u64()?;
        let avg_key_bytes = r.u64()?;
        let avg_value_bytes = r.u64()?;
        let created_at_nanos = r.u64()?;
        let n_indexes = r.u32()?;
        let mut distinct_prefixes = BTreeMap::new();
        for _ in 0..n_indexes {
            let index_id = r.u64()?;
            let len = r.u32()?;
            let mut counts = Vec::new();
            for _ in 0..len {
                counts.push(r.u64()?);
            }
            distinct_prefixes.insert(index_id, counts);
        }
        Some(TableStatistics {
            table_id,
            row_count,
            avg_key_bytes,
            avg_value_bytes,
            distinct_prefixes,
            created_at_nanos,
        })
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableStatistics {
        let mut distinct = BTreeMap::new();
        distinct.insert(1, vec![2, 100]);
        distinct.insert(2, vec![40]);
        TableStatistics {
            table_id: 101,
            row_count: 100,
            avg_key_bytes: 22,
            avg_value_bytes: 37,
            distinct_prefixes: distinct,
            created_at_nanos: 5_000_000_000,
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let decoded = TableStatistics::decode(&s.encode()).expect("decodes");
        assert_eq!(decoded, s);
    }

    #[test]
    fn truncation_is_none() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(TableStatistics::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // Every count position (index count; each index's prefix count)
        // set to u32::MAX: `None`, not a 34 GB allocation.
        for at in [40, 52, 80] {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            assert!(TableStatistics::decode(&hostile).is_none(), "count at {at}");
        }
        assert_eq!(bytes.len(), 92, "offsets above assume the sample's layout");
        for v in crate::hostile_variants(&bytes) {
            TableStatistics::decode(&v);
        }
    }

    #[test]
    fn distinct_prefix_lookup() {
        let s = sample();
        assert_eq!(s.distinct_prefix(1, 1), Some(2));
        assert_eq!(s.distinct_prefix(1, 2), Some(100));
        assert_eq!(s.distinct_prefix(1, 3), None);
        assert_eq!(s.distinct_prefix(1, 0), None);
        assert_eq!(s.distinct_prefix(9, 1), None);
    }
}
