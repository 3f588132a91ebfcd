//! Table and index descriptors, and their binary encoding.
//!
//! Descriptors are persisted in the tenant's `system.descriptor` table —
//! each tenant keeps "its own separate copy of all the SQL metadata,
//! without visibility of that of other tenants" (§3.2.2). The encoding is
//! a small hand-rolled binary format (the workspace deliberately carries
//! no serialization-format dependency).

use bytes::{BufMut, Bytes, BytesMut};

use crate::value::ColumnType;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-cased).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

/// A secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDescriptor {
    /// Index ID (unique within the table; 1 is the primary index).
    pub id: u64,
    /// Index name.
    pub name: String,
    /// Indexed column ordinals, in order.
    pub columns: Vec<usize>,
}

/// A table descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDescriptor {
    /// Table ID (unique within the tenant).
    pub id: u64,
    /// Table name (lower-cased).
    pub name: String,
    /// Columns in ordinal order.
    pub columns: Vec<Column>,
    /// Primary-key column ordinals, in order.
    pub primary_key: Vec<usize>,
    /// Secondary indexes.
    pub indexes: Vec<IndexDescriptor>,
}

/// ID of the primary index in key encoding.
pub const PRIMARY_INDEX_ID: u64 = 1;

impl TableDescriptor {
    /// Ordinal of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Ordinals of the non-primary-key columns, in ordinal order.
    pub fn value_columns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.columns.len()).filter(|i| !self.primary_key.contains(i))
    }

    /// Serializes the descriptor.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u64(self.id);
        put_str(&mut b, &self.name);
        b.put_u32(self.columns.len() as u32);
        for c in &self.columns {
            put_str(&mut b, &c.name);
            b.put_u8(match c.ty {
                ColumnType::Int => 0,
                ColumnType::Float => 1,
                ColumnType::String => 2,
                ColumnType::Bool => 3,
            });
            b.put_u8(c.nullable as u8);
        }
        b.put_u32(self.primary_key.len() as u32);
        for &i in &self.primary_key {
            b.put_u32(i as u32);
        }
        b.put_u32(self.indexes.len() as u32);
        for idx in &self.indexes {
            b.put_u64(idx.id);
            put_str(&mut b, &idx.name);
            b.put_u32(idx.columns.len() as u32);
            for &i in &idx.columns {
                b.put_u32(i as u32);
            }
        }
        b.freeze()
    }

    /// Deserializes a descriptor; `None` on any truncation. The bytes come
    /// from KV, so no count read from them sizes an allocation: a vector
    /// grows only as its elements are actually read.
    pub fn decode(raw: &[u8]) -> Option<TableDescriptor> {
        let mut r = Reader { buf: raw, pos: 0 };
        let id = r.u64()?;
        let name = r.str()?;
        let ncols = r.u32()? as usize;
        let mut columns = Vec::new();
        for _ in 0..ncols {
            let name = r.str()?;
            let ty = match r.u8()? {
                0 => ColumnType::Int,
                1 => ColumnType::Float,
                2 => ColumnType::String,
                3 => ColumnType::Bool,
                _ => return None,
            };
            let nullable = r.u8()? == 1;
            columns.push(Column { name, ty, nullable });
        }
        let npk = r.u32()? as usize;
        let mut primary_key = Vec::new();
        for _ in 0..npk {
            primary_key.push(r.u32()? as usize);
        }
        let nidx = r.u32()? as usize;
        let mut indexes = Vec::new();
        for _ in 0..nidx {
            let id = r.u64()?;
            let name = r.str()?;
            let n = r.u32()? as usize;
            let mut cols = Vec::new();
            for _ in 0..n {
                cols.push(r.u32()? as usize);
            }
            indexes.push(IndexDescriptor { id, name, columns: cols });
        }
        Some(TableDescriptor { id, name, columns, primary_key, indexes })
    }
}

fn put_str(b: &mut BytesMut, s: &str) {
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableDescriptor {
        TableDescriptor {
            id: 52,
            name: "warehouse".into(),
            columns: vec![
                Column { name: "w_id".into(), ty: ColumnType::Int, nullable: false },
                Column { name: "w_name".into(), ty: ColumnType::String, nullable: false },
                Column { name: "w_ytd".into(), ty: ColumnType::Float, nullable: true },
            ],
            primary_key: vec![0],
            indexes: vec![IndexDescriptor { id: 2, name: "w_name_idx".into(), columns: vec![1] }],
        }
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = sample();
        let decoded = TableDescriptor::decode(&d.encode()).expect("decodes");
        assert_eq!(decoded, d);
    }

    #[test]
    fn decode_rejects_truncation() {
        let d = sample();
        let raw = d.encode();
        for cut in [0, 4, 9, raw.len() - 1] {
            assert_eq!(TableDescriptor::decode(&raw[..cut]), None, "cut at {cut}");
        }
        // A count of u32::MAX must fail at the first missing element, not
        // abort the process sizing a vector for four billion of them.
        let ncols_at = 8 + 4 + d.name.len();
        let npk_at = ncols_at + 4 + d.columns.iter().map(|c| 4 + c.name.len() + 2).sum::<usize>();
        let nidx_at = npk_at + 4 + 4 * d.primary_key.len();
        let index_ncols_at = nidx_at + 4 + 8 + 4 + d.indexes[0].name.len();
        let table_name_at = 8;
        let column_name_at = ncols_at + 4;
        let index_name_at = nidx_at + 4 + 8;
        for at in [
            table_name_at,
            ncols_at,
            column_name_at,
            npk_at,
            nidx_at,
            index_name_at,
            index_ncols_at,
        ] {
            let mut hostile = raw.to_vec();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            assert_eq!(TableDescriptor::decode(&hostile), None, "count at {at}");
        }
        assert_eq!(index_ncols_at + 4 + 4 * d.indexes[0].columns.len(), raw.len(), "offsets");
        for v in crate::hostile_variants(&raw) {
            TableDescriptor::decode(&v);
        }
    }

    #[test]
    fn column_lookup_and_value_columns() {
        let d = sample();
        assert_eq!(d.column_index("w_name"), Some(1));
        assert_eq!(d.column_index("nope"), None);
        assert_eq!(d.value_columns().collect::<Vec<_>>(), vec![1, 2]);
    }
}
