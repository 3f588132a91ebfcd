//! The per-tenant SQL layer (§3.1, §3.2.2).
//!
//! Each tenant runs its own instance of this layer in its own process (a
//! "SQL node", §4.1): it owns no durable state beyond what it reads and
//! writes through the KV batch API, which is what makes SQL nodes cheap to
//! start, stop and migrate — the architectural key to sub-second cold
//! starts.
//!
//! - [`value`], [`schema`], [`rowcodec`] — datums, table/index
//!   descriptors, and the order-preserving row↔KV encoding.
//! - [`lexer`], [`parser`], [`expr`] — a SQL dialect sufficient for the
//!   paper's workloads (DDL, DML, filters, aggregates, order/limit,
//!   joins).
//! - [`plan`], [`exec`] — cost-based logical planning (span extraction
//!   from predicates, statistics-driven index selection, lookup joins,
//!   LIMIT pushdown) and an executor over the KV client.
//! - [`stats`] — per-table statistics collected by `ANALYZE` and
//!   persisted in the tenant keyspace for the cost model.
//! - [`coord`] — the transaction coordinator: buffered writes,
//!   read-your-writes, parallel intent writes, commit via transaction
//!   record flip, intent resolution.
//! - [`session`] — SQL sessions, prepared statements, and the serialized
//!   session + revival token used for dynamic session migration (§4.2.4).
//! - [`system_db`] — the per-tenant system database with multi-region
//!   table localities (global / regional-by-row, §3.2.5): descriptor reads
//!   and `sql_instances` registration with locality-aware latency, the
//!   determinant of multi-region cold-start time (Fig. 10b).
//! - [`node`] — the SQL node: startup sequence (certificate wait → KV
//!   connect → system reads → instance registration), query execution,
//!   and CPU accounting, including the marshalling rows pay to cross the
//!   SQL/KV process boundary (§6.1).
//!
//! Below [`node`]'s public entry points everything is `async fn` on the
//! simulator's clock (`crdb_sim::task`): a statement, or a node's cold
//! start, is one task, and the KV batches it sends run inside it. The
//! entry points keep their callbacks for the proxy and the pool.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod coord;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod node;
pub mod parser;
pub mod plan;
pub mod rowcodec;
pub mod schema;
pub mod session;
pub mod stats;
pub mod system_db;
pub mod value;

pub use node::{SqlNode, SqlNodeConfig};
pub use session::Session;
pub use value::Datum;

/// Test support for the decoders: `raw` with each byte flipped each way
/// that matters to a tag, a length or a count, then with a hostile `u32`
/// length or count wherever four bytes fit — past the bytes that remain
/// by gigabytes and by one. A decoder owes each one a verdict, not a
/// panic or an allocation sized by the lie.
#[cfg(test)]
pub(crate) fn hostile_variants(raw: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for flip in [0x01u8, 0x02, 0x80, 0xff] {
        for at in 0..raw.len() {
            let mut v = raw.to_vec();
            v[at] ^= flip;
            out.push(v);
        }
    }
    for at in 0..raw.len().saturating_sub(3) {
        for hostile in [u32::MAX, i32::MAX as u32, (raw.len() - at) as u32] {
            let mut v = raw.to_vec();
            v[at..at + 4].copy_from_slice(&hostile.to_be_bytes());
            out.push(v);
        }
    }
    out
}
