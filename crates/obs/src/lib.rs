//! Observability: deterministic trace spans and metrics snapshots.
//!
//! The paper's control loops — scale-from-zero (§4.2), the autoscaler
//! (§4.2.3), and distributed eCPU throttling (§5.2) — are only trustworthy
//! when their inputs are observable end to end. This crate provides the two
//! instruments the rest of the workspace uses to make that so:
//!
//! - [`trace`]: per-request span trees. A [`trace::Span`] carries sim-time
//!   start/end stamps and free-form tags (tenant, session, txn ids) and is
//!   propagated across the callback-style async boundaries of the simulator
//!   via an ambient, thread-local current-span stack. Because the simulator
//!   is single-threaded and seeded, a trace of the same request under the
//!   same seed is identical byte for byte.
//! - [`metrics`]: a [`metrics::Sampler`] that components report into at
//!   snapshot time: they keep their own counters (storage engine metrics,
//!   proxy/autoscaler counters, token-bucket grant totals, admission queue
//!   depths) and report them as counters, gauges and fixed-bucket
//!   histograms. `snapshot_json()` is byte-identical across same-seed
//!   runs.
//!
//! Everything here is deterministic: no wall clocks, no random ids, no
//! hash-order iteration reaches the serialized output.

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

pub mod metrics;
pub mod trace;

pub use metrics::Sampler;
pub use trace::{MaybeSpan, Span, Trace};

/// Escapes `s` for embedding inside a JSON string literal.
pub(crate) fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` deterministically for JSON output. Finite values use
/// Rust's shortest round-trip representation (stable for identical inputs);
/// non-finite values degrade to `null` to keep the output valid JSON.
pub(crate) fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}
