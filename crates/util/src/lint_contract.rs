//! The lint configuration checks itself. This module exists only under
//! `cargo clippy`; each item does what the determinism contract bans
//! (DESIGN.md §8) and *expects* the lint. The last proves clippy's
//! `await_holding_refcell_ref` live, the check for a `RefCell` guard held
//! across an `.await`. If the root `clippy.toml` is
//! moved, emptied or mistyped, or `lib.rs` loses its lint line, an
//! expectation goes unfulfilled and `-D warnings` fails the CI Clippy
//! step. (`tests/lint_scope.rs` checks every other crate root has the
//! line.)

#[expect(clippy::disallowed_types, reason = "proves clippy.toml bans HashMap")]
type _Map = std::collections::HashMap<u8, u8>;

#[expect(clippy::disallowed_types, reason = "proves clippy.toml bans HashSet")]
type _Set = std::collections::HashSet<u8>;

#[expect(clippy::disallowed_types, reason = "proves clippy.toml bans RandomState")]
type _Seed = std::collections::hash_map::RandomState;

#[expect(clippy::let_underscore_must_use, reason = "proves a discarded Result is flagged")]
fn _discard() {
    let _ = "0".parse::<u8>();
}

#[expect(clippy::indexing_slicing, reason = "proves a panicking index is flagged")]
fn _index(bytes: &[u8]) -> u8 {
    bytes[0]
}

#[expect(clippy::unwrap_used, reason = "proves a panicking unwrap is flagged")]
fn _unwrap(byte: Option<u8>) -> u8 {
    byte.unwrap()
}

#[expect(
    clippy::await_holding_refcell_ref,
    reason = "proves a RefCell guard held across an .await is flagged"
)]
async fn _held(cell: &std::cell::RefCell<u8>) -> u8 {
    let guard = cell.borrow_mut();
    std::future::ready(()).await;
    *guard
}
