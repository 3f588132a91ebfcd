// Fixture: suppression-directive behaviors.
//
// - a reasoned `allow` suppresses (finding kept, marked inactive)
// - a reasonless `allow` is itself a `bad-directive` violation and
//   suppresses nothing
// - doc comments never carry directives

use std::time::Instant;

pub fn suppressed_ok() -> Instant {
    // simlint: allow(wall-clock) — progress line on stderr, never in sim output
    Instant::now()
}

pub fn reasonless() -> std::time::SystemTime {
    // simlint: allow(wall-clock)
    std::time::SystemTime::now()
}

/// Doc comments are inert: simlint: allow(wall-clock) — not a directive
pub fn doc_comment_is_inert() -> Instant {
    Instant::now()
}
