// simlint: allow-file(wall-clock) — fixture: harness-style file measures real elapsed time by design

use std::time::Instant;

pub fn first() -> Instant {
    Instant::now()
}

pub fn second() -> Instant {
    Instant::now()
}

pub fn other_rules_still_fire(v: Option<u32>) -> u32 {
    v.unwrap()
}
