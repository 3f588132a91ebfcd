// simlint: allow-file(wall-clock) — fixture: harness-style file measures real elapsed time by design

use std::time::Instant;

pub fn first() -> Instant {
    Instant::now()
}

pub fn second() -> Instant {
    Instant::now()
}

pub fn other_rules_still_fire(cell: &std::cell::RefCell<Option<u32>>) -> u32 {
    match cell.borrow_mut().take() {
        Some(v) => v,
        None => 0,
    }
}
