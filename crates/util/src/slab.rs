//! Generational slab storage for per-entity fixed state.
//!
//! At paper scale (20,000 suspended tenants, 100,000 proxied sessions)
//! the dominant cost of an *idle* entity must be a few dozen bytes of
//! arena storage, not a heap allocation plus map nodes. A [`Slab`] stores
//! values in one contiguous `Vec`, hands out dense [`Slot`] handles (a
//! `u32` index plus a generation that detects stale handles), and reuses
//! freed slots deterministically (LIFO), so same-seed runs allocate the
//! same indices in the same order.
//!
//! # Determinism contract
//!
//! - `insert` after any fixed alloc/free history always yields the same
//!   index (freed slots are reused most-recently-freed first).
//! - [`Slab::iter`] visits occupied slots in index order — a stable,
//!   platform-independent order suitable for simulation visitors. Where a
//!   snapshot must be ordered by an external key (tenant id, conn id),
//!   callers keep a `BTreeMap<key, Slot>` index alongside; the slab holds
//!   the bulk state.
//! - A [`Slot`] whose value was removed never aliases the slot's next
//!   occupant: the generation is bumped on free, and `get`/`remove` on a
//!   stale handle return `None`.

/// A handle to a value in a [`Slab`]: a dense `u32` index plus the
/// generation observed at insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot {
    index: u32,
    gen: u32,
}

impl Slot {
    /// The dense index. Valid for side tables (`Vec` indexed by slot) as
    /// long as the slot is live; reused indices restart at generation+1.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation of this handle.
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Packs the handle into a `u64` (`generation << 32 | index`).
    pub fn to_bits(self) -> u64 {
        (self.gen as u64) << 32 | self.index as u64
    }

    /// Reverses [`Slot::to_bits`].
    pub fn from_bits(bits: u64) -> Slot {
        Slot { index: bits as u32, gen: (bits >> 32) as u32 }
    }
}

enum Entry<T> {
    Occupied(T),
    /// Freed: index of the next free slot (`u32::MAX` = end of list).
    Vacant(u32),
}

struct SlabEntry<T> {
    gen: u32,
    entry: Entry<T>,
}

/// A generational arena with dense `u32` handles and deterministic slot
/// reuse. See the module docs for the determinism contract.
pub struct Slab<T> {
    entries: Vec<SlabEntry<T>>,
    /// Head of the LIFO free list (`u32::MAX` = empty).
    free_head: u32,
    len: usize,
}

const NIL: u32 = u32::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Slab<T> {
        Slab { entries: Vec::new(), free_head: NIL, len: 0 }
    }

    /// Creates an empty slab with room for `cap` values.
    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab { entries: Vec::with_capacity(cap), free_head: NIL, len: 0 }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing the most recently freed slot if any.
    #[must_use = "the slot is the only way to reach or remove the value again"]
    pub fn insert(&mut self, value: T) -> Slot {
        self.len += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.entries[index as usize];
            let next = match slot.entry {
                Entry::Vacant(next) => next,
                Entry::Occupied(_) => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next;
            slot.entry = Entry::Occupied(value);
            Slot { index, gen: slot.gen }
        } else {
            let index = u32::try_from(self.entries.len()).expect("slab overflow");
            self.entries.push(SlabEntry { gen: 0, entry: Entry::Occupied(value) });
            Slot { index, gen: 0 }
        }
    }

    /// Removes and returns the value at `slot`. Returns `None` if the
    /// handle is stale (already removed, or the slot was reused).
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let e = self.entries.get_mut(slot.index as usize)?;
        if e.gen != slot.gen || !matches!(e.entry, Entry::Occupied(_)) {
            return None;
        }
        // Bump the generation on free so every outstanding handle to the
        // old occupant goes stale before the slot is reused.
        e.gen = e.gen.wrapping_add(1);
        let prev = std::mem::replace(&mut e.entry, Entry::Vacant(self.free_head));
        self.free_head = slot.index;
        self.len -= 1;
        match prev {
            Entry::Occupied(v) => Some(v),
            Entry::Vacant(_) => unreachable!(),
        }
    }

    /// The value at `slot`, if the handle is live.
    pub fn get(&self, slot: Slot) -> Option<&T> {
        match self.entries.get(slot.index as usize) {
            Some(e) if e.gen == slot.gen => match &e.entry {
                Entry::Occupied(v) => Some(v),
                Entry::Vacant(_) => None,
            },
            _ => None,
        }
    }

    /// Mutable access to the value at `slot`, if the handle is live.
    pub fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        match self.entries.get_mut(slot.index as usize) {
            Some(e) if e.gen == slot.gen => match &mut e.entry {
                Entry::Occupied(v) => Some(v),
                Entry::Vacant(_) => None,
            },
            _ => None,
        }
    }

    /// Whether `slot` refers to a live value.
    pub fn contains(&self, slot: Slot) -> bool {
        self.get(slot).is_some()
    }

    /// Iterates live values in index order (stable across same-seed runs).
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| match &e.entry {
            Entry::Occupied(v) => Some((Slot { index: i as u32, gen: e.gen }, v)),
            Entry::Vacant(_) => None,
        })
    }

    /// Mutably iterates live values in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Slot, &mut T)> {
        self.entries.iter_mut().enumerate().filter_map(|(i, e)| match &mut e.entry {
            Entry::Occupied(v) => Some((Slot { index: i as u32, gen: e.gen }, v)),
            Entry::Vacant(_) => None,
        })
    }
}

// Leaks a slot on purpose, under an expectation the workspace lints deny
// leaving unfulfilled: if `insert` loses its attribute, the build fails.
#[expect(unused_must_use, reason = "proves a slot dropped on insert fails the build")]
fn _slot_dropped(slab: &mut Slab<()>) {
    slab.insert(());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None, "removed handle is dead");
        assert_eq!(s.remove(a), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_slots_reused_lifo_and_stale_handles_never_alias() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        // LIFO: b's slot (index 1) is reused first, then a's (index 0).
        let c = s.insert(3);
        let d = s.insert(4);
        assert_eq!(c.index(), 1);
        assert_eq!(d.index(), 0);
        // The stale handles point at the same indices but must not alias.
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), None);
        assert_eq!(s.get(c), Some(&3));
        assert_eq!(s.get(d), Some(&4));
    }

    #[test]
    fn iteration_is_index_ordered() {
        let mut s = Slab::new();
        let a = s.insert("x");
        let y = s.insert("y");
        let z = s.insert("z");
        s.remove(a);
        let w = s.insert("w"); // reuses index 0
        let vals: Vec<&str> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec!["w", "y", "z"]);
        let slots: Vec<Slot> = s.iter().map(|(slot, _)| slot).collect();
        assert_eq!(slots, vec![w, y, z]);
        let idx: Vec<u32> = slots.iter().map(|slot| slot.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn slot_bits_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(());
        s.remove(a);
        let b = s.insert(());
        assert_ne!(a, b);
        assert_eq!(Slot::from_bits(a.to_bits()), a);
        assert_eq!(Slot::from_bits(b.to_bits()), b);
    }
}
