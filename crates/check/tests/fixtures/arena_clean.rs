//! Clean arena corpus: pooled-storage idioms — a slab free list over
//! `Vec<Option<E>>`, `let ... else` panics instead of `.expect(...)`,
//! `Copy` heap entries, and an allocation-preserving `reset` — must pass
//! every rule family silently when scanned as pure-sim core code.

/// A miniature of the event arena: stable `u32` slots recycled LIFO.
pub struct MiniArena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> MiniArena<E> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        MiniArena { slots: Vec::new(), free: Vec::new() }
    }

    /// Stores `event` and returns its slot index.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events are simultaneously live.
    pub fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let Ok(slot) = u32::try_from(self.slots.len()) else {
                    panic!("arena overflow");
                };
                self.slots.push(Some(event));
                slot
            }
        }
    }

    /// Removes and returns the event at `slot`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant (a double-take is always a logic bug).
    pub fn take(&mut self, slot: u32) -> E {
        let Some(event) = self.slots[slot as usize].take() else {
            panic!("arena slot taken twice");
        };
        self.free.push(slot);
        event
    }

    /// Returns the arena to its empty state, keeping both allocations.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// A 24-byte `Copy` heap entry: sift operations move indices, never
/// payloads. Ordering is the `(time_ns, seq)` total order of a DES
/// queue, so same-time entries pop FIFO.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    pub time_ns: u64,
    pub seq: u64,
    pub slot: u32,
}

/// Pops the minimum entry of a sorted scratch vector — stands in for a
/// heap's sift-down, with a `?` early-return instead of a checked
/// `.expect(...)`.
pub fn pop_min(heap: &mut Vec<Entry>) -> Option<Entry> {
    let last = heap.len().checked_sub(1)?;
    heap.swap(0, last);
    let entry = heap.pop()?;
    heap.sort_unstable();
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_slots_lifo() {
        let mut arena = MiniArena::new();
        let a = arena.insert(1u8);
        assert_eq!(arena.take(a), 1);
        let b = arena.insert(2u8);
        assert_eq!(a, b, "freed slot must be reused first");
    }
}
