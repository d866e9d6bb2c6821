//! Seeded arena defects: each `BAD:` line below plants the exact bug
//! class the determinism taint pass and the panic-hygiene rules exist to
//! keep out of the arena hot path, and must be reported at that line
//! under the named rule. Unmarked lines must stay silent.

/// An arena that broke every rule the real one is built around.
pub struct LeakyArena {
    slots: Vec<Option<u64>>,
    free: Vec<u32>,
}

impl LeakyArena {
    /// Wall-clock profiling left in the allocation path.
    pub fn insert(&mut self, event: u64) -> u32 {
        let _start = std::time::Instant::now(); // BAD: taint/wall-clock
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("overflow"); // BAD: panic/expect
                self.slots.push(Some(event));
                slot
            }
        }
    }

    /// Randomized iteration order in the vacancy scan.
    pub fn vacancies(&self) -> usize {
        let seen = std::collections::HashMap::<u32, bool>::new(); // BAD: taint/hash-iter
        self.slots.iter().filter(|s| s.is_none()).count() + seen.len()
    }

    /// Panicking take instead of a handled vacancy.
    pub fn take(&mut self, slot: u32) -> u64 {
        let event = self.slots[slot as usize].take().unwrap(); // BAD: panic/unwrap
        self.free.push(slot);
        event
    }

    /// A real sleep "waiting" for the free list to refill.
    pub fn drain_backoff(&self) {
        std::thread::sleep(std::time::Duration::from_millis(1)); // BAD: taint/sleep
    }
}
