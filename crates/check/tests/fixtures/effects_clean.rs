//! Clean corpus for the effect pass: the production queue/swap idioms
//! the analyzer must accept on a hot path. Nothing here may fire any
//! `effect/*` rule when every function below is named as a hot root
//! forbidding all three effects:
//!
//! * `debug_assert!` families are compiled out of release builds;
//! * growth is confined to `#[cold]` helpers, which the propagation
//!   barrier keeps out of the steady-state effect set (`Panics` would
//!   still propagate — the cold helpers must not panic either);
//! * element access goes through `get`/`get_mut`/literal indices, never
//!   a variable index;
//! * atomics publish with ordered stores, not locks;
//! * a method passed as a path (`String::len`) is no constructor.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Slab {
    slots: Vec<u64>,
    len: usize,
}

impl Slab {
    pub fn push(&mut self, v: u64) {
        debug_assert!(self.len <= self.slots.len(), "corrupt slab");
        if let Some(slot) = self.slots.get_mut(self.len) {
            *slot = v;
        } else {
            self.grow(v);
        }
        self.len += 1;
    }

    pub fn pop(&mut self) -> Option<u64> {
        self.len = self.len.checked_sub(1)?;
        self.slots.get(self.len).copied()
    }

    #[cold]
    fn grow(&mut self, v: u64) {
        self.slots.push(v);
    }

    pub fn first_word(&self) -> u64 {
        self.slots.get(0).copied().unwrap_or(0)
    }

    pub fn reset(&mut self) {
        self.len = 0;
    }
}

pub struct Names {
    words: Vec<String>,
}

impl Names {
    pub fn first_len(&self) -> usize {
        self.words.first().map(String::len).unwrap_or(0)
    }
}

pub struct Cell {
    word: AtomicU64,
}

impl Cell {
    pub fn publish(&self, v: u64) {
        self.word.store(v | 1, Ordering::Release);
    }

    pub fn try_pop(&self) -> Option<u64> {
        let w = self.word.swap(0, Ordering::AcqRel);
        if w == 0 {
            None
        } else {
            Some(w >> 1)
        }
    }
}
