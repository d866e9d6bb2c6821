//! The stage workers' sets: [`odr_core::workers`] sets whose workers keep
//! a session's frame buffers for the next session at the same size
//! (DESIGN.md §17.6).

use odr_core::workers::Workers;

use crate::stages::{AppKept, ProxyKept};

/// The app stage's workers; each keeps its last session's depth plane and
/// pixel pool.
pub(crate) static APP: Workers<Option<AppKept>> = Workers::new();

/// The proxy stage's workers; each keeps its last session's encoder and
/// payload pool.
pub(crate) static PROXY: Workers<Option<ProxyKept>> = Workers::new();

/// `slot`'s contents if `fits` says they fit; otherwise what `make`
/// builds, once what was there has been dropped.
pub(crate) fn reuse<K>(
    slot: &mut Option<K>,
    fits: impl FnOnce(&K) -> bool,
    make: impl FnOnce() -> K,
) -> &mut K {
    if !slot.as_ref().is_some_and(fits) {
        *slot = None;
    }
    slot.get_or_insert_with(make)
}
