//! The former slab event queue's name, still read by the benchmark's
//! `core.slab_queue_ns_per_op` row; the change to the benchmark that
//! retires that row deletes this module.

/// The one discrete-event queue, [`odr_simtime::EventQueue`].
pub type SlabEventQueue<E> = odr_simtime::EventQueue<E>;
