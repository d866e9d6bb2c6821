//! Lock-discipline fixture scanned at the *real* event queue path
//! (`crates/simtime/src/event.rs`), proving the pass's scope extension
//! is live: the shipping queue is guard-free by design, and if a shared
//! `Mutex<MiniSlab>` ever appears there, blocking while its guard is
//! held must be flagged. Each `BAD:` line is one seeded defect.

pub struct MiniSlab {
    slots: Vec<Option<u64>>,
    free: Vec<u32>,
}

fn insert_under_shared_slab(slab: &std::sync::Mutex<MiniSlab>) {
    let mut guard = slab.lock().unwrap();
    guard.slots.push(Some(7));
    std::thread::sleep(std::time::Duration::from_micros(10)); // BAD: sleep while slab guard held
    drop(guard);
}

fn publish_slot_under_guard(
    slab: &std::sync::Mutex<MiniSlab>,
    tx: &std::sync::mpsc::Sender<u32>,
) {
    let g = slab.lock().unwrap();
    tx.send(g.free.len() as u32).ok(); // BAD: channel send while slab guard held
}

fn reclaim_after_guard_dropped_is_fine(slab: &std::sync::Mutex<MiniSlab>) {
    {
        let mut g = slab.lock().unwrap();
        g.free.clear();
    }
    std::thread::sleep(std::time::Duration::from_micros(1)); // ok: guard scope closed
}
