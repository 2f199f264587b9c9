//! The hot-swappable index slot: one atomically-replaceable
//! `Arc<Aligner>` shared by every worker and connection, plus the epoch
//! counter that names which index answered a request.
//!
//! Swap discipline: each alignment slab pins the current epoch **once**
//! (an `Arc` clone under a read lock held for nanoseconds) before it
//! starts, so a whole request is always served by exactly one index
//! generation and its SAM bytes stay byte-identical to an offline run
//! against that generation. A [`IndexSlot::swap`] takes the write lock
//! only to exchange the `Arc` and bump the epoch — in-flight slabs keep
//! their pinned clone and finish on the old index, which drops (and
//! unmaps its bundle) when the last of those clones does. Nothing
//! blocks on alignment work; mid-swap traffic never observes a torn
//! index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mem2_core::Aligner;

/// One pinned index generation: the aligner and its epoch number.
#[derive(Clone)]
pub struct PinnedIndex {
    /// The aligner serving this generation.
    pub aligner: Arc<Aligner>,
    /// Monotonic generation number (the startup index is epoch 1).
    pub epoch: u64,
}

/// The swappable slot. See the module docs for the swap discipline.
pub struct IndexSlot {
    current: RwLock<PinnedIndex>,
    swaps: AtomicU64,
    swap_failures: AtomicU64,
}

impl IndexSlot {
    /// Wrap the startup aligner as epoch 1.
    pub fn new(aligner: Arc<Aligner>) -> IndexSlot {
        IndexSlot {
            current: RwLock::new(PinnedIndex { aligner, epoch: 1 }),
            swaps: AtomicU64::new(0),
            swap_failures: AtomicU64::new(0),
        }
    }

    /// Pin the current generation (cheap: a read lock + `Arc` clone).
    pub fn current(&self) -> PinnedIndex {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap_or_else(|e| e.into_inner()).epoch
    }

    /// Atomically install a new (already loaded and verified) aligner;
    /// returns the new epoch. In-flight slabs finish on their pinned
    /// old generation; the old index drops with its last pin.
    pub fn swap(&self, aligner: Arc<Aligner>) -> u64 {
        let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
        cur.epoch += 1;
        cur.aligner = aligner;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        cur.epoch
    }

    /// Record a rejected reload (load or verification failed; the old
    /// index stays in service).
    pub fn record_failure(&self) {
        self.swap_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful swaps so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Rejected reloads so far.
    pub fn swap_failures(&self) -> u64 {
        self.swap_failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_core::MemOpts;
    use mem2_seqio::GenomeSpec;

    fn tiny_aligner(seed: u64) -> Arc<Aligner> {
        let reference = GenomeSpec {
            len: 400,
            seed,
            ..GenomeSpec::default()
        }
        .generate_reference("chrS");
        Arc::new(Aligner::build(reference, MemOpts::default()))
    }

    #[test]
    fn swap_bumps_epoch_and_keeps_old_pins_alive() {
        let a = tiny_aligner(1);
        let slot = IndexSlot::new(Arc::clone(&a));
        assert_eq!(slot.epoch(), 1);
        let pinned = slot.current();
        assert_eq!(pinned.epoch, 1);

        let b = tiny_aligner(2);
        let e = slot.swap(b);
        assert_eq!(e, 2);
        assert_eq!(slot.epoch(), 2);
        assert_eq!(slot.swaps(), 1);
        // the pre-swap pin still serves the old index
        assert_eq!(pinned.epoch, 1);
        assert!(Arc::ptr_eq(&pinned.aligner, &a));
        // and the new pin the new one
        assert_eq!(slot.current().epoch, 2);

        slot.record_failure();
        assert_eq!(slot.swap_failures(), 1);
        assert_eq!(slot.epoch(), 2, "a failed reload keeps the epoch");
    }
}
