//! Buffer credit of one router input queue.
//!
//! Capacity accounting lives outside the queue so that the upstream
//! router — possibly in another shard — can reserve space without
//! touching the queue itself. The same word carries, in its spare top
//! bit, the *waiter mark* of whoever went to sleep because this queue
//! refused it: a router (see [`crate::Shard::step`]), or — on an inject
//! queue, whose upstream is its own tile — a tile whose send did not fit
//! (see [`crate::Shard::wait_for_credit`]). Whoever returns credit
//! to a marked queue owes that router or tile a wake.
//!
//! Every access is a `Relaxed` load or a `Relaxed` store — no
//! read-modify-write. A word has one writer per phase of a NoC cycle. A
//! router queue's word is written by the queue's owner shard in the local
//! phase (frees, combines) and by its unique upstream router in the step
//! phase (reserve, mark). An inject queue's word is written in the local
//! phase only, and only by the worker that owns both the queue and its
//! tile: each injection and the tile's mark, then the frees its shard
//! applies at the next cycle boundary; no router ever reserves on or
//! marks an inject queue. No other thread reads a word in its writer's
//! phase: the owner reads its queues' credit only in the local phase, the
//! upstream router only in the step phase. The phases are separated by
//! the driver's barriers, whose `Release`/`Acquire` pair publishes each
//! phase's writes to the next. With one thread per word per phase there
//! is no concurrent update an atomic RMW could protect against, so a
//! plain load and store update the word exactly; a lock-prefixed
//! `cmpxchg` or `xadd` would only add its cost. The words stay atomics so
//! that sharing the table between threads needs no `unsafe`.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// The waiter mark. `SystemConfig::validate` keeps every queue capacity
/// — plus the one oversized message an empty queue admits — below it.
const WAITER: u32 = 1 << 31;
const _: () = assert!(muchisim_config::MAX_QUEUE_FLITS + u16::MAX as u32 <= WAITER);

/// The buffer admission rule: a queue holding `occ` flits of its `cap`
/// takes `flits` more iff they fit, or it is empty — a single oversized
/// message (larger than the whole buffer) is allowed into an empty queue
/// so it can still make progress.
///
/// Router-to-router reservation, injection and the stall check all ask
/// this one function, so a remembered refusal cannot drift from the real
/// one.
#[inline]
pub(crate) fn admits(occ: u32, flits: u32, cap: u32) -> bool {
    occ == 0 || occ + flits <= cap
}

/// Flits reserved in one input queue, plus its waiter mark.
#[derive(Debug, Default)]
pub struct Credit(AtomicU32);

impl Credit {
    /// `n` unreserved, unmarked words, collected in place from a zeroed
    /// allocation: the map from zero words to zero words writes nothing,
    /// so the pages of queues no flit ever reaches stay untouched (a
    /// `(0..n).map(|_| Credit::default()).collect()` stores every word).
    pub(crate) fn table(n: usize) -> Vec<Credit> {
        let words = vec![0u32; n];
        words
            .into_iter()
            .map(|w| Credit(AtomicU32::new(w)))
            .collect()
    }

    /// Flits currently reserved.
    #[inline]
    pub(crate) fn flits(&self) -> u32 {
        self.0.load(Relaxed) & !WAITER
    }

    /// Reserves `flits` of a queue with capacity `cap` if the queue
    /// [`admits`] them (step phase, upstream router). The router that got
    /// in no longer waits: success drops its mark.
    #[inline]
    pub(crate) fn reserve(&self, flits: u32, cap: u32) -> bool {
        let occ = self.flits();
        if !admits(occ, flits, cap) {
            return false;
        }
        self.0.store(occ + flits, Relaxed);
        true
    }

    /// Whether a waiter mark is set: someone sleeps until this queue
    /// returns credit.
    #[inline]
    pub fn marked(&self) -> bool {
        self.0.load(Relaxed) & WAITER != 0
    }

    /// Leaves the waiter mark (step phase, upstream router going to
    /// sleep on this queue; local phase, a tile going to sleep on its
    /// inject queue).
    #[inline]
    pub(crate) fn mark(&self) {
        self.0.store(self.0.load(Relaxed) | WAITER, Relaxed);
    }

    /// Returns `flits` of credit (local phase, owner shard). `true` when
    /// the queue was marked: the mark is consumed and the caller must
    /// wake the queue's upstream router, or its tile.
    #[inline]
    #[must_use = "a marked queue's upstream router must be woken"]
    pub(crate) fn free(&self, flits: u32) -> bool {
        let word = self.0.load(Relaxed);
        let occ = word & !WAITER;
        debug_assert!(occ >= flits, "freed more than was reserved");
        self.0.store(occ - flits, Relaxed);
        word & WAITER != 0
    }

    /// Applies a net change that needs no admission check and returns no
    /// credit anyone could be waiting for: an injection, less what it
    /// freed by combining (its own tile is the only one that waits on an
    /// inject queue, and it is the one injecting), a restored packet. The
    /// mark rides along.
    #[inline]
    pub(crate) fn adjust(&self, delta: i64) {
        if delta != 0 {
            let word = self.0.load(Relaxed);
            debug_assert!(i64::from(word & !WAITER) + delta >= 0, "negative credit");
            self.0.store((i64::from(word) + delta) as u32, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_respects_capacity() {
        let occ = Credit::default();
        assert!(occ.reserve(3, 4));
        assert!(!occ.reserve(2, 4));
        assert!(occ.reserve(1, 4));
        assert_eq!(occ.flits(), 4);
    }

    #[test]
    fn reserve_allows_oversized_when_empty() {
        let occ = Credit::default();
        assert!(occ.reserve(10, 4));
        assert!(!occ.reserve(1, 4));
    }

    #[test]
    fn the_mark_rides_along_without_counting_as_flits() {
        let occ = Credit::default();
        assert!(occ.reserve(4, 4));
        assert!(!occ.marked());
        occ.mark();
        occ.mark(); // a second sleep on the same queue: still one mark
        assert!(occ.marked());
        assert_eq!(occ.flits(), 4);
        assert!(!occ.reserve(1, 4), "the mark does not make room");
        assert!(occ.free(1), "the first free consumes the mark");
        assert!(!occ.marked());
        assert!(!occ.free(1), "one wake per mark");
        assert_eq!(occ.flits(), 2);
        // a marked queue that empties admits an oversized packet, and
        // getting in drops the mark
        occ.mark();
        assert!(!occ.reserve(3, 4));
        occ.adjust(-2);
        assert!(occ.marked(), "an injection's adjustment keeps the mark");
        assert!(occ.reserve(9, 4));
        assert_eq!(occ.flits(), 9);
        assert!(!occ.free(9), "the router that got in no longer waits");
        assert_eq!(occ.flits(), 0);
    }
}
