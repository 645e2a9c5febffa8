//! Active-element worklists: sweep only what can act.
//!
//! At the paper's million-tile scales, almost every tile and router is
//! idle on any given cycle (graph frontiers touch a few thousand tiles; a
//! packet's path wakes a few dozen routers). Sweeping all of them anyway
//! makes per-cycle host cost proportional to *total* elements, which is
//! exactly the scaling wall BENCH_scale.json exposes. An [`ActiveSet`]
//! makes the sweep proportional to *active* elements instead: a dense
//! bitset records membership and a sorted drain list drives iteration, so
//! cost per cycle is `O(active)` plus a cheap merge of the cycle's fresh
//! activations.
//!
//! Determinism is the design constraint. The simulator's bit-identity
//! guarantees (sequential == parallel == time-leaped) rest on sweeping
//! elements in ascending local-index order — DRAM channel contention and
//! packet arbitration observe that order. The drain list is therefore
//! kept *sorted*: activations accumulate in a fresh-list and are merged
//! (sort + two-way merge) before the next sweep, and removals compact the
//! list in place without disturbing the order.
//!
//! The worklist is the only way a cycle visits tiles and routers, so
//! correctness rests on one invariant: nothing off a worklist can act.
//! The one exception is written here once, for tiles and routers alike:
//! an element that waits for credit — an event, not a cycle — is
//! *parked*. It leaves the list and costs the sweep nothing, still counts
//! as active, and the event's `activate` lists it again. Debug builds
//! check every cycle that whatever holds work off the list is parked and
//! asleep on credit (`Worker::assert_queues_consistent` for tiles,
//! `Shard::check_sleepers` for routers).

/// What [`ActiveSet::retain`] does with a listed element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Stays on the list.
    Listed,
    /// Leaves the list but still counts as active: never swept, and
    /// listed again by the next [`ActiveSet::activate`] (an element that
    /// waits for an event — credit — rather than for time).
    Parked,
    /// Leaves the set.
    Dropped,
}

impl From<bool> for Keep {
    fn from(listed: bool) -> Keep {
        if listed {
            Keep::Listed
        } else {
            Keep::Dropped
        }
    }
}

/// A set of active element indices over a fixed domain `0..len`,
/// iterable in ascending order.
///
/// Membership is tracked in a dense bitset (one bit per element);
/// iteration order comes from a sorted drain list. Newly activated
/// indices are buffered in a fresh-list and merged into the drain list by
/// [`ActiveSet::refresh`] — callers refresh once per sweep, then iterate.
///
/// An element is *listed* (a member: swept), *parked* (off the list,
/// never swept, but still active until an `activate` lists it again) or
/// absent; the listed and parked bitsets are disjoint.
#[derive(Debug)]
pub struct ActiveSet {
    len: u32,
    /// Dense membership bitset of the listed elements, `len.div_ceil(64)`
    /// words.
    bits: Vec<u64>,
    /// Dense bitset of the parked elements, disjoint from `bits`.
    parked: Vec<u64>,
    /// Elements set in `parked`.
    parked_count: usize,
    /// Sorted drain list: exactly the members minus `fresh`.
    order: Vec<u32>,
    /// Members activated since the last refresh (unsorted, duplicate-free
    /// — the bitset gates insertion).
    fresh: Vec<u32>,
    /// Merge scratch, swapped with `order` on refresh.
    scratch: Vec<u32>,
}

impl ActiveSet {
    /// Creates an empty set over the domain `0..len`.
    ///
    /// `tracked` must be `true`: the full-sweep mode that `false` once
    /// selected (`SystemConfig::active_list = false`) is gone. The
    /// argument goes with the next change to the benchmark crate, its
    /// last caller.
    pub fn new(len: usize, tracked: bool) -> Self {
        assert!(tracked, "ActiveSet always tracks membership; pass `true`");
        let len = u32::try_from(len).expect("domain fits in u32");
        let words = (len as usize).div_ceil(64);
        ActiveSet {
            len,
            bits: vec![0; words],
            parked: vec![0; words],
            parked_count: 0,
            order: Vec::new(),
            fresh: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Whether `idx` is listed.
    pub fn contains(&self, idx: u32) -> bool {
        self.bits[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    /// Whether `idx` is parked.
    pub fn is_parked(&self, idx: u32) -> bool {
        self.parked[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    /// Number of listed elements.
    pub fn active_count(&self) -> usize {
        self.order.len() + self.fresh.len()
    }

    /// Number of parked elements.
    pub fn parked_count(&self) -> usize {
        self.parked_count
    }

    /// Lists `idx`, unparking it if it was parked. No-op if already
    /// listed.
    #[inline]
    pub fn activate(&mut self, idx: u32) {
        debug_assert!(idx < self.len, "index {idx} outside domain {}", self.len);
        let (w, mask) = ((idx / 64) as usize, 1u64 << (idx % 64));
        let word = &mut self.bits[w];
        if *word & mask == 0 {
            *word |= mask;
            self.fresh.push(idx);
            let parked = &mut self.parked[w];
            if *parked & mask != 0 {
                *parked &= !mask;
                self.parked_count -= 1;
            }
        }
    }

    /// Lists every element, parked ones included (kernel start: every
    /// tile owes an init task).
    pub fn activate_all(&mut self) {
        self.bits.fill(!0);
        if !self.len.is_multiple_of(64) {
            // keep bits beyond the domain clear so popcount-style
            // invariants hold
            *self.bits.last_mut().expect("len > 0 implies a word") = (1u64 << (self.len % 64)) - 1;
        }
        self.parked.fill(0);
        self.parked_count = 0;
        self.order.clear();
        self.order.extend(0..self.len);
        self.fresh.clear();
    }
    /// Merges activations since the last refresh into the sorted drain
    /// list. Call once before each sweep; `O(fresh log fresh + active)`
    /// when anything changed, `O(1)` otherwise.
    pub fn refresh(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        self.fresh.sort_unstable();
        self.scratch.clear();
        self.scratch.reserve(self.order.len() + self.fresh.len());
        let (mut i, mut j) = (0, 0);
        while i < self.order.len() && j < self.fresh.len() {
            // no duplicates across the lists: the bitset admitted each
            // index into `fresh` only while it was absent from `order`
            if self.order[i] < self.fresh[j] {
                self.scratch.push(self.order[i]);
                i += 1;
            } else {
                self.scratch.push(self.fresh[j]);
                j += 1;
            }
        }
        self.scratch.extend_from_slice(&self.order[i..]);
        self.scratch.extend_from_slice(&self.fresh[j..]);
        std::mem::swap(&mut self.order, &mut self.scratch);
        self.fresh.clear();
    }

    /// Iterates the listed elements in ascending index order.
    ///
    /// Requires a preceding [`ActiveSet::refresh`] with no activations in
    /// between; debug builds assert this.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        debug_assert!(self.fresh.is_empty(), "iterating an unrefreshed ActiveSet");
        self.order.iter().copied()
    }

    /// Sweeps the listed elements in ascending order, moving each to the
    /// state `keep` returns for it (a `bool` reads as listed / dropped).
    /// The drain list is compacted in place, so no refresh is needed
    /// afterwards.
    pub fn retain<K: Into<Keep>>(&mut self, mut keep: impl FnMut(u32) -> K) {
        debug_assert!(self.fresh.is_empty(), "retain on an unrefreshed ActiveSet");
        let mut kept = 0;
        for i in 0..self.order.len() {
            let idx = self.order[i];
            let fate = keep(idx).into();
            if fate == Keep::Listed {
                self.order[kept] = idx;
                kept += 1;
                continue;
            }
            let (w, mask) = ((idx / 64) as usize, 1u64 << (idx % 64));
            self.bits[w] &= !mask;
            if fate == Keep::Parked {
                self.parked[w] |= mask;
                self.parked_count += 1;
            }
        }
        self.order.truncate(kept);
    }

    /// Host heap bytes owned by this set: the listed and parked bitsets,
    /// the drain and fresh lists, and the merge scratch.
    pub fn heap_bytes(&self) -> u64 {
        (self.bits.capacity() + self.parked.capacity()) as u64 * 8
            + (self.order.capacity() + self.fresh.capacity() + self.scratch.capacity()) as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

    fn collected(set: &ActiveSet) -> Vec<u32> {
        set.iter().collect()
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let mut s = ActiveSet::new(100, true);
        s.refresh();
        assert_eq!(collected(&s), Vec::<u32>::new());
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn activations_merge_sorted_without_duplicates() {
        let mut s = ActiveSet::new(200, true);
        for idx in [150u32, 3, 150, 67, 3, 199] {
            s.activate(idx);
        }
        s.refresh();
        assert_eq!(collected(&s), vec![3, 67, 150, 199]);
        // second wave interleaves with the existing order
        for idx in [0u32, 68, 199, 151] {
            s.activate(idx);
        }
        s.refresh();
        assert_eq!(collected(&s), vec![0, 3, 67, 68, 150, 151, 199]);
    }

    #[test]
    fn retain_compacts_in_place_and_clears_bits() {
        let mut s = ActiveSet::new(64, true);
        for idx in 0..10 {
            s.activate(idx);
        }
        s.refresh();
        s.retain(|idx| idx % 3 == 0);
        assert_eq!(collected(&s), vec![0, 3, 6, 9]);
        assert!(!s.contains(1));
        assert!(s.contains(9));
    }

    #[test]
    fn reactivation_after_retain_in_same_cycle_appears_once() {
        // the "tile re-activated same cycle" edge case: deactivated by the
        // retention pass, then a message arrives during net_step
        let mut s = ActiveSet::new(32, true);
        s.activate(7);
        s.refresh();
        s.retain(|_| false); // tile went idle
        assert_eq!(s.active_count(), 0);
        s.activate(7); // delivery re-activates it
        s.activate(7); // double delivery must not duplicate
        s.refresh();
        assert_eq!(collected(&s), vec![7]);
    }

    #[test]
    fn activate_all_covers_non_word_aligned_domains() {
        for len in [1usize, 63, 64, 65, 130] {
            let mut s = ActiveSet::new(len, true);
            s.activate_all();
            assert_eq!(s.active_count(), len, "len {len}");
            assert_eq!(collected(&s), (0..len as u32).collect::<Vec<_>>());
            // retention still works on the full set
            s.retain(|idx| idx == 0);
            assert_eq!(collected(&s), vec![0], "len {len}");
        }
    }

    #[test]
    fn activate_unparks_a_parked_element() {
        let mut s = ActiveSet::new(70, true);
        for idx in [3, 66, 69] {
            s.activate(idx);
        }
        s.refresh();
        s.retain(|idx| {
            if idx == 66 {
                Keep::Parked
            } else {
                Keep::Listed
            }
        });
        assert_eq!(collected(&s), vec![3, 69]);
        assert!(!s.contains(66) && s.is_parked(66));
        assert_eq!((s.active_count(), s.parked_count()), (2, 1));
        s.activate(66);
        assert!(s.contains(66) && !s.is_parked(66));
        assert_eq!((s.active_count(), s.parked_count()), (3, 0));
        s.refresh();
        assert_eq!(collected(&s), vec![3, 66, 69]);
    }

    #[test]
    fn activate_all_clears_every_park() {
        let mut s = ActiveSet::new(130, true);
        for idx in [0, 64, 129] {
            s.activate(idx);
        }
        s.refresh();
        s.retain(|_| Keep::Parked);
        assert_eq!((s.active_count(), s.parked_count()), (0, 3));
        s.activate_all();
        assert_eq!((s.active_count(), s.parked_count()), (130, 0));
        assert!((0..130).all(|idx| s.contains(idx) && !s.is_parked(idx)));
    }

    #[test]
    fn a_bool_closure_lists_or_drops() {
        let mut s = ActiveSet::new(16, true);
        for idx in 0..4 {
            s.activate(idx);
        }
        s.refresh();
        s.retain(|idx| idx != 2);
        assert_eq!(collected(&s), vec![0, 1, 3]);
        assert!(!s.contains(2) && !s.is_parked(2));
        assert_eq!(s.parked_count(), 0);
    }

    #[test]
    fn a_re_park_in_the_same_cycle_counts_once() {
        // a router asleep on credit with no expiry, listed again by a push
        // behind its heads, parks again at its next visit
        let mut s = ActiveSet::new(8, true);
        s.activate(5);
        s.refresh();
        s.retain(|_| Keep::Parked);
        s.activate(5);
        s.activate(5);
        s.refresh();
        s.retain(|_| Keep::Parked);
        assert_eq!((s.active_count(), s.parked_count()), (0, 1));
        assert!(s.is_parked(5));
    }

    /// One operation of the model test, decoded from random words.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Activate(u32),
        Refresh,
        /// Each listed element's fate is `hash(idx, seed) % 3`.
        Retain(u32),
        ActivateAll,
    }

    fn op(kind: u8, word: u32, domain: u32) -> Op {
        match kind {
            0..=4 => Op::Activate(word % domain),
            5 => Op::Refresh,
            6 | 7 => Op::Retain(word),
            _ => Op::ActivateAll,
        }
    }

    fn fate(idx: u32, seed: u32) -> Keep {
        match (idx ^ seed).wrapping_mul(0x9e37_79b9) >> 30 {
            0 => Keep::Listed,
            1 => Keep::Parked,
            _ => Keep::Dropped,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of activations, refreshes, retention passes
        /// and full activations leaves the set where a sorted set of
        /// listed elements plus a set of parked ones would be: the same
        /// sweep order, membership, parks and counts, never both listed
        /// and parked.
        #[test]
        fn matches_a_listed_and_parked_set_model(
            domain in 1u32..140,
            ops in vec((0u8..9, any::<u32>()), 1..200),
        ) {
            let mut s = ActiveSet::new(domain as usize, true);
            let mut listed = BTreeSet::new();
            let mut parked = HashSet::new();
            for &(kind, word) in &ops {
                match op(kind, word, domain) {
                    Op::Activate(idx) => {
                        s.activate(idx);
                        listed.insert(idx);
                        parked.remove(&idx);
                    }
                    Op::Refresh => {
                        s.refresh();
                        prop_assert_eq!(collected(&s), listed.iter().copied().collect::<Vec<_>>());
                    }
                    Op::Retain(seed) => {
                        s.refresh();
                        let mut swept = Vec::new();
                        s.retain(|idx| {
                            swept.push(idx);
                            fate(idx, seed)
                        });
                        prop_assert_eq!(&swept, &listed.iter().copied().collect::<Vec<_>>());
                        for idx in swept {
                            match fate(idx, seed) {
                                Keep::Listed => {}
                                Keep::Parked => {
                                    listed.remove(&idx);
                                    parked.insert(idx);
                                }
                                Keep::Dropped => {
                                    listed.remove(&idx);
                                }
                            }
                        }
                    }
                    Op::ActivateAll => {
                        s.activate_all();
                        listed = (0..domain).collect();
                        parked.clear();
                    }
                }
                prop_assert_eq!(s.active_count(), listed.len());
                prop_assert_eq!(s.parked_count(), parked.len());
                for idx in 0..domain {
                    prop_assert_eq!(s.contains(idx), listed.contains(&idx), "listed {}", idx);
                    prop_assert_eq!(s.is_parked(idx), parked.contains(&idx), "parked {}", idx);
                    prop_assert!(!(s.contains(idx) && s.is_parked(idx)), "{} listed and parked", idx);
                }
            }
            s.refresh();
            prop_assert_eq!(collected(&s), listed.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn heap_bytes_tracks_allocations() {
        let mut s = ActiveSet::new(1 << 20, true);
        let base = s.heap_bytes();
        assert!(base >= (1 << 20) / 8, "bitset accounted");
        for idx in 0..1000 {
            s.activate(idx * 7);
        }
        s.refresh();
        assert!(s.heap_bytes() > base, "drain list accounted");
    }
}
