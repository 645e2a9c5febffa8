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
//! Debug builds check it every cycle (`Worker::assert_queues_consistent`
//! for tiles, `Shard::check_sleepers` for routers).

/// A set of active element indices over a fixed domain `0..len`,
/// iterable in ascending order.
///
/// Membership is tracked in a dense bitset (one bit per element);
/// iteration order comes from a sorted drain list. Newly activated
/// indices are buffered in a fresh-list and merged into the drain list by
/// [`ActiveSet::refresh`] — callers refresh once per sweep, then iterate.
#[derive(Debug)]
pub struct ActiveSet {
    len: u32,
    /// Dense membership bitset, `len.div_ceil(64)` words.
    bits: Vec<u64>,
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
        ActiveSet {
            len,
            bits: vec![0; (len as usize).div_ceil(64)],
            order: Vec::new(),
            fresh: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the domain is empty (not the set — the *domain*).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `idx` is currently active.
    pub fn contains(&self, idx: u32) -> bool {
        self.bits[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    /// Number of active elements.
    pub fn active_count(&self) -> usize {
        self.order.len() + self.fresh.len()
    }

    /// Marks `idx` active. No-op if already active.
    #[inline]
    pub fn activate(&mut self, idx: u32) {
        debug_assert!(idx < self.len, "index {idx} outside domain {}", self.len);
        let word = &mut self.bits[(idx / 64) as usize];
        let mask = 1u64 << (idx % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.fresh.push(idx);
        }
    }

    /// Marks every element active (kernel start: every tile owes an init
    /// task).
    pub fn activate_all(&mut self) {
        self.bits.fill(!0);
        if !self.len.is_multiple_of(64) {
            // keep bits beyond the domain clear so popcount-style
            // invariants hold
            *self.bits.last_mut().expect("len > 0 implies a word") = (1u64 << (self.len % 64)) - 1;
        }
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

    /// Iterates the active elements in ascending index order.
    ///
    /// Requires a preceding [`ActiveSet::refresh`] with no activations in
    /// between; debug builds assert this.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        debug_assert!(self.fresh.is_empty(), "iterating an unrefreshed ActiveSet");
        self.order.iter().copied()
    }

    /// Sweeps the active elements in ascending order, deactivating those
    /// for which `keep` returns `false`. The drain list is compacted in
    /// place, so no refresh is needed afterwards.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        debug_assert!(self.fresh.is_empty(), "retain on an unrefreshed ActiveSet");
        let mut kept = 0;
        for i in 0..self.order.len() {
            let idx = self.order[i];
            if keep(idx) {
                self.order[kept] = idx;
                kept += 1;
            } else {
                self.bits[(idx / 64) as usize] &= !(1u64 << (idx % 64));
            }
        }
        self.order.truncate(kept);
    }

    /// Host heap bytes owned by this set (bitset + lists).
    pub fn heap_bytes(&self) -> u64 {
        self.bits.capacity() as u64 * 8
            + (self.order.capacity() + self.fresh.capacity() + self.scratch.capacity()) as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
