//! The PLM-as-write-back-cache model (paper §III-A).
//!
//! Tags, valid and dirty bits are carved out of the tile's SRAM, so the
//! data capacity is slightly below the nominal PLM size. The line width
//! equals the DRAM bitline (512 bits by default) and there is no hardware
//! coherence: misses go straight to the chiplet's memory controller and
//! dirty victims are written back on eviction.

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; `writeback` is true if a dirty victim must be
    /// written back to DRAM.
    Miss {
        /// Whether the evicted line was dirty.
        writeback: bool,
    },
}

impl AccessOutcome {
    /// Whether this is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// One line of the tag array (tags and state bits; data is not modeled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLine {
    /// Address tag.
    pub tag: u64,
    /// Whether the line holds data.
    pub valid: bool,
    /// Whether the line must be written back on eviction.
    pub dirty: bool,
    /// LRU stamp: larger = more recently used.
    pub stamp: u64,
    /// Filled by the prefetcher and not yet demanded.
    pub prefetched: bool,
}

/// A set-associative write-back cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheModel {
    lines: Vec<CacheLine>,
    num_sets: u64,
    ways: u32,
    line_bytes: u32,
    tick: u64,
}

impl CacheModel {
    /// Builds a cache with the data capacity that fits in `plm_kib` KiB of
    /// SRAM after tag overhead, with `line_bits`-wide lines and `ways`-way
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the PLM is too small to hold even one set.
    pub fn new(plm_kib: u32, line_bits: u32, ways: u32) -> Self {
        assert!(ways >= 1, "cache needs at least one way");
        let line_bytes = line_bits / 8;
        // ~48-bit physical addresses: tag + valid + dirty bits per line.
        let tag_bits = 48 - (line_bits.trailing_zeros() as u64 - 3) + 2;
        let total_bits = plm_kib as u64 * 1024 * 8;
        let lines_budget = total_bits / (line_bits as u64 + tag_bits);
        let num_sets = (lines_budget / ways as u64).next_power_of_two() / 2;
        let num_sets = num_sets.max(1);
        assert!(num_sets >= 1, "PLM too small for a cache");
        CacheModel {
            lines: vec![CacheLine::default(); (num_sets * ways as u64) as usize],
            num_sets,
            ways,
            line_bytes,
            tick: 0,
        }
    }

    /// The LRU clock (the stamp of the latest access or fill) and the
    /// tag array, set by set (`ways` lines each).
    pub fn state(&self) -> (u64, &[CacheLine]) {
        (self.tick, &self.lines)
    }

    /// Overwrites the LRU clock and the tag array (checkpoint restore);
    /// the geometry stays the configured one, and so must the line count.
    pub fn restore(&mut self, tick: u64, lines: &[CacheLine]) -> Result<(), String> {
        let (got, want) = (lines.len(), self.lines.len());
        if got != want {
            return Err(format!(
                "cache record holds {got} lines, the configured cache has {want}"
            ));
        }
        self.lines.copy_from_slice(lines);
        self.tick = tick;
        Ok(())
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_sets * self.ways as u64 * self.line_bytes as u64
    }

    /// Host heap bytes owned by the tag/metadata array (the simulator
    /// models tags only, never data, so this *is* the model's footprint).
    pub fn heap_bytes(&self) -> u64 {
        self.lines.capacity() as u64 * std::mem::size_of::<CacheLine>() as u64
    }

    fn set_range(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr / self.line_bytes as u64;
        let set = (line_addr % self.num_sets) as usize;
        let tag = line_addr / self.num_sets;
        let start = set * self.ways as usize;
        (start..start + self.ways as usize, tag)
    }

    /// Accesses `addr`; on a miss the line is filled (and a victim evicted).
    ///
    /// Returns the outcome plus whether the access hit a prefetched line
    /// for the first time.
    pub fn access(&mut self, addr: u64, write: bool) -> (AccessOutcome, bool) {
        self.tick += 1;
        let (range, tag) = self.set_range(addr);
        // hit?
        for i in range.clone() {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.stamp = self.tick;
                line.dirty |= write;
                let first_demand = line.prefetched;
                line.prefetched = false;
                return (AccessOutcome::Hit, first_demand);
            }
        }
        // miss: evict LRU
        let victim = range
            .clone()
            .min_by_key(|&i| {
                let l = &self.lines[i];
                if l.valid {
                    (1, l.stamp)
                } else {
                    (0, 0)
                }
            })
            .expect("set is non-empty");
        let writeback = self.lines[victim].valid && self.lines[victim].dirty;
        self.lines[victim] = CacheLine {
            tag,
            valid: true,
            dirty: write,
            stamp: self.tick,
            prefetched: false,
        };
        (AccessOutcome::Miss { writeback }, false)
    }

    /// Checks residency without disturbing LRU/dirty state.
    pub fn probe(&self, addr: u64) -> bool {
        let (range, tag) = self.set_range(addr);
        range
            .clone()
            .any(|i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Fills `addr`'s line as a prefetch (no dirty bit, marked
    /// prefetched). Returns `Some(writeback)` if a fill happened, or
    /// `None` if the line was already resident.
    pub fn prefetch_fill(&mut self, addr: u64) -> Option<bool> {
        if self.probe(addr) {
            return None;
        }
        self.tick += 1;
        let (range, tag) = self.set_range(addr);
        let victim = range
            .min_by_key(|&i| {
                let l = &self.lines[i];
                if l.valid {
                    (1, l.stamp)
                } else {
                    (0, 0)
                }
            })
            .expect("set is non-empty");
        let writeback = self.lines[victim].valid && self.lines[victim].dirty;
        self.lines[victim] = CacheLine {
            tag,
            valid: true,
            dirty: false,
            stamp: self.tick,
            prefetched: true,
        };
        Some(writeback)
    }

    /// Invalidates everything (between kernels, if desired).
    pub fn flush(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count() as u64;
        for l in &mut self.lines {
            *l = CacheLine::default();
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> CacheModel {
        CacheModel::new(4, 512, 2) // 4 KiB PLM, 64B lines, 2-way
    }

    #[test]
    fn geometry_accounts_for_tags() {
        let c = small_cache();
        // 4 KiB = 32768 bits; line+tag = 512 + (48-6+2)=556 bits -> 58 lines
        // -> 29 sets -> rounded down to 16 sets x 2 ways = 32 lines = 2 KiB
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.num_sets(), 16);
        assert_eq!(c.capacity_bytes(), 2048);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        let (o, _) = c.access(0x1000, false);
        assert_eq!(o, AccessOutcome::Miss { writeback: false });
        let (o, _) = c.access(0x1000, false);
        assert_eq!(o, AccessOutcome::Hit);
        // same line, different word
        let (o, _) = c.access(0x103F, false);
        assert_eq!(o, AccessOutcome::Hit);
        // next line
        let (o, _) = c.access(0x1040, false);
        assert!(!o.is_hit());
    }

    #[test]
    fn dirty_eviction_requires_writeback() {
        let mut c = small_cache();
        // fill both ways of set 0 with writes; then a third conflicting
        // line must evict a dirty victim
        let set_stride = c.num_sets() * c.line_bytes() as u64;
        c.access(0, true);
        c.access(set_stride, true);
        let (o, _) = c.access(2 * set_stride, false);
        assert_eq!(o, AccessOutcome::Miss { writeback: true });
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small_cache();
        let set_stride = c.num_sets() * c.line_bytes() as u64;
        c.access(0, false);
        c.access(set_stride, false);
        let (o, _) = c.access(2 * set_stride, false);
        assert_eq!(o, AccessOutcome::Miss { writeback: false });
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        let stride = c.num_sets() * c.line_bytes() as u64;
        c.access(0, false); // way A
        c.access(stride, false); // way B
        c.access(0, false); // A more recent
        c.access(2 * stride, false); // evicts B
        assert!(c.probe(0));
        assert!(!c.probe(stride));
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn prefetch_fill_and_first_demand_hit() {
        let mut c = small_cache();
        assert_eq!(c.prefetch_fill(0x2000), Some(false));
        assert_eq!(c.prefetch_fill(0x2000), None, "already resident");
        let (o, pf_hit) = c.access(0x2000, false);
        assert!(o.is_hit());
        assert!(pf_hit, "first demand access to a prefetched line");
        let (_, pf_hit2) = c.access(0x2000, false);
        assert!(!pf_hit2);
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = small_cache();
        c.access(0, true);
        c.access(0x40, true);
        c.access(0x80, false);
        assert_eq!(c.flush(), 2);
        assert!(!c.probe(0));
    }

    #[test]
    fn larger_plm_more_capacity() {
        let small = CacheModel::new(64, 512, 4);
        let big = CacheModel::new(256, 512, 4);
        assert!(big.capacity_bytes() >= 4 * small.capacity_bytes() / 2);
        assert!(big.capacity_bytes() > small.capacity_bytes());
    }
}
