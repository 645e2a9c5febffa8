//! The per-tile memory facade: the paper's `dcache` function.
//!
//! Applications call [`TileMemory::access`] for each memory operation;
//! the returned latency (in PU cycles) depends on whether the access hits
//! in the PLM and on the configured memory system (paper §III-C: "For
//! memory operations, MuchiSim offers a special dcache function that
//! returns the latency to fetch a given memory address").

use crate::cache::{CacheLine, CacheModel};
use crate::channel::ChannelState;
use crate::counters::MemCounters;
use muchisim_config::{MemoryConfig, SystemConfig, TimePs};

/// Word size assumed for application loads/stores, in bits.
const WORD_BITS: u64 = 32;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

#[derive(Debug, Clone)]
enum Mode {
    Scratchpad,
    Cache {
        cache: CacheModel,
        round_trip_cycles: u64,
        next_line: bool,
        line_bytes: u64,
    },
}

/// The memory system of one tile. Cloning an untouched one yields
/// another tile's fresh memory (the engine builds one per worker and
/// clones it into each tile on first use).
#[derive(Debug, Clone)]
pub struct TileMemory {
    mode: Mode,
    sram_latency: u64,
    counters: MemCounters,
}

impl TileMemory {
    /// Builds the tile memory for `cfg` (scratchpad or cache mode).
    pub fn from_system(cfg: &SystemConfig) -> Self {
        let sram_latency = cfg.sram_latency_cycles();
        let mode = match &cfg.memory {
            MemoryConfig::Scratchpad => Mode::Scratchpad,
            MemoryConfig::Dram(d) => {
                let line_bits = cfg.params.hbm.cacheline_bits;
                let round_trip = cfg
                    .pu_clock
                    .operating
                    .cycles_for_ps(TimePs::ns(cfg.params.hbm.ctrl_latency_ns).as_ps());
                Mode::Cache {
                    cache: CacheModel::new(cfg.sram_kib_per_tile, line_bits, 4),
                    round_trip_cycles: round_trip,
                    next_line: d.prefetch.next_line,
                    line_bytes: line_bits as u64 / 8,
                }
            }
        };
        TileMemory {
            mode,
            sram_latency,
            counters: MemCounters::default(),
        }
    }

    /// The SRAM access latency in PU cycles (bank-scaled).
    pub fn sram_latency(&self) -> u64 {
        self.sram_latency
    }

    /// Performs one word access at `addr` and returns its latency in PU
    /// cycles.
    ///
    /// In cache mode `channel` must be the HBM channel serving this tile;
    /// in scratchpad mode it is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the tile is in cache mode and `channel` is `None`.
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        cycle: u64,
        channel: Option<&mut ChannelState>,
    ) -> u64 {
        match kind {
            AccessKind::Read => {
                self.counters.sram_reads += 1;
                self.counters.sram_read_bits += WORD_BITS;
            }
            AccessKind::Write => {
                self.counters.sram_writes += 1;
                self.counters.sram_write_bits += WORD_BITS;
            }
        }
        match &mut self.mode {
            Mode::Scratchpad => self.sram_latency,
            Mode::Cache {
                cache,
                round_trip_cycles,
                next_line,
                line_bytes,
            } => {
                let channel = channel.expect("cache mode requires an HBM channel");
                self.counters.tag_accesses += 1;
                let (outcome, pf_hit) = cache.access(addr, kind == AccessKind::Write);
                if pf_hit {
                    self.counters.prefetch_hits += 1;
                }
                if outcome.is_hit() {
                    self.counters.cache_hits += 1;
                    return self.sram_latency;
                }
                self.counters.cache_misses += 1;
                self.counters.dram_line_reads += 1;
                // line fill written into SRAM; victim read out if dirty
                self.counters.sram_write_bits += *line_bytes * 8;
                let dram_latency = channel.request(cycle, *round_trip_cycles);
                if let crate::cache::AccessOutcome::Miss { writeback: true } = outcome {
                    self.counters.writebacks += 1;
                    self.counters.dram_line_writes += 1;
                    self.counters.sram_read_bits += *line_bytes * 8;
                    // posted write: occupies the channel but is off the
                    // load's critical path
                    let _ = channel.request(cycle, *round_trip_cycles);
                }
                if *next_line {
                    let next = addr + *line_bytes;
                    self.prefetch(next, cycle, Some(channel));
                }
                self.sram_latency + dram_latency
            }
        }
    }

    /// Prefetches the line holding `addr`: a pointer-indirection
    /// prefetch (TSU prefetching for tasks waiting in the input queue,
    /// paper §III-A), or a miss's next-line prefetch. The fill, and the
    /// dirty victim it evicts, occupy the channel off the critical path.
    ///
    /// No-op in scratchpad mode or when the line is already resident.
    pub fn prefetch(&mut self, addr: u64, cycle: u64, channel: Option<&mut ChannelState>) {
        if let Mode::Cache {
            cache,
            round_trip_cycles,
            line_bytes,
            ..
        } = &mut self.mode
        {
            let channel = channel.expect("cache mode requires an HBM channel");
            if let Some(wb) = cache.prefetch_fill(addr) {
                self.counters.prefetch_fills += 1;
                self.counters.sram_write_bits += *line_bytes * 8;
                let _ = channel.request(cycle, *round_trip_cycles);
                if wb {
                    self.counters.writebacks += 1;
                    self.counters.dram_line_writes += 1;
                    self.counters.sram_read_bits += *line_bytes * 8;
                    let _ = channel.request(cycle, *round_trip_cycles);
                }
            }
        }
    }

    /// Records a task-queue read (queues live in the PLM, paper §III-A)
    /// and returns its latency.
    pub fn queue_read(&mut self, words: u64) -> u64 {
        self.counters.queue_reads += 1;
        self.counters.sram_read_bits += words * WORD_BITS;
        self.sram_latency
    }

    /// Records a task-queue write and returns its latency.
    pub fn queue_write(&mut self, words: u64) -> u64 {
        self.counters.queue_writes += 1;
        self.counters.sram_write_bits += words * WORD_BITS;
        self.sram_latency
    }

    /// Event counters of this tile.
    pub fn counters(&self) -> &MemCounters {
        &self.counters
    }

    /// The cache model's LRU clock and tag array, or `(0, [])` in
    /// scratchpad mode (which holds no dynamic memory state).
    pub fn cache_state(&self) -> (u64, &[CacheLine]) {
        match &self.mode {
            Mode::Scratchpad => (0, &[]),
            Mode::Cache { cache, .. } => cache.state(),
        }
    }

    /// Overwrites the event counters and the [`TileMemory::cache_state`]
    /// (checkpoint restore). Errors on cache state for a scratchpad, or on
    /// `lines` that do not fill the configured tag array.
    pub fn restore(
        &mut self,
        counters: MemCounters,
        tick: u64,
        lines: &[CacheLine],
    ) -> Result<(), String> {
        self.counters = counters;
        match &mut self.mode {
            Mode::Scratchpad if tick == 0 && lines.is_empty() => Ok(()),
            Mode::Scratchpad => Err("cache record on a scratchpad tile".into()),
            Mode::Cache { cache, .. } => cache.restore(tick, lines),
        }
    }

    /// Host heap bytes owned by this tile's memory model (the cache tag
    /// array in DRAM mode; zero in scratchpad mode).
    pub fn heap_bytes(&self) -> u64 {
        match &self.mode {
            Mode::Scratchpad => 0,
            Mode::Cache { cache, .. } => cache.heap_bytes(),
        }
    }

    /// Cache hit rate so far (1.0 in scratchpad mode).
    pub fn hit_rate(&self) -> f64 {
        self.counters.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::DramConfig;

    fn scratchpad() -> TileMemory {
        TileMemory::from_system(&SystemConfig::default())
    }

    fn cached(kib: u32, next_line: bool) -> TileMemory {
        let mut dram = DramConfig::default();
        dram.prefetch.next_line = next_line;
        TileMemory::from_system(
            &SystemConfig::builder()
                .sram_kib_per_tile(kib)
                .dram(dram)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn scratchpad_constant_latency() {
        let mut m = scratchpad();
        let l1 = m.access(0x0, AccessKind::Read, 0, None);
        let l2 = m.access(0xFFFF_FFFF, AccessKind::Write, 99, None);
        assert_eq!(l1, m.sram_latency());
        assert_eq!(l2, m.sram_latency());
        assert_eq!(m.counters().sram_reads, 1);
        assert_eq!(m.counters().sram_writes, 1);
    }

    #[test]
    fn cache_miss_then_hit_latency() {
        let mut m = cached(64, false);
        let mut ch = ChannelState::default();
        let miss = m.access(0x4000, AccessKind::Read, 0, Some(&mut ch));
        let hit = m.access(0x4000, AccessKind::Read, 100, Some(&mut ch));
        assert!(miss > hit, "miss {miss} must exceed hit {hit}");
        assert_eq!(hit, m.sram_latency());
        assert_eq!(m.counters().cache_misses, 1);
        assert_eq!(m.counters().cache_hits, 1);
        // 50ns at 1GHz = 50 cycles round trip
        assert_eq!(miss, m.sram_latency() + 50);
    }

    #[test]
    fn channel_contention_increases_miss_latency() {
        let mut m = cached(64, false);
        let mut ch = ChannelState::default();
        let first = m.access(0x0000, AccessKind::Read, 0, Some(&mut ch));
        let second = m.access(0x1_0000, AccessKind::Read, 0, Some(&mut ch));
        assert!(second > first, "queued request must wait");
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut m = cached(64, false);
        let mut ch = ChannelState::default();
        // discover geometry indirectly: write a long stride until something
        // evicts; with 64 KiB PLM the cache holds ~< 64 KiB of data
        for i in 0..4096u64 {
            m.access(i * 64, AccessKind::Write, 0, Some(&mut ch));
        }
        assert!(m.counters().writebacks > 0);
        assert_eq!(m.counters().dram_line_writes, m.counters().writebacks);
    }

    #[test]
    fn next_line_prefetch_hits() {
        let mut with_pf = cached(64, true);
        let mut without = cached(64, false);
        let mut ch1 = ChannelState::default();
        let mut ch2 = ChannelState::default();
        // sequential scan: every second line should be prefetched
        let mut pf_lat = 0;
        let mut plain_lat = 0;
        for i in 0..64u64 {
            pf_lat += with_pf.access(i * 64, AccessKind::Read, i * 200, Some(&mut ch1));
            plain_lat += without.access(i * 64, AccessKind::Read, i * 200, Some(&mut ch2));
        }
        assert!(with_pf.counters().prefetch_fills > 0);
        assert!(with_pf.counters().prefetch_hits > 0);
        assert!(
            pf_lat < plain_lat,
            "prefetching scan latency {pf_lat} should beat {plain_lat}"
        );
    }

    /// A write scan with next-line prefetch over twelve times a 4 KiB
    /// cache: demand misses and prefetch fills both evict dirty lines.
    /// Pins every counter the two paths touch and the summed latency.
    #[test]
    fn next_line_prefetch_accounts_fills_and_victims() {
        let mut m = cached(4, true);
        let mut ch = ChannelState::default();
        let mut latency = 0;
        for i in 0..512u64 {
            latency += m.access(i * 96, AccessKind::Write, i * 20, Some(&mut ch));
        }
        let c = m.counters();
        let got = (
            [
                c.cache_misses,
                c.cache_hits,
                c.prefetch_fills,
                c.prefetch_hits,
            ],
            [c.writebacks, c.dram_line_reads, c.dram_line_writes],
            [c.sram_read_bits, c.sram_write_bits, latency],
        );
        assert_eq!(
            got,
            (
                [256, 256, 256, 256],
                [480, 256, 480],
                [245_760, 278_528, 13_312]
            )
        );
    }

    #[test]
    fn pointer_prefetch_warms_cache() {
        let mut m = cached(64, false);
        let mut ch = ChannelState::default();
        m.prefetch(0x8000, 0, Some(&mut ch));
        assert_eq!(m.counters().prefetch_fills, 1);
        let lat = m.access(0x8000, AccessKind::Read, 100, Some(&mut ch));
        assert_eq!(lat, m.sram_latency());
        assert_eq!(m.counters().prefetch_hits, 1);
    }

    #[test]
    fn queue_ops_counted_as_sram_traffic() {
        let mut m = scratchpad();
        let l = m.queue_write(3);
        assert_eq!(l, m.sram_latency());
        m.queue_read(3);
        assert_eq!(m.counters().queue_writes, 1);
        assert_eq!(m.counters().queue_reads, 1);
        assert_eq!(m.counters().sram_read_bits, 96);
        assert_eq!(m.counters().sram_write_bits, 96);
    }

    #[test]
    fn bigger_plm_higher_hit_rate() {
        let run = |kib: u32| {
            let mut m = cached(kib, false);
            let mut ch = ChannelState::default();
            // working set ~96 KiB, accessed twice
            for _ in 0..2 {
                for i in 0..1536u64 {
                    m.access(i * 64, AccessKind::Read, 0, Some(&mut ch));
                }
            }
            m.hit_rate()
        };
        let small = run(64);
        let big = run(256);
        assert!(big > small, "hit rate {big:.3} should beat {small:.3}");
    }

    #[test]
    #[should_panic(expected = "requires an HBM channel")]
    fn cache_mode_requires_channel() {
        let mut m = cached(64, false);
        m.access(0, AccessKind::Read, 0, None);
    }
}
