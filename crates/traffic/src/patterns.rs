//! Synthetic spatial traffic patterns and injection-schedule generation.
//!
//! A [`PatternMap`] resolves a source tile to destination tiles for one
//! of the classic NoC characterization patterns (BookSim-style). The
//! permutation patterns (bit-complement, transpose, shuffle) are strict
//! bijections on *any* `w × h` grid — power-of-two shapes get the
//! textbook bit definitions, everything else a generalized equivalent —
//! so offered and received load stay balanced. Randomized patterns
//! (uniform, hotspot) draw from a caller-supplied RNG.
//!
//! `TileSends` draws a tile's injection timetable from a pattern plus
//! [`TrafficParams`], one send at a time as the engine injects it: a
//! Bernoulli(rate) coin per NoC cycle (the standard open-loop injection
//! process), payload sizes uniform in the configured word range,
//! everything derived from a per-tile RNG stream so schedules are
//! identical for any host-thread count.

use muchisim_config::{TrafficParams, TrafficPattern};
use muchisim_core::{Payload, ScheduledSend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Derives a statistically independent per-tile seed (splitmix64 mix of
/// the master seed and the tile id).
pub fn tile_seed(master: u64, tile: u32) -> u64 {
    let mut z = master ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tile as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pattern resolved against a concrete grid.
#[derive(Debug, Clone)]
pub struct PatternMap {
    pattern: TrafficPattern,
    width: u32,
    height: u32,
    total: u32,
    /// Seeded permutation table for [`TrafficPattern::Shuffle`] on
    /// non-power-of-two tile counts (shared: built once per app).
    shuffle: Option<Arc<Vec<u32>>>,
    /// Hotspot destination tiles, evenly spread over the grid.
    hotspots: Vec<u32>,
    hotspot_fraction: f64,
}

impl PatternMap {
    /// Resolves `pattern` against a `width × height` grid.
    pub fn new(pattern: TrafficPattern, width: u32, height: u32, params: &TrafficParams) -> Self {
        let total = width * height;
        let shuffle = (pattern == TrafficPattern::Shuffle && !total.is_power_of_two())
            .then(|| Arc::new(seeded_permutation(total, params.seed)));
        let targets = params.hotspot_targets.min(total).max(1);
        // spread along the grid diagonal so targets cover both dimensions
        // (an index stride of total/targets degenerates to one column
        // whenever it is a multiple of the width); on grids smaller than
        // the target count positions may repeat, which only reweights the
        // random pick
        let hotspots = (0..targets)
            .map(|i| {
                let x = ((2 * i as u64 + 1) * width as u64 / (2 * targets as u64)) as u32;
                let y = ((2 * i as u64 + 1) * height as u64 / (2 * targets as u64)) as u32;
                y * width + x
            })
            .collect();
        PatternMap {
            pattern,
            width,
            height,
            total,
            shuffle,
            hotspots,
            hotspot_fraction: params.hotspot_fraction,
        }
    }

    /// Total tiles of the grid.
    pub(crate) fn total_tiles(&self) -> u32 {
        self.total
    }

    /// The hotspot destination set (meaningful for
    /// [`TrafficPattern::Hotspot`]).
    pub fn hotspots(&self) -> &[u32] {
        &self.hotspots
    }

    /// The fixed destination of `src` for deterministic (permutation)
    /// patterns, `None` for randomized ones.
    pub fn fixed_dest(&self, src: u32) -> Option<u32> {
        let (w, h, n) = (self.width, self.height, self.total);
        let (x, y) = (src % w, src / w);
        match self.pattern {
            TrafficPattern::UniformRandom | TrafficPattern::Hotspot => None,
            // point reflection; on power-of-two grids this is the
            // bit-complement of the coordinate bits
            TrafficPattern::BitComplement => Some((h - 1 - y) * w + (w - 1 - x)),
            // generalized index transpose: y·w + x  →  x·h + y
            TrafficPattern::Transpose => Some(x * h + y),
            TrafficPattern::Shuffle => Some(match &self.shuffle {
                Some(table) => table[src as usize],
                // power of two: rotate the index bits left by one
                None => {
                    let bits = n.trailing_zeros();
                    if bits == 0 {
                        0
                    } else {
                        ((src << 1) | (src >> (bits - 1))) & (n - 1)
                    }
                }
            }),
            TrafficPattern::NearestNeighbor => Some(y * w + (x + 1) % w),
        }
    }

    /// The destination of one packet from `src`, drawing randomized
    /// patterns from `rng`.
    pub fn dest(&self, src: u32, rng: &mut SmallRng) -> u32 {
        if let Some(dst) = self.fixed_dest(src) {
            return dst;
        }
        match self.pattern {
            TrafficPattern::Hotspot if rng.gen_bool(self.hotspot_fraction) => {
                self.hotspots[rng.gen_range(0..self.hotspots.len())]
            }
            _ => self.uniform_other(src, rng),
        }
    }

    /// A uniform destination over all tiles except `src`.
    fn uniform_other(&self, src: u32, rng: &mut SmallRng) -> u32 {
        if self.total <= 1 {
            return src;
        }
        let raw = rng.gen_range(0..self.total - 1);
        if raw >= src {
            raw + 1
        } else {
            raw
        }
    }
}

/// A seed-derived permutation of `0..n` (Fisher–Yates over a dedicated
/// RNG stream).
fn seeded_permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut table: Vec<u32> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5348_5546_464C);
    for i in (1..table.len()).rev() {
        let j = rng.gen_range(0..=i);
        table.swap(i, j);
    }
    table
}

/// Tile `tile`'s injection timetable, drawn one send at a time: one
/// Bernoulli(rate) coin per cycle of the injection window, destinations
/// from the map, payload sizes uniform in `[payload_words_min,
/// payload_words_max]` words. Payload word 0 is the per-tile packet
/// sequence number, word 1 (when present) the source tile. Everything
/// comes from the tile's own RNG stream, so a timetable is the same for
/// any host-thread count and on every draw.
#[derive(Debug)]
pub(crate) struct TileSends {
    map: Arc<PatternMap>,
    params: TrafficParams,
    rng: SmallRng,
    tile: u32,
    /// The next cycle whose coin is still to be tossed.
    cycle: u64,
    seq: u32,
}

impl TileSends {
    /// Tile `tile`'s timetable under `map` and `params`, from its start.
    pub(crate) fn new(map: Arc<PatternMap>, params: &TrafficParams, tile: u32) -> Self {
        TileSends {
            map,
            params: params.clone(),
            rng: SmallRng::seed_from_u64(tile_seed(params.seed, tile)),
            tile,
            cycle: 0,
            seq: 0,
        }
    }
}

impl Iterator for TileSends {
    type Item = ScheduledSend;

    fn next(&mut self) -> Option<ScheduledSend> {
        let p = &self.params;
        while self.cycle < p.cycles {
            let cycle = self.cycle;
            self.cycle += 1;
            if !self.rng.gen_bool(p.rate) {
                continue;
            }
            let dst = self.map.dest(self.tile, &mut self.rng);
            let words = if p.payload_words_min == p.payload_words_max {
                p.payload_words_min
            } else {
                self.rng
                    .gen_range(p.payload_words_min..=p.payload_words_max)
            };
            let mut payload = Payload::zeros(words as usize);
            if words > 0 {
                payload.set_word(0, self.seq);
            }
            if words > 1 {
                payload.set_word(1, self.tile);
            }
            self.seq = self.seq.wrapping_add(1);
            return Some(ScheduledSend {
                cycle,
                dst,
                task: 0,
                payload,
                reduce: None,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TrafficParams {
        TrafficParams::default()
    }

    fn drawn_schedule(map: &PatternMap, p: &TrafficParams, tile: u32) -> Vec<ScheduledSend> {
        TileSends::new(Arc::new(map.clone()), p, tile).collect()
    }

    #[test]
    fn tile_seeds_differ() {
        let a = tile_seed(7, 0);
        let b = tile_seed(7, 1);
        let c = tile_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, tile_seed(7, 0));
    }

    #[test]
    fn bit_complement_matches_bit_definition_on_pow2() {
        // 4x4: tile index bits are yyxx; coordinate reflection == ~i
        let map = PatternMap::new(TrafficPattern::BitComplement, 4, 4, &params());
        for i in 0..16u32 {
            assert_eq!(map.fixed_dest(i), Some(!i & 15));
        }
    }

    #[test]
    fn shuffle_rotates_bits_on_pow2() {
        let map = PatternMap::new(TrafficPattern::Shuffle, 4, 2, &params());
        // 8 tiles, 3 bits: i=0b110 -> 0b101
        assert_eq!(map.fixed_dest(0b110), Some(0b101));
        assert_eq!(map.fixed_dest(0b001), Some(0b010));
    }

    #[test]
    fn transpose_is_involutive_on_square() {
        let map = PatternMap::new(TrafficPattern::Transpose, 4, 4, &params());
        for i in 0..16u32 {
            let j = map.fixed_dest(i).unwrap();
            assert_eq!(map.fixed_dest(j), Some(i));
        }
    }

    #[test]
    fn neighbor_wraps_within_rows() {
        let map = PatternMap::new(TrafficPattern::NearestNeighbor, 4, 2, &params());
        assert_eq!(map.fixed_dest(0), Some(1));
        assert_eq!(map.fixed_dest(3), Some(0), "row wrap");
        assert_eq!(map.fixed_dest(7), Some(4));
    }

    #[test]
    fn uniform_never_targets_self() {
        let map = PatternMap::new(TrafficPattern::UniformRandom, 3, 3, &params());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            let d = map.dest(4, &mut rng);
            assert_ne!(d, 4);
            assert!(d < 9);
        }
    }

    #[test]
    fn single_tile_grid_degenerates_to_self() {
        let map = PatternMap::new(TrafficPattern::UniformRandom, 1, 1, &params());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(map.dest(0, &mut rng), 0);
    }

    #[test]
    fn schedules_are_deterministic_and_rate_scaled() {
        let mut p = params();
        p.cycles = 4_000;
        p.rate = 0.1;
        let map = PatternMap::new(TrafficPattern::UniformRandom, 4, 4, &p);
        let a = drawn_schedule(&map, &p, 3);
        let b = drawn_schedule(&map, &p, 3);
        assert_eq!(a, b, "same tile, same seed, same schedule");
        let other = drawn_schedule(&map, &p, 4);
        assert_ne!(a, other, "tiles draw independent streams");
        // binomial(4000, 0.1): mean 400, generous 5-sigma bounds
        assert!((300..500).contains(&a.len()), "got {} packets", a.len());
        // sorted by cycle, all in the window
        assert!(a.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(a.iter().all(|s| s.cycle < p.cycles));
        let mut hi = p.clone();
        hi.rate = 0.4;
        let dense = drawn_schedule(&map, &hi, 3);
        assert!(dense.len() > 2 * a.len());
    }

    #[test]
    fn payload_sizes_respect_the_configured_range() {
        let mut p = params();
        p.payload_words_min = 1;
        p.payload_words_max = 8;
        p.rate = 0.5;
        p.cycles = 400;
        let map = PatternMap::new(TrafficPattern::UniformRandom, 2, 2, &p);
        let sched = drawn_schedule(&map, &p, 0);
        assert!(sched.iter().all(|s| (1..=8).contains(&s.payload.len())));
        let sizes: std::collections::HashSet<usize> =
            sched.iter().map(|s| s.payload.len()).collect();
        assert!(sizes.len() > 3, "sizes should vary: {sizes:?}");
    }

    #[test]
    fn hotspots_are_honored_roughly_at_the_configured_fraction() {
        let mut p = params();
        p.hotspot_targets = 2;
        p.hotspot_fraction = 0.75;
        let map = PatternMap::new(TrafficPattern::Hotspot, 4, 4, &p);
        // diagonal spread: (1,1) and (3,3), not a single column
        assert_eq!(map.hotspots(), &[5, 15]);
        let xs: std::collections::HashSet<u32> = map.hotspots().iter().map(|t| t % 4).collect();
        let ys: std::collections::HashSet<u32> = map.hotspots().iter().map(|t| t / 4).collect();
        assert!(xs.len() > 1 && ys.len() > 1, "targets span both dimensions");
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 4_000;
        let hits = (0..n)
            .filter(|_| map.hotspots().contains(&map.dest(5, &mut rng)))
            .count();
        let frac = hits as f64 / n as f64;
        // hotspot picks plus the uniform tail's accidental hits
        assert!((0.70..0.85).contains(&frac), "hotspot fraction {frac}");
    }
}
