//! Property-based tests on the traffic pattern generators: destinations
//! stay in-bounds on arbitrary grids, the permutation patterns really
//! are bijections, the hotspot pattern honors its skew fraction, and the
//! timetable a [`TrafficApp`] draws as the engine injects is the one a
//! plain eager loop over the same spec builds.

use muchisim_config::{SystemConfig, TrafficParams, TrafficPattern};
use muchisim_core::{Application, GridInfo, Payload, ScheduledSend};
use muchisim_traffic::{tile_seed, PatternMap, TrafficApp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn params(seed: u64) -> TrafficParams {
    TrafficParams {
        seed,
        ..TrafficParams::default()
    }
}

/// The reference model of a tile's timetable, built eagerly into a list:
/// one Bernoulli(rate) coin per cycle of the window, then the
/// destination, then (for a size range) the payload size, all from the
/// tile's RNG stream; payload word 0 the tile's packet sequence number,
/// word 1 the source tile.
fn tile_schedule(map: &PatternMap, params: &TrafficParams, tile: u32) -> Vec<ScheduledSend> {
    let mut rng = SmallRng::seed_from_u64(tile_seed(params.seed, tile));
    let mut out = Vec::new();
    let mut seq = 0u32;
    for cycle in 0..params.cycles {
        if !rng.gen_bool(params.rate) {
            continue;
        }
        let dst = map.dest(tile, &mut rng);
        let words = if params.payload_words_min == params.payload_words_max {
            params.payload_words_min
        } else {
            rng.gen_range(params.payload_words_min..=params.payload_words_max)
        };
        let mut payload = vec![0u32; words as usize];
        if let Some(w) = payload.first_mut() {
            *w = seq;
        }
        if let Some(w) = payload.get_mut(1) {
            *w = tile;
        }
        seq = seq.wrapping_add(1);
        out.push(ScheduledSend {
            cycle,
            dst,
            task: 0,
            payload: Payload::from_slice(&payload),
            reduce: None,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every pattern keeps every destination inside the grid, from every
    /// source, deterministic and randomized alike.
    #[test]
    fn prop_destinations_in_bounds(
        w in 1u32..17,
        h in 1u32..17,
        seed in any::<u64>(),
    ) {
        let p = params(seed);
        let total = w * h;
        for pattern in TrafficPattern::ALL {
            let map = PatternMap::new(pattern, w, h, &p);
            let mut rng = SmallRng::seed_from_u64(seed);
            for src in 0..total {
                for _ in 0..4 {
                    let d = map.dest(src, &mut rng);
                    prop_assert!(d < total, "{pattern:?}: {src} -> {d} on {w}x{h}");
                }
                if let Some(d) = map.fixed_dest(src) {
                    prop_assert!(d < total);
                }
            }
        }
    }

    /// Transpose, shuffle and bit-complement are bijections on any grid:
    /// every tile receives from exactly one sender.
    #[test]
    fn prop_permutation_patterns_are_bijections(
        w in 1u32..23,
        h in 1u32..23,
        seed in any::<u64>(),
    ) {
        let p = params(seed);
        let total = w * h;
        for pattern in [
            TrafficPattern::Transpose,
            TrafficPattern::Shuffle,
            TrafficPattern::BitComplement,
            TrafficPattern::NearestNeighbor,
        ] {
            let map = PatternMap::new(pattern, w, h, &p);
            let mut hit = vec![false; total as usize];
            for src in 0..total {
                let d = map.fixed_dest(src)
                    .expect("permutation patterns are deterministic");
                prop_assert!(d < total, "{pattern:?}: {src} -> {d}");
                prop_assert!(
                    !hit[d as usize],
                    "{pattern:?} on {w}x{h}: destination {d} hit twice"
                );
                hit[d as usize] = true;
            }
            prop_assert!(hit.iter().all(|&b| b), "{pattern:?}: not surjective");
        }
    }

    /// The hotspot pattern routes its configured fraction (±5 points,
    /// plus the uniform tail's accidental hits) into the hotspot set.
    #[test]
    fn prop_hotspot_honors_skew_fraction(
        w in 3u32..10,
        h in 3u32..10,
        seed in any::<u64>(),
        frac_pct in 20u32..95,
        targets in 1u32..5,
    ) {
        let mut p = params(seed);
        p.hotspot_fraction = frac_pct as f64 / 100.0;
        p.hotspot_targets = targets;
        p.rate = 0.5;
        p.cycles = 3_000;
        let map = PatternMap::new(TrafficPattern::Hotspot, w, h, &p);
        let total = w * h;
        prop_assert_eq!(map.hotspots().len(), targets.min(total) as usize);
        // measure through the schedule model, over a few tiles
        let mut sent = 0u64;
        let mut hot = 0u64;
        for tile in 0..total.min(4) {
            for s in tile_schedule(&map, &p, tile) {
                sent += 1;
                if map.hotspots().contains(&s.dst) {
                    hot += 1;
                }
            }
        }
        prop_assert!(sent > 1_000, "enough samples to measure: {sent}");
        let measured = hot as f64 / sent as f64;
        // uniform tail adds ~targets/total of the remaining fraction
        let tail = (1.0 - p.hotspot_fraction)
            * (map.hotspots().len() as f64 / total as f64);
        let want = p.hotspot_fraction + tail;
        prop_assert!(
            (measured - want).abs() < 0.05,
            "hotspot skew {measured:.3}, configured {want:.3} ({w}x{h}, {targets} targets)"
        );
    }

    /// Per-tile RNG streams are independent yet reproducible.
    #[test]
    fn prop_tile_seeds_reproducible_and_distinct(
        seed in any::<u64>(),
        a in 0u32..4096,
        b in 0u32..4096,
    ) {
        prop_assert_eq!(tile_seed(seed, a), tile_seed(seed, a));
        if a != b {
            prop_assert_ne!(tile_seed(seed, a), tile_seed(seed, b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every pattern's drawn timetable equals the model's list, send for
    /// send, on random grids, loads, seeds and payload ranges (sizes
    /// past 6 words spill the payload to the heap), and the stream's
    /// length is the list's.
    #[test]
    fn prop_drawn_timetables_equal_the_eager_model(
        w in 1u32..9,
        h in 1u32..9,
        rate_pct in 1u32..101,
        seed in any::<u64>(),
        words_min in 0u32..10,
        words_span in 0u32..6,
        hotspot_pct in 0u32..101,
    ) {
        let mut p = params(seed);
        p.rate = f64::from(rate_pct) / 100.0;
        p.cycles = 120;
        p.payload_words_min = words_min;
        p.payload_words_max = words_min + words_span;
        p.hotspot_fraction = f64::from(hotspot_pct) / 100.0;
        let cfg = SystemConfig::builder()
            .chiplet_tiles(w, h)
            .traffic(p.clone())
            .build()
            .expect("valid grid");
        let grid = GridInfo {
            width: w,
            height: h,
            total_tiles: w * h,
            pus_per_tile: 1,
        };
        for pattern in TrafficPattern::ALL {
            let app = TrafficApp::new(&cfg, pattern).expect("valid traffic");
            let map = PatternMap::new(pattern, w, h, &p);
            let mut packets = 0u64;
            for tile in 0..w * h {
                let model = tile_schedule(&map, &p, tile);
                let stream = app.scheduled_sends(tile, &grid);
                prop_assert_eq!(stream.len(), model.len(), "{:?} tile {}", pattern, tile);
                let drawn: Vec<ScheduledSend> = stream.collect();
                prop_assert_eq!(&drawn, &model, "{:?} tile {}", pattern, tile);
                packets += model.len() as u64;
            }
            prop_assert_eq!(app.total_packets(), packets, "{:?}", pattern);
        }
    }
}
