//! The synthetic-traffic application.
//!
//! [`TrafficApp`] implements the engine's [`Application`] trait over a
//! pre-computed injection timetable, so synthetic traffic runs unmodified
//! through everything the real applications use: the parallel cycle
//! driver, time leaping, statistics frames, telemetry, DSE sweeps, and
//! the CLI. The tile "compute" is a one-instruction receive handler —
//! traffic stresses the *network*, and the per-packet latency statistics
//! ([`muchisim_core::SimResult::noc_latency`]) are collected by the NoC
//! itself at the ejection point.

use crate::patterns::{tile_schedule, PatternMap};
use muchisim_config::{ConfigError, SystemConfig, TrafficParams, TrafficPattern};
use muchisim_core::{Application, GridInfo, ScheduledSend, TaskCtx};

/// A synthetic-traffic workload: every tile injects packets on a
/// deterministic timetable drawn from a spatial pattern and offered load.
#[derive(Debug)]
pub struct TrafficApp {
    pattern: TrafficPattern,
    params: TrafficParams,
    /// Per-tile injection timetables.
    schedules: Vec<Vec<ScheduledSend>>,
    /// Expected packet deliveries per tile (reduce-free traffic: every
    /// scheduled packet arrives exactly once).
    expected: Vec<u64>,
    offered: u64,
}

impl TrafficApp {
    /// Builds the workload for `cfg`'s grid with `pattern`, taking every
    /// other knob (rate, window, sizes, seed) from `cfg.traffic`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Traffic`] for invalid traffic parameters or
    /// a zero offered load.
    pub fn new(cfg: &SystemConfig, pattern: TrafficPattern) -> Result<Self, ConfigError> {
        let params = cfg.traffic.clone();
        params.validate()?;
        if params.rate <= 0.0 {
            return Err(ConfigError::Traffic {
                why: "synthetic traffic needs a positive injection rate",
            });
        }
        let (w, h) = (cfg.width(), cfg.height());
        let map = PatternMap::new(pattern, w, h, &params);
        let total = map.total_tiles();
        let mut expected = vec![0u64; total as usize];
        let mut offered = 0u64;
        let schedules: Vec<Vec<ScheduledSend>> = (0..total)
            .map(|tile| {
                let sched = tile_schedule(&map, &params, tile);
                offered += sched.len() as u64;
                for s in &sched {
                    expected[s.dst as usize] += 1;
                }
                sched
            })
            .collect();
        Ok(TrafficApp {
            pattern,
            params,
            schedules,
            expected,
            offered,
        })
    }

    /// Builds the workload with the pattern from `cfg.traffic.pattern`.
    pub fn from_config(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        Self::new(cfg, cfg.traffic.pattern)
    }

    /// The spatial pattern.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Total packets offered across all tiles.
    pub fn offered_packets(&self) -> u64 {
        self.offered
    }

    /// The injection-window length in NoC cycles.
    pub fn window_cycles(&self) -> u64 {
        self.params.cycles
    }
}

impl Application for TrafficApp {
    /// Packets received by the tile.
    type Tile = u64;

    fn name(&self) -> &'static str {
        match self.pattern {
            TrafficPattern::UniformRandom => "traffic-uniform",
            TrafficPattern::BitComplement => "traffic-bitcomp",
            TrafficPattern::Transpose => "traffic-transpose",
            TrafficPattern::Shuffle => "traffic-shuffle",
            TrafficPattern::NearestNeighbor => "traffic-neighbor",
            TrafficPattern::Hotspot => "traffic-hotspot",
        }
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u64 {
        0
    }

    fn init(&self, _state: &mut u64, _ctx: &mut TaskCtx<'_>) {}

    fn handle(&self, state: &mut u64, _task: u8, _msg: &[u32], ctx: &mut TaskCtx<'_>) {
        *state += 1;
        ctx.int_ops(1);
    }

    fn scheduled_sends(&self, tile: u32, _grid: &GridInfo) -> Vec<ScheduledSend> {
        self.schedules[tile as usize].clone()
    }

    fn snapshot_tile(&self, state: &u64, out: &mut Vec<u8>) -> Result<(), String> {
        muchisim_core::snapshot::Put::put(state, out);
        Ok(())
    }

    fn restore_tile(&self, state: &mut u64, bytes: &[u8]) -> Result<(), String> {
        let mut r = muchisim_core::snapshot::ByteReader::new(bytes);
        *state = r.get()?;
        r.expect_end()
    }

    fn check(&self, tiles: &[u64]) -> Result<(), String> {
        for (tile, (&got, &want)) in tiles.iter().zip(&self.expected).enumerate() {
            if got != want {
                return Err(format!(
                    "tile {tile} received {got} packets, expected {want}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_core::Simulation;

    fn cfg(rate: f64) -> SystemConfig {
        let traffic = TrafficParams {
            rate,
            cycles: 300,
            ..TrafficParams::default()
        };
        SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .traffic(traffic)
            .build()
            .unwrap()
    }

    #[test]
    fn traffic_runs_end_to_end_and_checks() {
        let cfg = cfg(0.05);
        let app = TrafficApp::new(&cfg, TrafficPattern::Transpose).unwrap();
        let offered = app.offered_packets();
        assert!(offered > 0);
        let result = Simulation::new(cfg, app).unwrap().run().unwrap();
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        assert_eq!(result.counters.noc.injected, offered);
        assert_eq!(result.counters.noc.ejected, offered);
        assert_eq!(result.noc_latency.count, offered);
        assert!(result.noc_latency.mean() > 0.0);
    }

    #[test]
    fn every_pattern_runs_clean_on_a_small_grid() {
        for pattern in TrafficPattern::ALL {
            let cfg = cfg(0.08);
            let app = TrafficApp::new(&cfg, pattern).unwrap();
            let result = Simulation::new(cfg, app).unwrap().run().unwrap();
            assert!(
                result.check_error.is_none(),
                "{pattern:?}: {:?}",
                result.check_error
            );
            assert!(result.counters.noc.injected > 0, "{pattern:?}");
        }
    }

    #[test]
    fn zero_rate_is_rejected() {
        let cfg = cfg(0.0);
        let err = TrafficApp::from_config(&cfg).unwrap_err();
        assert!(err.to_string().contains("positive injection rate"));
    }

    #[test]
    fn from_config_takes_the_configured_pattern() {
        let mut cfg = cfg(0.05);
        cfg.traffic.pattern = TrafficPattern::Hotspot;
        let app = TrafficApp::from_config(&cfg).unwrap();
        assert_eq!(app.pattern(), TrafficPattern::Hotspot);
        assert_eq!(app.name(), "traffic-hotspot");
    }

    #[test]
    fn realized_rate_tracks_the_offered_rate() {
        let cfg = cfg(0.2);
        let app = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).unwrap();
        let r =
            app.offered_packets() as f64 / (cfg.total_tiles() as f64 * app.window_cycles() as f64);
        assert!((0.15..0.25).contains(&r), "realized {r}");
    }
}
