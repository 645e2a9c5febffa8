//! The timetable application: synthetic traffic and trace replay.
//!
//! [`TrafficApp`] implements the engine's [`Application`] trait over a
//! pre-computed injection timetable, so synthetic traffic runs unmodified
//! through everything the real applications use: the parallel cycle
//! driver, time leaping, statistics frames, telemetry, DSE sweeps, and
//! the CLI. The tile "compute" is a one-instruction receive handler —
//! traffic stresses the *network*, and the per-packet latency statistics
//! ([`muchisim_core::SimResult::noc_latency`]) are collected by the NoC
//! itself at the ejection point.
//!
//! The timetable comes from a spatial pattern ([`TrafficApp::new`]) or
//! from a recorded trace ([`TrafficApp::replay`]). A trace recorded from
//! any run (`SystemConfig::noc_trace`) captures every packet at the NoC
//! injection point with full fidelity — cycle, endpoints, task, payload
//! words, reduction operator — so its replay shows the network the same
//! packets at the same cycles while the original application's compute
//! never runs. On the recording configuration the NoC evolves
//! identically (provided ejection is never refused — give the input
//! queues headroom); under a *different* `noc.*` configuration the same
//! communication pattern re-simulates in a fraction of full-app time,
//! which is the point: NoC-only design exploration over real app
//! traffic.

use crate::patterns::{tile_schedule, PatternMap};
use muchisim_config::{ConfigError, SystemConfig, TrafficPattern};
use muchisim_core::{Application, GridInfo, Payload, ScheduledSend, TaskCtx};
use muchisim_noc::{read_trace_jsonl, sort_events, TraceEvent};

/// A timetable workload: every tile injects packets on a deterministic
/// timetable, drawn from a spatial pattern and offered load or read from
/// a recorded trace.
#[derive(Debug)]
pub struct TrafficApp {
    name: &'static str,
    /// Per-tile injection timetables.
    schedules: Vec<Vec<ScheduledSend>>,
    task_types: u8,
    /// Packets each tile must receive, when no packet carries a reduce op
    /// (then every scheduled packet arrives exactly once). In-network
    /// reduction may merge packets, which bounds only the total.
    expected: Option<Vec<u64>>,
    total_packets: u64,
    last_cycle: u64,
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
        let params = &cfg.traffic;
        params.validate()?;
        if params.rate <= 0.0 {
            return Err(ConfigError::Traffic {
                why: "synthetic traffic needs a positive injection rate",
            });
        }
        let map = PatternMap::new(pattern, cfg.width(), cfg.height(), params);
        let schedules = (0..map.total_tiles()).map(|tile| tile_schedule(&map, params, tile));
        let name = match pattern {
            TrafficPattern::UniformRandom => "traffic-uniform",
            TrafficPattern::BitComplement => "traffic-bitcomp",
            TrafficPattern::Transpose => "traffic-transpose",
            TrafficPattern::Shuffle => "traffic-shuffle",
            TrafficPattern::NearestNeighbor => "traffic-neighbor",
            TrafficPattern::Hotspot => "traffic-hotspot",
        };
        Ok(Self::timetable(name, schedules))
    }

    /// Builds a replay of the recorded `events` on a grid of
    /// `total_tiles`.
    ///
    /// # Errors
    ///
    /// Returns a description when the trace is empty, references tiles
    /// outside the grid (replaying on a smaller grid is not meaningful),
    /// or uses more task types than the engine supports.
    pub fn replay(mut events: Vec<TraceEvent>, total_tiles: u32) -> Result<Self, String> {
        if events.is_empty() {
            return Err("trace holds no events".to_string());
        }
        sort_events(&mut events);
        let mut schedules: Vec<Vec<ScheduledSend>> = vec![Vec::new(); total_tiles as usize];
        for (i, ev) in events.into_iter().enumerate() {
            if ev.src >= total_tiles || ev.dst >= total_tiles {
                return Err(format!(
                    "trace event {} ({} -> {}) is outside the {total_tiles}-tile grid",
                    i + 1,
                    ev.src,
                    ev.dst
                ));
            }
            if ev.task >= 32 {
                return Err(format!(
                    "trace uses task type {}, above the engine maximum",
                    ev.task
                ));
            }
            schedules[ev.src as usize].push(ScheduledSend {
                cycle: ev.cycle,
                dst: ev.dst,
                task: ev.task,
                payload: Payload::from_slice(&ev.payload),
                reduce: ev.reduce,
            });
        }
        Ok(Self::timetable("trace-replay", schedules.into_iter()))
    }

    /// Reads a JSONL trace file and builds its replay.
    ///
    /// # Errors
    ///
    /// Propagates file/parse errors and [`TrafficApp::replay`]
    /// validation.
    pub fn replay_file(path: &str, total_tiles: u32) -> Result<Self, String> {
        Self::replay(read_trace_jsonl(path)?, total_tiles)
    }

    /// The workload over the per-tile timetables `tiles`, its check
    /// derived from them.
    fn timetable(
        name: &'static str,
        tiles: impl ExactSizeIterator<Item = Vec<ScheduledSend>>,
    ) -> Self {
        let mut expected = vec![0u64; tiles.len()];
        let (mut max_task, mut last_cycle, mut reduces) = (0u8, 0u64, false);
        // each timetable is accounted as it is made, while still in cache
        let schedules = tiles
            .inspect(|sends| {
                for s in sends {
                    expected[s.dst as usize] += 1;
                    max_task = max_task.max(s.task);
                    last_cycle = last_cycle.max(s.cycle);
                    reduces |= s.reduce.is_some();
                }
            })
            .collect();
        TrafficApp {
            name,
            task_types: max_task + 1,
            total_packets: expected.iter().sum(),
            expected: (!reduces).then_some(expected),
            last_cycle,
            schedules,
        }
    }

    /// Packets the timetable injects.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// The last scheduled injection cycle.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }
}

impl Application for TrafficApp {
    /// Packets received by the tile.
    type Tile = u64;

    fn name(&self) -> &'static str {
        self.name
    }

    fn task_types(&self) -> u8 {
        self.task_types
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
        let Some(expected) = &self.expected else {
            // in-network reduction may legitimately merge packets, so the
            // delivered count is bounded by — not equal to — the injected one
            let delivered: u64 = tiles.iter().sum();
            if delivered == 0 || delivered > self.total_packets {
                return Err(format!(
                    "delivered {delivered} of {} injected packets",
                    self.total_packets
                ));
            }
            return Ok(());
        };
        for (tile, (&got, &want)) in tiles.iter().zip(expected).enumerate() {
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
    use muchisim_config::TrafficParams;
    use muchisim_core::Simulation;
    use muchisim_noc::ReduceOp;

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

    fn ev(cycle: u64, src: u32, dst: u32, task: u8) -> TraceEvent {
        TraceEvent {
            cycle,
            src,
            dst,
            task,
            flits: 2,
            reduce: None,
            payload: vec![src],
        }
    }

    #[test]
    fn traffic_runs_end_to_end_and_checks() {
        let cfg = cfg(0.05);
        let app = TrafficApp::new(&cfg, TrafficPattern::Transpose).unwrap();
        let offered = app.total_packets();
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
        let err = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).unwrap_err();
        assert!(err.to_string().contains("positive injection rate"));
    }

    #[test]
    fn realized_rate_tracks_the_offered_rate() {
        let cfg = cfg(0.2);
        let app = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).unwrap();
        let r = app.total_packets() as f64 / (cfg.total_tiles() as f64 * cfg.traffic.cycles as f64);
        assert!((0.15..0.25).contains(&r), "realized {r}");
    }

    #[test]
    fn events_map_to_per_tile_schedules_in_order() {
        let app =
            TrafficApp::replay(vec![ev(9, 1, 0, 1), ev(2, 1, 3, 0), ev(5, 0, 2, 0)], 4).unwrap();
        assert_eq!(app.name(), "trace-replay");
        assert_eq!(app.total_packets(), 3);
        assert_eq!(app.task_types(), 2);
        assert_eq!(app.last_cycle(), 9);
        let g = GridInfo {
            width: 2,
            height: 2,
            total_tiles: 4,
            pus_per_tile: 1,
        };
        let t1 = app.scheduled_sends(1, &g);
        assert_eq!(t1.len(), 2);
        assert_eq!((t1[0].cycle, t1[0].dst), (2, 3));
        assert_eq!((t1[1].cycle, t1[1].dst), (9, 0));
        assert!(app.scheduled_sends(2, &g).is_empty());
    }

    #[test]
    fn out_of_grid_and_empty_traces_are_rejected() {
        let err = TrafficApp::replay(vec![ev(0, 9, 0, 0)], 4).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = TrafficApp::replay(Vec::new(), 4).unwrap_err();
        assert!(err.contains("no events"), "{err}");
        let err = TrafficApp::replay(vec![ev(0, 0, 1, 33)], 4).unwrap_err();
        assert!(err.contains("task type"), "{err}");
    }

    #[test]
    fn replay_runs_the_schedule() {
        let events = vec![ev(0, 0, 3, 0), ev(4, 3, 1, 0), ev(4, 3, 2, 0)];
        let app = TrafficApp::replay(events, 4).unwrap();
        let cfg = SystemConfig::builder().chiplet_tiles(2, 2).build().unwrap();
        let result = Simulation::new(cfg, app).unwrap().run().unwrap();
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        assert_eq!(result.counters.noc.injected, 3);
        assert_eq!(result.counters.noc.ejected, 3);
    }

    #[test]
    fn the_check_is_per_tile_without_reduce_ops_and_a_total_bound_with_them() {
        let exact = TrafficApp::replay(vec![ev(0, 0, 3, 0), ev(1, 1, 3, 0)], 4).unwrap();
        assert!(exact.check(&[0, 0, 0, 2]).is_ok());
        let err = exact.check(&[0, 1, 0, 1]).unwrap_err();
        assert!(
            err.contains("tile 1 received 1 packets, expected 0"),
            "{err}"
        );
        let mut summed = ev(1, 1, 3, 0);
        summed.reduce = Some(ReduceOp::SumU32);
        let merging = TrafficApp::replay(vec![ev(0, 0, 3, 0), summed], 4).unwrap();
        assert!(merging.check(&[0, 0, 0, 1]).is_ok());
        assert!(merging.check(&[0, 1, 0, 1]).is_ok());
        assert!(merging.check(&[0, 0, 0, 0]).is_err());
        assert!(merging.check(&[0, 1, 0, 2]).is_err());
    }
}
