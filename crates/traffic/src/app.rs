//! The timetable application: synthetic traffic and trace replay.
//!
//! [`TrafficApp`] implements the engine's [`Application`] trait over a
//! deterministic injection timetable, so synthetic traffic runs unmodified
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

use crate::patterns::{PatternMap, TileSends};
use muchisim_config::{ConfigError, SystemConfig, TrafficParams, TrafficPattern};
use muchisim_core::{Application, GridInfo, Payload, ScheduledSend, SendStream, TaskCtx};
use muchisim_noc::{read_trace_jsonl, sort_events, TraceEvent};
use std::sync::Arc;

/// A timetable workload: every tile injects packets on a deterministic
/// timetable, drawn from a spatial pattern and offered load or read from
/// a recorded trace.
#[derive(Debug)]
pub struct TrafficApp {
    name: &'static str,
    timetables: Timetables,
    task_types: u8,
    /// Packets each tile must receive, when no packet carries a reduce op
    /// (then every scheduled packet arrives exactly once). In-network
    /// reduction may merge packets, which bounds only the total.
    expected: Option<Vec<u64>>,
    total_packets: u64,
    last_cycle: u64,
}

/// Where the tiles' timetables come from.
#[derive(Debug)]
enum Timetables {
    /// Drawn from a pattern whenever asked for: tile `t` sends
    /// `counts[t]` packets.
    Drawn {
        map: Arc<PatternMap>,
        params: TrafficParams,
        counts: Vec<usize>,
    },
    /// A recorded trace's per-tile lists: data, shared with every stream.
    Recorded(Arc<Vec<Vec<ScheduledSend>>>),
}

impl TrafficApp {
    /// Builds the workload for `cfg`'s grid with `pattern`, taking every
    /// other knob (rate, window, sizes, seed) from `cfg.traffic`. The
    /// timetables are drawn once here to count them and again as the
    /// engine injects; none is stored.
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
        let map = Arc::new(PatternMap::new(pattern, cfg.width(), cfg.height(), params));
        let mut tally = Tally::new(map.total_tiles());
        let counts = (0..map.total_tiles())
            .map(|tile| {
                TileSends::new(Arc::clone(&map), params, tile)
                    .inspect(|send| tally.add(send))
                    .count()
            })
            .collect();
        let name = match pattern {
            TrafficPattern::UniformRandom => "traffic-uniform",
            TrafficPattern::BitComplement => "traffic-bitcomp",
            TrafficPattern::Transpose => "traffic-transpose",
            TrafficPattern::Shuffle => "traffic-shuffle",
            TrafficPattern::NearestNeighbor => "traffic-neighbor",
            TrafficPattern::Hotspot => "traffic-hotspot",
        };
        let timetables = Timetables::Drawn {
            map,
            params: params.clone(),
            counts,
        };
        Ok(tally.into_app(name, timetables))
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
        let mut tally = Tally::new(total_tiles);
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
            let send = ScheduledSend {
                cycle: ev.cycle,
                dst: ev.dst,
                task: ev.task,
                payload: Payload::from_slice(&ev.payload),
                reduce: ev.reduce,
            };
            tally.add(&send);
            schedules[ev.src as usize].push(send);
        }
        Ok(tally.into_app("trace-replay", Timetables::Recorded(Arc::new(schedules))))
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

    /// Packets the timetable injects.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// The last scheduled injection cycle.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }
}

/// The workload's check and extent, accumulated send by send over every
/// tile's timetable.
struct Tally {
    expected: Vec<u64>,
    max_task: u8,
    last_cycle: u64,
    reduces: bool,
}

impl Tally {
    fn new(total_tiles: u32) -> Self {
        Tally {
            expected: vec![0; total_tiles as usize],
            max_task: 0,
            last_cycle: 0,
            reduces: false,
        }
    }

    fn add(&mut self, send: &ScheduledSend) {
        self.expected[send.dst as usize] += 1;
        self.max_task = self.max_task.max(send.task);
        self.last_cycle = self.last_cycle.max(send.cycle);
        self.reduces |= send.reduce.is_some();
    }

    /// The workload over `timetables`, the sends this tally counted.
    fn into_app(self, name: &'static str, timetables: Timetables) -> TrafficApp {
        TrafficApp {
            name,
            timetables,
            task_types: self.max_task + 1,
            total_packets: self.expected.iter().sum(),
            expected: (!self.reduces).then_some(self.expected),
            last_cycle: self.last_cycle,
        }
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

    fn scheduled_sends(&self, tile: u32, _grid: &GridInfo) -> SendStream {
        let tile = tile as usize;
        match &self.timetables {
            Timetables::Drawn {
                map,
                params,
                counts,
            } => {
                let mut draw = TileSends::new(Arc::clone(map), params, tile as u32);
                Box::new((0..counts[tile]).map(move |_| draw.next().expect("a counted send")))
            }
            Timetables::Recorded(lists) => {
                let lists = Arc::clone(lists);
                Box::new((0..lists[tile].len()).map(move |i| lists[tile][i].clone()))
            }
        }
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

    /// The simulation's state per tile does not grow with the injection
    /// window: a timetable costs the engine its next send, not its list.
    #[test]
    fn state_bytes_per_tile_do_not_grow_with_the_window() {
        let per_tile = |cycles: u64| {
            let traffic = TrafficParams {
                rate: 0.02,
                cycles,
                ..TrafficParams::default()
            };
            let cfg = SystemConfig::builder()
                .chiplet_tiles(8, 8)
                .traffic(traffic)
                .build()
                .unwrap();
            let app = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).unwrap();
            let result = Simulation::new(cfg, app).unwrap().run().unwrap();
            assert!(result.check_error.is_none(), "{:?}", result.check_error);
            result.bytes_per_tile()
        };
        let (short, long) = (per_tile(300), per_tile(3_000));
        eprintln!("state bytes per tile: {short:.0} at 300 cycles, {long:.0} at 3000");
        assert!(
            long - short < 128.0,
            "state grew from {short:.0} to {long:.0} B/tile with a 10x window"
        );
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
        let t1: Vec<ScheduledSend> = app.scheduled_sends(1, &g).collect();
        assert_eq!(t1.len(), 2);
        assert_eq!((t1[0].cycle, t1[0].dst), (2, 3));
        assert_eq!((t1[1].cycle, t1[1].dst), (9, 0));
        assert_eq!(app.scheduled_sends(2, &g).len(), 0);
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
