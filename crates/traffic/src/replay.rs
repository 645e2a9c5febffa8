//! Trace replay: re-inject a recorded communication pattern, app-free.
//!
//! A trace recorded from any run (`SystemConfig::noc_trace`) captures
//! every packet at the NoC injection point with full fidelity — cycle,
//! endpoints, task, payload words, reduction operator. [`TraceReplayApp`]
//! turns it back into a scheduled-injection workload: the original
//! application's compute never runs, yet the network sees the same
//! packets at the same cycles. On the recording configuration the NoC
//! evolves identically (provided ejection is never refused — give the
//! input queues headroom); under a *different* `noc.*` configuration the
//! same communication pattern re-simulates in a fraction of full-app
//! time, which is the point: NoC-only design exploration over real app
//! traffic.

use muchisim_core::{Application, GridInfo, Payload, ScheduledSend, TaskCtx};
use muchisim_noc::{read_trace_jsonl, sort_events, TraceEvent};

/// A recorded-trace workload.
#[derive(Debug)]
pub struct TraceReplayApp {
    /// Per-tile injection timetables, in canonical trace order.
    schedules: Vec<Vec<ScheduledSend>>,
    task_types: u8,
    total_packets: u64,
    last_cycle: u64,
}

impl TraceReplayApp {
    /// Builds a replay of `events` on a grid of `total_tiles`.
    ///
    /// # Errors
    ///
    /// Returns a description when the trace is empty, references tiles
    /// outside the grid (replaying on a smaller grid is not meaningful),
    /// or uses more task types than the engine supports.
    pub fn from_events(mut events: Vec<TraceEvent>, total_tiles: u32) -> Result<Self, String> {
        if events.is_empty() {
            return Err("trace holds no events".to_string());
        }
        sort_events(&mut events);
        let mut schedules: Vec<Vec<ScheduledSend>> = vec![Vec::new(); total_tiles as usize];
        let mut max_task = 0u8;
        let mut last_cycle = 0u64;
        for (i, ev) in events.iter().enumerate() {
            if ev.src >= total_tiles || ev.dst >= total_tiles {
                return Err(format!(
                    "trace event {} ({} -> {}) is outside the {total_tiles}-tile grid",
                    i + 1,
                    ev.src,
                    ev.dst
                ));
            }
            max_task = max_task.max(ev.task);
            last_cycle = last_cycle.max(ev.cycle);
            schedules[ev.src as usize].push(ScheduledSend {
                cycle: ev.cycle,
                dst: ev.dst,
                task: ev.task,
                payload: Payload::from_slice(&ev.payload),
                reduce: ev.reduce,
            });
        }
        if max_task >= 32 {
            return Err(format!(
                "trace uses task type {max_task}, above the engine maximum"
            ));
        }
        Ok(TraceReplayApp {
            schedules,
            task_types: max_task + 1,
            total_packets: events.len() as u64,
            last_cycle,
        })
    }

    /// Reads a JSONL trace file and builds its replay.
    ///
    /// # Errors
    ///
    /// Propagates file/parse errors and [`TraceReplayApp::from_events`]
    /// validation.
    pub fn from_file(path: &str, total_tiles: u32) -> Result<Self, String> {
        Self::from_events(read_trace_jsonl(path)?, total_tiles)
    }

    /// Packets the replay injects.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// The last scheduled injection cycle.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }
}

impl Application for TraceReplayApp {
    /// Packets received by the tile.
    type Tile = u64;

    fn name(&self) -> &'static str {
        "trace-replay"
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
        // in-network reduction may legitimately merge packets, so the
        // delivered count is bounded by — not equal to — the injected one
        let delivered: u64 = tiles.iter().sum();
        if delivered == 0 || delivered > self.total_packets {
            return Err(format!(
                "replay delivered {delivered} of {} injected packets",
                self.total_packets
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn events_map_to_per_tile_schedules_in_order() {
        let app =
            TraceReplayApp::from_events(vec![ev(9, 1, 0, 1), ev(2, 1, 3, 0), ev(5, 0, 2, 0)], 4)
                .unwrap();
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
        let err = TraceReplayApp::from_events(vec![ev(0, 9, 0, 0)], 4).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = TraceReplayApp::from_events(Vec::new(), 4).unwrap_err();
        assert!(err.contains("no events"), "{err}");
        let err = TraceReplayApp::from_events(vec![ev(0, 0, 1, 33)], 4).unwrap_err();
        assert!(err.contains("task type"), "{err}");
    }

    #[test]
    fn replay_runs_the_schedule() {
        use muchisim_config::SystemConfig;
        use muchisim_core::Simulation;

        let events = vec![ev(0, 0, 3, 0), ev(4, 3, 1, 0), ev(4, 3, 2, 0)];
        let app = TraceReplayApp::from_events(events, 4).unwrap();
        let cfg = SystemConfig::builder().chiplet_tiles(2, 2).build().unwrap();
        let result = Simulation::new(cfg, app).unwrap().run().unwrap();
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        assert_eq!(result.counters.noc.injected, 3);
        assert_eq!(result.counters.noc.ejected, 3);
    }
}
