//! Per-tile engine state and the simulation result type.

use crate::app::OutMsg;
use crate::counters::{PuCounters, SimCounters};
use crate::frames::FrameLog;
use crate::queues::LazyQueues;
use crate::sched::Scheduler;
use muchisim_config::{SystemConfig, TimePs};
use muchisim_mem::TileMemory;
use muchisim_noc::Payload;
use std::sync::Arc;

/// The *cold* engine state of one tile: queue banks, TSU scheduler, the
/// memory model, and event counters.
///
/// The scalars the per-cycle sweeps actually read — PU clocks, IQ/CQ
/// message counts, the init-pending flag, the frame busy counter — live
/// in dense per-worker arrays indexed by local tile id (see
/// `Worker` in `engine.rs`), so the active-list drain walks contiguous
/// memory instead of striding through these structs. What remains here is
/// touched only when a task dispatches or a message actually moves.
///
/// The layout is deliberately lean — at the paper's million-tile scales
/// this struct *is* the host memory footprint. Queue banks allocate on
/// first use, the IQ capacity table and the scheduler's priority order
/// are shared across all tiles of a worker, and everything else is
/// inline.
#[derive(Debug)]
pub(crate) struct TileEngine {
    /// One input queue per task type (payloads only; the queue index is
    /// the task id). Allocated on first message.
    pub iqs: LazyQueues<Payload>,
    /// Per-task IQ capacity in messages (shared across tiles).
    pub iq_caps: Arc<[u32]>,
    /// One channel queue per task type, draining into the NoC.
    /// Allocated on first remote send.
    pub cqs: LazyQueues<OutMsg>,
    /// TSU scheduler.
    pub sched: Scheduler,
    /// The tile's memory model.
    pub mem: TileMemory,
    /// PU event counters for this tile.
    pub counters: PuCounters,
}

impl TileEngine {
    pub(crate) fn new(
        cfg: &SystemConfig,
        task_types: u8,
        iq_caps: Arc<[u32]>,
        sched: Scheduler,
    ) -> Self {
        TileEngine {
            iqs: LazyQueues::new(task_types),
            iq_caps,
            cqs: LazyQueues::new(task_types),
            sched,
            mem: TileMemory::from_system(cfg),
            counters: PuCounters::default(),
        }
    }

    /// Whether any channel queue exceeds `cap` (send-side backpressure:
    /// the TSU stalls new dispatches until the NoC drains the CQs). The
    /// caller gates this on its SoA `cq_msgs` count being non-zero.
    pub fn cq_over(&self, cap: u32) -> bool {
        self.cqs.as_slice().iter().any(|q| q.len() > cap as usize)
    }

    /// Host heap bytes owned by this tile (queue banks and the memory
    /// model; the capacity table and scheduler order are shared across
    /// tiles, and the SoA hot arrays are per-worker — both counted once
    /// by the worker).
    pub fn heap_bytes(&self) -> u64 {
        self.iqs.heap_bytes(muchisim_noc::Payload::heap_bytes)
            + self.cqs.heap_bytes(|m| m.payload.heap_bytes())
            + self.mem.heap_bytes()
    }
}

/// Host nanoseconds spent in each phase of the simulation driver,
/// aggregated over all workers and the whole run.
///
/// The timers wrap whole phases (coarse-grained monotonic reads, two per
/// phase per cycle per worker), so their cost is far below one packet
/// move; they are always on. `worklist` isolates the active-list
/// bookkeeping inside the swept phases (refresh + retention passes) so
/// the dense-regime overhead the kill switch recovers is attributed, not
/// guessed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HostPhaseNs {
    /// PU phase: TSU dispatch + task execution (`pu_phase`).
    pub pu: u64,
    /// Inject phase: CQ and scripted-send drains into the NoC.
    pub inject: u64,
    /// NoC phase: cycle-boundary bookkeeping + router stepping.
    pub net: u64,
    /// Active-list bookkeeping inside the phases above (already included
    /// in their totals): worklist refresh and retention passes.
    pub worklist: u64,
}

impl HostPhaseNs {
    /// Folds another worker's phase times into this one.
    pub fn merge(&mut self, other: &HostPhaseNs) {
        self.pu += other.pu;
        self.inject += other.inject;
        self.net += other.net;
        self.worklist += other.worklist;
    }

    /// Total attributed phase time (`worklist` is a sub-slice of the
    /// other three, not an addend).
    pub fn total(&self) -> u64 {
        self.pu + self.inject + self.net
    }

    /// Fraction of attributed time spent on worklist bookkeeping
    /// (0 when nothing was attributed).
    pub fn worklist_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.worklist as f64 / total as f64
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimResult {
    /// DUT runtime in NoC cycles (including the idleness-based
    /// termination-detection latency of 2 × network diameter).
    pub runtime_cycles: u64,
    /// DUT runtime as wall time.
    pub runtime: TimePs,
    /// All event counters (the counters file for post-processing).
    pub counters: SimCounters,
    /// Statistics frames.
    pub frames: FrameLog,
    /// Per-packet NoC latency statistics (injection→ejection; for
    /// scheduled synthetic traffic, generation→ejection — source
    /// queueing included, the latency-versus-load measurement).
    pub noc_latency: muchisim_noc::LatencyStats,
    /// Host wall-clock seconds spent simulating.
    pub host_seconds: f64,
    /// Host nanoseconds by driver phase, summed across workers (the
    /// built-in phase profiler; see [`HostPhaseNs`]).
    pub host_phase_ns: HostPhaseNs,
    /// What the NoC sweep did with its router visits, summed across
    /// shards and planes (host-side ledger, excluded from checksums and
    /// snapshots like `host_phase_ns`; a resumed run counts from its
    /// snapshot on).
    #[serde(default)]
    pub host_router_visits: muchisim_noc::RouterVisits,
    /// Host threads used.
    pub host_threads: usize,
    /// Tiles simulated.
    pub total_tiles: u64,
    /// Host bytes of simulation state at the end of the run (tile
    /// engines, app tile states, NoC planes, frames) — capacity-based,
    /// so it reflects the high-water footprint of the steady state.
    pub host_state_bytes: u64,
    /// Result of the application's output check (`None` if it passed).
    pub check_error: Option<String>,
    /// Tasks executed per grid column (index = column): how the work
    /// spread over the grid's width. Part of stored DSE records.
    pub column_activity: Vec<u64>,
    /// How the run ended: `"finished"` for a normal drain, `"ward:<name>"`
    /// when a telemetry ward terminated it (the partial result inside a
    /// `SimError::Ward` report). Empty in records stored before this
    /// field existed; read it through
    /// [`termination_label`](SimResult::termination_label).
    #[serde(default)]
    pub termination: String,
}

impl SimResult {
    /// The termination reason, mapping the pre-telemetry empty string to
    /// `"finished"`.
    pub fn termination_label(&self) -> &str {
        if self.termination.is_empty() {
            "finished"
        } else {
            &self.termination
        }
    }

    /// Ratio of simulator wall time to DUT time (the paper's Fig. 3
    /// metric, where DUT time is per-tile aggregated runtime).
    pub fn slowdown_vs_dut(&self) -> f64 {
        let dut = self.runtime.as_secs();
        if dut == 0.0 {
            0.0
        } else {
            self.host_seconds / dut
        }
    }

    /// DUT operation throughput in ops per host second (Fig. 4's Ops/s).
    pub fn host_ops_per_sec(&self) -> f64 {
        if self.host_seconds == 0.0 {
            0.0
        } else {
            self.counters.pu.total_ops() as f64 / self.host_seconds
        }
    }

    /// NoC flits routed per host second (Fig. 4's Msg/s).
    pub fn host_flits_per_sec(&self) -> f64 {
        if self.host_seconds == 0.0 {
            0.0
        } else {
            self.counters.noc.total_flit_hops() as f64 / self.host_seconds
        }
    }

    /// Simulated NoC cycles per host second — the simulator-throughput
    /// metric of the scalability table (time leaping included, so sparse
    /// phases push this far above the lockstep rate).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.host_seconds == 0.0 {
            0.0
        } else {
            self.runtime_cycles as f64 / self.host_seconds
        }
    }

    /// NoC packets injected per host second.
    pub fn packets_per_sec(&self) -> f64 {
        if self.host_seconds == 0.0 {
            0.0
        } else {
            self.counters.noc.injected as f64 / self.host_seconds
        }
    }

    /// Host simulation-state bytes per simulated tile (the paper's
    /// small-footprint scaling claim, measured).
    pub fn bytes_per_tile(&self) -> f64 {
        if self.total_tiles == 0 {
            0.0
        } else {
            self.host_state_bytes as f64 / self.total_tiles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::SchedulingPolicy;

    fn tile() -> TileEngine {
        TileEngine::new(
            &SystemConfig::default(),
            2,
            vec![8, 8].into(),
            Scheduler::new(SchedulingPolicy::RoundRobin, 2),
        )
    }

    #[test]
    fn fresh_tile_is_idle() {
        let t = tile();
        assert!(!t.cq_over(4));
        assert_eq!(t.iqs.as_slice().len(), 0, "queue banks allocate lazily");
    }

    #[test]
    fn phase_ns_merge_and_shares() {
        let mut a = HostPhaseNs {
            pu: 60,
            inject: 20,
            net: 20,
            worklist: 10,
        };
        let b = HostPhaseNs {
            pu: 40,
            inject: 30,
            net: 30,
            worklist: 40,
        };
        a.merge(&b);
        assert_eq!(a.total(), 200);
        assert!((a.worklist_share() - 0.25).abs() < 1e-12);
        assert_eq!(HostPhaseNs::default().total(), 0);
        assert_eq!(HostPhaseNs::default().worklist_share(), 0.0);
    }

    #[test]
    fn result_ratios() {
        let r = SimResult {
            runtime_cycles: 1000,
            runtime: TimePs::us(1.0),
            counters: SimCounters::default(),
            frames: FrameLog::new(100),
            noc_latency: muchisim_noc::LatencyStats::default(),
            host_seconds: 0.01,
            host_phase_ns: HostPhaseNs::default(),
            host_router_visits: Default::default(),
            host_threads: 1,
            total_tiles: 16,
            host_state_bytes: 4096,
            check_error: None,
            column_activity: vec![0; 4],
            termination: String::new(),
        };
        assert_eq!(r.termination_label(), "finished");
        assert!((r.slowdown_vs_dut() - 10_000.0).abs() < 1e-6);
        assert!((r.sim_cycles_per_sec() - 100_000.0).abs() < 1e-6);
        assert_eq!(r.bytes_per_tile(), 256.0);
        assert_eq!(r.packets_per_sec(), 0.0);
    }
}
