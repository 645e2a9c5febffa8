//! Per-tile cold state and the simulation result type.

use crate::counters::{PuCounters, SimCounters};
use muchisim_config::TimePs;
use muchisim_mem::TileMemory;
use muchisim_telemetry::FrameLog;

/// The *cold* state of one tile: its memory model and the event counters
/// that tasks write through [`TaskCtx`](crate::TaskCtx).
///
/// Everything else a tile owns lives in dense per-worker arrays indexed
/// by local tile id (see `Worker` in `engine.rs`): the scalars the
/// per-cycle sweeps read, the TSU's round-robin pointer, one queue link
/// per (tile, task) for the input and channel queues, and the two
/// counters every dispatch writes. A tile's slot in the worker's
/// `Vec<Option<Box<TileCold>>>` stays `None` until [`materialize`] is
/// called for it — by the first counted op, memory access or send of one
/// of its tasks, or the first packet delivered to it — so at the paper's
/// million-tile scales a tile whose init task does nothing costs a null
/// pointer here. An absent box reads as a fresh one everywhere: zero
/// counters, an untouched copy of the worker's memory prototype.
#[derive(Debug, Clone)]
pub(crate) struct TileCold {
    /// The tile's memory model.
    pub mem: TileMemory,
    /// PU event counters, except `tasks_executed` and `busy_cycles`:
    /// those two are the worker's dense `dispatched` array (and stay
    /// zero here).
    pub counters: PuCounters,
}

/// The cold state behind `slot`, built from the worker's untouched
/// memory prototype on first use.
#[inline]
pub(crate) fn materialize<'a>(
    slot: &'a mut Option<Box<TileCold>>,
    mem_proto: &TileMemory,
) -> &'a mut TileCold {
    match slot {
        Some(cold) => cold,
        None => slot.insert(TileCold::fresh(mem_proto)),
    }
}

impl TileCold {
    #[cold]
    fn fresh(mem_proto: &TileMemory) -> Box<Self> {
        Box::new(TileCold {
            mem: mem_proto.clone(),
            counters: PuCounters::default(),
        })
    }
}

/// Host nanoseconds spent in each phase of the simulation driver,
/// aggregated over all workers and the whole run.
///
/// The timers wrap whole phases (coarse-grained monotonic reads, two per
/// phase per cycle per worker), so their cost is far below one packet
/// move; they are always on. `worklist` isolates the active-list
/// bookkeeping inside the swept phases (refresh + retention passes) so
/// what the worklists cost in the dense regime, where nearly every tile
/// stays listed, is attributed, not guessed.
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
    /// Telemetry records (samples, frames) the stream's bounded channel
    /// refused because a subscriber fell behind; 0 without telemetry.
    #[serde(default)]
    pub telemetry_dropped: u64,
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
    use muchisim_config::SystemConfig;

    #[test]
    fn a_slot_materializes_once_from_the_prototype() {
        let proto = TileMemory::from_system(&SystemConfig::default());
        let mut slot = None;
        materialize(&mut slot, &proto).counters.int_ops = 3;
        materialize(&mut slot, &proto).mem.queue_write(1);
        let cold = slot.expect("materialized");
        assert_eq!(cold.counters.int_ops, 3);
        assert_eq!(cold.mem.counters().queue_writes, 1);
        assert_eq!(
            proto.counters().queue_writes,
            0,
            "the prototype stays untouched"
        );
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
            telemetry_dropped: 0,
        };
        assert_eq!(r.termination_label(), "finished");
        assert!((r.slowdown_vs_dut() - 10_000.0).abs() < 1e-6);
        assert!((r.sim_cycles_per_sec() - 100_000.0).abs() < 1e-6);
        assert_eq!(r.bytes_per_tile(), 256.0);
        assert_eq!(r.packets_per_sec(), 0.0);
    }
}
