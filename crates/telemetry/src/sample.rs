//! Sample types and the leader-side aggregator.

use std::time::Instant;

use muchisim_noc::LatencyStats;
use serde::{Deserialize, Serialize};

/// Version tag written as the first field of every stream record, so
/// consumers can detect schema drift. Version 2 added the frame record
/// kind (`{"v":2,"frame":{…}}`); sample records kept their fields.
pub const SCHEMA_VERSION: u32 = 2;

/// One worker's contribution to a sample: its own cumulative counters,
/// read at the sample boundary (never reset — the aggregator computes
/// interval deltas by differencing consecutive merged totals).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerSample {
    /// Tasks executed since the start of the run (this worker's tiles).
    pub tasks: u64,
    /// Queued messages + in-flight packets still owed to this worker's
    /// tiles (the worker's quiescence ledger; may momentarily go
    /// negative per worker, sums to ≥ 0 across workers).
    pub pending: i64,
    /// Tiles currently on this worker's active list.
    pub active_tiles: u64,
    /// Tiles owned by this worker.
    pub tiles: u64,
    /// Routers currently active across this worker's NoC shards.
    pub active_routers: u64,
    /// Packets injected by this worker's shards (cumulative).
    pub injected: u64,
    /// Packets ejected by this worker's shards (cumulative).
    pub ejected: u64,
    /// Flit-hops traversed in this worker's shards (cumulative, all
    /// message classes).
    pub flit_hops: u64,
    /// Messages parked in this worker's router queues right now.
    pub queued_msgs: u64,
    /// Packet-latency histogram for this worker's shards (cumulative).
    pub latency: LatencyStats,
    /// Host nanoseconds this worker has attributed to the PU, inject,
    /// net, and worklist phases (cumulative).
    pub phase_ns: [u64; 4],
}

impl WorkerSample {
    /// Accumulates `other` into `self` (commutative).
    pub(crate) fn merge(&mut self, other: &WorkerSample) {
        self.tasks += other.tasks;
        self.pending += other.pending;
        self.active_tiles += other.active_tiles;
        self.tiles += other.tiles;
        self.active_routers += other.active_routers;
        self.injected += other.injected;
        self.ejected += other.ejected;
        self.flit_hops += other.flit_hops;
        self.queued_msgs += other.queued_msgs;
        self.latency.merge(&other.latency);
        for (a, b) in self.phase_ns.iter_mut().zip(&other.phase_ns) {
            *a += b;
        }
    }
}

/// One merged telemetry sample: the whole machine at one cycle boundary.
///
/// Cumulative fields count from the start of the run (or from the
/// resumed snapshot's restore point); `*_delta` fields cover the
/// interval since the previous sample. All fields except `host_ns` and
/// `cyc_per_s` are deterministic functions of simulated state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct MetricsSample {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub v: u32,
    /// Sample sequence number (0, 1, 2, ... within one run).
    pub seq: u64,
    /// Simulated NoC cycle the sample was taken at.
    pub cycle: u64,
    /// Tasks executed (cumulative).
    pub tasks: u64,
    /// Tasks executed this interval.
    pub tasks_delta: u64,
    /// Packets injected (cumulative).
    pub injected: u64,
    /// Packets injected this interval.
    pub injected_delta: u64,
    /// Packets ejected (cumulative).
    pub ejected: u64,
    /// Packets ejected this interval.
    pub ejected_delta: u64,
    /// Flit-hops traversed (cumulative).
    pub flit_hops: u64,
    /// Flit-hops traversed this interval.
    pub flit_hops_delta: u64,
    /// Outstanding work: queued messages + in-flight packets.
    pub pending: i64,
    /// Messages parked in router queues right now.
    pub queued_msgs: u64,
    /// Tiles on active worklists right now.
    pub active_tiles: u64,
    /// Total tiles simulated.
    pub total_tiles: u64,
    /// Routers on active worklists right now.
    pub active_routers: u64,
    /// Packet latencies recorded (cumulative).
    pub lat_count: u64,
    /// Mean packet latency in cycles (cumulative).
    pub lat_mean: f64,
    /// Median packet latency (cumulative, log₂-bucket resolution).
    pub lat_p50: u64,
    /// 95th-percentile packet latency (cumulative).
    pub lat_p95: u64,
    /// 99th-percentile packet latency (cumulative).
    pub lat_p99: u64,
    /// Packet latencies recorded this interval.
    pub lat_delta_count: u64,
    /// Mean packet latency over this interval's packets.
    pub lat_delta_mean: f64,
    /// Host ns attributed to the PU phase (cumulative).
    pub phase_pu_ns: u64,
    /// Host ns attributed to the inject phase (cumulative).
    pub phase_inject_ns: u64,
    /// Host ns attributed to the net phase (cumulative).
    pub phase_net_ns: u64,
    /// Host ns attributed to worklist bookkeeping (cumulative).
    pub phase_worklist_ns: u64,
    /// Host wall-clock ns since the run started (non-deterministic).
    pub host_ns: u64,
    /// Simulated cycles per host second over this interval
    /// (non-deterministic).
    pub cyc_per_s: f64,
}

impl Default for MetricsSample {
    fn default() -> Self {
        MetricsSample {
            v: SCHEMA_VERSION,
            seq: 0,
            cycle: 0,
            tasks: 0,
            tasks_delta: 0,
            injected: 0,
            injected_delta: 0,
            ejected: 0,
            ejected_delta: 0,
            flit_hops: 0,
            flit_hops_delta: 0,
            pending: 0,
            queued_msgs: 0,
            active_tiles: 0,
            total_tiles: 0,
            active_routers: 0,
            lat_count: 0,
            lat_mean: 0.0,
            lat_p50: 0,
            lat_p95: 0,
            lat_p99: 0,
            lat_delta_count: 0,
            lat_delta_mean: 0.0,
            phase_pu_ns: 0,
            phase_inject_ns: 0,
            phase_net_ns: 0,
            phase_worklist_ns: 0,
            host_ns: 0,
            cyc_per_s: 0.0,
        }
    }
}

impl MetricsSample {
    /// Fraction of tiles currently active, in `[0, 1]`.
    pub(crate) fn active_fraction(&self) -> f64 {
        if self.total_tiles == 0 {
            0.0
        } else {
            self.active_tiles as f64 / self.total_tiles as f64
        }
    }
}

/// Folds per-worker samples into [`MetricsSample`]s, differencing
/// consecutive totals into interval deltas and stamping host timing.
#[derive(Debug)]
pub struct SampleAggregator {
    seq: u64,
    start: Instant,
    last_instant: Instant,
    last_cycle: u64,
    /// The previous sample's merged totals (all zero before the first).
    prev: WorkerSample,
}

impl SampleAggregator {
    /// Creates an aggregator for a run starting (or resuming) at
    /// `start_cycle`.
    pub fn new(start_cycle: u64) -> Self {
        let now = Instant::now();
        SampleAggregator {
            seq: 0,
            start: now,
            last_instant: now,
            last_cycle: start_cycle,
            prev: WorkerSample::default(),
        }
    }

    /// Merges the workers' deposits into the next sample.
    pub fn merge(&mut self, cycle: u64, workers: &[WorkerSample]) -> MetricsSample {
        let mut total = WorkerSample::default();
        for w in workers {
            total.merge(w);
        }
        let prev = &self.prev;
        let lat_delta_count = total.latency.count - prev.latency.count;
        let lat_delta_total = total.latency.total_cycles - prev.latency.total_cycles;

        let now = Instant::now();
        let interval_s = now.duration_since(self.last_instant).as_secs_f64();
        let interval_cycles = cycle.saturating_sub(self.last_cycle);
        let cyc_per_s = if interval_s > 0.0 {
            interval_cycles as f64 / interval_s
        } else {
            0.0
        };

        let sample = MetricsSample {
            v: SCHEMA_VERSION,
            seq: self.seq,
            cycle,
            tasks: total.tasks,
            tasks_delta: total.tasks - prev.tasks,
            injected: total.injected,
            injected_delta: total.injected - prev.injected,
            ejected: total.ejected,
            ejected_delta: total.ejected - prev.ejected,
            flit_hops: total.flit_hops,
            flit_hops_delta: total.flit_hops - prev.flit_hops,
            pending: total.pending,
            queued_msgs: total.queued_msgs,
            active_tiles: total.active_tiles,
            total_tiles: total.tiles,
            active_routers: total.active_routers,
            lat_count: total.latency.count,
            lat_mean: total.latency.mean(),
            lat_p50: total.latency.percentile(0.50),
            lat_p95: total.latency.percentile(0.95),
            lat_p99: total.latency.percentile(0.99),
            lat_delta_count,
            lat_delta_mean: if lat_delta_count == 0 {
                0.0
            } else {
                lat_delta_total as f64 / lat_delta_count as f64
            },
            phase_pu_ns: total.phase_ns[0],
            phase_inject_ns: total.phase_ns[1],
            phase_net_ns: total.phase_ns[2],
            phase_worklist_ns: total.phase_ns[3],
            host_ns: now.duration_since(self.start).as_nanos() as u64,
            cyc_per_s,
        };

        self.seq += 1;
        self.last_instant = now;
        self.last_cycle = cycle;
        self.prev = total;
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(tasks: u64, injected: u64) -> WorkerSample {
        let mut latency = LatencyStats::default();
        for lat in [4u64, 8, 16] {
            latency.record(lat);
        }
        WorkerSample {
            tasks,
            pending: 3,
            active_tiles: 2,
            tiles: 8,
            active_routers: 1,
            injected,
            ejected: injected,
            flit_hops: injected * 4,
            queued_msgs: 1,
            latency,
            phase_ns: [10, 20, 30, 40],
        }
    }

    #[test]
    fn merge_sums_workers_and_differences_intervals() {
        let mut agg = SampleAggregator::new(0);
        let s0 = agg.merge(1_000, &[worker(5, 10), worker(7, 2)]);
        assert_eq!(s0.v, SCHEMA_VERSION);
        assert_eq!(s0.seq, 0);
        assert_eq!(s0.tasks, 12);
        assert_eq!(s0.tasks_delta, 12);
        assert_eq!(s0.injected, 12);
        assert_eq!(s0.pending, 6);
        assert_eq!(s0.active_tiles, 4);
        assert_eq!(s0.total_tiles, 16);
        assert_eq!(s0.lat_count, 6);
        assert_eq!(s0.phase_inject_ns, 40);

        // same cumulative totals next sample → all deltas zero
        let s1 = agg.merge(2_000, &[worker(5, 10), worker(7, 2)]);
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.tasks_delta, 0);
        assert_eq!(s1.injected_delta, 0);
        assert_eq!(s1.lat_delta_count, 0);
        assert_eq!(s1.lat_delta_mean, 0.0);
        // cumulative values persist
        assert_eq!(s1.tasks, 12);
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        let mut agg = SampleAggregator::new(0);
        let s = agg.merge(100, &[worker(1, 1)]);
        assert!(s.lat_mean > 0.0);
        assert!(s.lat_p50 <= s.lat_p95 && s.lat_p95 <= s.lat_p99);
    }

    #[test]
    fn active_fraction_handles_empty() {
        assert_eq!(MetricsSample::default().active_fraction(), 0.0);
        let s = MetricsSample {
            active_tiles: 32,
            total_tiles: 64,
            ..MetricsSample::default()
        };
        assert!((s.active_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let s = MetricsSample {
            seq: 9,
            cycle: 4_096,
            tasks: 77,
            lat_mean: 12.5,
            ..MetricsSample::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSample = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // the schema version is the first field on the wire
        assert!(json.starts_with("{\"v\":"));
    }
}
