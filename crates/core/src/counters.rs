//! Aggregated simulation counters (the paper's separate "counters file"
//! consumed by the energy/cost post-processing executable, §III-D).

use muchisim_mem::MemCounters;
use muchisim_noc::NocCounters;
use serde::{Deserialize, Serialize};

/// Processing-unit and TSU event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PuCounters {
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Control-flow instructions.
    pub ctrl_ops: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Messages sent by tasks.
    pub msgs_sent: u64,
    /// Tasks dispatched by the TSU (including init tasks).
    pub tasks_executed: u64,
    /// Total busy PU cycles (sum of task durations over all PUs).
    pub busy_cycles: u64,
    /// Cycles a ready task could not be dispatched because a channel
    /// queue was over capacity (send-side backpressure).
    pub cq_stall_cycles: u64,
    /// Application-level work units (edges, non-zeros, elements).
    pub app_ops: u64,
}

impl PuCounters {
    /// Accumulates `other` into `self`.
    pub(crate) fn merge(&mut self, other: &PuCounters) {
        self.int_ops += other.int_ops;
        self.fp_ops += other.fp_ops;
        self.ctrl_ops += other.ctrl_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.msgs_sent += other.msgs_sent;
        self.tasks_executed += other.tasks_executed;
        self.busy_cycles += other.busy_cycles;
        self.cq_stall_cycles += other.cq_stall_cycles;
        self.app_ops += other.app_ops;
    }
}

/// Everything the energy / cost post-processing needs, aggregated over the
/// whole run. Serializable as the counters file.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimCounters {
    /// PU/TSU events.
    pub pu: PuCounters,
    /// Memory events.
    pub mem: MemCounters,
    /// NoC events (merged over physical planes).
    pub noc: NocCounters,
    /// DUT runtime in NoC cycles.
    pub runtime_cycles: u64,
    /// DUT runtime in seconds.
    pub runtime_secs: f64,
}

impl SimCounters {
    /// Application throughput in operations per second (TEPS for graph
    /// kernels, non-zeros/s for sparse algebra).
    pub fn app_throughput(&self) -> f64 {
        if self.runtime_secs == 0.0 {
            0.0
        } else {
            self.pu.app_ops as f64 / self.runtime_secs
        }
    }

    /// Floating-point throughput in FLOP/s.
    pub fn flops(&self) -> f64 {
        if self.runtime_secs == 0.0 {
            0.0
        } else {
            self.pu.fp_ops as f64 / self.runtime_secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_guards_zero_time() {
        let c = SimCounters::default();
        assert_eq!(c.flops(), 0.0);
        assert_eq!(c.app_throughput(), 0.0);
    }

    #[test]
    fn flops_computation() {
        let mut c = SimCounters {
            runtime_secs: 0.5,
            ..Default::default()
        };
        c.pu.fp_ops = 100;
        assert_eq!(c.flops(), 200.0);
    }

    #[test]
    fn counters_serde_round_trip() {
        let mut c = SimCounters::default();
        c.pu.int_ops = 42;
        c.runtime_cycles = 7;
        let json = serde_json::to_string(&c).unwrap();
        let back: SimCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
