//! The combined post-processing report: performance, energy, area, cost.

use crate::area::AreaBreakdown;
use crate::cost::CostBreakdown;
use crate::energy::EnergyBreakdown;
use muchisim_config::SystemConfig;
use muchisim_core::SimCounters;
use serde::{Deserialize, Serialize};

/// The full post-processed report for one simulation: the paper's
/// `calc_*` outputs. Pure function of `(config, counters)`, so energy and
/// cost can be re-calculated for different parameters after the fact
/// (paper §III-D/§III-E).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Runtime in seconds.
    pub runtime_secs: f64,
    /// FLOP/s achieved.
    pub flops: f64,
    /// Application throughput (TEPS or elements/s).
    pub app_throughput: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Average power in watts.
    pub average_power_w: f64,
    /// Power density in W/mm² over the compute silicon (for 3-D thermal
    /// feasibility, paper §III-D "DRAM integration").
    pub power_density_w_mm2: f64,
    /// Area breakdown.
    pub area: AreaBreakdown,
    /// Cost breakdown.
    pub cost: CostBreakdown,
    /// FLOP/s per watt.
    pub flops_per_watt: f64,
    /// FLOP/s per dollar.
    pub flops_per_dollar: f64,
    /// Application ops per joule.
    pub app_ops_per_joule: f64,
}

impl Report {
    /// Builds the report from a configuration and a counters file.
    pub fn from_counters(cfg: &SystemConfig, counters: &SimCounters) -> Self {
        let energy = EnergyBreakdown::from_counters(cfg, counters);
        let area = AreaBreakdown::from_config(cfg);
        let cost = CostBreakdown::from_config(cfg, &area);
        let power = energy.average_power_w(counters.runtime_secs);
        let flops = counters.flops();
        let joules = energy.total_pj() * 1e-12;
        Report {
            runtime_secs: counters.runtime_secs,
            flops,
            app_throughput: counters.app_throughput(),
            average_power_w: power,
            power_density_w_mm2: if area.total_silicon_mm2 > 0.0 {
                power / area.total_silicon_mm2
            } else {
                0.0
            },
            energy,
            area,
            cost,
            flops_per_watt: if power > 0.0 { flops / power } else { 0.0 },
            flops_per_dollar: if cost.total_usd > 0.0 {
                flops / cost.total_usd
            } else {
                0.0
            },
            app_ops_per_joule: if joules > 0.0 {
                counters.pu.app_ops as f64 / joules
            } else {
                0.0
            },
        }
    }

    /// Serializes to pretty JSON (the report file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (SystemConfig, SimCounters) {
        let cfg = SystemConfig::default();
        let mut c = SimCounters::default();
        c.pu.fp_ops = 1_000_000;
        c.pu.app_ops = 2_000_000;
        c.runtime_cycles = 100_000;
        c.runtime_secs = 1e-4;
        c.mem.sram_read_bits = 1_000_000;
        c.noc.flit_hops_by_class = [10_000, 0, 0, 0];
        c.noc.onchip_flit_mm = 5_000.0;
        (cfg, c)
    }

    #[test]
    fn report_metrics_consistent() {
        let (cfg, c) = sample();
        let r = Report::from_counters(&cfg, &c);
        assert!((r.flops - 1e10).abs() < 1.0);
        assert!(r.average_power_w > 0.0);
        assert!((r.flops_per_watt - r.flops / r.average_power_w).abs() < 1e-3);
        assert!(r.flops_per_dollar > 0.0);
        assert!(r.power_density_w_mm2 > 0.0);
    }

    #[test]
    fn post_processing_reprices_without_resim() {
        let (mut cfg, c) = sample();
        let before = Report::from_counters(&cfg, &c);
        // HBM price halves; scratchpad config unaffected, wafer price
        // doubles: silicon cost doubles
        cfg.params.cost.wafer_cost_usd *= 2.0;
        let after = Report::from_counters(&cfg, &c);
        assert!((after.cost.compute_usd / before.cost.compute_usd - 2.0).abs() < 1e-9);
        assert_eq!(after.runtime_secs, before.runtime_secs);
        assert_eq!(after.energy, before.energy, "energy params unchanged");
    }
}
