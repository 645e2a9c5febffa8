//! The energy model (paper §III-D): per-event energies from Table I
//! applied to the simulation counters, with voltage scaling of the
//! dynamic components and leakage over the runtime.

use muchisim_config::{LinkClass, MemoryConfig, SystemConfig};
use muchisim_core::SimCounters;
use serde::{Deserialize, Serialize};

/// Energy results in picojoules, by component.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// PU compute (int/fp/control ops + TSU dispatches).
    pub compute_pj: f64,
    /// SRAM accesses (data words, line fills, tags, queues).
    pub sram_pj: f64,
    /// DRAM line transfers.
    pub dram_pj: f64,
    /// DRAM refresh over the runtime.
    pub dram_refresh_pj: f64,
    /// On-chip NoC wires + routers.
    pub noc_pj: f64,
    /// Die-to-die PHY crossings.
    pub d2d_pj: f64,
    /// Off-package link crossings.
    pub off_package_pj: f64,
    /// Inter-node link crossings.
    pub inter_node_pj: f64,
    /// Static (leakage) energy over the runtime.
    pub leakage_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj
            + self.sram_pj
            + self.dram_pj
            + self.dram_refresh_pj
            + self.noc_pj
            + self.d2d_pj
            + self.off_package_pj
            + self.inter_node_pj
            + self.leakage_pj
    }

    /// Average power in watts over the run.
    pub(crate) fn average_power_w(&self, runtime_secs: f64) -> f64 {
        if runtime_secs == 0.0 {
            0.0
        } else {
            self.total_pj() * 1e-12 / runtime_secs
        }
    }

    /// Computes the breakdown from a configuration and counters file.
    pub(crate) fn from_counters(cfg: &SystemConfig, c: &SimCounters) -> Self {
        let p = &cfg.params;
        let node = cfg.technology_nm;
        // dynamic energy scales with V^2 relative to the 1 GHz
        // characterization point of the Table I parameters
        let pu_scale = p
            .voltage
            .energy_scale(cfg.pu_clock.operating.as_ghz(), 1.0, node);
        let noc_scale = p
            .voltage
            .energy_scale(cfg.noc_clock.operating.as_ghz(), 1.0, node);

        let compute_pj = (c.pu.int_ops as f64 * p.pu.int_op_energy_pj
            + c.pu.fp_ops as f64 * p.pu.fp_op_energy_pj
            + c.pu.ctrl_ops as f64 * p.pu.control_op_energy_pj
            + c.pu.tasks_executed as f64 * p.pu.task_dispatch_energy_pj)
            * pu_scale;

        // energy per bit at any capacity: the paper's +50 % mux-tree energy
        // per SRAM capacity doubling is not modelled
        let sram_pj = c.mem.sram_read_bits as f64 * p.sram.read_energy_pj_per_bit
            + c.mem.sram_write_bits as f64 * p.sram.write_energy_pj_per_bit
            + c.mem.tag_accesses as f64 * p.sram.tag_read_compare_energy_pj;

        let line_bits = p.hbm.cacheline_bits as f64;
        let dram_pj = c.mem.dram_lines() as f64 * line_bits * p.hbm.access_energy_pj_per_bit;

        // refresh: every capacity bit refreshed once per period
        let dram_refresh_pj = match &cfg.memory {
            MemoryConfig::Scratchpad => 0.0,
            MemoryConfig::Dram(d) => {
                let bits = d.devices_per_chiplet as f64
                    * cfg.hierarchy.total_chiplets() as f64
                    * p.hbm.device_capacity_gb
                    * 8e9;
                let refreshes = c.runtime_secs / (p.hbm.refresh_period_ms * 1e-3);
                bits * p.hbm.refresh_energy_pj_per_bit * refreshes
            }
        };

        let width = cfg.noc.width_bits as f64;
        let wire_pj = c.noc.onchip_flit_mm * width * p.link.noc_wire_energy_pj_per_bit_mm;
        let router_pj =
            c.noc.total_flit_hops() as f64 * width * p.link.noc_router_energy_pj_per_bit;
        let noc_pj = (wire_pj + router_pj) * noc_scale;

        let class_bits = |class: LinkClass| c.noc.flit_hops(class) as f64 * width;
        let d2d_pj = class_bits(LinkClass::DieToDie) * p.link.d2d_energy_pj_per_bit;
        let off_package_pj = class_bits(LinkClass::OffPackage)
            * (p.link.d2d_energy_pj_per_bit + p.link.off_package_energy_pj_per_bit);
        let inter_node_pj = class_bits(LinkClass::InterNode) * p.link.inter_node_energy_pj_per_bit;

        // leakage: PU leakage per PU plus SRAM leakage per active MB
        let tiles = cfg.total_tiles() as f64;
        let sram_mb = tiles * cfg.sram_kib_per_tile as f64 / 1024.0;
        let leak_w =
            tiles * cfg.pus_per_tile as f64 * p.pu.leakage_w + sram_mb * p.sram.leakage_w_per_mb;
        let leakage_pj = leak_w * c.runtime_secs * 1e12;

        EnergyBreakdown {
            compute_pj,
            sram_pj,
            dram_pj,
            dram_refresh_pj,
            noc_pj,
            d2d_pj,
            off_package_pj,
            inter_node_pj,
            leakage_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::{ClockDomain, DramConfig, Frequency};

    fn counters() -> SimCounters {
        let mut c = SimCounters::default();
        c.pu.int_ops = 1000;
        c.pu.fp_ops = 500;
        c.pu.tasks_executed = 10;
        c.mem.sram_read_bits = 32_000;
        c.mem.sram_write_bits = 16_000;
        c.mem.tag_accesses = 100;
        c.mem.dram_line_reads = 50;
        c.noc.flit_hops_by_class = [1000, 100, 10, 0];
        c.noc.onchip_flit_mm = 500.0;
        c.runtime_cycles = 10_000;
        c.runtime_secs = 1e-5;
        c
    }

    #[test]
    fn components_follow_table1() {
        let cfg = SystemConfig::default();
        let e = EnergyBreakdown::from_counters(&cfg, &counters());
        // compute: 1000*2.0 + 500*5.0 + 10*3.0 at 1GHz (scale = 1)
        assert!((e.compute_pj - (2000.0 + 2500.0 + 30.0)).abs() < 1e-9);
        // sram: 32000*0.18 + 16000*0.28 + 100*6.3
        assert!((e.sram_pj - (5760.0 + 4480.0 + 630.0)).abs() < 1e-9);
        // dram: 50 lines * 512 bits * 3.7
        assert!((e.dram_pj - 50.0 * 512.0 * 3.7).abs() < 1e-9);
        // d2d: 100 flits * 64 bits * 0.55
        assert!((e.d2d_pj - 100.0 * 64.0 * 0.55).abs() < 1e-9);
        assert!(e.total_pj() > 0.0);
    }

    #[test]
    fn lower_frequency_cuts_dynamic_energy() {
        let mut b = SystemConfig::builder();
        b.pu_clock(ClockDomain {
            peak: Frequency::ghz(1.0),
            operating: Frequency::ghz(0.5),
        });
        let slow = EnergyBreakdown::from_counters(&b.build().unwrap(), &counters());
        let base = EnergyBreakdown::from_counters(&SystemConfig::default(), &counters());
        assert!(slow.compute_pj < base.compute_pj);
        assert_eq!(slow.sram_pj, base.sram_pj, "SRAM not voltage-scaled");
    }

    #[test]
    fn refresh_scales_with_runtime() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let mut c = counters();
        let e1 = EnergyBreakdown::from_counters(&cfg, &c);
        c.runtime_secs *= 2.0;
        let e2 = EnergyBreakdown::from_counters(&cfg, &c);
        assert!((e2.dram_refresh_pj / e1.dram_refresh_pj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scratchpad_has_no_dram_refresh() {
        let e = EnergyBreakdown::from_counters(&SystemConfig::default(), &counters());
        assert_eq!(e.dram_refresh_pj, 0.0);
    }

    #[test]
    fn average_power() {
        let e = EnergyBreakdown {
            compute_pj: 1e12, // 1 J
            ..Default::default()
        };
        assert!((e.average_power_w(2.0) - 0.5).abs() < 1e-12);
        assert_eq!(e.average_power_w(0.0), 0.0);
    }
}
