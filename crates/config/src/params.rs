//! Model parameters with the default values of Table I of the paper.
//!
//! All parameters are plain data and serializable, so a simulation's
//! counters file can be *post-processed* with different parameter values
//! without re-running the simulation (paper §III-D/§III-E).

use serde::{Deserialize, Serialize};

/// SRAM latency / energy / density parameters (7 nm at 1 GHz, Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramParams {
    /// Storage density in MB per mm² (Table I: 3.5 MB/mm²).
    pub density_mb_per_mm2: f64,
    /// Read/write access latency in nanoseconds (Table I: 0.82 ns).
    pub access_latency_ns: f64,
    /// Read energy in pJ per bit (Table I: 0.18 pJ/bit).
    pub read_energy_pj_per_bit: f64,
    /// Write energy in pJ per bit (Table I: 0.28 pJ/bit).
    pub write_energy_pj_per_bit: f64,
    /// Cache tag read + compare energy in pJ per access (Table I: 6.3 pJ).
    pub tag_read_compare_energy_pj: f64,
    /// Static (leakage) power per active bank, in watts per MB.
    ///
    /// Only active banks leak (paper §III-D). Repo-default value.
    pub leakage_w_per_mb: f64,
    /// Extra access latency in ns added at each quadrupling step beyond
    /// 512 KiB (paper: +1 ns).
    pub latency_step_ns: f64,
    /// Capacity in KiB beyond which the latency steps start (paper: 512 KiB).
    pub latency_step_threshold_kib: u32,
}

impl Default for SramParams {
    fn default() -> Self {
        SramParams {
            density_mb_per_mm2: 3.5,
            access_latency_ns: 0.82,
            read_energy_pj_per_bit: 0.18,
            write_energy_pj_per_bit: 0.28,
            tag_read_compare_energy_pj: 6.3,
            leakage_w_per_mb: 0.05,
            latency_step_ns: 1.0,
            latency_step_threshold_kib: 512,
        }
    }
}

/// HBM2E DRAM device parameters (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HbmParams {
    /// Device capacity in GB (Table I: 8 GB 4-high device).
    pub device_capacity_gb: f64,
    /// Device footprint in mm² (Table I: 110 mm², ~75 MB/mm²).
    pub device_area_mm2: f64,
    /// Channels per device (Table I: 8).
    pub channels_per_device: u32,
    /// Memory-controller-to-HBM round-trip latency in ns (Table I: 50 ns).
    pub ctrl_latency_ns: f64,
    /// Access energy in pJ per bit (Table I: 3.7 pJ/bit).
    pub access_energy_pj_per_bit: f64,
    /// Bitline refresh period in ms (Table I: 32 ms).
    pub refresh_period_ms: f64,
    /// Refresh energy in pJ per bit (Table I: 0.22 pJ/bit).
    pub refresh_energy_pj_per_bit: f64,
    /// Width of a DRAM bitline / cacheline in bits (paper default: 512).
    pub cacheline_bits: u32,
}

impl Default for HbmParams {
    fn default() -> Self {
        HbmParams {
            device_capacity_gb: 8.0,
            device_area_mm2: 110.0,
            channels_per_device: 8,
            ctrl_latency_ns: 50.0,
            access_energy_pj_per_bit: 3.7,
            refresh_period_ms: 32.0,
            refresh_energy_pj_per_bit: 0.22,
            cacheline_bits: 512,
        }
    }
}

/// Inter-chiplet PHY densities (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhyParams {
    /// MCM (organic substrate) PHY areal density, Gbit/s per mm².
    pub mcm_areal_gbps_per_mm2: f64,
    /// Silicon-interposer PHY areal density, Gbit/s per mm².
    pub si_areal_gbps_per_mm2: f64,
}

impl Default for PhyParams {
    fn default() -> Self {
        PhyParams {
            mcm_areal_gbps_per_mm2: 690.0,
            si_areal_gbps_per_mm2: 1070.0,
        }
    }
}

/// Wire and link latency / energy parameters (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Die-to-die link latency in ns for reaches < 25 mm (Table I: 4 ns).
    pub d2d_latency_ns: f64,
    /// Die-to-die link energy in pJ/bit (Table I: 0.55 pJ/bit).
    pub d2d_energy_pj_per_bit: f64,
    /// NoC wire latency in ps per mm (Table I: 50 ps/mm).
    pub noc_wire_latency_ps_per_mm: f64,
    /// NoC wire energy in pJ per bit per mm (Table I: 0.15 pJ/bit/mm).
    pub noc_wire_energy_pj_per_bit_mm: f64,
    /// NoC router traversal latency in ps (Table I: 500 ps).
    pub noc_router_latency_ps: f64,
    /// NoC router traversal energy in pJ per bit (Table I: 0.1 pJ/bit).
    pub noc_router_energy_pj_per_bit: f64,
    /// I/O die RX+TX latency in ns for off-package hops (Table I: 20 ns).
    pub io_die_latency_ns: f64,
    /// Off-package link energy in pJ/bit for up to 80 mm (Table I: 1.17).
    pub off_package_energy_pj_per_bit: f64,
    /// Inter-node (board-to-board) link latency in ns (repo default).
    pub inter_node_latency_ns: f64,
    /// Inter-node link energy in pJ/bit (repo default; optical/long reach).
    pub inter_node_energy_pj_per_bit: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            d2d_latency_ns: 4.0,
            d2d_energy_pj_per_bit: 0.55,
            noc_wire_latency_ps_per_mm: 50.0,
            noc_wire_energy_pj_per_bit_mm: 0.15,
            noc_router_latency_ps: 500.0,
            noc_router_energy_pj_per_bit: 0.1,
            io_die_latency_ns: 20.0,
            off_package_energy_pj_per_bit: 1.17,
            inter_node_latency_ns: 200.0,
            inter_node_energy_pj_per_bit: 4.0,
        }
    }
}

/// Processing-unit performance / energy / area parameters.
///
/// The paper relies on user instrumentation for compute cycle counts; these
/// parameters cover the *energy and area* side of the PU model. Defaults
/// follow the repository's simple in-order 7 nm core and are calibrated so
/// that a WSE-like configuration reproduces the §IV-A area validation
/// (simulated area ≈ 1.088 × the real 46,225 mm² wafer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PuParams {
    /// PU core area in mm² at 1 GHz peak frequency.
    pub area_mm2: f64,
    /// Task-scheduling-unit area in mm² per tile.
    pub tsu_area_mm2: f64,
    /// Base router area in mm² (excluding per-bit datapath).
    pub router_base_area_mm2: f64,
    /// Router datapath area in mm² per bit of NoC width.
    pub router_area_mm2_per_bit: f64,
    /// Energy per integer ALU operation in pJ.
    pub int_op_energy_pj: f64,
    /// Energy per floating-point operation in pJ.
    pub fp_op_energy_pj: f64,
    /// Energy per control-flow instruction in pJ.
    pub control_op_energy_pj: f64,
    /// Energy for the TSU to dispatch one task in pJ.
    pub task_dispatch_energy_pj: f64,
    /// PU static (leakage) power in watts per PU at nominal voltage.
    pub leakage_w: f64,
    /// Fraction by which area grows per unit relative increase in peak
    /// frequency (paper default: 0.5, i.e. +50 % area for +100 % frequency).
    pub area_growth_per_freq: f64,
}

impl Default for PuParams {
    fn default() -> Self {
        PuParams {
            area_mm2: 0.032,
            tsu_area_mm2: 0.0018,
            router_base_area_mm2: 0.003,
            router_area_mm2_per_bit: 0.00028,
            int_op_energy_pj: 2.0,
            fp_op_energy_pj: 5.0,
            control_op_energy_pj: 1.5,
            task_dispatch_energy_pj: 3.0,
            leakage_w: 0.001,
            area_growth_per_freq: 0.5,
        }
    }
}

/// Fabrication and packaging cost parameters (paper §III-E).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Cost of a processed 300 mm wafer in USD (paper: $6,047 at 7 nm).
    pub wafer_cost_usd: f64,
    /// Wafer diameter in mm (paper: 300 mm).
    pub wafer_diameter_mm: f64,
    /// Defect density in defects per mm² (paper: 0.07).
    pub defect_density_per_mm2: f64,
    /// Scribe-line width in mm (paper: 0.2 mm).
    pub scribe_mm: f64,
    /// Wafer edge loss in mm (paper: 4 mm).
    pub edge_loss_mm: f64,
    /// 65 nm silicon interposer + bonding cost as a fraction of the compute
    /// die price (paper: 0.20).
    pub si_interposer_fraction: f64,
    /// Organic substrate cost as a fraction of an equal-sized compute die
    /// (paper: 0.10).
    pub organic_substrate_fraction: f64,
    /// Bonding overhead fraction on top of the substrate (paper: 0.05).
    pub bonding_overhead_fraction: f64,
    /// HBM cost in USD per GB (paper's educated guess: $7.5/GB).
    pub hbm_usd_per_gb: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            wafer_cost_usd: 6047.0,
            wafer_diameter_mm: 300.0,
            defect_density_per_mm2: 0.07,
            scribe_mm: 0.2,
            edge_loss_mm: 4.0,
            si_interposer_fraction: 0.20,
            organic_substrate_fraction: 0.10,
            bonding_overhead_fraction: 0.05,
            hbm_usd_per_gb: 7.5,
        }
    }
}

/// The ridge-regression voltage-scaling model of paper §III-D.
///
/// `V = base + freq_coeff · f_GHz + node_coeff · node_nm`, fitted to shmoo
/// plots of 5, 7 and 12 nm chips. Dynamic power scales with `V²·f`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoltageModel {
    /// Constant term in volts (paper: 0.06).
    pub base: f64,
    /// Coefficient on operating frequency in V per GHz (paper: 0.13).
    pub freq_coeff: f64,
    /// Coefficient on transistor node in V per nm (paper: 0.06).
    pub node_coeff: f64,
}

impl Default for VoltageModel {
    fn default() -> Self {
        VoltageModel {
            base: 0.06,
            freq_coeff: 0.13,
            node_coeff: 0.06,
        }
    }
}

impl VoltageModel {
    /// Supply voltage predicted for `freq_ghz` at `node_nm`.
    pub(crate) fn voltage(&self, freq_ghz: f64, node_nm: u32) -> f64 {
        self.base + self.freq_coeff * freq_ghz + self.node_coeff * node_nm as f64
    }

    /// Dynamic energy scaling factor for running at `op_ghz` relative to
    /// energy parameters characterized at `ref_ghz` (both at `node_nm`).
    ///
    /// Energy per event scales with `V²`; this returns
    /// `(V(op)/V(ref))²`, used to re-scale all per-event energies when the
    /// operating frequency differs from the 1 GHz characterization point.
    pub fn energy_scale(&self, op_ghz: f64, ref_ghz: f64, node_nm: u32) -> f64 {
        let v_op = self.voltage(op_ghz, node_nm);
        let v_ref = self.voltage(ref_ghz, node_nm);
        (v_op / v_ref).powi(2)
    }
}

/// The full set of model parameters: Table I plus PU / cost / voltage models.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ModelParams {
    /// SRAM parameters.
    pub sram: SramParams,
    /// HBM DRAM parameters.
    pub hbm: HbmParams,
    /// Inter-chiplet PHY parameters.
    pub phy: PhyParams,
    /// Wire and link parameters.
    pub link: LinkParams,
    /// Processing-unit parameters.
    pub pu: PuParams,
    /// Fabrication cost parameters.
    pub cost: CostParams,
    /// Voltage-scaling model.
    pub voltage: VoltageModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sram_defaults() {
        let s = SramParams::default();
        assert_eq!(s.density_mb_per_mm2, 3.5);
        assert_eq!(s.access_latency_ns, 0.82);
        assert_eq!(s.read_energy_pj_per_bit, 0.18);
        assert_eq!(s.write_energy_pj_per_bit, 0.28);
        assert_eq!(s.tag_read_compare_energy_pj, 6.3);
    }

    #[test]
    fn table1_hbm_defaults() {
        let h = HbmParams::default();
        assert_eq!(h.device_capacity_gb, 8.0);
        assert_eq!(h.device_area_mm2, 110.0);
        assert_eq!(h.channels_per_device, 8);
        assert_eq!(h.ctrl_latency_ns, 50.0);
        assert_eq!(h.access_energy_pj_per_bit, 3.7);
        assert_eq!(h.refresh_period_ms, 32.0);
        assert_eq!(h.refresh_energy_pj_per_bit, 0.22);
        // density check: 8GB on 110mm^2 ~ 75 MB/mm^2 (Table I)
        let mb_per_mm2 = h.device_capacity_gb * 1024.0 / h.device_area_mm2;
        assert!((mb_per_mm2 - 75.0).abs() < 1.0);
    }

    #[test]
    fn table1_phy_defaults() {
        let p = PhyParams::default();
        assert_eq!(p.mcm_areal_gbps_per_mm2, 690.0);
        assert_eq!(p.si_areal_gbps_per_mm2, 1070.0);
    }

    #[test]
    fn table1_link_defaults() {
        let l = LinkParams::default();
        assert_eq!(l.d2d_latency_ns, 4.0);
        assert_eq!(l.d2d_energy_pj_per_bit, 0.55);
        assert_eq!(l.noc_wire_latency_ps_per_mm, 50.0);
        assert_eq!(l.noc_wire_energy_pj_per_bit_mm, 0.15);
        assert_eq!(l.noc_router_latency_ps, 500.0);
        assert_eq!(l.noc_router_energy_pj_per_bit, 0.1);
        assert_eq!(l.io_die_latency_ns, 20.0);
        assert_eq!(l.off_package_energy_pj_per_bit, 1.17);
    }

    #[test]
    fn table1_cost_defaults() {
        let c = CostParams::default();
        assert_eq!(c.wafer_cost_usd, 6047.0);
        assert_eq!(c.defect_density_per_mm2, 0.07);
        assert_eq!(c.scribe_mm, 0.2);
        assert_eq!(c.edge_loss_mm, 4.0);
        assert_eq!(c.hbm_usd_per_gb, 7.5);
    }

    #[test]
    fn voltage_model_matches_paper_formula() {
        let v = VoltageModel::default();
        // 0.06 + 0.13*2 + 0.06*5 = 0.62
        assert!((v.voltage(2.0, 5) - 0.62).abs() < 1e-12);
    }

    #[test]
    fn voltage_energy_scale_monotone_in_frequency() {
        let v = VoltageModel::default();
        let lo = v.energy_scale(0.5, 1.0, 7);
        let hi = v.energy_scale(2.0, 1.0, 7);
        assert!(lo < 1.0);
        assert!(hi > 1.0);
        assert_eq!(v.energy_scale(1.0, 1.0, 7), 1.0);
    }

    #[test]
    fn params_serde_round_trip() {
        let p = ModelParams::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: ModelParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
