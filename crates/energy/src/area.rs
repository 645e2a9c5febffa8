//! The silicon area model (paper §III-D).
//!
//! PU and router area grow by 50 % of the relative increase in their peak
//! frequency (the paper's default, refinable by synthesizing RTL at
//! several frequencies and post-processing). The PHY area follows the
//! configured integration's areal density and the chiplet's edge
//! (beachfront) bandwidth demand.

use muchisim_config::{InterposerKind, MemoryConfig, SystemConfig};
use serde::{Deserialize, Serialize};

/// Per-component area results in mm².
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// One PU, after peak-frequency scaling.
    pub pu_mm2: f64,
    /// One tile's SRAM macro.
    pub sram_mm2: f64,
    /// One tile's router(s) across all physical NoCs.
    pub router_mm2: f64,
    /// One tile's TSU.
    pub tsu_mm2: f64,
    /// One full tile.
    pub tile_mm2: f64,
    /// Inter-chiplet PHY area per chiplet.
    pub phy_mm2: f64,
    /// One compute chiplet (tiles + PHY).
    pub chiplet_mm2: f64,
    /// All compute silicon in the system.
    pub total_compute_mm2: f64,
    /// Total HBM device footprint (package area, 3-D stacked).
    pub hbm_mm2: f64,
    /// Average power density headroom metric: W/mm² is computed by the
    /// report from the energy side; this stores total silicon for it.
    pub total_silicon_mm2: f64,
}

impl AreaBreakdown {
    /// Computes the full area breakdown for `cfg`.
    pub fn from_config(cfg: &SystemConfig) -> Self {
        let p = &cfg.params.pu;
        let growth = |peak_ghz: f64| 1.0 + p.area_growth_per_freq * (peak_ghz - 1.0).max(0.0);
        let pu = p.area_mm2 * growth(cfg.pu_clock.peak.as_ghz());
        let sram = cfg.sram_kib_per_tile as f64 / 1024.0 / cfg.params.sram.density_mb_per_mm2;
        let router_one = (p.router_base_area_mm2
            + p.router_area_mm2_per_bit * cfg.noc.width_bits as f64)
            * growth(cfg.noc_clock.peak.as_ghz());
        let router = router_one * cfg.noc.num_physical as f64;
        let tile = pu * cfg.pus_per_tile as f64 + sram + router + p.tsu_area_mm2;

        // PHY: edge tiles on each chiplet side need width_bits at the NoC
        // frequency, per physical NoC. Table I's beachfront densities (880 /
        // 1780 Gbit/s/mm) are not modelled: PHY area follows areal density only.
        let h = &cfg.hierarchy;
        let multi_chiplet = h.total_chiplets() > 1;
        let phy = if multi_chiplet {
            let edge_tiles = 2.0 * (h.chiplet.x + h.chiplet.y) as f64;
            let gbps_per_link = cfg.noc.width_bits as f64
                * cfg.noc_clock.operating.as_ghz()
                * cfg.noc.num_physical as f64;
            let demand_gbps = edge_tiles * gbps_per_link;
            let areal = match cfg.interposer {
                InterposerKind::OrganicSubstrate => cfg.params.phy.mcm_areal_gbps_per_mm2,
                InterposerKind::SiliconInterposer => cfg.params.phy.si_areal_gbps_per_mm2,
            };
            demand_gbps / areal
        } else {
            0.0
        };
        let chiplet = h.tiles_per_chiplet() as f64 * tile + phy;
        let total_compute = chiplet * h.total_chiplets() as f64;
        let hbm = match &cfg.memory {
            MemoryConfig::Scratchpad => 0.0,
            MemoryConfig::Dram(d) => {
                d.devices_per_chiplet as f64
                    * h.total_chiplets() as f64
                    * cfg.params.hbm.device_area_mm2
            }
        };
        AreaBreakdown {
            pu_mm2: pu,
            sram_mm2: sram,
            router_mm2: router,
            tsu_mm2: p.tsu_area_mm2,
            tile_mm2: tile,
            phy_mm2: phy,
            chiplet_mm2: chiplet,
            total_compute_mm2: total_compute,
            hbm_mm2: hbm,
            total_silicon_mm2: total_compute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::{ClockDomain, DramConfig, Frequency};

    #[test]
    fn tile_area_composition() {
        let a = AreaBreakdown::from_config(&SystemConfig::default());
        let sum = a.pu_mm2 + a.sram_mm2 + a.router_mm2 + a.tsu_mm2;
        assert!((a.tile_mm2 - sum).abs() < 1e-12);
        assert_eq!(a.phy_mm2, 0.0, "monolithic chip has no PHY");
    }

    #[test]
    fn peak_frequency_grows_area() {
        let base = AreaBreakdown::from_config(&SystemConfig::default());
        let mut b = SystemConfig::builder();
        b.pu_clock(ClockDomain {
            peak: Frequency::ghz(2.0),
            operating: Frequency::ghz(1.0),
        });
        let fast = AreaBreakdown::from_config(&b.build().unwrap());
        // +100% peak -> +50% PU area
        assert!((fast.pu_mm2 / base.pu_mm2 - 1.5).abs() < 1e-9);
        assert_eq!(fast.sram_mm2, base.sram_mm2, "SRAM does not scale");
    }

    #[test]
    fn multi_chiplet_pays_phy() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .package_chiplets(2, 2)
            .build()
            .unwrap();
        let a = AreaBreakdown::from_config(&cfg);
        assert!(a.phy_mm2 > 0.0);
        assert_eq!(a.total_compute_mm2, a.chiplet_mm2 * 4.0);
    }

    #[test]
    fn silicon_interposer_denser_phy() {
        let mk = |kind| {
            let cfg = SystemConfig::builder()
                .chiplet_tiles(16, 16)
                .package_chiplets(2, 1)
                .interposer(kind)
                .build()
                .unwrap();
            AreaBreakdown::from_config(&cfg).phy_mm2
        };
        assert!(mk(InterposerKind::SiliconInterposer) < mk(InterposerKind::OrganicSubstrate));
    }

    #[test]
    fn hbm_footprint() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let a = AreaBreakdown::from_config(&cfg);
        assert_eq!(a.hbm_mm2, 110.0);
    }

    #[test]
    fn wse_like_area_matches_validation_target() {
        // §IV-A: simulating the WSE (850k tiles, 40GB SRAM on 46,225mm^2,
        // 32-bit mesh, 7nm) should report an area ~8.8% above the real
        // wafer. 922x922 = 850,084 tiles with 48 KiB/tile ~ 40GB.
        let cfg = SystemConfig::builder()
            .chiplet_tiles(922, 922)
            .sram_kib_per_tile(48)
            .noc_width_bits(32)
            .build()
            .unwrap();
        let a = AreaBreakdown::from_config(&cfg);
        let target = 46_225.0 * 1.088;
        let err = (a.total_compute_mm2 - target).abs() / target;
        assert!(
            err < 0.05,
            "modeled {:.0} mm^2 vs validation target {:.0} mm^2 ({:.1}% off)",
            a.total_compute_mm2,
            target,
            err * 100.0
        );
    }
}
