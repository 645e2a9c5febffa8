//! The fabrication cost model (paper §III-E).

use crate::area::AreaBreakdown;
use crate::yield_model::{dies_per_wafer, murphy_yield};
use muchisim_config::{InterposerKind, MemoryConfig, SystemConfig};
use serde::{Deserialize, Serialize};

/// Cost results in USD.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Cost of one good compute die.
    pub compute_die_usd: f64,
    /// Dies per wafer (gross).
    pub dies_per_wafer: u64,
    /// Die yield.
    pub die_yield: f64,
    /// All compute dies in the system.
    pub compute_usd: f64,
    /// Interposers / substrates / bonding.
    pub packaging_usd: f64,
    /// HBM devices.
    pub hbm_usd: f64,
    /// Total system cost.
    pub total_usd: f64,
}

impl CostBreakdown {
    /// Computes the cost of the configured system given its areas.
    pub(crate) fn from_config(cfg: &SystemConfig, area: &AreaBreakdown) -> Self {
        let p = &cfg.params.cost;
        let die_mm2 = area.chiplet_mm2;
        let gross = dies_per_wafer(p.wafer_diameter_mm, p.edge_loss_mm, p.scribe_mm, die_mm2);
        let yield_ = murphy_yield(die_mm2, p.defect_density_per_mm2);
        let good = (gross as f64 * yield_).max(1e-9);
        // wafer-scale parts: one die per wafer, yield folded into cost
        let compute_die_usd = if gross == 0 {
            p.wafer_cost_usd / yield_.max(1e-9)
        } else {
            p.wafer_cost_usd / good
        };
        let n_chiplets = cfg.hierarchy.total_chiplets() as f64;
        let compute_usd = compute_die_usd * n_chiplets;

        let has_dram = cfg.memory.has_dram();
        // silicon interposer per compute+DRAM pair (20% of die price);
        // otherwise the configured substrate: organic 10% + 5% bonding,
        // silicon interposer 20%.
        let per_chiplet_packaging = if has_dram {
            compute_die_usd * p.si_interposer_fraction
                + compute_die_usd * p.organic_substrate_fraction
                + compute_die_usd * p.bonding_overhead_fraction
        } else {
            match cfg.interposer {
                InterposerKind::SiliconInterposer => compute_die_usd * p.si_interposer_fraction,
                InterposerKind::OrganicSubstrate => {
                    compute_die_usd * (p.organic_substrate_fraction + p.bonding_overhead_fraction)
                }
            }
        };
        let packaging_usd = per_chiplet_packaging * n_chiplets;

        let hbm_usd = match &cfg.memory {
            MemoryConfig::Scratchpad => 0.0,
            MemoryConfig::Dram(d) => {
                d.devices_per_chiplet as f64
                    * n_chiplets
                    * cfg.params.hbm.device_capacity_gb
                    * p.hbm_usd_per_gb
            }
        };
        CostBreakdown {
            compute_die_usd,
            dies_per_wafer: gross,
            die_yield: yield_,
            compute_usd,
            packaging_usd,
            hbm_usd,
            total_usd: compute_usd + packaging_usd + hbm_usd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::DramConfig;

    fn cost_of(cfg: &SystemConfig) -> CostBreakdown {
        CostBreakdown::from_config(cfg, &AreaBreakdown::from_config(cfg))
    }

    #[test]
    fn monolithic_cost_positive_and_composed() {
        let c = cost_of(&SystemConfig::default());
        assert!(c.compute_die_usd > 0.0);
        assert!(c.die_yield > 0.0 && c.die_yield <= 1.0);
        assert!((c.total_usd - (c.compute_usd + c.packaging_usd + c.hbm_usd)).abs() < 1e-9);
        assert_eq!(c.hbm_usd, 0.0);
    }

    #[test]
    fn hbm_cost_follows_capacity() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let c = cost_of(&cfg);
        // one 8GB device at $7.5/GB
        assert!((c.hbm_usd - 60.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_chiplets_cheaper_silicon() {
        // same total tiles, split into 4 chiplets vs monolithic: yield
        // gains make the 4-chiplet silicon cheaper
        let mono = SystemConfig::builder()
            .chiplet_tiles(64, 64)
            .build()
            .unwrap();
        let quad = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .package_chiplets(2, 2)
            .build()
            .unwrap();
        let c_mono = cost_of(&mono);
        let c_quad = cost_of(&quad);
        assert!(
            c_quad.compute_usd < c_mono.compute_usd,
            "4x chiplets {:.0} should beat monolithic {:.0}",
            c_quad.compute_usd,
            c_mono.compute_usd
        );
    }

    #[test]
    fn four_times_hbm_devices_quadruple_dram_cost() {
        // Fig. 5's cost effect: 16x16-tile chiplets need 4x more HBM
        // devices than 32x32 for the same total tiles
        let big = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let small = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .package_chiplets(2, 2)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        assert!((cost_of(&small).hbm_usd / cost_of(&big).hbm_usd - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dram_config_pays_si_interposer() {
        let dram = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let spm = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .build()
            .unwrap();
        let a = cost_of(&dram);
        let b = cost_of(&spm);
        // same die, but dram packaging adds the interposer fraction
        assert!(a.packaging_usd > b.packaging_usd);
    }
}
