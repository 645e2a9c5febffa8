//! The named configuration preset of the paper's §IV-A validation.
//!
//! A preset is a starting point the builder can refine.
//!
//! The preset leaves the time-leaping cycle driver at its default
//! (enabled); `builder.time_leap(false)` flips it back to the
//! one-cycle-at-a-time driver for host-performance ablations — results
//! are bit-identical either way.

use crate::system::{NocTopology, SystemConfig, SystemConfigBuilder};

/// A Cerebras-WSE-like wafer: one monolithic die of `side × side` tiles,
/// 48 KiB of SRAM per tile (scratchpad), a 32-bit 2D mesh (paper §IV-A).
pub fn wse_like(side: u32) -> SystemConfigBuilder {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .sram_kib_per_tile(48)
        .noc_width_bits(32)
        .noc_topology(NocTopology::Mesh)
        .scratchpad();
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_valid_configs() {
        assert_eq!(wse_like(32).build().unwrap().total_tiles(), 1024);
    }

    #[test]
    fn presets_default_to_time_leaping_driver() {
        assert!(wse_like(8).build().unwrap().time_leap);
        let off = wse_like(8).time_leap(false).build().unwrap();
        assert!(!off.time_leap);
    }

    #[test]
    fn presets_are_refinable() {
        let cfg = wse_like(16).pus_per_tile(2).build().unwrap();
        assert_eq!(cfg.pus_per_tile, 2);
        assert_eq!(cfg.sram_kib_per_tile, 48);
    }
}
