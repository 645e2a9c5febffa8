//! The paper's §IV-A validation story: configure the DUT as a Cerebras
//! WSE-like wafer (single chiplet, 48 KiB of SRAM per tile, 32-bit mesh,
//! no DRAM) and run the wafer-scale FFT workload: an n³ tensor across n²
//! tiles.
//!
//! ```sh
//! cargo run --release --example wse_validation
//! ```

use muchisim::apps::Fft3d;
use muchisim::config::presets;
use muchisim::core::Simulation;
use muchisim::energy::{AreaBreakdown, Report};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("WSE-like DUT: monolithic die, 48 KiB/tile SRAM, 32-bit 2D mesh, no DRAM\n");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "n", "tiles", "cycles", "runtime", "GFLOP/s", "power W"
    );
    for n in [8u32, 16, 32] {
        let cfg = presets::wse_like(n).build()?;
        let result = Simulation::new(cfg.clone(), Fft3d::new(n as usize, 7))?.run_parallel(8)?;
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        let report = Report::from_counters(&cfg, &result.counters);
        println!(
            "{:<6} {:>10} {:>12} {:>12} {:>10.2} {:>10.2}",
            n,
            cfg.total_tiles(),
            result.runtime_cycles,
            result.runtime.to_string(),
            report.flops / 1e9,
            report.average_power_w
        );
    }

    // Area model at full wafer scale: the paper reports the simulator's
    // area is 8.8% above the real 46,225 mm^2 WSE.
    // 922 x 922 ~ 850,000 tiles with ~40 GB of SRAM
    let wafer = presets::wse_like(922).build()?;
    let area = AreaBreakdown::from_config(&wafer);
    println!(
        "\nfull-wafer area model: {:.0} mm^2 vs real 46,225 mm^2 (+{:.1}%; paper: +8.8%)",
        area.total_compute_mm2,
        (area.total_compute_mm2 / 46_225.0 - 1.0) * 100.0
    );
    println!(
        "per-tile breakdown: PU {:.4} + SRAM {:.4} + router {:.4} + TSU {:.4} = {:.4} mm^2",
        area.pu_mm2, area.sram_mm2, area.router_mm2, area.tsu_mm2, area.tile_mm2
    );
    Ok(())
}
