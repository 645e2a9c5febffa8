//! The paper's §IV-A validation story: configure the DUT as a Cerebras
//! WSE-like wafer (single chiplet, 48 KiB of SRAM per tile, 32-bit mesh,
//! no DRAM), run the wafer-scale FFT workload — an n³ tensor across n²
//! tiles — and print the paper's comparisons beside ours: the
//! WSE-to-simulated runtime ratio across n, the tile-array power
//! extrapolated to 512x512 tiles, and the full-wafer area.
//!
//! ```sh
//! cargo run --release --example wse_validation
//! ```

use muchisim::apps::Fft3d;
use muchisim::config::presets;
use muchisim::core::Simulation;
use muchisim::energy::{AreaBreakdown, Report};

/// Host threads per simulation: results do not depend on it, and more
/// threads than cores only makes the spin barriers wait.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// The paper's WSE runtimes are 1.2x the simulated ones.
const WSE_GAP: f64 = 1.2;

/// An analytic model of the wafer-scale FFT in cycles, the stand-in for
/// the per-n WSE runtimes the paper does not list: three FFT sweeps plus
/// two transposes whose time grows with the n^2 flits crossing each
/// column. `c_transpose`, its one free constant, is calibrated at the
/// smallest n; what is compared is how the simulated runtime *scales*
/// ("the accuracy is not impacted by the size of the DUT").
fn fft_model_cycles(n: f64, c_transpose: f64) -> f64 {
    3.0 * 10.0 * (n / 2.0) * n.log2() + 2.0 * c_transpose * n * n
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("WSE-like DUT: monolithic die, 48 KiB/tile SRAM, 32-bit 2D mesh, no DRAM\n");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>10} {:>10} {:>12} {:>8}",
        "n", "tiles", "cycles", "runtime", "GFLOP/s", "power W", "WSE_ref", "ref/sim"
    );
    let mut c_transpose = 0.0;
    let mut ratios = Vec::new();
    let mut power_32 = 0.0;
    for n in [8u32, 16, 32] {
        let cfg = presets::wse_like(n).build()?;
        let result =
            Simulation::new(cfg.clone(), Fft3d::new(n as usize, 7))?.run_parallel(threads())?;
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        let report = Report::from_counters(&cfg, &result.counters);
        let cycles = result.runtime_cycles as f64;
        if n == 8 {
            // the model matches the simulated runtime here
            c_transpose = (cycles - fft_model_cycles(8.0, 0.0)) / (2.0 * 64.0);
        }
        let reference = WSE_GAP * fft_model_cycles(f64::from(n), c_transpose);
        ratios.push(reference / cycles);
        power_32 = report.average_power_w;
        println!(
            "{:<6} {:>10} {:>12} {:>12} {:>10.2} {:>10.2} {:>12.0} {:>8.2}",
            n,
            cfg.total_tiles(),
            result.runtime_cycles,
            result.runtime.to_string(),
            report.flops / 1e9,
            report.average_power_w,
            reference,
            reference / cycles
        );
    }
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "\nWSE-reference/simulated ratio across n: {min:.2} .. {max:.2} \
         (calibrated at n=8; paper: 1.2 consistently for n = 32..512)"
    );
    println!(
        "tile-array power at n=32: {power_32:.2} W; extrapolated to 512x512 tiles: {:.0} W \
         (paper: ~1 KW at ~30% PU utilization)",
        power_32 * (512.0 * 512.0) / (32.0 * 32.0)
    );

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
