//! §IV-A — validation against the Cerebras Wafer-Scale Engine running
//! wafer-scale FFT (ICS'23): FFTs of n³ tensors parallelized across n²
//! processors.
//!
//! The paper reports that the WSE's measured runtimes are 1.2× the
//! MuchiSim-simulated runtimes, *consistently* for n from 32 to 512, that
//! the simulator's area model lands 8.8 % above the real 46,225 mm²
//! wafer, and a tile-array power of ~1 KW for the 512×512 case at ~30 %
//! PU utilization.
//!
//! Offline substitution (DESIGN.md #3): the exact per-n WSE runtimes are
//! not in the paper text, so the "WSE-reported" stand-in is an analytic
//! performance model of the wafer-scale FFT (compute + transpose
//! serialization on a 32-bit mesh) scaled by the paper's 1.2× gap. The
//! reproduced claim is the *consistency* of the simulated-vs-reference
//! ratio across n, plus the area and power model checks, at scaled-down
//! n (8–32; the full 512 needs hours of host time).

use muchisim_apps::Fft3d;
use muchisim_config::{presets, SystemConfig};
use muchisim_core::Simulation;
use muchisim_energy::Report;

fn wse_config(n: u32) -> SystemConfig {
    presets::wse_like(n).build().unwrap()
}

/// Analytic stand-in for the WSE-reported runtime in cycles: three FFT
/// sweeps plus two column/row all-to-all transposes whose time scales
/// with the per-column bisection load (O(n²) message-flits over O(1)
/// middle links), all times the paper's observed 1.2×
/// circuit-switched-synchronization gap. The transpose constant
/// `c_transpose` is the model's one free parameter, calibrated at the
/// smallest n; the reproduced claim is that the simulated runtime then
/// *scales* like the model for larger n (the paper: "the accuracy is not
/// impacted by the size of the DUT").
fn wse_model_cycles(n: u64, c_transpose: f64) -> f64 {
    let fft = 10.0 * (n as f64 / 2.0) * (n as f64).log2();
    3.0 * fft + 2.0 * c_transpose * (n as f64) * (n as f64)
}

fn simulate(n: u32) -> muchisim_core::SimResult {
    let cfg = wse_config(n);
    let sim = Simulation::new(cfg, Fft3d::new(n as usize, 7))
        .unwrap()
        .run_parallel(8)
        .unwrap();
    assert!(sim.check_error.is_none(), "{:?}", sim.check_error);
    sim
}

fn main() {
    muchisim_bench::rule("WSE validation: FFT of n^3 across n^2 tiles");
    // calibrate the model's transpose constant at the smallest size
    let base = simulate(8);
    let fft_only = 3.0 * 10.0 * 4.0 * 3.0; // 3 sweeps of 10*(n/2)*log2(n)
    let c_transpose = (base.runtime_cycles as f64 - fft_only) / (2.0 * 64.0);
    println!(
        "calibrated transpose constant at n=8: {c_transpose:.2} cycles/n^2
"
    );
    println!(
        "{:<6} {:>12} {:>16} {:>16}",
        "n", "sim_cycles", "WSE_ref_cycles", "WSE_ref / sim"
    );
    let mut ratios = Vec::new();
    for n in [8u32, 16, 32] {
        let sim = if n == 8 { simulate(8) } else { simulate(n) };
        let reference = 1.2 * wse_model_cycles(n as u64, c_transpose);
        let ratio = reference / sim.runtime_cycles as f64;
        println!(
            "{:<6} {:>12} {:>16.0} {:>16.2}",
            n, sim.runtime_cycles, reference, ratio
        );
        ratios.push(ratio);

        if n == 32 {
            let cfg = wse_config(n);
            let report = Report::from_counters(&cfg, &sim.counters);
            println!(
                "  n=32 tile-array power: {:.2} W ({} tiles; paper: ~1 KW for 262,144 tiles)",
                report.average_power_w,
                cfg.total_tiles()
            );
            println!(
                "  extrapolated to 512x512: {:.0} W",
                report.average_power_w * (512.0f64 * 512.0) / (32.0 * 32.0)
            );
        }
    }
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "WSE-reported/simulated ratio across n: {min:.2} .. {max:.2} (paper: 1.2 consistently)"
    );
    assert!(
        max / min < 1.4,
        "the ratio should stay consistent as the DUT scales ({min:.2}..{max:.2})"
    );

    // area validation at full WSE scale (model-only; no simulation needed)
    muchisim_bench::rule("WSE area validation");
    // 922 x 922 = 850,084 tiles ~ the WSE's 850,000 cores, with ~40 GB
    // of on-wafer SRAM
    let wse_full = wse_config(922);
    let area = muchisim_energy::AreaBreakdown::from_config(&wse_full);
    let real = 46_225.0;
    let overshoot = area.total_compute_mm2 / real - 1.0;
    println!(
        "modeled {:.0} mm^2 vs real {:.0} mm^2: +{:.1}% (paper: +8.8%)",
        area.total_compute_mm2,
        real,
        overshoot * 100.0
    );
    assert!(
        (overshoot - 0.088).abs() < 0.05,
        "area model should land near the paper's +8.8% ({:.1}%)",
        overshoot * 100.0
    );
}
