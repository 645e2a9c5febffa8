//! The paper's evaluation numbers, as tests.
//!
//! Each test pins one shape the paper reports — an ordering, a gain, a
//! ratio that stays put — at the smallest DUT where the shape still
//! holds, so a model change that breaks it fails `cargo test` instead of
//! a figure nobody re-reads. Every test names its paper section, the
//! paper's number, the tolerance asserted here and the margin measured
//! when the test was written. The printed figures themselves live in
//! `examples/heatmap_tour.rs` (Fig. 2), `examples/memory_design_space.rs`
//! (Fig. 5) and `examples/wse_validation.rs` (§IV-A).
//!
//! The DUTs are scaled down from the paper's (RMAT-22..26 on 2^10..2^20
//! tiles) so that the whole file runs in well under a minute in a debug
//! build. All runs are single-threaded: results do not depend on the
//! host thread count, which the golden rows pin at 1, 2 and 4 threads.

use muchisim::apps::{high_degree_root, run_benchmark, Benchmark, Bfs, Fft3d, SyncMode};
use muchisim::config::{presets, DramConfig, NocTopology, SystemConfig};
use muchisim::core::{SimError, SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use muchisim::energy::AreaBreakdown;
use std::sync::Arc;

/// The dataset seed every anchor draws its RMAT graph with.
const SEED: u64 = 0x6D75_6368_6953_696D;

fn rmat(scale: u32) -> Arc<Csr> {
    Arc::new(RmatConfig::scale(scale).generate(SEED))
}

/// `result`, after checking that the run verified.
fn verified(what: &str, result: Result<SimResult, SimError>) -> SimResult {
    let result = result.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        result.check_error.is_none(),
        "{what}: {:?}",
        result.check_error
    );
    result
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

// ---------------------------------------------------------------------
// Fig. 2: barrier-synchronized BFS animated under three NoCs. The paper
// counts 50 / 28 / 16 frames at a fixed frame rate for the 2D mesh, the
// 2D torus and the torus with in-network reduction: mesh/torus 1.79x,
// torus/reduction 1.75x. Asserted: the two orderings, not the factors.
// ---------------------------------------------------------------------

/// Runtime of BFS on a congested 16x16 NoC (32-bit links, 2-flit
/// buffers): `"mesh"`, `"torus"` or `"torus+reduce"`. Reduction combines
/// BFS updates in every router queue, so the third run differs from the
/// torus only by `Bfs::with_reduction(true)`.
fn fig2_cycles(noc: &str) -> u64 {
    let topology = match noc {
        "mesh" => NocTopology::Mesh,
        _ => NocTopology::FoldedTorus,
    };
    let cfg = SystemConfig::builder()
        .chiplet_tiles(16, 16)
        .noc_width_bits(32)
        .buffer_depth(2)
        .noc_topology(topology)
        .build()
        .expect("valid Fig. 2 config");
    let graph = rmat(8);
    let root = high_degree_root(&graph);
    let app = Bfs::new(graph, cfg.total_tiles() as u32, root, SyncMode::Barrier)
        .with_reduction(noc == "torus+reduce");
    let sim = Simulation::new(cfg, app).expect("valid Fig. 2 app");
    verified(noc, sim.run_parallel(1)).runtime_cycles
}

/// Paper: mesh 50 frames vs torus 28 (1.79x). Tolerance: mesh strictly
/// slower. Measured at 16x16, RMAT-8: 4080 vs 3586 cycles (1.14x). It
/// holds at 16x16 for RMAT-5 through RMAT-13 (1.05x..1.15x); on an 8x8
/// grid at RMAT-9 the mesh wins (8612 vs 8704 cycles).
#[test]
fn fig2_the_mesh_is_slower_than_the_torus() {
    let (mesh, torus) = (fig2_cycles("mesh"), fig2_cycles("torus"));
    assert!(
        mesh > torus,
        "Fig. 2: the mesh ({mesh} cycles) should be slower than the torus ({torus})"
    );
}

/// Paper: torus 28 frames vs 16 with in-network reduction (1.75x).
/// Tolerance: the reduction run is not slower. Measured at 16x16,
/// RMAT-8: 3586 vs 2678 cycles (1.34x).
#[test]
fn fig2_in_network_reduction_does_not_slow_the_torus() {
    let (torus, reduce) = (fig2_cycles("torus"), fig2_cycles("torus+reduce"));
    assert!(
        torus >= reduce,
        "Fig. 2: in-network reduction ({reduce} cycles) should not slow the torus ({torus})"
    );
}

// ---------------------------------------------------------------------
// Fig. 5 (§IV-C): memory integration. A chiplet carries one 8-channel
// HBM device, each channel serving a band of the chiplet's columns, and
// the per-tile SRAM acts as a cache over it. Scaled to an 8x8 grid on
// RMAT-8: one 8x8 chiplet is 8 tiles per channel, a stack of four 8x2
// chiplets 2 — the paper's quartering (32x32 -> 16x16 chiplets there;
// the band rule leaves a chiplet narrower than 8 columns with fewer
// than 8 channels, so 4x4 chiplets would only halve it). Performance is
// application work per second.
// ---------------------------------------------------------------------

/// Per-app performance of every graph-driven app on the 8x8 Fig. 5 DUT
/// built from 8 x `chiplet_h` chiplets with `sram_kib` of SRAM per tile.
fn fig5_perf(chiplet_h: u32, sram_kib: u32) -> Vec<f64> {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(8, chiplet_h)
        .package_chiplets(1, 8 / chiplet_h)
        .sram_kib_per_tile(sram_kib)
        .dram(DramConfig::default())
        .build()
        .expect("valid Fig. 5 config");
    let graph = rmat(8);
    Benchmark::GRAPH_DRIVEN
        .map(|app| {
            let what = format!("{app} on 8x{chiplet_h} chiplets, {sram_kib} KiB");
            let result = verified(&what, run_benchmark(app, cfg.clone(), &graph, 1));
            result.counters.app_throughput()
        })
        .to_vec()
}

/// The geomean over apps of `to[i] / from[i]`.
fn geomean_gain(from: &[f64], to: &[f64]) -> f64 {
    let gains: Vec<f64> = from.iter().zip(to).map(|(f, t)| t / f).collect();
    geomean(&gains)
}

/// Paper: 3.5x geomean performance from the SRAM sweep. Tolerance: a
/// gain above 1.05x for 1 -> 4 KiB at 8 tiles per channel (the
/// scaled-down footprint compresses the hit-rate range: 0.96..0.99 at
/// 1 KiB). Measured: 1.21x.
#[test]
fn fig5_more_sram_per_tile_raises_performance() {
    let gain = geomean_gain(&fig5_perf(8, 1), &fig5_perf(8, 4));
    assert!(
        gain > 1.05,
        "Fig. 5: 1 -> 4 KiB of SRAM should gain > 1.05x geomean, got {gain:.3}x"
    );
}

/// Paper: about 2x more from quartering the tiles per HBM channel.
/// Tolerance: above 1.3x for 8 -> 2 tiles per channel at 2 KiB.
/// Measured: 1.35x. The gain grows with DRAM pressure and is not
/// monotone in the dataset at this size: RMAT-9 gives 1.19x, RMAT-10
/// 1.54x, and 32 -> 8 tiles per channel on 16x16 at RMAT-12 1.89x (too
/// slow for a debug test).
#[test]
fn fig5_quartering_tiles_per_channel_raises_performance() {
    let gain = geomean_gain(&fig5_perf(8, 2), &fig5_perf(2, 2));
    assert!(
        gain > 1.3,
        "Fig. 5: quartering tiles per channel should gain > 1.3x geomean, got {gain:.3}x"
    );
}

// ---------------------------------------------------------------------
// §IV-A: validation against the Cerebras WSE running a wafer-scale FFT
// of n^3 elements on n x n tiles (`presets::wse_like`).
// ---------------------------------------------------------------------

/// Paper: the WSE's measured runtime is 1.2x the simulated one,
/// consistently for n = 32..512. The per-n WSE runtimes are not in the
/// paper, so the reference is an analytic model — three FFT sweeps of
/// 10 (n/2) log2 n cycles plus two transposes of `c` n^2 cycles, times
/// 1.2 — with `c` calibrated at n = 8 (ratio 1.2 there by
/// construction). Tolerance: max/min ratio over n = 8, 16, 32 below
/// 1.4. Measured: 777 / 2251 / 7119 cycles, ratios 1.20 / 1.40 / 1.53,
/// max/min 1.27.
#[test]
fn wse_fft_runtime_ratio_is_consistent_across_n() {
    let cycles: Vec<f64> = [8u32, 16, 32]
        .iter()
        .map(|&n| {
            let cfg = presets::wse_like(n).build().expect("valid WSE config");
            let sim = Simulation::new(cfg, Fft3d::new(n as usize, 7)).expect("valid FFT");
            verified(&format!("FFT n={n}"), sim.run_parallel(1)).runtime_cycles as f64
        })
        .collect();
    let sweeps = |n: f64| 3.0 * 10.0 * (n / 2.0) * n.log2();
    let c = (cycles[0] - sweeps(8.0)) / (2.0 * 64.0);
    let ratios: Vec<f64> = [8.0, 16.0, 32.0]
        .iter()
        .zip(&cycles)
        .map(|(&n, &sim)| 1.2 * (sweeps(n) + 2.0 * c * n * n) / sim)
        .collect();
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max / min < 1.4,
        "§IV-A: the reference/simulated ratio should stay consistent as n grows, got {ratios:.2?}"
    );
}

/// Paper: the simulator's area model lands 8.8 % above the real
/// 46,225 mm^2 wafer. Tolerance: within ±5 points of +8.8 %, for
/// 922 x 922 tiles (~ the WSE's 850,000 cores). Measured: 50,285 mm^2,
/// +8.78 %.
#[test]
fn wse_area_lands_near_the_papers_overshoot() {
    let wafer = presets::wse_like(922).build().expect("valid wafer config");
    let area = AreaBreakdown::from_config(&wafer).total_compute_mm2;
    let overshoot = (area / 46_225.0 - 1.0) * 100.0;
    assert!(
        (overshoot - 8.8).abs() < 5.0,
        "§IV-A: the wafer area should land within ±5 points of +8.8 %, got {area:.0} mm^2 (+{overshoot:.2} %)"
    );
}

// ---------------------------------------------------------------------
// Model shapes behind the paper's design-space case studies (§IV-C and
// the ablations its artifact ships): a resource added never costs time.
// ---------------------------------------------------------------------

/// Tolerance: a 128-bit NoC is not slower than a 32-bit one on BFS.
/// Measured at 16x16, RMAT-8: 4598 vs 5348 cycles (1.16x). Asynchronous
/// BFS does data-dependent redundant work, so the shape is not universal:
/// at 16x16 RMAT-7 and at 8x8 RMAT-9 the 128-bit NoC reorders updates
/// into more tasks (8x8 RMAT-9: 14196 vs 12609) and loses by 2-9 %.
#[test]
fn ablation_a_wider_noc_is_not_slower() {
    let graph = rmat(8);
    let cycles = |bits: u32| {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .noc_width_bits(bits)
            .build()
            .expect("valid NoC width");
        let result = run_benchmark(Benchmark::Bfs, cfg, &graph, 1);
        verified(&format!("BFS on a {bits}-bit NoC"), result).runtime_cycles
    };
    let (narrow, wide) = (cycles(32), cycles(128));
    assert!(
        wide <= narrow,
        "a 128-bit NoC ({wide} cycles) should not be slower than a 32-bit one ({narrow})"
    );
}

/// Tolerance: four PUs per tile are not slower than one on BFS.
/// Measured at 4x4, RMAT-6: 960 vs 2499 cycles (2.6x); it holds down to
/// 2x2 at RMAT-4.
#[test]
fn ablation_more_pus_per_tile_do_not_hurt() {
    let graph = rmat(6);
    let cycles = |pus: u32| {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .pus_per_tile(pus)
            .build()
            .expect("valid PU count");
        let result = run_benchmark(Benchmark::Bfs, cfg, &graph, 1);
        verified(&format!("BFS with {pus} PUs per tile"), result).runtime_cycles
    };
    let (one, four) = (cycles(1), cycles(4));
    assert!(
        four <= one,
        "four PUs per tile ({four} cycles) should not be slower than one ({one})"
    );
}

/// Tolerance: SPMV with the SRAM as a cache over HBM (1 or 4 KiB) is not
/// faster than with a 64 KiB scratchpad holding the whole dataset.
/// Measured at 4x4, RMAT-6: 6979 / 6929 vs 3796 cycles (1.8x).
#[test]
fn ablation_a_cache_over_dram_does_not_beat_the_scratchpad() {
    let graph = rmat(6);
    let spmv = |what: &str, cfg: SystemConfig| {
        verified(what, run_benchmark(Benchmark::Spmv, cfg, &graph, 1)).runtime_cycles
    };
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(4, 4).sram_kib_per_tile(64);
    let scratchpad = spmv("SPMV on a scratchpad", b.build().expect("valid"));
    for kib in [1, 4] {
        b.sram_kib_per_tile(kib).dram(DramConfig::default());
        let cached = spmv(
            &format!("SPMV on a {kib} KiB cache"),
            b.build().expect("valid"),
        );
        assert!(
            cached >= scratchpad,
            "a {kib} KiB cache over DRAM ({cached} cycles) should not beat the scratchpad ({scratchpad})"
        );
    }
}
