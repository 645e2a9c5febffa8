//! Visualization tour (paper §III-F / Fig. 2): run barrier-synchronized
//! BFS under the three NoCs of Fig. 2 — 2D mesh, 2D torus, and torus with
//! in-network reduction — at a fixed frame interval, compare their frame
//! counts with the paper's, dump router- and PU-activity heat-map frames
//! (ASCII to stdout, a PPM sequence per NoC to disk — the "GIF"), and
//! print the per-frame time-series statistics the GUI tool plots.
//!
//! ```sh
//! cargo run --release --example heatmap_tour
//! ```

use muchisim::apps::{high_degree_root, Bfs, SyncMode};
use muchisim::config::{NocTopology, SystemConfig, Verbosity};
use muchisim::core::{SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::viz::{Counter, Heatmap, TimeSeries};

const SIDE: u32 = 16;
const FRAME_CYCLES: u64 = 4000;

/// The three NoCs of Fig. 2 and the paper's frame count for each. The
/// paper's third NoC uses Tascade-style reduction subtrees; here
/// combining happens in every router queue for packets that carry a
/// reduce op, so it differs from the torus only by
/// `Bfs::with_reduction(true)`.
const NOCS: [(&str, NocTopology, bool, usize); 3] = [
    ("mesh", NocTopology::Mesh, false, 50),
    ("torus", NocTopology::FoldedTorus, false, 28),
    ("torus+reduce", NocTopology::FoldedTorus, true, 16),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = std::sync::Arc::new(RmatConfig::scale(13).generate(0x6D75_6368_6953_696D));
    let root = high_degree_root(&graph);
    // results do not depend on the thread count; more threads than cores
    // only makes the spin barriers wait
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let mut runs: Vec<(&str, SimResult)> = Vec::new();
    for (noc, topology, reduction, _) in NOCS {
        // a narrow NoC with shallow buffers puts the run in the
        // network-congested regime Fig. 2 depicts
        let cfg = SystemConfig::builder()
            .chiplet_tiles(SIDE, SIDE)
            .noc_width_bits(32)
            .buffer_depth(2)
            .noc_topology(topology)
            .verbosity(Verbosity::V2) // per-tile frames for heat maps
            .frame_interval_cycles(FRAME_CYCLES)
            .build()?;
        let app = Bfs::new(
            graph.clone(),
            cfg.total_tiles() as u32,
            root,
            SyncMode::Barrier,
        )
        .with_reduction(reduction);
        let result = Simulation::new(cfg, app)?.run_parallel(threads)?;
        assert!(
            result.check_error.is_none(),
            "{noc}: {:?}",
            result.check_error
        );
        runs.push((noc, result));
    }

    println!("Fig. 2: BFS frames of {FRAME_CYCLES} cycles per NoC");
    println!(
        "{:<32} {:>8} {:>10} {:>8}",
        "NoC", "frames", "cycles", "paper"
    );
    for ((noc, result), (_, _, _, paper)) in runs.iter().zip(NOCS) {
        println!(
            "{noc:<32} {:>8} {:>10} {paper:>8}",
            result.frames.len(),
            result.runtime_cycles
        );
    }
    let cycles = |i: usize| runs[i].1.runtime_cycles as f64;
    println!(
        "mesh/torus = {:.2}x (paper 1.79x), torus/reduction = {:.2}x (paper 1.75x)",
        cycles(0) / cycles(1),
        cycles(1) / cycles(2)
    );

    let hm = Heatmap::new(SIDE, SIDE);
    let tiles = SIDE * SIDE;

    // PPM "GIF" frames, one sequence per NoC
    for (noc, result) in &runs {
        let dir = std::path::Path::new("target")
            .join("heatmap_tour")
            .join(noc);
        let grids: Vec<Vec<u32>> = result
            .frames
            .frames
            .iter()
            .map(|f| f.router_grid(tiles))
            .collect();
        hm.write_sequence(&dir, &grids, FRAME_CYCLES as u32)?;
        println!("wrote {} PPM frames to {}", grids.len(), dir.display());
    }

    // ASCII router + PU activity of the mesh run, side by side, for
    // three sample frames
    let (noc, result) = &runs[0];
    let n = result.frames.len();
    for idx in [n / 4, n / 2, 3 * n / 4] {
        let frame = &result.frames.frames[idx];
        let router = hm.ascii(&frame.router_grid(tiles), FRAME_CYCLES as u32 / 2);
        let pu = hm.ascii(&frame.pu_grid(tiles), FRAME_CYCLES as u32 / 2);
        println!("\n{noc} frame {idx}: router activity | PU activity");
        for (l, r) in router.lines().zip(pu.lines()) {
            println!("{l}   |   {r}");
        }
    }

    // GUI-style time series with tail diagnosis
    let series = TimeSeries::from_frames(&result.frames, Counter::PuBusy, tiles);
    println!(
        "\n{noc} PU-activity time series (CSV):\n{}",
        series.to_csv()
    );
    println!(
        "tail imbalance (max/median across frames): {:.1}",
        series.tail_imbalance()
    );
    Ok(())
}
