//! Fig. 2 — router/PU activity animation for BFS under three NoCs:
//! 2D mesh, 2D torus, and 2D torus with in-network reduction.
//!
//! The paper shows frame counts of 50 / 28 / 16 (proportional to
//! execution time) at a fixed frame rate. This bench reruns
//! barrier-synchronized BFS on a scaled-down RMAT with the same fixed
//! frame interval, writes the PPM frame sequences (the "GIF") under
//! `target/fig2/`, prints an ASCII snapshot per NoC, and checks the
//! paper's ordering: mesh slower than torus, torus slower than the
//! torus with in-network reduction. The paper's third NoC uses
//! Tascade-style reduction subtrees; here combining happens in every
//! router queue for packets that carry a reduce op, so the third run
//! differs from the torus only by `Bfs::with_reduction(true)`.

use muchisim_apps::{high_degree_root, Bfs, SyncMode};
use muchisim_config::{NocTopology, SystemConfig, Verbosity};
use muchisim_core::Simulation;
use muchisim_viz::Heatmap;

const SIDE: u32 = 16;
const RMAT_SCALE: u32 = 13;
const FRAME_CYCLES: u64 = 4000;

fn run(noc: &str) -> (usize, u64) {
    let mut b = SystemConfig::builder();
    // a narrow NoC with shallow buffers puts the run in the
    // network-congested regime the paper's Fig. 2 depicts
    b.chiplet_tiles(SIDE, SIDE)
        .noc_width_bits(32)
        .buffer_depth(2)
        .verbosity(Verbosity::V2)
        .frame_interval_cycles(FRAME_CYCLES);
    b.noc_topology(if noc == "mesh" {
        NocTopology::Mesh
    } else {
        NocTopology::FoldedTorus
    });
    let reduction = noc == "torus+reduce";
    let cfg = b.build().unwrap();
    let graph = muchisim_bench::bench_graph(RMAT_SCALE);
    let root = high_degree_root(&graph);
    let app = Bfs::new(graph, cfg.total_tiles() as u32, root, SyncMode::Barrier)
        .with_reduction(reduction);
    let result = Simulation::new(cfg, app).unwrap().run_parallel(8).unwrap();
    assert!(
        result.check_error.is_none(),
        "{noc}: {:?}",
        result.check_error
    );

    // write the router-activity frame sequence (the GIF equivalent)
    let hm = Heatmap::new(SIDE, SIDE);
    let frames: Vec<Vec<u32>> = result
        .frames
        .frames
        .iter()
        .map(|f| f.router_grid(SIDE * SIDE))
        .collect();
    let dir = std::path::Path::new("target").join("fig2").join(noc);
    hm.write_sequence(&dir, &frames, FRAME_CYCLES as u32)
        .unwrap();

    // print the busiest frame as ASCII (router activity)
    if let Some(busiest) = frames.iter().max_by_key(|g| g.iter().sum::<u32>()) {
        println!("[{noc}] busiest router-activity frame:");
        println!("{}", hm.ascii(busiest, FRAME_CYCLES as u32 / 4));
    }
    (result.frames.len(), result.runtime_cycles)
}

fn main() {
    muchisim_bench::rule("Fig. 2: BFS router/PU activity, frame counts per NoC");
    let (mesh_frames, mesh_cy) = run("mesh");
    let (torus_frames, torus_cy) = run("torus");
    let (reduce_frames, reduce_cy) = run("torus+reduce");
    println!("{:<32} {:>8} {:>12}", "NoC", "frames", "cycles");
    println!(
        "{:<32} {:>8} {:>12}   (paper: 50)",
        "mesh", mesh_frames, mesh_cy
    );
    println!(
        "{:<32} {:>8} {:>12}   (paper: 28)",
        "torus", torus_frames, torus_cy
    );
    println!(
        "{:<32} {:>8} {:>12}   (paper: 16)",
        "torus with in-network reduction", reduce_frames, reduce_cy
    );
    assert!(
        mesh_cy > torus_cy,
        "mesh ({mesh_cy}) should be slower than torus ({torus_cy})"
    );
    assert!(
        torus_cy >= reduce_cy,
        "torus ({torus_cy}) should not beat the torus with in-network reduction ({reduce_cy})"
    );
    println!(
        "shape check: mesh/torus = {:.2}x (paper 1.79x), torus/reduction = {:.2}x (paper 1.75x)",
        mesh_cy as f64 / torus_cy as f64,
        torus_cy as f64 / reduce_cy as f64
    );
    println!("frame sequences written under target/fig2/");
}
