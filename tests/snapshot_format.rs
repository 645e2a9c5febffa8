//! Snapshot format pin and re-snapshot idempotence.
//!
//! The rule in `docs/CHECKPOINT.md` — *bump `SNAPSHOT_VERSION` on any
//! change to the wire format* — is enforced here: for a fixed matrix of
//! runs the snapshot file's length and trailing checksum must equal
//! constants recorded from the commit that last bumped the version. A
//! codec edit that moves a byte fails this test; the fix is to bump the
//! version and re-record, never to edit a pin alone.
//!
//! To re-record after a deliberate format change: bump
//! `SNAPSHOT_VERSION`, run this test, and paste the table the failure
//! message prints into a new `PINS_V<n>`.
//!
//! The matrix runs in lockstep (`time_leap = false`, which the config
//! hash ignores) so the snapshot cycle is the cadence boundary itself in
//! every host mode, `MUCHISIM_NO_LEAP` included.

use muchisim::apps::{
    high_degree_root, Bfs, Fft3d, Histogram, PageRank, Spmm, Spmv, Sssp, SyncMode, Wcc,
};
use muchisim::config::{DramConfig, SystemConfig, TrafficPattern, Verbosity};
use muchisim::core::snapshot::SNAPSHOT_VERSION;
use muchisim::core::{Application, SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use muchisim::traffic::TrafficApp;
use std::sync::{Arc, OnceLock};

mod common;
use common::{mill_config, mill_policies, Mill};

const SIDE: u32 = 8;
const GRAPH_SEED: u64 = 0xC0FF_EE00;
const GRAPH_SCALE: u32 = 5;

/// `(row, file length in bytes, trailing checksum)`, recorded at the
/// commit that set version 2 (cold tile state only where a cold box
/// exists, sparse queue banks, a config identity over the differences
/// from the default configuration). The two SSSP rows were added later,
/// recorded from the same version-2 codec before any edit to it.
const PINS_V2: &[(&str, u64, u64)] = &[
    ("bfs/sram/t1", 13625, 0x67cf82d270841c63),
    ("bfs/sram/t2", 14653, 0x16eb09e6ae1f08fe),
    ("bfs/cache/t1", 22821, 0xe7cb8f232bc6f99b),
    ("bfs/cache/t2", 24057, 0x830b86dc39f73e59),
    ("pagerank/sram/t1", 27277, 0xb2b6223d390163fa),
    ("pagerank/sram/t2", 30177, 0xc13c595305f6011c),
    ("pagerank/cache/t1", 40900, 0x457d09a20bd4c17f),
    ("pagerank/cache/t2", 44684, 0x1dbcc5f0517e3814),
    ("spmv/sram/t1", 14595, 0x0ea708f2d3858790),
    ("spmv/sram/t2", 15987, 0xc95a7514ab534352),
    ("spmv/cache/t1", 33446, 0x4514964f73b8d20d),
    ("spmv/cache/t2", 35566, 0xf2aeacb7c8a3a203),
    ("fft/sram/t1", 37804, 0xbabaed7defe84d0b),
    ("fft/sram/t2", 38624, 0x24a94334972daa6c),
    ("fft/cache/t1", 54080, 0x801f14da5523ab07),
    ("fft/cache/t2", 54952, 0x8116e83be783ac7d),
    ("wcc/sram/t1", 12370, 0x33511fd52d0f274f),
    ("wcc/sram/t2", 13294, 0xdecfabf5dec657dd),
    ("wcc/cache/t1", 20349, 0xd8d8a49c012d3fdc),
    ("wcc/cache/t2", 21377, 0xb613eb9c3afd5143),
    ("histogram/sram/t1", 10543, 0x3e8d860ed1a18283),
    ("histogram/sram/t2", 11311, 0x9534a5c422a13f84),
    ("histogram/cache/t1", 22571, 0x9b5e3390d616c4b4),
    ("histogram/cache/t2", 23391, 0x3be6c1053fc475e9),
    ("spmm/sram/t1", 26871, 0x3c675cbbdefe7723),
    ("spmm/sram/t2", 30603, 0xabb6047e1063d5ab),
    ("spmm/cache/t1", 37931, 0x72647e43dd3349fa),
    ("spmm/cache/t2", 42391, 0x5bbefdfdeb876dad),
    ("traffic/sram/t1", 18594, 0xbbad2e3b8e422378),
    ("traffic/sram/t2", 19206, 0x99cbb00867a5a5be),
    ("traffic/cache/t1", 28834, 0x0dd1b67266a77add),
    ("traffic/cache/t2", 29446, 0x1aac30a1504779e9),
    ("sssp/sram/t1", 13766, 0x2bc865bd8eb7ef4a),
    ("sssp/cache/t2", 28400, 0x8af0f8a5f2410e1e),
    ("traffic-jam/sram/t1", 116090, 0x1a9ca4aecff6823f),
    ("traffic-jam/sram/t2", 118210, 0xe233a6cad3ab4df9),
    ("mill-rr/sram/t1", 18036, 0xaf578bf20f978be8),
    ("mill-rr/cache/t2", 23655, 0xca400d71d7033026),
    ("mill-priority/sram/t2", 20748, 0xe401f53a18fd5315),
    ("mill-occupancy/cache/t1", 21736, 0x090cc1e499aaeb98),
];

#[derive(Clone, Copy, Debug)]
enum App {
    Bfs,
    PageRank,
    Spmv,
    Fft,
    Wcc,
    Histogram,
    Spmm,
    /// Barrier-synchronized SSSP: a tile of `f32` distances and `bool`
    /// changed flags.
    Sssp,
    /// Scripted uniform-random traffic at a light load.
    Traffic,
    /// Scripted hotspot traffic past saturation: the snapshot lands in a
    /// jam, with deep source queues, busy links and advanced arbiters.
    TrafficJam,
    /// `common::Mill` under the `mill_policies()` entry of this index:
    /// full IQs at tile 0, spilled CQs, banks with some queues empty.
    Mill(usize),
}

impl App {
    fn label(self) -> &'static str {
        match self {
            App::Bfs => "bfs",
            App::PageRank => "pagerank",
            App::Spmv => "spmv",
            App::Fft => "fft",
            App::Wcc => "wcc",
            App::Histogram => "histogram",
            App::Spmm => "spmm",
            App::Sssp => "sssp",
            App::Traffic => "traffic",
            App::TrafficJam => "traffic-jam",
            App::Mill(0) => "mill-rr",
            App::Mill(1) => "mill-priority",
            App::Mill(_) => "mill-occupancy",
        }
    }
}

/// One row of the matrix.
#[derive(Clone, Copy, Debug)]
struct Row {
    app: App,
    /// Cache-backed DRAM memory instead of the scratchpad.
    cache: bool,
    /// Host threads of the writing run (= chunks in the file).
    threads: usize,
}

impl Row {
    fn name(&self) -> String {
        let mem = if self.cache { "cache" } else { "sram" };
        format!("{}/{mem}/t{}", self.app.label(), self.threads)
    }
}

fn matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    for app in [
        App::Bfs,
        App::PageRank,
        App::Spmv,
        App::Fft,
        App::Wcc,
        App::Histogram,
        App::Spmm,
        App::Traffic,
    ] {
        for cache in [false, true] {
            for threads in [1, 2] {
                rows.push(Row {
                    app,
                    cache,
                    threads,
                });
            }
        }
    }
    for (cache, threads) in [(false, 1), (true, 2)] {
        rows.push(Row {
            app: App::Sssp,
            cache,
            threads,
        });
    }
    for threads in [1, 2] {
        rows.push(Row {
            app: App::TrafficJam,
            cache: false,
            threads,
        });
    }
    for (policy, cache, threads) in [(0, false, 1), (0, true, 2), (1, false, 2), (2, true, 1)] {
        rows.push(Row {
            app: App::Mill(policy),
            cache,
            threads,
        });
    }
    rows
}

fn config(row: &Row) -> SystemConfig {
    if let App::Mill(policy) = row.app {
        let mut cfg = mill_config(mill_policies()[policy].1.clone(), row.cache);
        cfg.time_leap = false;
        return cfg;
    }
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(SIDE, SIDE)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(64)
        .time_leap(false);
    if row.cache {
        b.sram_kib_per_tile(4).dram(DramConfig::default());
    }
    let mut cfg = b.build().expect("valid config");
    match row.app {
        App::Traffic => {
            cfg.traffic.cycles = 300;
            cfg.traffic.rate = 0.05;
        }
        App::TrafficJam => {
            cfg.traffic.cycles = 300;
            cfg.traffic.rate = 0.4;
        }
        _ => {}
    }
    cfg
}

/// Runs the row's application on `cfg` with `row.threads` host threads.
fn simulate(row: &Row, cfg: SystemConfig, graph: &Arc<Csr>, resnapshot: bool) -> SimResult {
    fn go<A: Application>(row: &Row, cfg: SystemConfig, app: A, resnapshot: bool) -> SimResult {
        let sim = Simulation::new(cfg, app).expect("valid simulation");
        let sim = if resnapshot {
            sim.resnapshot_on_resume()
        } else {
            sim
        };
        let result = sim
            .run_parallel(row.threads)
            .unwrap_or_else(|e| panic!("{}: {e}", row.name()));
        assert!(
            result.check_error.is_none(),
            "{}: {:?}",
            row.name(),
            result.check_error
        );
        result
    }
    let tiles = SIDE * SIDE;
    let g = Arc::clone(graph);
    match row.app {
        App::Bfs => {
            let root = high_degree_root(graph);
            go(
                row,
                cfg,
                Bfs::new(g, tiles, root, SyncMode::Async),
                resnapshot,
            )
        }
        App::PageRank => go(row, cfg, PageRank::new(g, tiles, 5), resnapshot),
        App::Spmv => go(row, cfg, Spmv::new(g, tiles), resnapshot),
        App::Fft => go(row, cfg, Fft3d::new(SIDE as usize, 7), resnapshot),
        App::Wcc => go(row, cfg, Wcc::new(g, tiles, SyncMode::Async), resnapshot),
        App::Histogram => {
            let bins = graph.num_vertices();
            go(row, cfg, Histogram::new(g, tiles, bins), resnapshot)
        }
        App::Spmm => go(row, cfg, Spmm::new(g, tiles, 8), resnapshot),
        App::Sssp => {
            let root = high_degree_root(graph);
            let app = Sssp::new(g, tiles, root, SyncMode::Barrier);
            go(row, cfg, app, resnapshot)
        }
        App::Traffic => {
            let app = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).expect("traffic");
            go(row, cfg, app, resnapshot)
        }
        App::TrafficJam => {
            let app = TrafficApp::new(&cfg, TrafficPattern::Hotspot).expect("traffic");
            go(row, cfg, app, resnapshot)
        }
        App::Mill(_) => go(row, cfg, Mill, resnapshot),
    }
}

fn snap_path(row: &Row, tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "muchisim-format-{}-{}-{tag}.snap",
            std::process::id(),
            row.name().replace('/', "-")
        ))
        .to_string_lossy()
        .into_owned()
}

/// Every row's one snapshot, two thirds into the run (a second boundary
/// would fall past the end); written once, shared by both tests.
fn snapshots() -> &'static [(Row, Vec<u8>)] {
    static FILES: OnceLock<Vec<(Row, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let graph = graph();
        matrix()
            .into_iter()
            .map(|row| {
                // the probe may leap: the runtime is the same either way
                let mut probe_cfg = config(&row);
                probe_cfg.time_leap = true;
                let probe = simulate(&row, probe_cfg, &graph, false);
                let path = snap_path(&row, "pin");
                let mut cfg = config(&row);
                cfg.checkpoint_path = Some(path.clone());
                cfg.checkpoint_every = Some(probe.runtime_cycles * 2 / 3);
                simulate(&row, cfg, &graph, false);
                let bytes = std::fs::read(&path)
                    .unwrap_or_else(|e| panic!("{}: no snapshot: {e}", row.name()));
                let _ = std::fs::remove_file(&path);
                (row, bytes)
            })
            .collect()
    })
}

fn graph() -> Arc<Csr> {
    Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED))
}

/// Resumes from `bytes` and re-encodes the restored state at the very
/// cycle the run re-enters at; returns the rewritten file.
fn resnapshot(row: &Row, graph: &Arc<Csr>, bytes: &[u8], tag: &str) -> Vec<u8> {
    let path = snap_path(row, tag);
    std::fs::write(&path, bytes).expect("write snapshot copy");
    let mut cfg = config(row);
    cfg.time_leap = true; // the rewrite happens before anything runs
    cfg.checkpoint_path = Some(path.clone());
    cfg.checkpoint_resume = true;
    // a cadence arms the writer; no boundary is ever crossed
    cfg.checkpoint_every = Some(u64::MAX / 2);
    simulate(row, cfg, graph, true);
    let again = std::fs::read(&path).expect("rewritten snapshot");
    let _ = std::fs::remove_file(&path);
    again
}

fn trailing_checksum(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"))
}

#[test]
fn snapshot_bytes_match_the_pins_recorded_for_this_version() {
    let pins = match SNAPSHOT_VERSION {
        2 => PINS_V2,
        v => panic!("no pins recorded for SNAPSHOT_VERSION {v}: record a PINS_V{v} table"),
    };
    let got: Vec<(String, u64, u64)> = snapshots()
        .iter()
        .map(|(row, bytes)| (row.name(), bytes.len() as u64, trailing_checksum(bytes)))
        .collect();
    let same = got.len() == pins.len()
        && got
            .iter()
            .zip(pins)
            .all(|(g, p)| (g.0.as_str(), g.1, g.2) == *p);
    let table: String = got
        .iter()
        .map(|(name, len, sum)| format!("    (\"{name}\", {len}, {sum:#018x}),\n"))
        .collect();
    assert!(
        same,
        "snapshot bytes differ from the version-{SNAPSHOT_VERSION} pins. If the format changed \
         on purpose, bump SNAPSHOT_VERSION and record this as the new table:\n{table}"
    );
}

/// `encode(restore(decode(file))) == file` on live engine state, for
/// every row of the matrix.
///
/// With one writer the rewritten file equals the original byte for
/// byte. With two, the restore hands the run-wide scalars, NoC counters
/// and captured frames to worker 0 (they are stored merged, see
/// `Worker::restore_from_snapshot`), so chunk 0 of the rewrite holds the
/// sums chunk 0 and 1 held between them: same length, same merged state,
/// different bytes — and a fixed point from then on.
#[test]
fn resnapshot_after_restore_reproduces_the_file() {
    let graph = graph();
    for (row, original) in snapshots() {
        let second = resnapshot(row, &graph, original, "second");
        if row.threads == 1 {
            assert!(
                second == *original,
                "{}: re-encoding the restored state changed the file",
                row.name()
            );
        } else {
            assert_eq!(second.len(), original.len(), "{}", row.name());
            let third = resnapshot(row, &graph, &second, "third");
            assert!(
                third == second,
                "{}: re-encoding is not a fixed point",
                row.name()
            );
        }
    }
}
