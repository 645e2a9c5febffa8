//! Snapshot format pin and re-snapshot idempotence.
//!
//! The rule in `docs/CHECKPOINT.md` — *bump `SNAPSHOT_VERSION` on any
//! change to the wire format* — is enforced here: for a fixed matrix of
//! runs the snapshot file's length and trailing checksum must equal
//! constants recorded from the commit that last bumped the version (for
//! version 1: the last commit where the streaming encoder was still
//! cross-checked against the struct-building one). A codec edit that
//! moves a byte fails this test; the fix is to bump the version and
//! re-record, never to edit a pin alone.
//!
//! To re-record after a deliberate format change: bump
//! `SNAPSHOT_VERSION`, run this test, and paste the table the failure
//! message prints into a new `PINS_V<n>`.
//!
//! The matrix runs in lockstep (`time_leap = false`, which the config
//! hash ignores) so the snapshot cycle is the cadence boundary itself in
//! every host mode, `MUCHISIM_NO_LEAP` included.

use muchisim::apps::{
    high_degree_root, Bfs, Fft3d, Histogram, PageRank, Spmm, Spmv, SyncMode, Wcc,
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

/// `(row, file length in bytes, trailing checksum)`, recorded at commit
/// d4354c6 (PR 12), the parent of the single-codec change — the `mill`
/// rows at 7ef21f6, the last commit whose tile queues were `VecDeque`s.
const PINS_V1: &[(&str, u64, u64)] = &[
    ("bfs/sram/t1", 14606, 0x17fbfd097ae80b16),
    ("bfs/sram/t2", 15634, 0x1d8c36a66b5c9943),
    ("bfs/cache/t1", 160848, 0x37c725eb7e4c0361),
    ("bfs/cache/t2", 162084, 0x30bfc8f0d2e34c4d),
    ("pagerank/sram/t1", 28170, 0x4ef745bb0a2e3ac8),
    ("pagerank/sram/t2", 31070, 0x61895c31ebf6cb3d),
    ("pagerank/cache/t1", 177988, 0x8f161afe8125c39e),
    ("pagerank/cache/t2", 181772, 0xc3a0c282834d1232),
    ("spmv/sram/t1", 15732, 0x380c6e3846b6bfbb),
    ("spmv/sram/t2", 17124, 0x3904ad16703bef86),
    ("spmv/cache/t1", 170801, 0x25496b30e49c5e5b),
    ("spmv/cache/t2", 172921, 0x7269dd23d8b1e67a),
    ("fft/sram/t1", 38020, 0xb7efb8ca6397e09c),
    ("fft/sram/t2", 38840, 0x3edcfcacdeaa0b7a),
    ("fft/cache/t1", 185207, 0x0e468361a4cafb2b),
    ("fft/cache/t2", 186079, 0x9f2afd1597d0e529),
    ("wcc/sram/t1", 13267, 0x6476aa929df57c35),
    ("wcc/sram/t2", 14191, 0x8b886ad6b315801d),
    ("wcc/cache/t1", 157315, 0xe1d01516e4100fc0),
    ("wcc/cache/t2", 158343, 0x91c379f325d1f707),
    ("histogram/sram/t1", 10654, 0xb8d6c7006e26b593),
    ("histogram/sram/t2", 11422, 0xfa9b875b8cab1352),
    ("histogram/cache/t1", 153618, 0xe5ae45acc0e0a312),
    ("histogram/cache/t2", 154438, 0x4eee9327d2966152),
    ("spmm/sram/t1", 28013, 0xad697aa096db195f),
    ("spmm/sram/t2", 31745, 0x2c1bc2dc149dc085),
    ("spmm/cache/t1", 175351, 0xe562ce6eeecd0c07),
    ("spmm/cache/t2", 179811, 0xdcd9e5499393bb0a),
    ("traffic/sram/t1", 18564, 0x9d5022cdc6124b95),
    ("traffic/sram/t2", 19176, 0xa478900612840b8c),
    ("traffic/cache/t1", 159492, 0xed2070f75173c4b9),
    ("traffic/cache/t2", 160104, 0xdb3d830d22d16d5a),
    ("traffic-jam/sram/t1", 116055, 0xfdfba23cd0e86864),
    ("traffic-jam/sram/t2", 118175, 0xf135be433ae30c87),
    ("mill-rr/sram/t1", 18145, 0x4875487caaafb245),
    ("mill-rr/cache/t2", 56442, 0x53bb87cbf905ec2f),
    ("mill-priority/sram/t2", 20862, 0xdcf3d09cad88f637),
    ("mill-occupancy/cache/t1", 54508, 0x1a4345434ccc13c1),
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
    /// Scripted uniform-random traffic at a light load.
    Traffic,
    /// Scripted hotspot traffic past saturation: the snapshot lands in a
    /// jam, with deep source queues, busy links and advanced arbiters.
    TrafficJam,
    /// `common::Mill` under the `mill_policies()` entry of this index:
    /// full IQs at tile 0, spilled CQs, allocated-but-empty banks.
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
        1 => PINS_V1,
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
