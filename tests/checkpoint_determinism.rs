//! Checkpoint/restore bit-identity harness.
//!
//! The contract under test: a run that snapshots at some cycle and a
//! second process that resumes from that snapshot together reproduce the
//! uninterrupted run *bit-for-bit* — every counter, every statistics
//! frame, every activity grid, the NoC latency histogram, the runtime.
//! The committed golden traces (`tests/golden/traces.json`) are the
//! reference: both the checkpointed half and the resumed half must land
//! on the committed checksum for all 72 suite keys.
//!
//! Snapshots are also host-configuration agnostic: a file written under
//! one (thread count x time-leap) setting resumes
//! identically under any other, because none of those knobs touch
//! simulated behavior. The default run covers a representative subset;
//! set `MUCHISIM_FULL_MATRIX=1` to sweep every suite key through the
//! cross-host-configuration matrix as well.

use muchisim::apps::{high_degree_root, run_benchmark, Benchmark, Bfs, SyncMode};
use muchisim::config::{NocTopology, SystemConfig, TrafficPattern, Verbosity};
use muchisim::core::digest::{schedule_checksum, trace_checksum};
use muchisim::core::{SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use muchisim::noc::read_trace_jsonl;
use muchisim::traffic::TrafficApp;
use serde_json::JsonValue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/traces.json");
const GRAPH_SEED: u64 = 0xC0FF_EE00;
const GRAPH_SCALE: u32 = 5;

/// A unique snapshot path per call, collision-free across parallel tests.
fn snap_path(tag: &str) -> String {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let tag: String = tag
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    std::env::temp_dir()
        .join(format!("muchisim-{}-{tag}-{n}.snap", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn config(side: u32, topo: NocTopology, ruche: Option<u32>) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .noc_topology(topo)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(256);
    if let Some(r) = ruche {
        b.ruche_factor(r);
    }
    b.build().expect("valid golden config")
}

fn cases() -> Vec<(String, SystemConfig)> {
    let mut out = Vec::new();
    for side in [2u32, 4, 8] {
        for (name, topo, ruche) in [
            ("mesh", NocTopology::Mesh, None),
            ("torus", NocTopology::FoldedTorus, None),
            ("ruche", NocTopology::Mesh, Some(2)),
        ] {
            out.push((format!("{side}x{side}-{name}"), config(side, topo, ruche)));
        }
    }
    out
}

fn load_golden() -> JsonValue {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH} ({e})"));
    serde_json::from_str(&text).expect("golden file parses")
}

/// The committed (checksum, runtime_cycles) for a suite key.
fn golden_entry(golden: &JsonValue, key: &str) -> (String, u64) {
    let entry = golden
        .as_object()
        .and_then(|m| m.get(key))
        .and_then(JsonValue::as_object)
        .unwrap_or_else(|| panic!("{key} missing from {GOLDEN_PATH}"));
    let hash = entry
        .get("hash")
        .and_then(JsonValue::as_str)
        .expect("hash field")
        .to_string();
    let runtime = entry
        .get("runtime_cycles")
        .and_then(JsonValue::as_u64)
        .expect("runtime_cycles field");
    (hash, runtime)
}

fn run(bench: Benchmark, cfg: SystemConfig, graph: &Arc<Csr>, threads: usize) -> SimResult {
    let label = bench.label();
    let r = run_benchmark(bench, cfg, graph, threads)
        .unwrap_or_else(|e| panic!("{label} failed to run: {e}"));
    assert!(
        r.check_error.is_none(),
        "{label} verifier failed: {:?}",
        r.check_error
    );
    r
}

/// Runs `bench` with periodic checkpointing at `every`, asserting the
/// snapshot file got written, then resumes from it; returns both results
/// (checkpointed full run, resumed run). Cleans up the file.
fn split_and_resume(
    bench: Benchmark,
    cfg: &SystemConfig,
    graph: &Arc<Csr>,
    every: u64,
    tag: &str,
    write_threads: usize,
    resume_threads: usize,
) -> (SimResult, SimResult) {
    let path = snap_path(tag);
    let mut with_ckpt = cfg.clone();
    with_ckpt.checkpoint_path = Some(path.clone());
    with_ckpt.checkpoint_every = Some(every);
    let full = run(bench, with_ckpt, graph, write_threads);
    assert!(
        std::path::Path::new(&path).exists(),
        "{tag}: no snapshot written at cadence {every} (runtime {})",
        full.runtime_cycles
    );
    let mut resumed_cfg = cfg.clone();
    resumed_cfg.checkpoint_path = Some(path.clone());
    resumed_cfg.checkpoint_resume = true;
    let resumed = run(bench, resumed_cfg, graph, resume_threads);
    let _ = std::fs::remove_file(&path);
    (full, resumed)
}

/// The headline matrix: all 72 golden suite keys, split at half the
/// committed runtime and resumed. Three independent equalities per key:
/// the checkpointing run itself, and the resumed run, must both land on
/// the committed golden checksum (and therefore on each other).
#[test]
fn checkpoint_split_and_resume_reproduces_all_golden_traces() {
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    let golden = load_golden();
    let mut mismatches = Vec::new();
    let mut n = 0usize;
    for (cfg_name, cfg) in cases() {
        let tiles = cfg.width() * cfg.height();
        for bench in Benchmark::ALL {
            let key = format!("{}-{cfg_name}", bench.label());
            let (want, runtime) = golden_entry(&golden, &key);
            let every = (runtime / 2).max(1);
            let (full, resumed) = split_and_resume(bench, &cfg, &graph, every, &key, 1, 1);
            for (what, result) in [("checkpointing run", &full), ("resumed run", &resumed)] {
                let got = format!("{:#018x}", trace_checksum(result, tiles));
                if got != want {
                    mismatches.push(format!("{key}: {what} got {got}, committed {want}"));
                }
            }
            n += 1;
        }
    }
    assert_eq!(n, 72, "8 apps x 3 grids x 3 topologies");
    assert!(
        mismatches.is_empty(),
        "{} of {n} split-and-resume traces diverged from the committed goldens:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// A snapshot written under one host configuration resumes identically
/// under any other: thread count and time leaping are host-side
/// shortcuts with no simulated-behavior footprint,
/// and the snapshot format never encodes them (chunks are re-merged on
/// read, so even the writer's thread count is invisible).
///
/// Comparisons across shard splits use [`schedule_checksum`] — the same
/// split-invariance contract the `BFS-32x32-mesh-hub@t2`/`@t4` golden
/// rows pin (one
/// float accumulator follows worker summation order). Within a fixed
/// split (the 1-thread resume vs the committed golden) the comparison is
/// the full [`trace_checksum`].
#[test]
fn resume_is_host_configuration_agnostic() {
    let full_matrix = std::env::var_os("MUCHISIM_FULL_MATRIX").is_some();
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    let golden = load_golden();
    let keys: Vec<(String, SystemConfig, Benchmark)> = cases()
        .into_iter()
        .flat_map(|(cfg_name, cfg)| {
            Benchmark::ALL.map(|b| (format!("{}-{cfg_name}", b.label()), cfg.clone(), b))
        })
        .filter(|(key, _, _)| full_matrix || key == "bfs-8x8-mesh" || key == "spmv-4x4-torus")
        .collect();
    for (key, cfg, bench) in keys {
        let tiles = cfg.width() * cfg.height();
        let (want, runtime) = golden_entry(&golden, &key);
        let every = (runtime / 2).max(1);
        // write the snapshot under the golden host configuration (1
        // thread); the writer run must land on the committed checksum
        let path = snap_path(&key);
        let mut with_ckpt = cfg.clone();
        with_ckpt.checkpoint_path = Some(path.clone());
        with_ckpt.checkpoint_every = Some(every);
        let writer = run(bench, with_ckpt, &graph, 1);
        assert!(std::path::Path::new(&path).exists(), "{key}: no snapshot");
        assert_eq!(
            format!("{:#018x}", trace_checksum(&writer, tiles)),
            want,
            "{key}: checkpointing run diverged from the committed golden"
        );
        let schedule = schedule_checksum(&writer, tiles);
        // resume it under other corners of the host-config square
        for (threads, leap) in [(1, true), (4, true), (8, true), (4, false), (2, false)] {
            let mut resumed_cfg = cfg.clone();
            resumed_cfg.time_leap = leap;
            resumed_cfg.checkpoint_path = Some(path.clone());
            resumed_cfg.checkpoint_resume = true;
            let r = run(bench, resumed_cfg, &graph, threads);
            if threads == 1 && leap {
                assert_eq!(
                    format!("{:#018x}", trace_checksum(&r, tiles)),
                    want,
                    "{key}: 1-thread resume diverged from the committed golden"
                );
            }
            assert_eq!(
                schedule_checksum(&r, tiles),
                schedule,
                "{key}: resume at {threads} threads (leap={leap}) \
                 diverged from the uninterrupted schedule"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Hub congestion: BFS from the highest-degree root of an RMAT-8 graph
/// on a 32x32 mesh (the `BFS-32x32-mesh-hub@t*` golden rows), where most
/// router-cycles are slept through on a stall memo. Memos, sleeps and
/// waiter marks are derived state: the snapshot taken mid-jam — with
/// arbitration pointers and counters of sleeping routers still unsettled
/// in memory — must be byte-identical to one written by a run whose
/// sleepers are all woken every cycle, and a restored run — where every
/// router starts awake — must land on the uninterrupted schedule at 1
/// and 2 threads.
#[test]
fn hub_congested_snapshot_ignores_stall_memos_and_resumes() {
    let graph = Arc::new(RmatConfig::scale(8).generate(GRAPH_SEED));
    let cfg = config(32, NocTopology::Mesh, None);
    let tiles = cfg.width() * cfg.height();
    let bfs = |cfg: &SystemConfig| {
        let root = high_degree_root(&graph);
        let app = Bfs::new(Arc::clone(&graph), tiles, root, SyncMode::Async);
        Simulation::new(cfg.clone(), app).expect("valid hub config")
    };
    let reference = bfs(&cfg).run().expect("uninterrupted run");
    let want = schedule_checksum(&reference, tiles);
    let golden = load_golden();
    let committed = golden
        .as_object()
        .and_then(|m| m.get("BFS-32x32-mesh-hub@t2"))
        .and_then(JsonValue::as_object)
        .and_then(|row| row.get("schedule_hash"))
        .and_then(JsonValue::as_str)
        .expect("hub row committed");
    assert_eq!(
        format!("{want:#018x}"),
        committed,
        "the 1-thread hub run left the committed schedule"
    );

    // one snapshot, two thirds into the run (a second boundary would
    // fall past the end), written with and without memos
    let every = reference.runtime_cycles * 2 / 3;
    let write = |tag: &str, forget: bool| {
        let path = snap_path(tag);
        let mut with_ckpt = cfg.clone();
        with_ckpt.checkpoint_path = Some(path.clone());
        with_ckpt.checkpoint_every = Some(every);
        let sim = bfs(&with_ckpt);
        let sim = if forget {
            sim.forget_stall_memos_every_cycle()
        } else {
            sim
        };
        let result = sim.run().expect("checkpointing run");
        assert_eq!(
            schedule_checksum(&result, tiles),
            want,
            "{tag} perturbed the run"
        );
        (path, result)
    };
    let (path, with_memos) = write("hub-memo", false);
    let (cold_path, cold) = write("hub-cold", true);
    assert_eq!(
        cold.host_router_visits.replayed, 0,
        "the hook wakes every sleeper before it can skip a cycle"
    );
    assert_eq!(
        with_memos.host_router_visits.awake() + with_memos.host_router_visits.replayed,
        cold.host_router_visits.awake(),
        "each router-cycle slept through stands for one full evaluation"
    );
    assert!(
        std::fs::read(&path).expect("snapshot written")
            == std::fs::read(&cold_path).expect("cold snapshot written"),
        "stall memos leaked into the snapshot bytes"
    );
    let _ = std::fs::remove_file(&cold_path);

    for threads in [1usize, 2] {
        let mut resumed_cfg = cfg.clone();
        resumed_cfg.checkpoint_path = Some(path.clone());
        resumed_cfg.checkpoint_resume = true;
        let resumed = bfs(&resumed_cfg)
            .run_parallel(threads)
            .expect("resumed run");
        assert_eq!(
            schedule_checksum(&resumed, tiles),
            want,
            "{threads}-thread resume diverged from the uninterrupted schedule"
        );
        // the ledger restarts at the snapshot: the difference is what had
        // been slept through by the snapshot cycle, the rest comes after it
        let after = resumed.host_router_visits.replayed;
        let before = reference.host_router_visits.replayed - after;
        assert!(
            before >= 100 && after >= 100,
            "the snapshot must sit inside the jam: {before} router-cycles slept before it, {after} after"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Timetable workloads snapshotted halfway through their injection
/// window resume bit-identically: the snapshot holds each tile's sends
/// not yet injected, and the resume draws the application's timetable
/// again and carries on past the sends already injected. Three rows:
/// uniform traffic below saturation, hotspot traffic past it (deep
/// source queues at the snapshot), and the replay of a recorded BFS
/// trace, whose timetables are lists rather than draws.
#[test]
fn timetables_resume_mid_window_bit_identically() {
    let mut cfg = config(8, NocTopology::Mesh, None);
    cfg.traffic.rate = 0.2;
    cfg.traffic.cycles = 400;
    let tiles = cfg.width() * cfg.height();
    let mid_window = |tag: &str, cfg: &SystemConfig, make: &dyn Fn() -> TrafficApp| {
        let reference = Simulation::new(cfg.clone(), make())
            .expect("valid")
            .run()
            .expect("uninterrupted run");
        assert!(
            reference.check_error.is_none(),
            "{tag}: {:?}",
            reference.check_error
        );
        let every = make().last_cycle() / 2;
        assert!(every > 0, "{tag}: a window to split");
        // later boundaries would overwrite the file: stop after the first
        let path = snap_path(tag);
        let mut with_ckpt = cfg.clone();
        with_ckpt.checkpoint_path = Some(path.clone());
        with_ckpt.checkpoint_every = Some(every);
        // the one sample closes at cycle `every + 1`, where the ward trips
        with_ckpt.telemetry.sample_every = Some(every + 2);
        with_ckpt.telemetry.wards.max_cycles = Some(every + 1);
        let _ = Simulation::new(with_ckpt, make()).expect("valid").run();
        assert!(std::path::Path::new(&path).exists(), "{tag}: no snapshot");
        let mut resumed_cfg = cfg.clone();
        resumed_cfg.checkpoint_path = Some(path.clone());
        resumed_cfg.checkpoint_resume = true;
        for threads in [1usize, 2] {
            let resumed = Simulation::new(resumed_cfg.clone(), make())
                .expect("valid")
                .run_parallel(threads)
                .expect("resumed run");
            assert!(
                resumed.check_error.is_none(),
                "{tag}: {:?}",
                resumed.check_error
            );
            assert_eq!(
                schedule_checksum(&resumed, tiles),
                schedule_checksum(&reference, tiles),
                "{tag}: {threads}-thread resume at cycle {every} diverged from the \
                 uninterrupted schedule"
            );
            if threads == 1 {
                assert_eq!(
                    trace_checksum(&resumed, tiles),
                    trace_checksum(&reference, tiles),
                    "{tag}: resume at cycle {every} diverged from the uninterrupted run"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    };
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Hotspot] {
        let make = || TrafficApp::new(&cfg, pattern).expect("valid traffic");
        mid_window(&format!("{pattern:?}"), &cfg, &make);
    }
    let trace = snap_path("bfs-trace");
    let mut recording = cfg.clone();
    recording.noc_trace = Some(trace.clone());
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    run(Benchmark::Bfs, recording, &graph, 1);
    let events = read_trace_jsonl(&trace).expect("trace parses");
    let _ = std::fs::remove_file(&trace);
    let make = || TrafficApp::replay(events.clone(), tiles).expect("valid replay");
    mid_window("replay", &cfg, &make);
}

/// CI smoke: one fast split-and-resume identity (BFS on the 8x8 mesh)
/// selectable by name, for the workflow's `checkpoint-smoke` job. The
/// 1-thread resume must be bit-identical; a 2-thread resume of the same
/// file must reproduce the schedule (split-invariant checksum).
#[test]
fn checkpoint_smoke_bfs_split_resume_is_bit_identical() {
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    let cfg = config(8, NocTopology::Mesh, None);
    let tiles = cfg.width() * cfg.height();
    let reference = run(Benchmark::Bfs, cfg.clone(), &graph, 1);
    let want = trace_checksum(&reference, tiles);
    let every = (reference.runtime_cycles / 2).max(1);
    let (full, resumed) = split_and_resume(Benchmark::Bfs, &cfg, &graph, every, "smoke-bfs", 1, 1);
    assert_eq!(
        trace_checksum(&full, tiles),
        want,
        "checkpointing perturbed the run"
    );
    assert_eq!(
        trace_checksum(&resumed, tiles),
        want,
        "resume diverged from the uninterrupted run"
    );
    let (_, threaded) = split_and_resume(Benchmark::Bfs, &cfg, &graph, every, "smoke-bfs-mt", 1, 2);
    assert_eq!(
        schedule_checksum(&threaded, tiles),
        schedule_checksum(&reference, tiles),
        "2-thread resume diverged from the uninterrupted schedule"
    );
}

/// Property: for a *random* (benchmark, grid side, graph seed, snapshot
/// fraction), splitting at that fraction of the measured runtime and
/// resuming reproduces the uninterrupted run's checksum — counters,
/// frame grids, and the NoC latency histogram included.
mod random_split_points {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn resume_matches_uninterrupted_run(
            bench_idx in 0usize..8,
            side_idx in 0usize..3,
            seed in 0u64..1_000_000,
            tenths in 1u64..10,
        ) {
            let bench = Benchmark::ALL[bench_idx];
            let side = [2u32, 4, 8][side_idx];
            let cfg = config(side, NocTopology::Mesh, None);
            let tiles = cfg.width() * cfg.height();
            let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(seed));
            let reference = run(bench, cfg.clone(), &graph, 1);
            let every = (reference.runtime_cycles * tenths / 10).max(1);
            let (full, resumed) = split_and_resume(
                bench, &cfg, &graph, every,
                &format!("prop-{}-{side}", bench.label()),
                1, 1,
            );
            let want = trace_checksum(&reference, tiles);
            prop_assert_eq!(
                trace_checksum(&full, tiles), want,
                "checkpointing perturbed the run"
            );
            prop_assert_eq!(
                trace_checksum(&resumed, tiles), want,
                "resume diverged"
            );
        }
    }
}
