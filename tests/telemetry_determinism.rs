//! Sampling is observation, never perturbation: the full golden-trace
//! suite re-run with telemetry sampling enabled must reproduce every
//! committed checksum bit-for-bit, under the leaping and the lockstep
//! driver, and sampled multi-threaded runs must match their unsampled
//! twins. The sample cadence folds into the time-leap horizon (a leap
//! never skips a sample boundary), so this suite is what pins that
//! clamping as behavior-free.
//!
//! The committed goldens are single-threaded artifacts (the trace
//! checksum covers per-worker frame streams, which depend on the shard
//! split), so the thread axis is pinned differentially: at each thread
//! count, sampled == unsampled.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{NocTopology, SystemConfig, Verbosity};
use muchisim::core::digest::trace_checksum as checksum;
use muchisim::core::{MemorySubscriber, Simulation};
use muchisim::data::rmat::RmatConfig;
use serde_json::JsonValue;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/traces.json");
const GRAPH_SEED: u64 = 0xC0FF_EE00;
const GRAPH_SCALE: u32 = 5;

/// A stall watchdog far beyond these runs' lifetimes: it activates the
/// whole sampling pipeline (samples are taken, merged and ward-evaluated
/// every cadence) without any file I/O and without ever tripping.
const NEVER_TRIPS: u64 = 1_000_000_000;

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

/// Arms sampling at a deliberately odd cadence so sample boundaries
/// almost never coincide with frame boundaries or power-of-two leap
/// horizons.
fn sampled(mut cfg: SystemConfig) -> SystemConfig {
    cfg.telemetry.sample_every = Some(97);
    cfg.telemetry.wards.stall_cycles = Some(NEVER_TRIPS);
    cfg
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

/// All 72 golden keys with sampling enabled, leaping and lockstep,
/// against the committed checksums.
#[test]
fn sampling_reproduces_all_golden_checksums() {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH} ({e})"));
    let committed: JsonValue = serde_json::from_str(&text).expect("golden file parses");
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));

    let mut mismatches = Vec::new();
    let mut n = 0usize;
    for (cfg_name, cfg) in cases() {
        let tiles = cfg.width() * cfg.height();
        for bench in Benchmark::ALL {
            let key = format!("{}-{}", bench.label(), cfg_name);
            let want = committed
                .as_object()
                .and_then(|m| m.get(&key))
                .and_then(JsonValue::as_object)
                .and_then(|m| m.get("hash"))
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{key} missing from {GOLDEN_PATH}"))
                .to_string();
            // sampled runs under both drivers; every one must land on the
            // committed (unsampled) checksum
            for (combo, leap) in [("leap", true), ("lockstep", false)] {
                let mut c = sampled(cfg.clone());
                c.time_leap = leap;
                let r = run_benchmark(bench, c, &graph, 1)
                    .unwrap_or_else(|e| panic!("{key} [{combo}] failed to run: {e}"));
                assert!(
                    r.check_error.is_none(),
                    "{key} [{combo}] verifier failed: {:?}",
                    r.check_error
                );
                assert_eq!(r.termination_label(), "finished");
                let got = format!("{:#018x}", checksum(&r, tiles));
                if got != want {
                    mismatches.push(format!("{key} [{combo}]: got {got}, committed {want}"));
                }
            }
            n += 1;
        }
    }
    assert_eq!(n, 72, "8 apps x 3 grids x 3 topologies");
    assert!(
        mismatches.is_empty(),
        "{} of {n} sampled golden traces diverged (sampling perturbed the simulation!):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The thread axis: at 2 host threads (leader + follower exercise the
/// cross-worker sample deposit and merge), a sampled run must match its
/// unsampled twin bit-for-bit, for every suite app.
#[test]
fn sampling_is_invisible_across_thread_counts() {
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    let cfg = config(4, NocTopology::Mesh, None);
    let tiles = cfg.width() * cfg.height();
    for bench in Benchmark::ALL {
        let plain = run_benchmark(bench, cfg.clone(), &graph, 2)
            .unwrap_or_else(|e| panic!("{bench:?} unsampled failed: {e}"));
        let probed = run_benchmark(bench, sampled(cfg.clone()), &graph, 2)
            .unwrap_or_else(|e| panic!("{bench:?} sampled failed: {e}"));
        assert_eq!(
            checksum(&probed, tiles),
            checksum(&plain, tiles),
            "{bench:?}: sampling changed the 2-thread trace"
        );
        assert_eq!(probed.runtime_cycles, plain.runtime_cycles);
        assert_eq!(probed.counters, plain.counters);
    }
}

/// The in-memory subscriber sees the stream the driver promises: one
/// sample per cadence boundary plus one where the (single) kernel
/// stopped, cycles strictly increasing, deltas summing to the final
/// counters (`tests/telemetry_cadence.rs` pins the exact cycles).
#[test]
fn memory_subscriber_sees_a_well_formed_stream() {
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    let mut cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .build()
        .expect("valid config");
    let every = 64;
    cfg.telemetry.sample_every = Some(every);

    let app = muchisim::apps::Bfs::new(
        Arc::clone(&graph),
        cfg.total_tiles() as u32,
        0,
        muchisim::apps::SyncMode::Async,
    );
    let memory = MemorySubscriber::new();
    let samples = memory.samples();
    let result = Simulation::new(cfg, app)
        .expect("simulation builds")
        .with_subscriber(Box::new(memory))
        .run_parallel(2)
        .expect("run succeeds");

    let samples = samples.lock().expect("samples lock");
    assert!(
        !samples.is_empty(),
        "a run of {} cycles at cadence {every} must sample",
        result.runtime_cycles
    );
    let (last, periodic) = samples.split_last().expect("non-empty");
    for s in periodic {
        assert_eq!(
            (s.cycle + 1) % every,
            0,
            "periodic samples land exactly on cadence boundaries"
        );
    }
    for s in samples.iter() {
        assert_eq!(s.v, 2, "schema version is stamped on every sample");
        assert!(s.active_tiles <= s.total_tiles);
    }
    for pair in samples.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "cycles must increase");
        assert!(pair[0].seq + 1 == pair[1].seq, "stream gaps are visible");
    }
    // the kernel-end sample closes the stream on the run's totals
    let tasks: u64 = samples.iter().map(|s| s.tasks_delta).sum();
    assert_eq!(tasks, result.counters.pu.tasks_executed);
    assert_eq!(last.tasks, tasks);
    let injected: u64 = samples.iter().map(|s| s.injected_delta).sum();
    assert_eq!(injected, result.counters.noc.injected);
}
