//! Trace record → replay round trip.
//!
//! Records the NoC injection trace of a real BFS run, replays it
//! app-free on the *same* configuration, and asserts the network saw the
//! exact same thing: every NoC counter bit-identical. The replay then
//! runs on a *different* topology (folded torus) to show app-free
//! re-simulation of a real communication pattern under a new `noc.*`
//! configuration — the NoC-only design-exploration workflow.
//!
//! Bit-identity needs one precondition: ejection must never be refused,
//! because replay handlers drain input queues at a different speed than
//! BFS handlers. The config gives the input queues enough headroom that
//! neither run ever refuses an ejection (asserted via `eject_stalls`).

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{NocTopology, SystemConfig};
use muchisim::core::Simulation;
use muchisim::data::rmat::RmatConfig;
use muchisim::noc::read_trace_jsonl;
use muchisim::traffic::TrafficApp;
use std::sync::Arc;

fn trace_path(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("muchisim-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

fn recording_config(path: &str) -> SystemConfig {
    SystemConfig::builder()
        .chiplet_tiles(4, 4)
        // eject headroom: see the module comment
        .queues(4096, 32)
        .noc_trace(path)
        .build()
        .unwrap()
}

#[test]
fn bfs_trace_replays_bit_identically_on_the_same_config() {
    let path = trace_path("bfs44.jsonl");
    let graph = Arc::new(RmatConfig::scale(5).generate(0xBF5));
    let recorded = run_benchmark(Benchmark::Bfs, recording_config(&path), &graph, 2)
        .expect("recording run completes");
    assert!(recorded.check_error.is_none());
    assert_eq!(
        recorded.counters.noc.eject_stalls, 0,
        "precondition: the recording run never refused an ejection"
    );
    assert!(
        recorded.counters.noc.injected > 100,
        "enough traffic to be meaningful"
    );

    let events = read_trace_jsonl(&path).expect("trace parses");
    assert_eq!(
        events.len() as u64,
        recorded.counters.noc.injected,
        "one event per injected packet"
    );
    assert!(
        events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "trace is written cycle-sorted"
    );

    // replay on the identical configuration (recording disabled)
    let mut cfg = recording_config(&path);
    cfg.noc_trace = None;
    let app = TrafficApp::replay_file(&path, 16).expect("replay builds");
    assert_eq!(app.total_packets(), events.len() as u64);
    let replayed = Simulation::new(cfg, app)
        .unwrap()
        .run_parallel(2)
        .expect("replay completes");
    assert!(replayed.check_error.is_none(), "{:?}", replayed.check_error);
    assert_eq!(
        replayed.counters.noc, recorded.counters.noc,
        "replay must reproduce the recorded NoC counters bit for bit"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn bfs_trace_replays_clean_on_a_different_topology() {
    let path = trace_path("bfs44_torus.jsonl");
    let graph = Arc::new(RmatConfig::scale(5).generate(0xBF5));
    let recorded = run_benchmark(Benchmark::Bfs, recording_config(&path), &graph, 1)
        .expect("recording run completes");

    // same trace, new network: a folded torus (different routing, wrap
    // links, dateline VCs) — the packet count must be conserved even
    // though every path and every counter changes
    let cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .queues(4096, 32)
        .noc_topology(NocTopology::FoldedTorus)
        .build()
        .unwrap();
    let app = TrafficApp::replay_file(&path, 16).expect("replay builds");
    let replayed = Simulation::new(cfg, app)
        .unwrap()
        .run()
        .expect("torus replay completes");
    assert!(replayed.check_error.is_none(), "{:?}", replayed.check_error);
    assert_eq!(
        replayed.counters.noc.injected, recorded.counters.noc.injected,
        "total injected packets preserved across topologies"
    );
    assert_eq!(
        replayed.counters.noc.injected,
        replayed.counters.noc.ejected + replayed.counters.noc.reduce_combines,
        "every injected packet is delivered or merged"
    );
    assert_ne!(
        replayed.counters.noc.msg_hops, recorded.counters.noc.msg_hops,
        "a different topology routes differently"
    );

    let _ = std::fs::remove_file(&path);
}
