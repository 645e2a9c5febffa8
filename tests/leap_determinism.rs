//! Property tests: the time-leaping driver and the credit sleep are
//! invisible optimizations.
//!
//! For random small DUTs (grid size, thread count, memory mode) and two
//! suite apps, a run with leaping enabled must produce exactly the same
//! `runtime_cycles`, counters, and frame log as the lockstep driver —
//! the driver may only skip cycles in which provably nothing happens.
//!
//! Routers and tiles refused by a full queue sleep until its credit
//! returns instead of retrying every cycle. With the
//! `forget_stall_memos_every_cycle` hook every sleeper is woken every
//! cycle — the retry-every-cycle behaviour the sleep replaces — and on
//! back-pressured apps (`Mill`, hotspot traffic, BFS from a hub) over one
//! or two NoC planes, a sleeping run, leaping or not, must match a
//! lockstep run that retries every cycle.

use muchisim::apps::{high_degree_root, run_benchmark, Benchmark, Bfs, SyncMode};
use muchisim::config::{DramConfig, SystemConfig, TrafficPattern, Verbosity};
use muchisim::core::digest::trace_checksum;
use muchisim::core::{Application, SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::traffic::TrafficApp;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{mill_config, mill_policies, Mill};

fn run(
    bench: Benchmark,
    side: u32,
    dram: bool,
    threads: usize,
    leap: bool,
    graph: &Arc<muchisim::data::Csr>,
) -> SimResult {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(32)
        .time_leap(leap);
    if dram {
        b.sram_kib_per_tile(4).dram(DramConfig::default());
    }
    let cfg = b.build().expect("valid config");
    let result = run_benchmark(bench, cfg, graph, threads).expect("benchmark runs");
    assert!(
        result.check_error.is_none(),
        "{bench} verifier failed: {:?}",
        result.check_error
    );
    result
}

/// Empty-worklist leap: after a BFS frontier drains, every tile retires
/// from the worklist while the idleness-based termination window
/// (2 x network diameter) still has to elapse. The leap driver must jump
/// that window with *empty* worklists and land on the same runtime as
/// the lockstep driver.
#[test]
fn empty_worklist_termination_window_leaps_exactly() {
    let graph = Arc::new(RmatConfig::scale(4).generate(11));
    let lockstep = run(Benchmark::Bfs, 4, false, 1, false, &graph);
    let leaping = run(Benchmark::Bfs, 4, false, 1, true, &graph);
    assert_eq!(leaping.runtime_cycles, lockstep.runtime_cycles);
    assert_eq!(leaping.counters, lockstep.counters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_leaping_matches_lockstep(
        side in 2u32..5,
        threads in 1usize..5,
        seed in 0u64..1_000,
        dram in any::<bool>(),
        use_spmv in any::<bool>(),
    ) {
        let bench = if use_spmv { Benchmark::Spmv } else { Benchmark::Bfs };
        let graph = Arc::new(RmatConfig::scale(5).generate(seed));
        let off = run(bench, side, dram, threads, false, &graph);
        let on = run(bench, side, dram, threads, true, &graph);
        prop_assert_eq!(on.runtime_cycles, off.runtime_cycles);
        prop_assert_eq!(on.counters, off.counters);
        prop_assert_eq!(on.frames, off.frames);
    }
}

/// Runs `app` on `cfg`, with every credit sleeper woken every cycle when
/// `retry` is set.
fn run_app<A: Application>(cfg: SystemConfig, app: A, threads: usize, retry: bool) -> SimResult {
    let sim = Simulation::new(cfg, app).expect("valid simulation");
    let sim = if retry {
        sim.forget_stall_memos_every_cycle()
    } else {
        sim
    };
    let result = sim.run_parallel(threads).expect("simulation runs");
    assert!(result.check_error.is_none(), "{:?}", result.check_error);
    result
}

/// One back-pressured run: `Mill` behind shallow queues, hotspot traffic
/// through inject queues that hold one packet, or BFS from the hub of an
/// RMAT graph.
fn run_backpressured(
    app: u8,
    side: u32,
    planes: u32,
    threads: usize,
    leap: bool,
    seed: u64,
    retry: bool,
) -> SimResult {
    if app == 0 {
        let mut cfg = mill_config(mill_policies()[seed as usize % 3].1.clone(), false);
        cfg.hierarchy.chiplet.x = side;
        cfg.hierarchy.chiplet.y = side;
        cfg.noc.num_physical = planes;
        cfg.time_leap = leap;
        return run_app(cfg, Mill, threads, retry);
    }
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .physical_nocs(planes)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(64)
        .time_leap(leap);
    if app == 1 {
        // inject queues of 4 flits take one 3-flit packet at a time
        let mut cfg = b.queues(4, 2).build().expect("valid config");
        cfg.traffic.payload_words_min = 4;
        cfg.traffic.payload_words_max = 4;
        cfg.traffic.rate = 0.2;
        cfg.traffic.cycles = 50;
        cfg.traffic.seed = seed;
        let app = TrafficApp::new(&cfg, TrafficPattern::Hotspot).expect("valid traffic");
        return run_app(cfg, app, threads, retry);
    }
    let graph = Arc::new(RmatConfig::scale(7).generate(seed));
    let root = high_degree_root(&graph);
    let app = Bfs::new(graph, side * side, root, SyncMode::Async);
    run_app(b.build().expect("valid config"), app, threads, retry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_credit_sleep_matches_retrying_every_cycle(
        app in 0u8..3,
        side in 2u32..9,
        planes in 1u32..3,
        threads in 1usize..3,
        leap in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        // the reference retries every refusal on every executed cycle
        // and executes every cycle
        let asleep = run_backpressured(app, side, planes, threads, leap, seed, false);
        let retrying = run_backpressured(app, side, planes, threads, false, seed, true);
        let tiles = side * side;
        prop_assert_eq!(asleep.runtime_cycles, retrying.runtime_cycles);
        prop_assert_eq!(&asleep.counters, &retrying.counters);
        prop_assert_eq!(&asleep.noc_latency, &retrying.noc_latency);
        prop_assert_eq!(trace_checksum(&asleep, tiles), trace_checksum(&retrying, tiles));
    }
}
