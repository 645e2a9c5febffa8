//! Property test: the time-leaping driver is an invisible optimization.
//!
//! For random small DUTs (grid size, thread count, memory mode) and two
//! suite apps, a run with leaping enabled must produce exactly the same
//! `runtime_cycles`, counters, and frame log as the lockstep driver —
//! the driver may only skip cycles in which provably nothing happens.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{DramConfig, SystemConfig, Verbosity};
use muchisim::core::SimResult;
use muchisim::data::rmat::RmatConfig;
use proptest::prelude::*;
use std::sync::Arc;

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
