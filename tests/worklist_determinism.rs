//! Property test: the active-tile worklists are an invisible optimization.
//!
//! For random small DUTs (grid size, thread count, memory mode, time-leap
//! mode) and two suite apps, a run with the worklists enabled must produce
//! exactly the same `runtime_cycles`, counters, and frame log as a run
//! that sweeps every tile and router each cycle — the worklists may only
//! skip tiles and routers that provably have nothing to do.
//!
//! The SoA hot-state split (dense `pu_clock`/`cq_msgs`/`busy_until`/...
//! arrays, see ARCHITECTURE.md "Hot-loop memory layout") deliberately has
//! no AoS fallback to compare against — it is a memory layout, not an
//! execution mode, so there is no second code path whose results could
//! diverge. Its behavioral invisibility is pinned the same way as every
//! layout change: by the golden traces and the mode matrix here staying
//! bit-identical. The packet arena and the pooled router boxes do have
//! a property suite of their own (`crates/noc/tests/prop_arena.rs`: the
//! linked queues against a `VecDeque` model, recycled vs fresh boxes and
//! nodes indistinguishable).

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{DramConfig, SystemConfig, Verbosity};
use muchisim::core::SimResult;
use muchisim::data::rmat::RmatConfig;
use proptest::prelude::*;
use std::sync::Arc;

#[allow(clippy::fn_params_excessive_bools)]
fn run(
    bench: Benchmark,
    side: u32,
    dram: bool,
    threads: usize,
    leap: bool,
    active_list: bool,
    graph: &Arc<muchisim::data::Csr>,
) -> SimResult {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(32)
        .time_leap(leap)
        .active_list(active_list);
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

/// The tentpole's explicit matrix: one fixed workload at 1/4/8 host
/// threads, worklists on vs off at each count — bit-identical pairs.
/// (Comparisons are within a thread count: across counts the integer
/// schedule is identical too, but one float accumulator and the order
/// of sparse per-frame pairs follow worker summation order, so exact
/// `PartialEq` only holds for a fixed shard split. The proptest below
/// covers random grids/threads; this pins the counts the scale bench
/// sweeps.)
#[test]
fn worklists_bit_identical_at_1_4_8_threads() {
    let graph = Arc::new(RmatConfig::scale(5).generate(7));
    let x1 = run(Benchmark::Bfs, 8, false, 1, true, false, &graph);
    for threads in [1usize, 4, 8] {
        let off = run(Benchmark::Bfs, 8, false, threads, true, false, &graph);
        let on = run(Benchmark::Bfs, 8, false, threads, true, true, &graph);
        assert_eq!(on.runtime_cycles, x1.runtime_cycles, "x{threads}");
        assert_eq!(on.counters, off.counters, "x{threads}");
        assert_eq!(on.frames, off.frames, "x{threads}");
        assert_eq!(
            on.counters.pu.tasks_executed, x1.counters.pu.tasks_executed,
            "x{threads}"
        );
    }
}

/// Empty-worklist leap: after a BFS frontier drains, every tile retires
/// from the worklist while the idleness-based termination window
/// (2 x network diameter) still has to elapse. The leap driver must jump
/// that window with *empty* worklists and land on the same runtime as
/// the lockstep full sweep.
#[test]
fn empty_worklist_termination_window_leaps_exactly() {
    let graph = Arc::new(RmatConfig::scale(4).generate(11));
    let full = run(Benchmark::Bfs, 4, false, 1, false, false, &graph);
    let leaping = run(Benchmark::Bfs, 4, false, 1, true, true, &graph);
    assert_eq!(leaping.runtime_cycles, full.runtime_cycles);
    assert_eq!(leaping.counters, full.counters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_worklists_match_full_sweep(
        side in 2u32..5,
        threads in 1usize..5,
        seed in 0u64..1_000,
        dram in any::<bool>(),
        leap in any::<bool>(),
        use_spmv in any::<bool>(),
    ) {
        let bench = if use_spmv { Benchmark::Spmv } else { Benchmark::Bfs };
        let graph = Arc::new(RmatConfig::scale(5).generate(seed));
        let off = run(bench, side, dram, threads, leap, false, &graph);
        let on = run(bench, side, dram, threads, leap, true, &graph);
        prop_assert_eq!(on.runtime_cycles, off.runtime_cycles);
        prop_assert_eq!(on.counters, off.counters);
        prop_assert_eq!(on.frames, off.frames);
        prop_assert_eq!(on.column_activity, off.column_activity);
    }
}
