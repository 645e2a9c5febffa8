//! What the sample stream holds, stated exactly: one sample per cadence
//! boundary that lies inside a kernel's cycle loop, none in the gap
//! between kernels (no cycle executes in the kernel-barrier jump, so
//! there is nothing to observe), and one where each kernel stopped — so
//! the stream's last record carries the run's totals. The same records,
//! field for deterministic field, under time-leap × 1/2/4 host threads.
//!
//! The oracle does not go through the stream: a lockstep run at
//! verbosity V1 with one-cycle statistics frames records one frame per
//! executed cycle in its result (frames are what the golden traces pin),
//! and those cycles *are* the cycle loops.

use muchisim::apps::{high_degree_root, Bfs, PageRank, SyncMode};
use muchisim::config::{SystemConfig, Verbosity};
use muchisim::core::{Application, MemorySubscriber, MetricsSample, SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use std::sync::Arc;

const PAGERANK_ITERATIONS: u32 = 3;

#[derive(Clone, Copy, Debug)]
enum App {
    Bfs,
    PageRank,
}

fn config(side: u32, every: u64, leap: bool) -> SystemConfig {
    let mut cfg = SystemConfig::builder()
        .chiplet_tiles(side, side)
        .time_leap(leap)
        .build()
        .expect("valid config");
    cfg.telemetry.sample_every = Some(every);
    cfg
}

/// Runs `app` and returns its result, its kernel count and the samples a
/// `MemorySubscriber` collected.
fn sampled(
    app: App,
    cfg: SystemConfig,
    graph: &Arc<Csr>,
    threads: usize,
) -> (SimResult, u32, Vec<MetricsSample>) {
    fn go<A: Application>(
        cfg: SystemConfig,
        app: A,
        threads: usize,
    ) -> (SimResult, u32, Vec<MetricsSample>) {
        let kernels = app.kernels();
        let memory = MemorySubscriber::new();
        let samples = memory.samples();
        let result = Simulation::new(cfg, app)
            .expect("simulation builds")
            .with_subscriber(Box::new(memory))
            .run_parallel(threads)
            .expect("run succeeds");
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        let samples = samples.lock().expect("samples lock").clone();
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.seq, i as u64, "the hub dropped a sample");
        }
        (result, kernels, samples)
    }
    let tiles = cfg.total_tiles() as u32;
    let g = Arc::clone(graph);
    match app {
        App::Bfs => {
            let root = high_degree_root(graph);
            go(cfg, Bfs::new(g, tiles, root, SyncMode::Async), threads)
        }
        App::PageRank => go(cfg, PageRank::new(g, tiles, PAGERANK_ITERATIONS), threads),
    }
}

/// The fields of a sample that are functions of simulated state alone.
/// Left out: worklist occupancy (host-side bookkeeping),
/// `queued_msgs` (router queues only — a packet crossing a shard boundary
/// sits in a mailbox at sample time, so it follows the thread count;
/// `pending` is the split-invariant backlog) and host timing.
fn deterministic(s: &MetricsSample) -> impl PartialEq + std::fmt::Debug {
    (
        (s.v, s.seq, s.cycle, s.total_tiles),
        (s.tasks, s.tasks_delta, s.injected, s.injected_delta),
        (s.ejected, s.ejected_delta, s.flit_hops, s.flit_hops_delta),
        s.pending,
        (s.lat_count, s.lat_p50, s.lat_p95, s.lat_p99),
        (
            s.lat_mean.to_bits(),
            s.lat_delta_count,
            s.lat_delta_mean.to_bits(),
        ),
    )
}

#[test]
fn one_sample_per_boundary_inside_a_kernel_and_one_per_kernel_end() {
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));
    for (app, side, every) in [
        (App::Bfs, 4u32, 33u64),
        (App::Bfs, 8, 97),
        (App::PageRank, 4, 33),
        (App::PageRank, 8, 97),
    ] {
        let what = format!("{app:?} {side}x{side} every {every}");
        // the cycle loops: lockstep, one thread, a frame every cycle,
        // telemetry off (the attached subscriber then hears nothing)
        let mut every_cycle = config(side, every, false);
        every_cycle.telemetry.sample_every = None;
        every_cycle.verbosity = Verbosity::V1;
        every_cycle.frame_interval_cycles = 1;
        let termination = every_cycle.termination_latency_cycles();
        let (oracle, kernels, _) = sampled(app, every_cycle, &graph, 1);
        let executed: Vec<u64> = oracle.frames.frames.iter().map(|f| f.start_cycle).collect();
        assert!(
            termination > 1,
            "kernels must be separated by a visible gap"
        );
        // a kernel's loop is a run of consecutive cycles; the jump to the
        // next kernel's base skips at least `termination` cycles
        let mut loops: Vec<(u64, u64)> = Vec::new();
        for &c in &executed {
            match loops.last_mut() {
                Some((_, last)) if *last + 1 == c => *last = c,
                Some((_, last)) => {
                    assert!(c >= *last + termination, "{what}: gap {last}..{c}");
                    loops.push((c, c));
                }
                None => loops.push((c, c)),
            }
        }
        assert_eq!(
            loops.len(),
            kernels as usize,
            "{what}: one cycle loop per kernel"
        );
        let closes = |c: u64| (c + 1).is_multiple_of(every);
        let boundaries: Vec<u64> = executed.iter().copied().filter(|&c| closes(c)).collect();
        assert!(
            boundaries.len() >= 3,
            "{what}: the run is too short to test a cadence"
        );
        // a kernel that stops on a boundary is not sampled twice
        let kernel_ends: Vec<u64> = loops.iter().map(|&(_, end)| end).collect();
        let mut expected: Vec<u64> = boundaries.clone();
        expected.extend(kernel_ends.iter().filter(|&&c| !closes(c)));
        expected.sort_unstable();

        let mut reference: Option<Vec<MetricsSample>> = None;
        for leap in [true, false] {
            for threads in [1usize, 2, 4] {
                let mode = format!("{what} leap {leap} threads {threads}");
                let (result, _, samples) = sampled(app, config(side, every, leap), &graph, threads);
                assert_eq!(result.runtime_cycles, oracle.runtime_cycles, "{mode}");
                assert_eq!(result.counters.pu, oracle.counters.pu, "{mode}");
                let on_boundary: Vec<u64> = samples
                    .iter()
                    .map(|s| s.cycle)
                    .filter(|&c| closes(c))
                    .collect();
                assert_eq!(on_boundary, boundaries, "{mode}: boundary samples");
                match &reference {
                    None => reference = Some(samples.clone()),
                    Some(first) => {
                        let got: Vec<_> = samples.iter().map(deterministic).collect();
                        let want: Vec<_> = first.iter().map(deterministic).collect();
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g, w, "{mode}: the stream depends on the host mode");
                        }
                        assert_eq!(got.len(), want.len(), "{mode}");
                    }
                }
                // the kernel ends, and with them the run's totals
                let cycles: Vec<u64> = samples.iter().map(|s| s.cycle).collect();
                assert_eq!(cycles, expected, "{mode}: kernel ends {kernel_ends:?}");
                let last = samples.last().expect("a kernel end is always sampled");
                assert_eq!(
                    (last.tasks, last.injected, last.ejected),
                    (
                        result.counters.pu.tasks_executed,
                        result.counters.noc.injected,
                        result.counters.noc.ejected
                    ),
                    "{mode}: the last record carries the run's totals"
                );
            }
        }
    }
}
