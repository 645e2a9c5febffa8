//! The benchmark registry: run any suite application by name on a
//! configuration + dataset (the harness entry point used by the
//! figure-regeneration benches).

use crate::{Bfs, Fft3d, Histogram, PageRank, Spmm, Spmv, Sssp, SyncMode, Wcc};
use muchisim_config::{SystemConfig, TrafficPattern};
use muchisim_core::{SimError, SimResult, Simulation};
use muchisim_data::Csr;
use muchisim_traffic::TrafficApp;
use std::fmt;
use std::sync::Arc;

/// Picks a benchmark root vertex: the highest-degree vertex, which is
/// guaranteed non-isolated (Graph500 similarly samples roots with edges).
pub fn high_degree_root(graph: &Csr) -> u32 {
    (0..graph.num_vertices())
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(0)
}

/// One of the eight suite applications (paper §III-G), or a synthetic
/// NoC-characterization workload (`muchisim-traffic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Breadth-First Search (asynchronous variant).
    Bfs,
    /// Single-Source Shortest Path.
    Sssp,
    /// PageRank (5 power iterations).
    PageRank,
    /// Weakly Connected Components.
    Wcc,
    /// Sparse matrix–vector multiply.
    Spmv,
    /// Sparse matrix–dense matrix multiply (K = 8).
    Spmm,
    /// Histogram of the element array.
    Histogram,
    /// 3D FFT (n³ elements over the n×n grid; ignores the graph).
    Fft,
    /// Synthetic traffic with the given spatial pattern; offered load,
    /// window, sizes and seed come from `SystemConfig::traffic` and the
    /// graph is ignored.
    Traffic(TrafficPattern),
}

impl Benchmark {
    /// All benchmarks, in the paper's order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Bfs,
        Benchmark::Sssp,
        Benchmark::PageRank,
        Benchmark::Wcc,
        Benchmark::Spmv,
        Benchmark::Spmm,
        Benchmark::Histogram,
        Benchmark::Fft,
    ];

    /// The graph-driven benchmarks (everything but FFT).
    pub const GRAPH_DRIVEN: [Benchmark; 7] = [
        Benchmark::Bfs,
        Benchmark::Sssp,
        Benchmark::PageRank,
        Benchmark::Wcc,
        Benchmark::Spmv,
        Benchmark::Spmm,
        Benchmark::Histogram,
    ];

    /// The synthetic-traffic workloads, one per spatial pattern.
    pub const TRAFFIC: [Benchmark; 6] = [
        Benchmark::Traffic(TrafficPattern::UniformRandom),
        Benchmark::Traffic(TrafficPattern::BitComplement),
        Benchmark::Traffic(TrafficPattern::Transpose),
        Benchmark::Traffic(TrafficPattern::Shuffle),
        Benchmark::Traffic(TrafficPattern::NearestNeighbor),
        Benchmark::Traffic(TrafficPattern::Hotspot),
    ];

    /// Parses a benchmark from its label, case-insensitively (`"bfs"`,
    /// `"BFS"`, `"histo"`, `"traf-uniform"`, ...). The inverse of
    /// [`Benchmark::label`].
    pub fn from_label(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .chain(Benchmark::TRAFFIC)
            .find(|b| b.label().eq_ignore_ascii_case(name))
    }

    /// Short uppercase label as used in the paper's figures (traffic
    /// workloads: `TRAF-` plus the pattern).
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Bfs => "BFS",
            Benchmark::Sssp => "SSSP",
            Benchmark::PageRank => "PAGE",
            Benchmark::Wcc => "WCC",
            Benchmark::Spmv => "SPMV",
            Benchmark::Spmm => "SPMM",
            Benchmark::Histogram => "HISTO",
            Benchmark::Fft => "FFT",
            Benchmark::Traffic(TrafficPattern::UniformRandom) => "TRAF-UNIFORM",
            Benchmark::Traffic(TrafficPattern::BitComplement) => "TRAF-BITCOMP",
            Benchmark::Traffic(TrafficPattern::Transpose) => "TRAF-TRANSPOSE",
            Benchmark::Traffic(TrafficPattern::Shuffle) => "TRAF-SHUFFLE",
            Benchmark::Traffic(TrafficPattern::NearestNeighbor) => "TRAF-NEIGHBOR",
            Benchmark::Traffic(TrafficPattern::Hotspot) => "TRAF-HOTSPOT",
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the [`Simulation`] for `bench` and applies `$run` to it.
///
/// The app type differs per arm, so the runner is expanded textually into
/// each arm (a closure could not be generic over the app type); every
/// expansion must produce the same `Result<SimResult, SimError>`. This is
/// the single place that knows how to instantiate a suite application —
/// [`run_benchmark`] goes through it.
macro_rules! with_suite_app {
    ($bench:expr, $cfg:expr, $graph:expr, |$sim:ident| $run:expr) => {{
        let cfg = $cfg;
        let graph: &Arc<Csr> = $graph;
        let tiles = cfg.total_tiles() as u32;
        match $bench {
            Benchmark::Bfs => {
                let root = high_degree_root(graph);
                let $sim = Simulation::new(
                    cfg,
                    Bfs::new(Arc::clone(graph), tiles, root, SyncMode::Async),
                )?;
                $run
            }
            Benchmark::Sssp => {
                let root = high_degree_root(graph);
                let $sim = Simulation::new(
                    cfg,
                    Sssp::new(Arc::clone(graph), tiles, root, SyncMode::Async),
                )?;
                $run
            }
            Benchmark::PageRank => {
                let $sim = Simulation::new(cfg, PageRank::new(Arc::clone(graph), tiles, 5))?;
                $run
            }
            Benchmark::Wcc => {
                let $sim =
                    Simulation::new(cfg, Wcc::new(Arc::clone(graph), tiles, SyncMode::Async))?;
                $run
            }
            Benchmark::Spmv => {
                let $sim = Simulation::new(cfg, Spmv::new(Arc::clone(graph), tiles))?;
                $run
            }
            Benchmark::Spmm => {
                let $sim = Simulation::new(cfg, Spmm::new(Arc::clone(graph), tiles, 8))?;
                $run
            }
            Benchmark::Histogram => {
                let bins = graph.num_vertices();
                let $sim = Simulation::new(cfg, Histogram::new(Arc::clone(graph), tiles, bins))?;
                $run
            }
            Benchmark::Fft => {
                let n = cfg.width() as usize;
                assert_eq!(cfg.width(), cfg.height(), "FFT needs a square grid");
                let $sim = Simulation::new(cfg, Fft3d::new(n, 7))?;
                $run
            }
            Benchmark::Traffic(pattern) => {
                let app = TrafficApp::new(&cfg, pattern)?;
                let $sim = Simulation::new(cfg, app)?;
                $run
            }
        }
    }};
}

/// Runs `bench` on `cfg` over `graph` with `threads` host threads,
/// verifying the functional result.
///
/// The graph is taken behind an [`Arc`] and shared read-only with the
/// simulation: batch sweeps over the same dataset pay for one host copy,
/// not one per sweep point.
///
/// For [`Benchmark::Fft`] the problem size follows the grid (`n = width`,
/// which must equal the height) and `graph` is ignored, matching the
/// paper's weak-scaling treatment of FFT.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine; a failed result check is
/// reported inside the returned [`SimResult`].
pub fn run_benchmark(
    bench: Benchmark,
    cfg: SystemConfig,
    graph: &Arc<Csr>,
    threads: usize,
) -> Result<SimResult, SimError> {
    with_suite_app!(bench, cfg, graph, |sim| sim.run_parallel(threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_label_round_trips_case_insensitively() {
        for b in Benchmark::ALL.into_iter().chain(Benchmark::TRAFFIC) {
            assert_eq!(Benchmark::from_label(b.label()), Some(b));
            assert_eq!(Benchmark::from_label(&b.label().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::from_label("nope"), None);
        assert_eq!(
            Benchmark::from_label("traf-transpose"),
            Some(Benchmark::Traffic(TrafficPattern::Transpose))
        );
    }

    #[test]
    fn traffic_benchmarks_run_through_the_suite_harness() {
        let mut cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
        cfg.traffic.cycles = 200;
        // traffic ignores the graph, like FFT
        let graph = Arc::new(muchisim_data::synthetic::grid_2d(2, 2));
        let result = run_benchmark(
            Benchmark::Traffic(TrafficPattern::Transpose),
            cfg,
            &graph,
            1,
        )
        .unwrap();
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        assert!(result.counters.noc.injected > 0);
        assert_eq!(result.noc_latency.count, result.counters.noc.ejected);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Benchmark::PageRank.label(), "PAGE");
        assert_eq!(Benchmark::Histogram.label(), "HISTO");
        assert_eq!(Benchmark::ALL.len(), 8);
        assert_eq!(Benchmark::GRAPH_DRIVEN.len(), 7);
        assert!(!Benchmark::GRAPH_DRIVEN.contains(&Benchmark::Fft));
    }
}
