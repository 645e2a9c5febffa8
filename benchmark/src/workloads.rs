//! The seven workloads, each split into a timed set-up and a timed
//! simulate call.
//!
//! Everything here goes through the public functions a user of the
//! library would call (`RmatConfig::generate`, `SystemConfig::builder`,
//! the app constructors, `Simulation::new` / `run_parallel`,
//! `ExperimentSpec` / `BatchRunner` / `table_from_store`). Each of those
//! calls sits in a [`Tracer`] span, so the traced run attributes set-up
//! and simulate time to the layer that spent it.

use crate::trace::Tracer;
use muchisim_apps::{high_degree_root, Bfs, PageRank, SyncMode};
use muchisim_config::{NocTopology, SystemConfig, TelemetryParams, TrafficParams, TrafficPattern};
use muchisim_core::digest::{schedule_checksum, Fnv};
use muchisim_core::{Application, HostPhaseNs, SimResult, Simulation};
use muchisim_data::rmat::RmatConfig;
use muchisim_data::synthetic::grid_2d;
use muchisim_data::Csr;
use muchisim_dse::{table_from_store, BatchRunner, ExperimentSpec, JsonlStore};
use muchisim_mem::MemCounters;
use muchisim_noc::{LatencyStats, NocCounters};
use muchisim_traffic::TrafficApp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Offered loads of `traffic-sat` in packets/tile/cycle: below, near and
/// past the knee of a 32×32 folded torus under uniform-random traffic.
const TRAFFIC_RATES: [f64; 3] = [0.02, 0.05, 0.15];

/// `Full` is what the numbers are recorded at; `Smoke` runs the same
/// code on at most 16×16 tiles, for the pinned digests, the unit tests
/// and a CI job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    Full,
    Smoke,
}

impl Sizing {
    pub fn label(self) -> &'static str {
        match self {
            Sizing::Full => "full",
            Sizing::Smoke => "smoke",
        }
    }

    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Sizing::Full => full,
            Sizing::Smoke => smoke,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BfsRmat11,
    BfsRmat11T2,
    Bfs1m,
    PagerankGrid,
    PagerankGridDurable,
    TrafficSat,
    DseBatch,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::BfsRmat11,
        Workload::BfsRmat11T2,
        Workload::Bfs1m,
        Workload::PagerankGrid,
        Workload::PagerankGridDurable,
        Workload::TrafficSat,
        Workload::DseBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BfsRmat11 => "bfs-rmat11",
            Workload::BfsRmat11T2 => "bfs-rmat11-t2",
            Workload::Bfs1m => "bfs-1m",
            Workload::PagerankGrid => "pagerank-grid",
            Workload::PagerankGridDurable => "pagerank-grid-durable",
            Workload::TrafficSat => "traffic-sat",
            Workload::DseBatch => "dse-batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload whose simulated schedule this one must reproduce
    /// bit for bit: host threads, checkpoints and sampling are host-side
    /// choices that may not change what is simulated.
    pub fn twin(self) -> Option<Workload> {
        match self {
            Workload::BfsRmat11T2 => Some(Workload::BfsRmat11),
            Workload::PagerankGridDurable => Some(Workload::PagerankGrid),
            _ => None,
        }
    }

    /// Host threads the workload's simulate call may use.
    pub fn host_threads(self) -> usize {
        match self {
            Workload::BfsRmat11T2 | Workload::DseBatch => 2,
            _ => 1,
        }
    }
}

/// Cadences of `pagerank-grid-durable`. Roughly ten times denser than
/// the documented 10 % / 1 % of the run, on purpose: snapshot encode,
/// sample merge and file I/O then carry a share of host time that the
/// difference to `pagerank-grid` can resolve.
#[derive(Debug, Clone, Copy)]
pub struct Capture {
    pub checkpoint_every: u64,
    pub sample_every: u64,
}

pub fn capture(sizing: Sizing) -> Capture {
    sizing.pick(
        Capture {
            checkpoint_every: 250,
            sample_every: 32,
        },
        Capture {
            checkpoint_every: 50,
            sample_every: 8,
        },
    )
}

/// Where the durable workload writes its snapshot and its sample stream.
pub fn capture_files(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("durable.snap"), dir.join("durable-metrics.jsonl"))
}

/// What one simulate call returned, untouched; folded into [`Facts`]
/// after the clock has stopped.
#[derive(Debug, Default)]
pub struct Raw {
    /// Simulations started.
    pub attempted: u64,
    /// One line per simulation that returned an error, failed its
    /// result check or panicked.
    pub failures: Vec<String>,
    pub results: Vec<SimResult>,
    /// Wall seconds of the `run_parallel` calls the harness made itself
    /// (none for `dse-batch`, whose runner makes them).
    pub run_wall_s: f64,
    /// Accepted packets/tile/cycle per load point (`traffic-sat` only).
    pub accepted_rates: Vec<f64>,
}

/// The prepared simulate call of one iteration.
pub type Prepared = Box<dyn FnOnce(&mut Tracer) -> Raw>;

/// Simulated results and host accounting of one simulate call, summed
/// over its simulations.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Schedule checksums of all simulations, folded in order.
    pub digest: u64,
    pub runtime_cycles: u64,
    pub tasks: u64,
    pub noc: NocCounters,
    pub latency: LatencyStats,
    pub mem: MemCounters,
    /// Σ `SimResult::host_seconds`: time inside the cycle loops.
    pub loop_s: f64,
    /// Σ threads × `host_seconds`.
    pub thread_loop_s: f64,
    pub phase: HostPhaseNs,
    /// Σ wall of `run_parallel` − `host_seconds`: engine construction
    /// and result assembly, which `run_parallel` does around the loop.
    pub engine_build_s: f64,
    /// Largest per-tile host state among the simulations.
    pub state_bytes_per_tile: f64,
    pub accepted_rates: Vec<f64>,
}

impl Facts {
    pub fn from_raw(raw: &Raw) -> Facts {
        let mut f = Facts {
            accepted_rates: raw.accepted_rates.clone(),
            ..Facts::default()
        };
        let mut digest = Fnv::new();
        for r in &raw.results {
            digest.u64(schedule_checksum(r, r.total_tiles as u32));
            f.runtime_cycles += r.runtime_cycles;
            f.tasks += r.counters.pu.tasks_executed;
            f.noc.merge(&r.counters.noc);
            f.latency.merge(&r.noc_latency);
            f.mem.merge(&r.counters.mem);
            f.loop_s += r.host_seconds;
            f.thread_loop_s += r.host_threads as f64 * r.host_seconds;
            f.phase.merge(&r.host_phase_ns);
            f.state_bytes_per_tile = f.state_bytes_per_tile.max(r.bytes_per_tile());
        }
        f.digest = digest.finish();
        if raw.run_wall_s > 0.0 {
            f.engine_build_s = (raw.run_wall_s - f.loop_s).max(0.0);
        }
        f
    }

    /// Simulated events: tasks executed plus flit hops. Host time per
    /// event stays comparable when a model change alters how many
    /// events a workload takes.
    pub fn events(&self) -> u64 {
        self.tasks + self.noc.total_flit_hops()
    }

    pub fn packets(&self) -> u64 {
        self.noc.injected
    }
}

/// Runs one simulation, recording an error, a failed result check or a
/// panic as a failure instead of ending the benchmark.
fn simulate<'r, A: Application>(
    sim: Simulation<A>,
    threads: usize,
    raw: &'r mut Raw,
    tr: &mut Tracer,
) -> Option<&'r SimResult> {
    raw.attempted += 1;
    let started = Instant::now();
    let outcome = tr.span("core.run_parallel", |_| {
        catch_unwind(AssertUnwindSafe(|| sim.run_parallel(threads)))
    });
    raw.run_wall_s += started.elapsed().as_secs_f64();
    match outcome {
        Ok(Ok(result)) => {
            if let Some(why) = &result.check_error {
                raw.failures.push(format!("result check failed: {why}"));
            }
            raw.results.push(result);
            raw.results.last()
        }
        Ok(Err(e)) => {
            raw.failures.push(format!("simulation error: {e}"));
            None
        }
        Err(_) => {
            raw.failures.push("simulation panicked".into());
            None
        }
    }
}

/// A `side`×`side` single-chiplet mesh, otherwise the default system.
pub fn square_mesh(side: u32) -> Result<SystemConfig, String> {
    SystemConfig::builder()
        .chiplet_tiles(side, side)
        .build()
        .map_err(|e| format!("config: {e}"))
}

fn bfs(
    tr: &mut Tracer,
    seed: u64,
    scale: u32,
    side: u32,
    threads: usize,
) -> Result<Prepared, String> {
    let graph = tr.span("data.rmat_gen", |_| {
        Arc::new(RmatConfig::scale(scale).generate(seed))
    });
    let cfg = tr.span("config.build", |_| square_mesh(side))?;
    let tiles = cfg.total_tiles() as u32;
    let app = tr.span("apps.new", |_| {
        let root = high_degree_root(&graph);
        Bfs::new(Arc::clone(&graph), tiles, root, SyncMode::Async)
    });
    let sim = tr
        .span("core.sim_new", |_| Simulation::new(cfg, app))
        .map_err(|e| format!("Simulation::new: {e}"))?;
    Ok(Box::new(move |tr| {
        let mut raw = Raw::default();
        simulate(sim, threads, &mut raw, tr);
        raw
    }))
}

/// `grid_2d(side, side)` plus one seeded short-range edge pair per 16
/// vertices, each to a vertex at most 4 rows and 4 columns away. The
/// grid alone has no random part for `--seed` to feed; the extra edges
/// give it one and keep the workload dense and near-neighbour.
pub fn seeded_grid(tr: &mut Tracer, side: u32, seed: u64) -> Csr {
    let grid = tr.span("data.grid_gen", |_| grid_2d(side, side));
    tr.span("data.grid_extra_edges", |_| {
        let n = grid.num_vertices();
        let mut edges: Vec<(u32, u32, f32)> = grid.iter_edges().collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let near = |at: u32, rng: &mut SmallRng| {
            (at + rng.gen_range(0..9u32))
                .saturating_sub(4)
                .min(side - 1)
        };
        for _ in 0..n.div_ceil(16) {
            let a = rng.gen_range(0..n);
            let b = near(a / side, &mut rng) * side + near(a % side, &mut rng);
            edges.push((a, b, 1.0));
            edges.push((b, a, 1.0));
        }
        Csr::from_edges(n, &edges)
    })
}

fn pagerank(
    tr: &mut Tracer,
    seed: u64,
    side: u32,
    durable: Option<(Capture, &Path)>,
) -> Result<Prepared, String> {
    let graph = Arc::new(seeded_grid(tr, side, seed));
    let cfg = tr
        .span("config.build", |_| {
            let mut b = SystemConfig::builder();
            b.chiplet_tiles(side, side);
            if let Some((capture, dir)) = durable {
                let (snap, metrics) = capture_files(dir);
                b.checkpoint(snap.to_string_lossy(), capture.checkpoint_every);
                b.telemetry(TelemetryParams {
                    sample_every: Some(capture.sample_every),
                    metrics_path: Some(metrics.to_string_lossy().into_owned()),
                    ..TelemetryParams::default()
                });
            }
            b.build()
        })
        .map_err(|e| format!("config: {e}"))?;
    let tiles = cfg.total_tiles() as u32;
    let app = tr.span("apps.new", |_| PageRank::new(Arc::clone(&graph), tiles, 5));
    let sim = tr
        .span("core.sim_new", |_| Simulation::new(cfg, app))
        .map_err(|e| format!("Simulation::new: {e}"))?;
    Ok(Box::new(move |tr| {
        let mut raw = Raw::default();
        simulate(sim, 1, &mut raw, tr);
        raw
    }))
}

fn traffic(tr: &mut Tracer, seed: u64, side: u32, window: u64) -> Result<Prepared, String> {
    let mut points = Vec::new();
    for rate in TRAFFIC_RATES {
        let cfg = tr
            .span("config.build", |_| {
                SystemConfig::builder()
                    .chiplet_tiles(side, side)
                    // receive handlers must outpace the network, so the
                    // knee is the fabric's and not the PUs'
                    .pus_per_tile(4)
                    .noc_topology(NocTopology::FoldedTorus)
                    .traffic(TrafficParams {
                        rate,
                        cycles: window,
                        seed,
                        ..TrafficParams::default()
                    })
                    .build()
            })
            .map_err(|e| format!("config: {e}"))?;
        let app = tr
            .span("traffic.app_new", |_| {
                TrafficApp::new(&cfg, TrafficPattern::UniformRandom)
            })
            .map_err(|e| format!("TrafficApp::new: {e}"))?;
        let idle_tail = cfg.termination_latency_cycles();
        let tiles = cfg.total_tiles() as f64;
        let sim = tr
            .span("core.sim_new", |_| Simulation::new(cfg, app))
            .map_err(|e| format!("Simulation::new: {e}"))?;
        points.push((sim, idle_tail, tiles));
    }
    Ok(Box::new(move |tr| {
        let mut raw = Raw::default();
        for (sim, idle_tail, tiles) in points {
            let accepted = simulate(sim, 1, &mut raw, tr).map(|r| {
                // as `muchisim_traffic::run_point`: deliveries over the
                // cycles the network was busy, floored at the window
                let busy = r.runtime_cycles.saturating_sub(idle_tail).max(window);
                r.counters.noc.ejected as f64 / (tiles * busy as f64)
            });
            raw.accepted_rates.extend(accepted);
        }
        raw
    }))
}

/// The `dse-batch` experiment as the JSON a user would write.
pub fn dse_spec_json(sizing: Sizing, seed: u64) -> String {
    let side = sizing.pick(16, 8);
    let scale = sizing.pick(9, 6);
    let sram = sizing.pick(&[16, 64, 256][..], &[64][..]);
    let apps = sizing.pick(r#"["bfs", "spmv", "page", "histo"]"#, r#"["bfs", "spmv"]"#);
    let sram_points: Vec<String> = sram
        .iter()
        .map(|kib| format!(r#"{{"label": "{kib}KiB", "set": ["sram_kib_per_tile={kib}"]}}"#))
        .collect();
    let dram = r#"memory={\"Dram\":{\"devices_per_chiplet\":1,\"prefetch\":{\"next_line\":false,\"pointer_indirection\":false}}}"#;
    format!(
        r#"{{
  "name": "dse-batch",
  "threads_per_run": 1,
  "base": ["hierarchy.chiplet.x={side}", "hierarchy.chiplet.y={side}"],
  "axes": [
    {{"name": "noc width", "points": [
      {{"label": "32b", "set": ["noc.width_bits=32"]}},
      {{"label": "64b", "set": ["noc.width_bits=64"]}}]}},
    {{"name": "sram", "points": [{sram}]}},
    {{"name": "memory", "points": [
      {{"label": "spad", "set": ["memory=Scratchpad"]}},
      {{"label": "dram", "set": ["{dram}"]}}]}}
  ],
  "apps": {apps},
  "datasets": [{{"rmat": {{"scale": {scale}, "seed": {seed}}}}}]
}}"#,
        sram = sram_points.join(", "),
    )
}

/// Where `dse-batch` keeps its result store.
pub fn dse_store_path(dir: &Path) -> PathBuf {
    dir.join("dse-store.jsonl")
}

fn dse(tr: &mut Tracer, seed: u64, sizing: Sizing, dir: &Path) -> Result<Prepared, String> {
    let text = dse_spec_json(sizing, seed);
    let spec = tr
        .span("dse.spec_parse", |_| ExperimentSpec::from_json(&text))
        .map_err(|e| format!("spec: {e}"))?;
    let points = tr
        .span("dse.expand", |_| spec.expand())
        .map_err(|e| format!("expand: {e}"))?;
    let path = dse_store_path(dir);
    let mut store = tr
        .span("dse.store_open", |_| {
            // every iteration simulates all points: start from no store
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.to_string()),
                _ => JsonlStore::open(&path).map_err(|e| e.to_string()),
            }
        })
        .map_err(|e| format!("store {}: {e}", path.display()))?;
    Ok(Box::new(move |tr| {
        let mut raw = Raw {
            attempted: points.len() as u64,
            ..Raw::default()
        };
        // threads_per_run is 1 and the budget is 2 host threads, so two
        // points are in flight: oversubscribed spin barriers would
        // price the host scheduler, not the simulator
        let batch = tr.span("dse.run_points", |_| {
            catch_unwind(AssertUnwindSafe(|| {
                BatchRunner::new(Workload::DseBatch.host_threads()).run_points(
                    &points,
                    spec.threads_per_run,
                    &mut store,
                )
            }))
        });
        match batch {
            Ok(Ok(outcome)) if outcome.executed == points.len() => {}
            Ok(Ok(outcome)) => raw.failures.push(format!(
                "batch executed {} of {} points",
                outcome.executed,
                points.len()
            )),
            Ok(Err(e)) => raw.failures.push(format!("batch error: {e}")),
            Err(_) => raw.failures.push("batch panicked".into()),
        }
        match tr.span("dse.table", |_| table_from_store(&store, &[])) {
            Ok(table) if table.rows.len() == store.records().len() => {}
            Ok(table) => raw.failures.push(format!(
                "table has {} rows for {} records",
                table.rows.len(),
                store.records().len()
            )),
            Err(e) => raw.failures.push(format!("table: {e}")),
        }
        for record in store.sorted_records() {
            if let Some(why) = &record.result.check_error {
                raw.failures
                    .push(format!("{}: result check failed: {why}", record.run_id));
            }
            raw.results.push(record.result.clone());
        }
        raw
    }))
}

/// Everything before the simulate call: dataset generation, config
/// build, app constructor, `Simulation::new` (spec parse and expansion
/// for `dse-batch`). `dir` receives the files a workload writes.
pub fn prepare(
    workload: Workload,
    sizing: Sizing,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    match workload {
        Workload::BfsRmat11 | Workload::BfsRmat11T2 => {
            let (scale, side) = sizing.pick((11, 128), (7, 16));
            bfs(tr, seed, scale, side, workload.host_threads())
        }
        // under 2 % of a million tiles ever own a vertex
        Workload::Bfs1m => {
            let (scale, side) = sizing.pick((10, 1024), (4, 16));
            bfs(tr, seed, scale, side, 1)
        }
        Workload::PagerankGrid => pagerank(tr, seed, pagerank_side(sizing), None),
        Workload::PagerankGridDurable => pagerank(
            tr,
            seed,
            pagerank_side(sizing),
            Some((capture(sizing), dir)),
        ),
        Workload::TrafficSat => {
            let (side, window) = sizing.pick((32, 2_000), (8, 300));
            traffic(tr, seed, side, window)
        }
        Workload::DseBatch => dse(tr, seed, sizing, dir),
    }
}

/// What the durable run's cadences imply for a run of `runtime_cycles`:
/// checkpoint boundaries crossed by executed cycles (one snapshot each;
/// the file is overwritten in place, so only the last can be seen from
/// outside) and sample slots in the reported runtime.
pub fn durable_cadence_counts(sizing: Sizing, runtime_cycles: u64) -> Result<(u64, u64), String> {
    let idle_tail = square_mesh(pagerank_side(sizing))?.termination_latency_cycles();
    let capture = capture(sizing);
    Ok((
        runtime_cycles.saturating_sub(idle_tail) / capture.checkpoint_every,
        runtime_cycles / capture.sample_every,
    ))
}

/// Restarts `pagerank-grid-durable` from the snapshot its last run left
/// in `dir`. Returns the finished result and the seconds `run_parallel`
/// spent outside the cycle loop: reading, validating and restoring the
/// snapshot plus building the engine.
pub fn resume_durable(
    tr: &mut Tracer,
    sizing: Sizing,
    seed: u64,
    dir: &Path,
) -> Result<(SimResult, f64), String> {
    let side = pagerank_side(sizing);
    let graph = Arc::new(seeded_grid(tr, side, seed));
    let (snap, _) = capture_files(dir);
    // resume only: no cadence, so the restart writes no new snapshots
    let mut cfg = square_mesh(side)?;
    cfg.checkpoint_path = Some(snap.to_string_lossy().into_owned());
    cfg.checkpoint_resume = true;
    let tiles = cfg.total_tiles() as u32;
    let sim = Simulation::new(cfg, PageRank::new(graph, tiles, 5))
        .map_err(|e| format!("Simulation::new: {e}"))?;
    let started = Instant::now();
    let result = tr
        .span("core.run_parallel", |_| sim.run_parallel(1))
        .map_err(|e| format!("resume: {e}"))?;
    let outside_loop = started.elapsed().as_secs_f64() - result.host_seconds;
    Ok((result, outside_loop.max(0.0)))
}

fn pagerank_side(sizing: Sizing) -> u32 {
    sizing.pick(384, 16)
}
