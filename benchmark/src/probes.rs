//! Per-layer unit costs, measured from outside.
//!
//! Each probe drives one crate through its public functions at a fixed
//! size and reports a cost per operation. The probes are the same in
//! every traced run, whatever workload it traces: they price the layers,
//! the workload's own trace says how much of each layer it used.

use crate::trace::Tracer;
use crate::workloads::{dse_spec_json, square_mesh, Sizing, Workload};
use muchisim_apps::{run_benchmark, Benchmark};
use muchisim_config::{DramConfig, SystemConfig, TrafficParams, TrafficPattern};
use muchisim_data::rmat::RmatConfig;
use muchisim_data::synthetic::grid_2d;
use muchisim_dse::ExperimentSpec;
use muchisim_energy::Report;
use muchisim_mem::{AccessKind, ChannelState, TileMemory};
use muchisim_noc::{ActiveSet, DrainSink, LatencyStats, Network, NetworkParams, Packet, Payload};
use muchisim_telemetry::{JsonlSubscriber, MetricsSample, TelemetryHub};
use muchisim_traffic::TrafficApp;
use muchisim_viz::{ReportRow, ReportTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Name and value of one probe result.
pub type Reading = (&'static str, f64);

fn seconds<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = body();
    (out, started.elapsed().as_secs_f64())
}

/// Median wall seconds of `runs` calls.
fn median_seconds<T>(runs: usize, mut body: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let (out, s) = seconds(&mut body);
            black_box(out);
            s
        })
        .collect();
    crate::stats::median(&samples)
}

fn mesh(side: u32) -> SystemConfig {
    square_mesh(side).expect("a square mesh is a valid config")
}

/// Injects `sends` (all fit the inject queues), steps the plane until it
/// is empty and returns host nanoseconds per flit hop.
fn drain_ns_per_flit_hop(side: u32, sends: &[(u32, u32)]) -> f64 {
    let mut net = Network::new(NetworkParams::from_system(&mesh(side)), 1);
    for &(src, dst) in sends {
        let pkt = Packet::unicast(src, dst, 0, Payload::from_slice(&[src]), 2);
        net.inject(src, pkt)
            .expect("probe packets fit the inject queue");
    }
    let mut sink = DrainSink::default();
    let (_, s) = seconds(|| {
        let mut cycle = 0;
        while !net.is_empty() {
            net.step(cycle, &mut sink);
            cycle += 1;
        }
    });
    assert_eq!(sink.drained.len(), sends.len(), "every packet ejects");
    s * 1e9 / net.counters().total_flit_hops() as f64
}

fn noc_uniform(side: u32, seed: u64) -> f64 {
    let tiles = side * side;
    let mut rng = SmallRng::seed_from_u64(seed);
    let sends: Vec<(u32, u32)> = (0..tiles)
        .flat_map(|src| std::iter::repeat_n(src, 8))
        .map(|src| (src, (src + rng.gen_range(1..tiles)) % tiles))
        .collect();
    drain_ns_per_flit_hop(side, &sends)
}

fn noc_hotspot(side: u32) -> f64 {
    let tiles = side * side;
    // four hubs, one inside each quadrant
    let hubs = [(1, 1), (3, 1), (1, 3), (3, 3)].map(|(x, y)| (y * side / 4) * side + x * side / 4);
    let sends: Vec<(u32, u32)> = (0..tiles)
        .filter(|t| !hubs.contains(t))
        .flat_map(|src| (0..16).map(move |i| (src, hubs[(src as usize + i) % 4])))
        .collect();
    drain_ns_per_flit_hop(side, &sends)
}

/// Host nanoseconds per `Network::step` with a single packet crossing
/// an otherwise idle plane corner to corner.
fn noc_idle_step_ns(side: u32) -> f64 {
    let mut net = Network::new(NetworkParams::from_system(&mesh(side)), 1);
    let mut sink = DrainSink::default();
    let mut cycle = 0u64;
    let per_step: Vec<f64> = (0..5)
        .map(|_| {
            let last = side * side - 1;
            let pkt = Packet::unicast(0, last, 0, Payload::from_slice(&[1]), 2).ready_at(cycle);
            net.inject(0, pkt).expect("an idle plane accepts a packet");
            let first = cycle;
            let (_, s) = seconds(|| {
                while !net.is_empty() {
                    net.step(cycle, &mut sink);
                    cycle += 1;
                }
            });
            s * 1e9 / (cycle - first) as f64
        })
        .collect();
    crate::stats::median(&per_step)
}

fn activeset_ns_per_op(domain: u32, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let fresh: Vec<u32> = (0..domain / 16).map(|_| rng.gen_range(0..domain)).collect();
    let mut set = ActiveSet::new(domain as usize, true);
    let mut ops = 0u64;
    let (sum, s) = seconds(|| {
        let mut sum = 0u64;
        for round in 0..64u32 {
            for &idx in &fresh {
                set.activate((idx + round) % domain);
            }
            set.refresh();
            sum += set.iter().map(u64::from).sum::<u64>();
            ops += fresh.len() as u64 + 2 * set.active_count() as u64;
            // drop about half, so the next round merges into a live list
            set.retain(|idx| (idx + round) % 2 == 0);
        }
        sum
    });
    black_box(sum);
    s * 1e9 / ops as f64
}

fn latency_record_ns(seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let latencies: Vec<u64> = (0..4096).map(|_| rng.gen_range(1..5_000)).collect();
    let mut stats = LatencyStats::default();
    let (_, s) = seconds(|| {
        for _ in 0..256 {
            for &l in &latencies {
                stats.record(black_box(l));
            }
        }
    });
    black_box(stats.mean());
    s * 1e9 / (256.0 * latencies.len() as f64)
}

/// Host nanoseconds per access of a mixed read/write stream through a
/// 64 KiB PLM cache and its HBM channel.
fn mem_access_ns() -> f64 {
    let cfg = SystemConfig::builder()
        .sram_kib_per_tile(64)
        .dram(DramConfig::default())
        .build()
        .expect("a DRAM-mode config is valid");
    let mut mem = TileMemory::from_system(&cfg);
    let mut channel = ChannelState::default();
    const ACCESSES: u64 = 400_000;
    let (total, s) = seconds(|| {
        let mut total = 0u64;
        for i in 0..ACCESSES {
            // three strided loads and a store over 512 KiB: 8x the cache
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            total += mem.access((i * 97 * 4) % (512 << 10), kind, i, Some(&mut channel));
        }
        total
    });
    black_box((total, mem.hit_rate()));
    s * 1e9 / ACCESSES as f64
}

fn traffic_schedule_gen_s(sizing: Sizing, seed: u64) -> f64 {
    let (side, cycles) = match sizing {
        Sizing::Full => (32, 2_000),
        Sizing::Smoke => (8, 300),
    };
    let cfg = SystemConfig::builder()
        .chiplet_tiles(side, side)
        .traffic(TrafficParams {
            rate: 0.15,
            cycles,
            seed,
            ..TrafficParams::default()
        })
        .build()
        .expect("a traffic config is valid");
    median_seconds(3, || {
        TrafficApp::new(&cfg, TrafficPattern::UniformRandom).expect("a valid traffic app")
    })
}

/// End-to-end host nanoseconds per sample through a `TelemetryHub` into
/// a `JsonlSubscriber`. The hub drops when its channel is full, so a
/// dropped sample is offered again: the figure is the pipeline's
/// sustained cost, not the cost of a refused `try_send`.
fn telemetry_publish_ns(dir: &Path) -> Result<f64, String> {
    const SAMPLES: u64 = 10_000;
    let path = dir.join("probe-metrics.jsonl");
    let hub = TelemetryHub::spawn(vec![Box::new(JsonlSubscriber::create(&path)?)]);
    let (_, s) = seconds(|| {
        for seq in 0..SAMPLES {
            let sample = MetricsSample {
                seq,
                cycle: seq * 32,
                tasks: seq * 1_000,
                ..MetricsSample::default()
            };
            loop {
                let dropped = hub.dropped();
                hub.publish(sample.clone());
                if hub.dropped() == dropped {
                    break;
                }
                std::thread::yield_now();
            }
        }
    });
    // close() drains the channel and flushes the file
    let (closed, close_s) = seconds(|| hub.close());
    closed?;
    let lines = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?
        .lines()
        .count() as u64;
    if lines != SAMPLES {
        return Err(format!(
            "telemetry probe wrote {lines} of {SAMPLES} samples"
        ));
    }
    Ok((s + close_s) * 1e9 / SAMPLES as f64)
}

/// `Report::from_counters` and the 48-row table renderers, on the
/// result of one small BFS.
fn energy_and_viz() -> Result<(f64, f64), String> {
    let cfg = mesh(8);
    let graph = Arc::new(RmatConfig::scale(6).generate(1));
    let result = run_benchmark(Benchmark::Bfs, cfg.clone(), &graph, 1)
        .map_err(|e| format!("probe BFS: {e}"))?;
    const REPORTS: usize = 2_000;
    let (_, report_s) = seconds(|| {
        for _ in 0..REPORTS {
            black_box(Report::from_counters(black_box(&cfg), &result.counters));
        }
    });
    let report = Report::from_counters(&cfg, &result.counters);
    let mut table = ReportTable::new();
    for i in 0..48 {
        table.push(ReportRow::new(
            format!("config-{i}"),
            "BFS",
            "RMAT-6",
            &result,
            &report,
        ));
    }
    const RENDERS: usize = 50;
    let (_, render_s) = seconds(|| {
        for _ in 0..RENDERS {
            black_box((table.to_text(), table.to_csv()));
        }
    });
    Ok((
        report_s * 1e6 / REPORTS as f64,
        render_s * 1e6 / RENDERS as f64,
    ))
}

fn dse_expand_us_per_point(seed: u64) -> Result<f64, String> {
    let spec = ExperimentSpec::from_json(&dse_spec_json(Sizing::Full, seed))
        .map_err(|e| format!("probe spec: {e}"))?;
    let points = spec
        .expand()
        .map_err(|e| format!("probe expand: {e}"))?
        .len();
    let s = median_seconds(3, || spec.expand());
    Ok(s * 1e6 / points as f64)
}

/// Runs every probe once, each inside a span named after its reading.
pub fn run_all(
    tr: &mut Tracer,
    sizing: Sizing,
    seed: u64,
    dir: &Path,
) -> Result<Vec<Reading>, String> {
    let full = sizing == Sizing::Full;
    let pick = |full_size: u32, smoke_size: u32| if full { full_size } else { smoke_size };
    let mut out: Vec<Reading> = Vec::new();
    tr.span("probes", |tr| {
        out.push((
            "host.calib_ns",
            tr.span("host.calib", |_| crate::calib::sample_ns()),
        ));
        out.push((
            "data.rmat_gen_s",
            tr.span("data.rmat_gen", |_| {
                median_seconds(3, || RmatConfig::scale(pick(11, 7)).generate(seed))
            }),
        ));
        out.push((
            "data.grid_gen_s",
            tr.span("data.grid_gen", |_| {
                median_seconds(3, || grid_2d(pick(384, 16), pick(384, 16)))
            }),
        ));
        out.push((
            "config.build_us",
            tr.span("config.build", |_| {
                let (_, s) = seconds(|| {
                    for side in 0..2_000 {
                        black_box(mesh(black_box(8 + side % 8)));
                    }
                });
                s * 1e6 / 2_000.0
            }),
        ));
        out.push((
            "noc.uniform_ns_per_flit_hop",
            tr.span("noc.uniform", |_| noc_uniform(pick(64, 16), seed)),
        ));
        out.push((
            "noc.hotspot_ns_per_flit_hop",
            tr.span("noc.hotspot", |_| noc_hotspot(pick(32, 16))),
        ));
        out.push((
            "noc.idle_step_ns",
            tr.span("noc.idle_step", |_| noc_idle_step_ns(pick(256, 16))),
        ));
        out.push((
            "noc.new_s",
            tr.span("noc.new", |_| {
                let params = NetworkParams::from_system(&mesh(pick(1024, 16)));
                let (net, s) = seconds(|| Network::new(params, 1));
                black_box(net.num_shards());
                s
            }),
        ));
        out.push((
            "noc.activeset_ns_per_op",
            tr.span("noc.activeset", |_| activeset_ns_per_op(1 << 16, seed)),
        ));
        out.push((
            "noc.latency_record_ns",
            tr.span("noc.latency_record", |_| latency_record_ns(seed)),
        ));
        out.push(("mem.access_ns", tr.span("mem.access", |_| mem_access_ns())));
        out.push((
            "traffic.schedule_gen_s",
            tr.span("traffic.schedule_gen", |_| {
                traffic_schedule_gen_s(sizing, seed)
            }),
        ));
        out.push((
            "telemetry.publish_ns",
            tr.span("telemetry.publish", |_| telemetry_publish_ns(dir))?,
        ));
        let (report_us, render_us) = tr.span("energy_viz", |_| energy_and_viz())?;
        out.push(("energy.report_us", report_us));
        out.push(("viz.table_render_us", render_us));
        out.push((
            "dse.expand_us_per_point",
            tr.span("dse.expand", |_| dse_expand_us_per_point(seed))?,
        ));
        Ok(out)
    })
}

/// Store and report costs of `dse-batch`, measured on the store its last
/// iteration left in `dir`: reload, table, re-priced table, a second
/// batch that finds every point done, and appends into a fresh store.
pub fn dse_store_costs(
    tr: &mut Tracer,
    sizing: Sizing,
    seed: u64,
    dir: &Path,
) -> Result<Vec<Reading>, String> {
    use muchisim_dse::{parse_assignment, table_from_store, BatchRunner, JsonlStore};
    let err = |what: &str, e: muchisim_dse::DseError| format!("{what}: {e}");
    let spec =
        ExperimentSpec::from_json(&dse_spec_json(sizing, seed)).map_err(|e| err("spec", e))?;
    let points = spec.expand().map_err(|e| err("expand", e))?;
    let path = crate::workloads::dse_store_path(dir);
    tr.span("dse.store_costs", |tr| {
        let (store, load_s) = tr.span("dse.store_load", |_| seconds(|| JsonlStore::open(&path)));
        let mut store = store.map_err(|e| err("store load", e))?;
        if store.records().len() != points.len() {
            return Err(format!(
                "store holds {} records for {} points",
                store.records().len(),
                points.len()
            ));
        }
        let (table, table_s) = tr.span("dse.table", |_| seconds(|| table_from_store(&store, &[])));
        table.map_err(|e| err("table", e))?;
        let reprice = [
            parse_assignment("params.cost.hbm_usd_per_gb=3.0").map_err(|e| err("override", e))?
        ];
        let (repriced, reprice_s) = tr.span("dse.reprice", |_| {
            seconds(|| table_from_store(&store, &reprice))
        });
        repriced.map_err(|e| err("reprice", e))?;
        let (again, skip_s) = tr.span("dse.resume_skip", |_| {
            seconds(|| {
                BatchRunner::new(Workload::DseBatch.host_threads()).run_points(
                    &points,
                    spec.threads_per_run,
                    &mut store,
                )
            })
        });
        let again = again.map_err(|e| err("second batch", e))?;
        if again.executed != 0 || again.skipped != points.len() {
            return Err(format!("second batch re-ran {} points", again.executed));
        }
        let fresh_path = dir.join("dse-append.jsonl");
        let _ = std::fs::remove_file(&fresh_path);
        let mut fresh = JsonlStore::open(&fresh_path).map_err(|e| err("fresh store", e))?;
        let records = store.records().to_vec();
        let (appended, append_s) = tr.span("dse.store_append", |_| {
            seconds(|| records.into_iter().try_for_each(|r| fresh.append(r)))
        });
        appended.map_err(|e| err("append", e))?;
        Ok(vec![
            ("dse.store_load_s", load_s),
            ("dse.table_s", table_s),
            ("dse.reprice_s", reprice_s),
            ("dse.resume_skip_s", skip_s),
            ("dse.store_append_us", append_s * 1e6 / points.len() as f64),
        ])
    })
}
