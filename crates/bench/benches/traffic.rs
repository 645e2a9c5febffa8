//! NoC latency-versus-offered-load characterization: the saturation
//! curves of the three topologies (mesh, folded torus, Ruche mesh) under
//! uniform-random synthetic traffic, plus the trace record→replay
//! round-trip check. Records `BENCH_traffic.json` at the workspace root.
//!
//! `cargo bench -p muchisim-bench --bench traffic` for the full sweep;
//! `-- --smoke` for the scaled-down CI pass (two rates, one topology,
//! no JSON).

use muchisim_apps::{run_benchmark, Benchmark};
use muchisim_config::{NocTopology, SystemConfig, TrafficPattern};
use muchisim_core::Simulation;
use muchisim_noc::read_trace_jsonl;
use muchisim_traffic::{LoadPoint, SaturationCurve, TrafficApp};

/// Saturation criterion: mean latency above this multiple of the
/// zero-load mean.
const SATURATION_FACTOR: f64 = 3.0;
const WINDOW_CYCLES: u64 = 2_000;

fn config(side: u32, topo: &str) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        // receive handlers must outpace the network so the knee we
        // measure is the fabric's, not the PUs'
        .pus_per_tile(4);
    match topo {
        "mesh" => b.noc_topology(NocTopology::Mesh),
        "torus" => b.noc_topology(NocTopology::FoldedTorus),
        "ruche" => b.noc_topology(NocTopology::Mesh).ruche_factor(2),
        other => panic!("unknown topology {other}"),
    };
    let mut cfg = b.build().expect("valid traffic config");
    cfg.traffic.cycles = WINDOW_CYCLES;
    cfg.traffic.seed = 0x7AFF;
    cfg
}

/// Uniform-random traffic over `base` at each of `rates`, each point a
/// run on 2 host threads.
fn sweep(base: &SystemConfig, rates: &[f64]) -> SaturationCurve {
    let point = |&rate: &f64| {
        let mut cfg = base.clone();
        cfg.traffic.rate = rate;
        let app = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).expect("valid app");
        let sim = Simulation::new(cfg.clone(), app).expect("valid point");
        let result = sim.run_parallel(2).expect("point runs");
        assert!(result.check_error.is_none(), "{:?}", result.check_error);
        LoadPoint::of(&cfg, &result)
    };
    SaturationCurve {
        points: rates.iter().map(point).collect(),
    }
}

fn curve_json(topo: &str, curve: &SaturationCurve) -> String {
    let points: Vec<String> = curve
        .points
        .iter()
        .map(|p| {
            format!(
                "      {{\"offered\": {:.3}, \"achieved\": {:.4}, \"avg_latency\": {:.2}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"injected\": {}, \
                 \"runtime_cycles\": {}}}",
                p.offered,
                p.achieved,
                p.avg_latency,
                p.p50_latency,
                p.p95_latency,
                p.p99_latency,
                p.max_latency,
                p.injected,
                p.runtime_cycles
            )
        })
        .collect();
    let sat = curve
        .saturation_point(SATURATION_FACTOR)
        .expect("saturation detected");
    format!(
        "    {{\"topology\": \"{topo}\", \"saturation_offered\": {:.3}, \
         \"saturation_accepted\": {:.4}, \"points\": [\n{}\n    ]}}",
        sat.offered,
        sat.achieved,
        points.join(",\n")
    )
}

/// Records a BFS trace, replays it on the identical config, and returns
/// `(packets, identical NoC counters)`.
fn trace_roundtrip() -> (u64, bool) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench_traffic.trace.jsonl"
    );
    let mut cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .queues(4096, 32) // eject headroom: precondition for bit-identity
        .noc_trace(path)
        .build()
        .unwrap();
    let graph = std::sync::Arc::new(muchisim_data::rmat::RmatConfig::scale(5).generate(0xBF5));
    let recorded = run_benchmark(Benchmark::Bfs, cfg.clone(), &graph, 1).expect("record run");
    assert!(recorded.check_error.is_none());
    assert_eq!(
        recorded.counters.noc.eject_stalls, 0,
        "headroom precondition"
    );
    let events = read_trace_jsonl(path).expect("trace parses");
    cfg.noc_trace = None;
    let app = TrafficApp::replay(events, 16).expect("replay builds");
    let packets = app.total_packets();
    let replayed = Simulation::new(cfg, app)
        .unwrap()
        .run()
        .expect("replay run");
    let _ = std::fs::remove_file(path);
    (packets, replayed.counters.noc == recorded.counters.noc)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test");
    let (side, topos, rates): (u32, &[&str], &[f64]) = if smoke {
        (6, &["mesh"], &[0.02, 0.35])
    } else {
        (
            8,
            &["mesh", "torus", "ruche"],
            &[0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65],
        )
    };

    muchisim_bench::rule("latency vs offered load (uniform random)");
    let mut curves = Vec::new();
    for &topo in topos {
        let curve = sweep(&config(side, topo), rates);
        for p in &curve.points {
            println!(
                "{topo:<6} offered {:>5.3} | accepted {:>6.4} | avg {:>8.2} cy | \
                 p95 {:>5} | max {:>5} | {:>6} pkts",
                p.offered, p.achieved, p.avg_latency, p.p95_latency, p.max_latency, p.injected
            );
        }
        // the curve must actually be a saturation curve
        let base = curve.base_latency().expect("points");
        let last = curve.points.last().expect("points");
        assert!(
            last.avg_latency > SATURATION_FACTOR * base,
            "{topo}: top rate did not saturate ({base:.1} -> {:.1})",
            last.avg_latency
        );
        let sat = curve
            .saturation_point(SATURATION_FACTOR)
            .expect("saturation rate detected");
        println!(
            "{topo:<6} saturation: offered {:.3}, accepted {:.4} packets/tile/cycle",
            sat.offered, sat.achieved
        );
        curves.push((topo, curve));
    }

    if !smoke {
        // torus halves the uniform-traffic average distance, so it must
        // sustain a higher accepted rate at saturation than the mesh
        let accepted = |name: &str| {
            curves
                .iter()
                .find(|(t, _)| *t == name)
                .and_then(|(_, c)| c.saturation_rate(SATURATION_FACTOR))
                .expect("curve with saturation")
        };
        assert!(
            accepted("torus") > accepted("mesh"),
            "torus should out-sustain mesh: {:.4} vs {:.4}",
            accepted("torus"),
            accepted("mesh")
        );
    }

    muchisim_bench::rule("trace record -> replay round trip");
    let (packets, identical) = trace_roundtrip();
    println!("bfs 4x4: {packets} packets, identical NoC counters: {identical}");
    assert!(identical, "replay must reproduce the recorded NoC counters");

    if smoke {
        println!("\nsmoke mode: skipping BENCH_traffic.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"traffic\",\n  \"pattern\": \"uniform\",\n  \
         \"grid\": \"{side}x{side}\",\n  \"pus_per_tile\": 4,\n  \
         \"window_cycles\": {WINDOW_CYCLES},\n  \
         \"saturation_factor\": {SATURATION_FACTOR},\n  \
         \"load_unit\": \"packets/tile/cycle\",\n  \"curves\": [\n{}\n  ],\n  \
         \"trace_roundtrip\": {{\"app\": \"bfs\", \"grid\": \"4x4\", \
         \"packets\": {packets}, \"identical_noc_counters\": {identical}}}\n}}\n",
        curves
            .iter()
            .map(|(t, c)| curve_json(t, c))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_traffic.json");
    std::fs::write(path, json).expect("write BENCH_traffic.json");
    println!("\nrecorded {path}");
}
