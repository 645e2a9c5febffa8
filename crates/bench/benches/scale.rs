//! Simulator-throughput scaling: the paper's core claim that MuchiSim
//! reaches *million-tile* DUTs because per-tile host state stays small
//! and simulation throughput stays high. Sweeps square grids from 64×64
//! to 1024×1024 over two complementary workloads and records
//! simulated-cycles/sec, packets/sec, and bytes/tile into
//! `BENCH_scale.json` at the workspace root:
//!
//! * `bfs/rmat-10` — a *fixed* RMAT graph spread ever thinner (strong
//!   scaling of the fabric): at 1024×1024 under 2 % of tiles own a
//!   vertex, so this measures what idle tiles cost.
//! * `spmv/grid2d` — a 2D-grid matrix sized to the DUT grid (weak
//!   scaling): every tile owns one matrix row and all traffic is
//!   near-neighbor, so this measures the active-tile footprint.
//!
//! The sparse points run first; the process's peak resident set after
//! them (`VmHWM`, Linux only) is the resident cost of the largest sparse
//! grid, asserted per tile beside the capacity-based `bytes_per_tile`.
//!
//! From 256×256 up, each point also sweeps host threads 1/4/8/16 —
//! multi-thread strong scaling as a *measured* axis (the `threads`
//! column). Thread counts above the recording host's CPU count are
//! skipped rather than recorded: an oversubscribed spin-barrier prices
//! scheduler preemption, not the simulator, so such rows would be
//! artifacts. The recorded `host_cpus` and `host_threads` fields say
//! which sweep actually ran.
//!
//! `cargo bench -p muchisim-bench --bench scale` for the full sweep
//! (the 1024×1024 points run minutes each on a laptop-class host);
//! `-- --smoke` for the scaled-down CI pass (≤ 256×256, single-thread,
//! no JSON).

use muchisim_apps::{run_benchmark, Benchmark};
use muchisim_config::{SystemConfig, Verbosity};
use muchisim_core::SimResult;
use muchisim_data::synthetic::grid_2d;
use muchisim_data::Csr;
use std::sync::Arc;

/// RMAT scale of the fixed strong-scaling input.
const RMAT_SCALE: u32 = 10;

/// Host-thread counts swept at and above `THREAD_SWEEP_MIN_SIDE`.
const THREAD_SWEEP: [usize; 4] = [1, 4, 8, 16];
const THREAD_SWEEP_MIN_SIDE: u32 = 256;

/// Footprint ceilings of the sparse (`bfs/rmat-10`) sweep at its largest
/// grid, in bytes per tile: `(side, capacity-based host_state_bytes,
/// peak resident set)`. Each is the value measured on a 2-vCPU x86-64
/// Linux guest plus a margin: capacity 278 B/tile at 256×256 (the smoke
/// run's largest grid) and 239 at 1024×1024, +10 %; resident 241 and
/// 103 B/tile, +14 % and +11 % (2.1 and 11 MiB — the smaller grid's
/// peak is a quarter fixed cost: binary, graph, allocator). Idle queue
/// links and credit words are never written, so the resident peak sits
/// well below the capacity.
const SPARSE_CEILINGS: [(u32, f64, f64); 2] = [(256, 305.0, 275.0), (1024, 265.0, 114.0)];

/// The process's peak resident set size in bytes (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it (off Linux).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

struct Row {
    workload: &'static str,
    side: u32,
    threads: usize,
    result: SimResult,
}

impl Row {
    fn json(&self) -> String {
        let r = &self.result;
        format!(
            "    {{\"workload\": \"{}\", \"grid\": \"{side}x{side}\", \"tiles\": {}, \
             \"threads\": {}, \"runtime_cycles\": {}, \"host_seconds\": {:.3}, \
             \"sim_cycles_per_sec\": {:.1}, \"packets_per_sec\": {:.1}, \
             \"bytes_per_tile\": {:.1}, \"host_state_bytes\": {}, \
             \"phase_ns\": {{\"pu\": {}, \"inject\": {}, \"net\": {}, \
             \"worklist\": {}}}}}",
            self.workload,
            r.total_tiles,
            self.threads,
            r.runtime_cycles,
            r.host_seconds,
            r.sim_cycles_per_sec(),
            r.packets_per_sec(),
            r.bytes_per_tile(),
            r.host_state_bytes,
            r.host_phase_ns.pu,
            r.host_phase_ns.inject,
            r.host_phase_ns.net,
            r.host_phase_ns.worklist,
            side = self.side,
        )
    }
}

fn config(side: u32) -> SystemConfig {
    SystemConfig::builder()
        .chiplet_tiles(side, side)
        .verbosity(Verbosity::V1)
        .frame_interval_cycles(16_384)
        .build()
        .expect("valid scale config")
}

fn run(
    workload: &'static str,
    bench: Benchmark,
    side: u32,
    threads: usize,
    graph: &Arc<Csr>,
) -> Row {
    let result = run_benchmark(bench, config(side), graph, threads).expect("scale run completes");
    assert!(
        result.check_error.is_none(),
        "{workload} {side}x{side}: {:?}",
        result.check_error
    );
    println!(
        "{workload:<12} {side:>4}x{side:<4} x{threads:<2} {:>10} tiles | {:>9} cycles | \
         {:>8.1}s host | {:>10.0} simcyc/s | {:>10.0} pkt/s | {:>6.0} B/tile",
        result.total_tiles,
        result.runtime_cycles,
        result.host_seconds,
        result.sim_cycles_per_sec(),
        result.packets_per_sec(),
        result.bytes_per_tile(),
    );
    Row {
        workload,
        side,
        threads,
        result,
    }
}

/// CI perf gate: one dense point (spmv 256×256, single thread), with the
/// phase profiler asserted populated and worklist bookkeeping bounded.
fn perf_smoke() {
    let side = 256;
    let grid = Arc::new(grid_2d(side, side));
    let row = run("spmv/grid2d", Benchmark::Spmv, side, 1, &grid);
    let p = &row.result.host_phase_ns;
    println!(
        "phase_ns: pu={} inject={} net={} worklist={} ({:.1}% of attributed time)",
        p.pu,
        p.inject,
        p.net,
        p.worklist,
        p.worklist_share() * 100.0
    );
    assert!(
        p.total() > 0 && p.pu > 0 && p.net > 0,
        "host_phase_ns must be populated: {p:?}"
    );
    assert!(
        p.worklist_share() < 0.25,
        "worklist bookkeeping at {:.1}% of cycle time (budget: 25%)",
        p.worklist_share() * 100.0
    );
}

/// CI perf gate: telemetry sampling at 1% cadence must cost < 5% host
/// time on the dense point (spmv 256×256, single thread). The sampled
/// run streams real JSONL through the subscriber thread — the full
/// pipeline, not just the sample capture.
fn telemetry_overhead() {
    let side = 256;
    let grid = Arc::new(grid_2d(side, side));
    // one warm-up run to size the cadence (and fault in the page cache)
    let warmup = run("spmv/grid2d", Benchmark::Spmv, side, 1, &grid).result;
    // 1% cadence of the reported runtime
    let every = (warmup.runtime_cycles / 100).max(1);
    let stream =
        std::env::temp_dir().join(format!("muchisim-overhead-{}.jsonl", std::process::id()));
    let sampled_cfg = || {
        let mut cfg = config(side);
        cfg.telemetry.sample_every = Some(every);
        cfg.telemetry.metrics_path = Some(stream.to_string_lossy().into_owned());
        cfg
    };
    // alternate baseline/sampled pairs and compare the minima: identical
    // runs jitter well past 5% on a busy single-CPU CI box, so the pairs
    // interleave (drift lands on both sides) and the min estimates the
    // true floor of each configuration. Minima only improve, so the loop
    // exits as soon as the budget clears; only a genuine regression (or
    // a hopelessly loaded host) burns all the pairs and fails.
    const MIN_PAIRS: usize = 3;
    const MAX_PAIRS: usize = 12;
    let mut baseline = warmup;
    let mut sampled: Option<SimResult> = None;
    for pair in 0..MAX_PAIRS {
        let b = run_benchmark(Benchmark::Spmv, config(side), &grid, 1).expect("baseline run");
        if b.host_seconds < baseline.host_seconds {
            baseline = b;
        }
        let s = run_benchmark(Benchmark::Spmv, sampled_cfg(), &grid, 1).expect("sampled run");
        assert!(s.check_error.is_none(), "{:?}", s.check_error);
        if sampled
            .as_ref()
            .is_none_or(|p| s.host_seconds < p.host_seconds)
        {
            sampled = Some(s);
        }
        let floor = sampled.as_ref().expect("just set").host_seconds;
        if pair + 1 >= MIN_PAIRS && floor / baseline.host_seconds < 1.05 {
            break;
        }
    }
    let sampled = sampled.expect("sampled runs");
    assert_eq!(
        sampled.runtime_cycles, baseline.runtime_cycles,
        "sampling is observation, never perturbation"
    );
    let text = std::fs::read_to_string(&stream).expect("metrics stream written");
    let _ = std::fs::remove_file(&stream);
    let lines = text.lines().count();
    // far fewer than 100 samples actually land: runtime_cycles counts
    // the termination-latency tail (2x the mesh diameter, ~1020 cycles
    // at 256x256) that the barrier loop never executes, so this wide,
    // shallow workload samples well above 1% of its *executed* cycles —
    // a stricter overhead measurement, not a weaker one
    assert!(lines >= 3, "expected a live stream, got {lines} samples");
    assert!(
        text.lines().all(|l| l.starts_with("{\"v\":")),
        "stream lines must be schema-stamped JSONL"
    );
    let overhead = sampled.host_seconds / baseline.host_seconds - 1.0;
    println!(
        "telemetry overhead: baseline {:.3}s, sampled {:.3}s ({} samples every {every} cycles) \
         -> {:+.1}%",
        baseline.host_seconds,
        sampled.host_seconds,
        lines,
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "sampling overhead {:.1}% blew the 5% budget",
        overhead * 100.0
    );
}

fn main() {
    if std::env::args().any(|a| a == "--perf-smoke") {
        perf_smoke();
        return;
    }
    if std::env::args().any(|a| a == "--telemetry-overhead") {
        telemetry_overhead();
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--test");
    let sides: &[u32] = if smoke {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let rmat = muchisim_bench::bench_graph(RMAT_SCALE);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // oversubscribed thread counts measure the host scheduler, not the
    // simulator: record only what this host can actually run in parallel
    let swept: Vec<usize> = THREAD_SWEEP
        .into_iter()
        .filter(|&t| t <= host_cpus)
        .collect();

    muchisim_bench::rule("simulator throughput & footprint vs grid size and host threads");
    let threads = |side: u32| -> &[usize] {
        if smoke || side < THREAD_SWEEP_MIN_SIDE {
            &[1]
        } else {
            &swept
        }
    };
    let mut rows = Vec::new();
    for &side in sides {
        for &t in threads(side) {
            rows.push(run("bfs/rmat-10", Benchmark::Bfs, side, t, &rmat));
        }
    }
    // nothing dense has run yet: the peak so far is the sparse sweep's
    let sparse_peak = peak_rss_bytes();
    for &side in sides {
        let grid = Arc::new(grid_2d(side, side));
        for &t in threads(side) {
            rows.push(run("spmv/grid2d", Benchmark::Spmv, side, t, &grid));
        }
    }

    // The scalability claims, asserted rather than eyeballed (on the
    // single-thread rows; the threaded rows measure synchronization, not
    // footprint — state bytes are identical across thread counts anyway):
    // (1) sparse-workload bytes/tile *falls* with grid size (idle tiles
    //     are near-free thanks to lazy router/queue state) ...
    let bfs: Vec<&Row> = rows
        .iter()
        .filter(|r| r.workload.starts_with("bfs") && r.threads == 1)
        .collect();
    let first = bfs.first().expect("bfs rows");
    let last = bfs.last().expect("bfs rows");
    assert!(
        last.result.bytes_per_tile() < first.result.bytes_per_tile(),
        "idle-tile cost must shrink with scale: {:.0} B/tile at {} vs {:.0} B/tile at {}",
        first.result.bytes_per_tile(),
        first.side,
        last.result.bytes_per_tile(),
        last.side
    );
    // ... and stays within a small fixed budget at the top size, by
    // capacity and by resident pages
    let &(_, capacity, resident) = SPARSE_CEILINGS
        .iter()
        .find(|c| c.0 == last.side)
        .expect("a ceiling for the largest grid");
    assert!(
        last.result.bytes_per_tile() < capacity,
        "sparse bytes/tile at {0}x{0} blew the ceiling of {capacity}: {1:.0}",
        last.side,
        last.result.bytes_per_tile()
    );
    match sparse_peak {
        Some(peak) => {
            let per_tile = peak as f64 / last.result.total_tiles as f64;
            println!(
                "peak resident after the sparse sweep: {:.1} MiB, {per_tile:.0} B/tile at {1}x{1} \
                 (ceiling {resident})",
                peak as f64 / (1 << 20) as f64,
                last.side
            );
            assert!(
                per_tile < resident,
                "sparse resident bytes/tile at {0}x{0} blew the ceiling of {resident}: \
                 {per_tile:.0}",
                last.side
            );
        }
        None => println!("no VmHWM in /proc/self/status: resident ceiling not checked"),
    }
    // (2) active-tile (weak-scaling) bytes/tile is flat: growing the DUT
    //     16x-256x in tiles must not grow the per-tile footprint
    let spmv: Vec<f64> = rows
        .iter()
        .filter(|r| r.workload.starts_with("spmv") && r.threads == 1)
        .map(|r| r.result.bytes_per_tile())
        .collect();
    let (min, max) = spmv
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(
        max / min < 1.5,
        "weak-scaling bytes/tile must stay flat, saw {min:.0}..{max:.0}"
    );

    if smoke {
        println!("\nsmoke mode: skipping BENCH_scale.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"grids\": \"64x64..1024x1024\",\n  \
         \"workloads\": [\"bfs/rmat-{RMAT_SCALE} (fixed graph, strong scaling)\", \
         \"spmv/grid2d (matrix = DUT grid, weak scaling)\"],\n  \
         \"host_threads\": {swept:?},\n  \"host_cpus\": {host_cpus},\n  \
         \"sparse_peak_rss_bytes\": {},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        sparse_peak.map_or("null".to_string(), |b| b.to_string()),
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
    println!("\nrecorded {path}");
}
