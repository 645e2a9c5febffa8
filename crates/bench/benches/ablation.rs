//! Ablations over the design parameters DESIGN.md calls out, covering the
//! additional case studies the paper's repository ships: NoC width (1),
//! in-network reduction (2), PUs per tile (3), scratchpad vs DRAM (4), and
//! queue sizes (5), plus the TSU scheduling policies of §III-A.

use muchisim_apps::{high_degree_root, run_benchmark, Benchmark, Bfs, Spmv, SyncMode};
use muchisim_config::{DramConfig, SchedulingPolicy, SystemConfig};
use muchisim_core::Simulation;

fn base() -> muchisim_config::SystemConfigBuilder {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(16, 16);
    b
}

fn main() {
    let graph = muchisim_bench::bench_graph(muchisim_bench::BENCH_RMAT_SCALE);
    let tiles = 256u32;

    muchisim_bench::rule("ablation 1: NoC width (BFS)");
    let mut widths = Vec::new();
    for bits in [32u32, 64, 128] {
        let cfg = base().noc_width_bits(bits).build().unwrap();
        let r = run_benchmark(Benchmark::Bfs, cfg, &graph, 8).unwrap();
        println!("width {bits:>4}b: {:>8} cycles", r.runtime_cycles);
        widths.push(r.runtime_cycles);
    }
    assert!(
        widths[2] <= widths[0],
        "a 4x wider NoC should not be slower"
    );

    muchisim_bench::rule("ablation 2: in-network reduction (BFS message elimination)");
    let root = high_degree_root(&graph);
    for reduce in [false, true] {
        let app = Bfs::new(graph.clone(), tiles, root, SyncMode::Async).with_reduction(reduce);
        let r = Simulation::new(base().build().unwrap(), app)
            .unwrap()
            .run_parallel(8)
            .unwrap();
        println!(
            "reduction {:>5}: {:>8} cycles, {:>8} injected, {:>6} combined",
            reduce, r.runtime_cycles, r.counters.noc.injected, r.counters.noc.reduce_combines
        );
    }

    muchisim_bench::rule("ablation 3: PUs per tile (BFS)");
    let mut pus_cycles = Vec::new();
    for pus in [1u32, 2, 4] {
        let cfg = base().pus_per_tile(pus).build().unwrap();
        let r = run_benchmark(Benchmark::Bfs, cfg, &graph, 8).unwrap();
        println!("{pus} PU/tile: {:>8} cycles", r.runtime_cycles);
        pus_cycles.push(r.runtime_cycles);
    }
    assert!(pus_cycles[2] <= pus_cycles[0], "more PUs should not hurt");

    muchisim_bench::rule("ablation 4: scratchpad vs PLM-as-cache over DRAM (SPMV)");
    let spm = base().sram_kib_per_tile(64).build().unwrap();
    let r = run_benchmark(Benchmark::Spmv, spm, &graph, 8).unwrap();
    println!(
        "scratchpad  : {:>8} cycles (hit rate n/a)",
        r.runtime_cycles
    );
    let spm_cycles = r.runtime_cycles;
    for sram in [1u32, 4] {
        let cfg = base()
            .sram_kib_per_tile(sram)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let r = run_benchmark(Benchmark::Spmv, cfg, &graph, 8).unwrap();
        println!(
            "dram {sram:>2}KiB  : {:>8} cycles (hit rate {:.3})",
            r.runtime_cycles,
            r.counters.mem.hit_rate()
        );
        assert!(
            r.runtime_cycles >= spm_cycles,
            "cache mode cannot beat pure SRAM at equal traffic"
        );
    }

    muchisim_bench::rule("ablation 5: input-queue capacity (BFS)");
    for iq in [4u32, 16, 64] {
        let cfg = base().queues(iq, 32).build().unwrap();
        let r = run_benchmark(Benchmark::Bfs, cfg, &graph, 8).unwrap();
        println!(
            "IQ {iq:>3}: {:>8} cycles, {:>8} eject stalls",
            r.runtime_cycles, r.counters.noc.eject_stalls
        );
    }

    muchisim_bench::rule("ablation 6: TSU scheduling policy (SPMV, 2 task types)");
    for (name, policy) in [
        ("round-robin", SchedulingPolicy::RoundRobin),
        ("priority[1,0]", SchedulingPolicy::Priority(vec![1, 0])),
        ("occupancy", SchedulingPolicy::OccupancyBased),
    ] {
        let cfg = base().scheduling(policy).build().unwrap();
        let app = Spmv::new(graph.clone(), tiles);
        let r = Simulation::new(cfg, app).unwrap().run_parallel(8).unwrap();
        assert!(r.check_error.is_none(), "{name}: {:?}", r.check_error);
        println!(
            "{name:<14}: {:>8} cycles, {:>8} eject stalls",
            r.runtime_cycles, r.counters.noc.eject_stalls
        );
    }

    muchisim_bench::rule("ablation 7: sequential == parallel (determinism)");
    let r1 = run_benchmark(Benchmark::Bfs, base().build().unwrap(), &graph, 1).unwrap();
    let r8 = run_benchmark(Benchmark::Bfs, base().build().unwrap(), &graph, 8).unwrap();
    println!(
        "1 thread: {} cycles / 8 threads: {} cycles",
        r1.runtime_cycles, r8.runtime_cycles
    );
    assert_eq!(r1.runtime_cycles, r8.runtime_cycles);
    assert_eq!(r1.counters.noc.msg_hops, r8.counters.noc.msg_hops);
    println!("bit-identical across thread counts");
}
