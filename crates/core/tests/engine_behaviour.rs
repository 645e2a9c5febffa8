//! Behavioural tests of the simulation engine across whole apps.

use muchisim_config::{DramConfig, NocTopology, SystemConfig, Verbosity};
use muchisim_core::{Application, GridInfo, SimError, Simulation, TaskCtx};

/// Every tile sends one counter message to the next tile (ring), which
/// increments and forwards until hops are exhausted.
struct Relay {
    hops: u32,
}

impl Application for Relay {
    type Tile = u64; // messages handled
    fn name(&self) -> &'static str {
        "relay"
    }
    fn task_types(&self) -> u8 {
        1
    }
    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u64 {
        0
    }
    fn init(&self, _state: &mut u64, ctx: &mut TaskCtx<'_>) {
        if ctx.tile == 0 {
            ctx.int_ops(1);
            ctx.send(0, 1 % ctx.grid().total_tiles, &[self.hops]);
        }
    }
    fn handle(&self, state: &mut u64, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        *state += 1;
        ctx.int_ops(2);
        ctx.app_ops(1);
        let remaining = msg[0];
        if remaining > 1 {
            let next = (ctx.tile + 1) % ctx.grid().total_tiles;
            ctx.send(0, next, &[remaining - 1]);
        }
    }
    fn check(&self, tiles: &[u64]) -> Result<(), String> {
        let total: u64 = tiles.iter().sum();
        if total == self.hops as u64 {
            Ok(())
        } else {
            Err(format!(
                "expected {} handled messages, got {total}",
                self.hops
            ))
        }
    }
}

/// All-to-one flood: every tile sends `per_tile` messages to tile 0,
/// stressing endpoint contention and IQ backpressure.
struct Flood {
    per_tile: u32,
}

impl Application for Flood {
    type Tile = u64;
    fn name(&self) -> &'static str {
        "flood"
    }
    fn task_types(&self) -> u8 {
        1
    }
    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u64 {
        0
    }
    fn init(&self, _state: &mut u64, ctx: &mut TaskCtx<'_>) {
        if ctx.tile != 0 {
            for i in 0..self.per_tile {
                ctx.int_ops(1);
                ctx.send(0, 0, &[ctx.tile, i]);
            }
        }
    }
    fn handle(&self, state: &mut u64, _task: u8, _msg: &[u32], ctx: &mut TaskCtx<'_>) {
        *state += 1;
        ctx.int_ops(1);
    }
    fn check(&self, tiles: &[u64]) -> Result<(), String> {
        let expected = (tiles.len() as u64 - 1) * self.per_tile as u64;
        if tiles[0] == expected {
            Ok(())
        } else {
            Err(format!("tile 0 received {} of {expected}", tiles[0]))
        }
    }
}

/// Pure do-all compute: each kernel's init task computes locally, no
/// messages at all; verifies kernel sequencing and runtime accounting.
struct DoAll;

impl Application for DoAll {
    type Tile = u32; // kernels seen
    fn name(&self) -> &'static str {
        "doall"
    }
    fn task_types(&self) -> u8 {
        1
    }
    fn kernels(&self) -> u32 {
        3
    }
    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u32 {
        0
    }
    fn init(&self, state: &mut u32, ctx: &mut TaskCtx<'_>) {
        assert_eq!(*state, ctx.kernel);
        *state += 1;
        ctx.fp_ops(100);
        for i in 0..8 {
            ctx.load(ctx.local_addr(0, i, 4));
        }
    }
    fn handle(&self, _state: &mut u32, _task: u8, _msg: &[u32], _ctx: &mut TaskCtx<'_>) {
        unreachable!("do-all app never receives messages");
    }
    fn check(&self, tiles: &[u32]) -> Result<(), String> {
        tiles
            .iter()
            .all(|&k| k == 3)
            .then_some(())
            .ok_or_else(|| "not all kernels ran".into())
    }
}

fn small_cfg() -> SystemConfig {
    SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .verbosity(Verbosity::V2)
        .frame_interval_cycles(64)
        .build()
        .unwrap()
}

#[test]
fn relay_crosses_the_grid() {
    let result = Simulation::new(small_cfg(), Relay { hops: 200 })
        .unwrap()
        .run()
        .unwrap();
    assert!(result.check_error.is_none(), "{:?}", result.check_error);
    assert_eq!(result.counters.pu.app_ops, 200);
    // 200 sequential hops, each at least a few cycles
    assert!(result.runtime_cycles > 400);
    assert!(result.counters.noc.injected >= 199);
}

#[test]
fn flood_delivers_everything_under_backpressure() {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .queues(4, 2) // tiny queues to force backpressure
        .buffer_depth(2)
        .build()
        .unwrap();
    let result = Simulation::new(cfg, Flood { per_tile: 8 })
        .unwrap()
        .run()
        .unwrap();
    assert!(result.check_error.is_none(), "{:?}", result.check_error);
    let c = &result.counters;
    assert_eq!(c.noc.injected, 63 * 8);
    assert_eq!(c.noc.ejected, 63 * 8);
    assert!(
        c.noc.backpressure + c.noc.eject_stalls > 0,
        "expected contention"
    );
}

#[test]
fn doall_kernels_run_in_sequence() {
    let result = Simulation::new(small_cfg(), DoAll).unwrap().run().unwrap();
    assert!(result.check_error.is_none(), "{:?}", result.check_error);
    // 3 kernels x 64 tiles inits
    assert_eq!(result.counters.pu.tasks_executed, 3 * 64);
    assert_eq!(result.counters.pu.fp_ops, 3 * 64 * 100);
    assert_eq!(result.counters.mem.sram_reads, 3 * 64 * 8);
    assert!(result.counters.noc.injected == 0);
}

#[test]
fn parallel_is_bit_identical_to_sequential() {
    let mut reference: Option<(u64, u64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let result = Simulation::new(small_cfg(), Flood { per_tile: 6 })
            .unwrap()
            .run_parallel(threads)
            .unwrap();
        assert!(result.check_error.is_none());
        let key = (
            result.runtime_cycles,
            result.counters.noc.msg_hops,
            result.counters.pu.busy_cycles,
        );
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(*r, key, "thread count {threads} diverged"),
        }
    }
}

#[test]
fn parallel_identical_with_dram_and_torus() {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(16, 16)
        .noc_topology(NocTopology::FoldedTorus)
        .sram_kib_per_tile(64)
        .dram(DramConfig::default())
        .build()
        .unwrap();
    let mut reference: Option<(u64, u64, u64)> = None;
    for threads in [1usize, 4] {
        let result = Simulation::new(cfg.clone(), Relay { hops: 300 })
            .unwrap()
            .run_parallel(threads)
            .unwrap();
        assert!(result.check_error.is_none());
        let key = (
            result.runtime_cycles,
            result.counters.noc.msg_hops,
            result.counters.mem.cache_misses,
        );
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(*r, key, "thread count {threads} diverged"),
        }
    }
}

#[test]
fn frames_recorded_at_v2() {
    let result = Simulation::new(small_cfg(), Relay { hops: 500 })
        .unwrap()
        .run()
        .unwrap();
    assert!(!result.frames.is_empty());
    let total_tasks: u64 = result.frames.frames.iter().map(|f| f.tasks_delta).sum();
    // 64 inits + 500 relay handlings
    assert_eq!(total_tasks, 64 + 500);
    // per-tile activity present in some frame
    assert!(result
        .frames
        .frames
        .iter()
        .any(|f| !f.router_busy.is_empty() && !f.pu_busy.is_empty()));
}

#[test]
fn verbosity_v0_suppresses_frames() {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .verbosity(Verbosity::V0)
        .build()
        .unwrap();
    let result = Simulation::new(cfg, Relay { hops: 50 })
        .unwrap()
        .run()
        .unwrap();
    assert!(result.frames.is_empty());
}

/// The `max_cycles` ward stops a run that would not drain by then, at
/// the first sample closing at or past its cycle, with the partial result.
#[test]
fn max_cycles_ward_stops_the_run() {
    let mut cfg = small_cfg();
    cfg.telemetry.sample_every = Some(64);
    cfg.telemetry.wards.max_cycles = Some(100);
    let err = Simulation::new(cfg, Relay { hops: 100_000 })
        .unwrap()
        .run()
        .unwrap_err();
    let SimError::Ward(report) = err else {
        panic!("expected a ward stop, got {err:?}");
    };
    assert_eq!((report.ward.as_str(), report.cycle), ("max_cycles", 127));
    let partial = report
        .partial
        .expect("a ward stop carries its partial result");
    assert_eq!(partial.termination, "ward:max_cycles");
    assert!(partial.counters.pu.tasks_executed > 0);
}

#[test]
fn cyclic_task_graph_rejected() {
    struct Cyclic;
    impl Application for Cyclic {
        type Tile = ();
        fn name(&self) -> &'static str {
            "cyclic"
        }
        fn task_types(&self) -> u8 {
            2
        }
        fn task_graph(&self) -> Vec<(u8, u8)> {
            vec![(0, 1), (1, 0)]
        }
        fn make_tile(&self, _t: u32, _g: &GridInfo) {}
        fn init(&self, _s: &mut (), _ctx: &mut TaskCtx<'_>) {}
        fn handle(&self, _s: &mut (), _t: u8, _m: &[u32], _ctx: &mut TaskCtx<'_>) {}
    }
    assert!(matches!(
        Simulation::new(small_cfg(), Cyclic),
        Err(SimError::CyclicTaskGraph)
    ));
}

#[test]
fn failed_check_is_reported() {
    struct AlwaysWrong;
    impl Application for AlwaysWrong {
        type Tile = ();
        fn name(&self) -> &'static str {
            "wrong"
        }
        fn task_types(&self) -> u8 {
            1
        }
        fn make_tile(&self, _t: u32, _g: &GridInfo) {}
        fn init(&self, _s: &mut (), ctx: &mut TaskCtx<'_>) {
            ctx.int_ops(1);
        }
        fn handle(&self, _s: &mut (), _t: u8, _m: &[u32], _ctx: &mut TaskCtx<'_>) {}
        fn check(&self, _tiles: &[()]) -> Result<(), String> {
            Err("deliberate".into())
        }
    }
    let result = Simulation::new(small_cfg(), AlwaysWrong)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(result.check_error.as_deref(), Some("deliberate"));
}

#[test]
fn runtime_includes_termination_detection() {
    // a single local task: runtime should still include 2x diameter
    struct Nothing;
    impl Application for Nothing {
        type Tile = ();
        fn name(&self) -> &'static str {
            "nothing"
        }
        fn task_types(&self) -> u8 {
            1
        }
        fn make_tile(&self, _t: u32, _g: &GridInfo) {}
        fn init(&self, _s: &mut (), ctx: &mut TaskCtx<'_>) {
            ctx.int_ops(1);
        }
        fn handle(&self, _s: &mut (), _t: u8, _m: &[u32], _ctx: &mut TaskCtx<'_>) {}
    }
    let cfg = small_cfg();
    let termination = cfg.termination_latency_cycles();
    let result = Simulation::new(cfg, Nothing).unwrap().run().unwrap();
    assert!(result.runtime_cycles >= termination);
}

#[test]
fn multi_plane_noc_partitions_traffic() {
    struct TwoTask;
    impl Application for TwoTask {
        type Tile = u32;
        fn name(&self) -> &'static str {
            "twotask"
        }
        fn task_types(&self) -> u8 {
            2
        }
        fn make_tile(&self, _t: u32, _g: &GridInfo) -> u32 {
            0
        }
        fn init(&self, _s: &mut u32, ctx: &mut TaskCtx<'_>) {
            if ctx.tile == 0 {
                ctx.send(0, 5, &[1]);
                ctx.send(1, 9, &[2]);
            }
        }
        fn handle(&self, s: &mut u32, task: u8, msg: &[u32], _ctx: &mut TaskCtx<'_>) {
            assert_eq!(msg[0] as u8, task + 1);
            *s += 1;
        }
        fn check(&self, tiles: &[u32]) -> Result<(), String> {
            (tiles[5] == 1 && tiles[9] == 1)
                .then_some(())
                .ok_or_else(|| "missing deliveries".into())
        }
    }
    let cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .physical_nocs(2)
        .build()
        .unwrap();
    let result = Simulation::new(cfg, TwoTask).unwrap().run().unwrap();
    assert!(result.check_error.is_none(), "{:?}", result.check_error);
    assert_eq!(result.counters.noc.injected, 2);
}

/// Endpoint-heavy app with long task latencies: tile 1 floods tile 0
/// with independent 500-cycle tasks, so the NoC sits idle for long
/// stretches between dispatches — the time-leaping driver's best case.
#[derive(Clone)]
struct LongTasks;

impl Application for LongTasks {
    type Tile = u32;
    fn name(&self) -> &'static str {
        "longtasks"
    }
    fn task_types(&self) -> u8 {
        1
    }
    fn make_tile(&self, _t: u32, _g: &GridInfo) -> u32 {
        0
    }
    fn init(&self, _s: &mut u32, ctx: &mut TaskCtx<'_>) {
        if ctx.tile == 1 {
            for i in 0..24 {
                ctx.send(0, 0, &[i]);
            }
        }
    }
    fn handle(&self, s: &mut u32, _t: u8, _m: &[u32], ctx: &mut TaskCtx<'_>) {
        *s += 1;
        ctx.add_cycles(500);
        let next = (ctx.tile + 7) % ctx.grid().total_tiles;
        if s.is_multiple_of(4) {
            ctx.send(0, next, &[*s]);
        }
    }
}

/// Runs `app` at the given thread count with leaping on or off and
/// returns the full observable outcome.
fn leap_run<A: Application + Clone>(
    app: &A,
    leap: bool,
    threads: usize,
) -> muchisim_core::SimResult {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(64)
        .time_leap(leap)
        .build()
        .unwrap();
    Simulation::new(cfg, app.clone())
        .unwrap()
        .run_parallel(threads)
        .unwrap()
}

#[test]
fn time_leap_is_bit_identical_to_lockstep() {
    for threads in [1usize, 4] {
        let off = leap_run(&LongTasks, false, threads);
        let on = leap_run(&LongTasks, true, threads);
        assert_eq!(on.runtime_cycles, off.runtime_cycles, "{threads} threads");
        assert_eq!(on.counters, off.counters, "{threads} threads");
        assert_eq!(on.frames, off.frames, "{threads} threads");
    }
}

#[test]
fn time_leap_skips_host_work_on_idle_stretches() {
    // not a wall-clock assertion (too flaky for CI): leaping must leave
    // runtime_cycles far above the number of frames it actually stepped
    // through, proving jumps happened, while frames stay backfilled
    #[derive(Clone)]
    struct Sparse;
    impl Application for Sparse {
        type Tile = u32;
        fn name(&self) -> &'static str {
            "sparse"
        }
        fn task_types(&self) -> u8 {
            1
        }
        fn make_tile(&self, _t: u32, _g: &GridInfo) -> u32 {
            0
        }
        fn init(&self, _s: &mut u32, ctx: &mut TaskCtx<'_>) {
            if ctx.tile == 0 {
                ctx.add_cycles(50_000); // one huge task
                ctx.send(0, 1, &[1]);
            }
        }
        fn handle(&self, s: &mut u32, _t: u8, _m: &[u32], _ctx: &mut TaskCtx<'_>) {
            *s += 1;
        }
    }
    let on = leap_run(&Sparse, true, 1);
    let off = leap_run(&Sparse, false, 1);
    assert!(on.runtime_cycles > 50_000);
    assert_eq!(on.runtime_cycles, off.runtime_cycles);
    assert_eq!(on.frames, off.frames);
    // the 50k-cycle gap crosses hundreds of 64-cycle frame boundaries,
    // all of which must have been backfilled
    assert!(on.frames.len() > 500, "frames: {}", on.frames.len());
}

#[test]
fn kernel_end_frame_never_duplicated() {
    // sweeping the frame interval guarantees some interval lands the
    // kernel drain exactly on a frame boundary (the seed pushed an empty
    // duplicate frame with a repeated start_cycle there). Within this
    // sweep range every kernel spans several frame intervals, so frame
    // starts must be strictly increasing; at intervals longer than a
    // whole kernel the kernel-end flush intentionally emits one partial
    // frame per kernel (same window, that kernel's deltas) instead.
    for interval in 1..=24u64 {
        for leap in [false, true] {
            let cfg = SystemConfig::builder()
                .chiplet_tiles(4, 4)
                .verbosity(Verbosity::V1)
                .frame_interval_cycles(interval)
                .time_leap(leap)
                .build()
                .unwrap();
            let result = Simulation::new(cfg, Relay { hops: 40 })
                .unwrap()
                .run()
                .unwrap();
            let starts: Vec<u64> = result.frames.frames.iter().map(|f| f.start_cycle).collect();
            for w in starts.windows(2) {
                assert!(
                    w[0] < w[1],
                    "duplicate/unordered frame starts {starts:?} at interval {interval} leap {leap}"
                );
            }
        }
    }
    // multi-kernel: the boundary case must also hold across kernel barriers
    for interval in 1..=8u64 {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .verbosity(Verbosity::V1)
            .frame_interval_cycles(interval)
            .build()
            .unwrap();
        let result = Simulation::new(cfg, DoAll).unwrap().run().unwrap();
        let starts: Vec<u64> = result.frames.frames.iter().map(|f| f.start_cycle).collect();
        for w in starts.windows(2) {
            assert!(
                w[0] < w[1],
                "kernel-boundary duplicate {starts:?} at {interval}"
            );
        }
    }
}

#[test]
fn multiple_pus_per_tile_increase_throughput() {
    // one tile receives many independent tasks; more PUs -> shorter runtime
    struct Busy;
    impl Application for Busy {
        type Tile = u32;
        fn name(&self) -> &'static str {
            "busy"
        }
        fn task_types(&self) -> u8 {
            1
        }
        fn make_tile(&self, _t: u32, _g: &GridInfo) -> u32 {
            0
        }
        fn init(&self, _s: &mut u32, ctx: &mut TaskCtx<'_>) {
            if ctx.tile == 1 {
                for i in 0..32 {
                    ctx.send(0, 0, &[i]);
                }
            }
        }
        fn handle(&self, s: &mut u32, _t: u8, _m: &[u32], ctx: &mut TaskCtx<'_>) {
            *s += 1;
            ctx.add_cycles(500); // long task
        }
    }
    let run = |pus: u32| {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .pus_per_tile(pus)
            .build()
            .unwrap();
        Simulation::new(cfg, Busy)
            .unwrap()
            .run()
            .unwrap()
            .runtime_cycles
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four * 2 < one,
        "4 PUs ({four} cycles) should be much faster than 1 PU ({one} cycles)"
    );
}
