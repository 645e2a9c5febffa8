//! Scripted-injection behavior: applications that drive the NoC on a
//! fixed timetable ([`Application::scheduled_sends`]) instead of through
//! the PU/channel-queue path.

use muchisim_config::SystemConfig;
use muchisim_core::{
    Application, GridInfo, Payload, ScheduledSend, SendStream, SimResult, Simulation, TaskCtx,
};

/// Every tile sends `per_tile` packets to the next tile (ring), one
/// every `gap` cycles starting at `start`.
struct RingSchedule {
    per_tile: u64,
    gap: u64,
    start: u64,
}

impl Application for RingSchedule {
    type Tile = u64; // messages received

    fn name(&self) -> &'static str {
        "ring-schedule"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u64 {
        0
    }

    fn init(&self, _state: &mut u64, _ctx: &mut TaskCtx<'_>) {}

    fn handle(&self, state: &mut u64, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        *state += 1;
        ctx.int_ops(1);
        assert_eq!(msg[1], 0xBEEF);
    }

    fn scheduled_sends(&self, tile: u32, grid: &GridInfo) -> SendStream {
        let dst = (tile + 1) % grid.total_tiles;
        Box::new(
            (0..self.per_tile)
                .map(|i| ScheduledSend {
                    cycle: self.start + i * self.gap,
                    dst,
                    task: 0,
                    payload: Payload::from_slice(&[tile, 0xBEEF]),
                    reduce: None,
                })
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    fn check(&self, tiles: &[u64]) -> Result<(), String> {
        let total: u64 = tiles.iter().sum();
        let want = self.per_tile * tiles.len() as u64;
        (total == want)
            .then_some(())
            .ok_or(format!("delivered {total}, scheduled {want}"))
    }
}

fn run(leap: bool, threads: usize) -> SimResult {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .time_leap(leap)
        .build()
        .unwrap();
    let app = RingSchedule {
        per_tile: 8,
        gap: 50,
        start: 10,
    };
    Simulation::new(cfg, app)
        .unwrap()
        .run_parallel(threads)
        .unwrap()
}

#[test]
fn scheduled_sends_deliver_and_dispatch_handlers() {
    let r = run(true, 1);
    assert!(r.check_error.is_none(), "{:?}", r.check_error);
    assert_eq!(r.counters.noc.injected, 16 * 8);
    assert_eq!(r.counters.noc.ejected, 16 * 8);
    // every delivery dispatched a handler (plus one init task per tile)
    assert_eq!(r.counters.pu.tasks_executed, 16 * 8 + 16);
    // the run spans the whole timetable: last send at cycle 10 + 7*50
    assert!(r.runtime_cycles > 360, "runtime {}", r.runtime_cycles);
}

#[test]
fn latency_counts_every_scheduled_packet() {
    let r = run(true, 1);
    assert_eq!(r.noc_latency.count, 16 * 8);
    // ring neighbor: 1 hop (or the mesh wrap path), all short but nonzero
    assert!(r.noc_latency.mean() >= 1.0);
    assert!(r.noc_latency.max_cycles < 100);
    assert!(r.noc_latency.percentile(0.5) >= 1);
}

#[test]
fn scripted_runs_are_bit_identical_across_leap_and_threads() {
    let base = run(true, 1);
    for (leap, threads) in [(false, 1), (true, 4), (false, 4)] {
        let mut other = run(leap, threads);
        assert_eq!(
            base.runtime_cycles, other.runtime_cycles,
            "{leap}/{threads}"
        );
        assert_eq!(base.noc_latency, other.noc_latency, "{leap}/{threads}");
        // `onchip_flit_mm` is an f64 partial sum whose grouping follows
        // the shard split; it is equal to rounding across thread counts
        // and exactly equal at equal thread counts (like all counters)
        let (a, b) = (
            base.counters.noc.onchip_flit_mm,
            other.counters.noc.onchip_flit_mm,
        );
        assert!((a - b).abs() < 1e-9 * a.max(1.0), "{leap}/{threads}");
        other.counters.noc.onchip_flit_mm = a;
        assert_eq!(base.counters, other.counters, "{leap}/{threads}");
    }
}

/// Every tile sends `per_tile` four-word packets, all due at cycle 0, to
/// the tiles after it in turn, alternating between two task types — on
/// two NoC planes, one per task type.
struct Burst {
    per_tile: u32,
}

impl Application for Burst {
    type Tile = u64; // messages received

    fn name(&self) -> &'static str {
        "burst-schedule"
    }

    fn task_types(&self) -> u8 {
        2
    }

    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u64 {
        0
    }

    fn init(&self, _state: &mut u64, _ctx: &mut TaskCtx<'_>) {}

    fn handle(&self, state: &mut u64, _task: u8, _msg: &[u32], ctx: &mut TaskCtx<'_>) {
        *state += 1;
        ctx.int_ops(1);
    }

    fn scheduled_sends(&self, tile: u32, grid: &GridInfo) -> SendStream {
        Box::new(
            (0..self.per_tile)
                .map(|i| ScheduledSend {
                    cycle: 0,
                    dst: (tile + 1 + i % (grid.total_tiles - 1)) % grid.total_tiles,
                    task: (i % 2) as u8,
                    payload: Payload::from_slice(&[tile, i, 0, 0]),
                    reduce: None,
                })
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    fn check(&self, tiles: &[u64]) -> Result<(), String> {
        let total: u64 = tiles.iter().sum();
        let want = u64::from(self.per_tile) * tiles.len() as u64;
        (total == want)
            .then_some(())
            .ok_or(format!("delivered {total}, scheduled {want}"))
    }
}

/// A burst that outruns the inject queues (4 flits each, one 3-flit
/// packet at a time): refused sends wait for credit on one plane while
/// the other plane's queue takes theirs, a timetable head refused on one
/// plane holds back the sends behind it on the other, and deliveries
/// reach tiles asleep on inject credit. Retrying every
/// refused send every cycle (the test hook), leaping or not, and on any
/// thread count, the run is the same.
#[test]
fn a_burst_past_the_inject_queues_waits_for_credit_on_two_planes() {
    let run = |leap: bool, threads: usize, retry: bool| {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .queues(4, 2)
            .physical_nocs(2)
            .time_leap(leap)
            .build()
            .unwrap();
        let sim = Simulation::new(cfg, Burst { per_tile: 12 }).unwrap();
        let sim = if retry {
            sim.forget_stall_memos_every_cycle()
        } else {
            sim
        };
        let r = sim.run_parallel(threads).unwrap();
        assert!(r.check_error.is_none(), "{:?}", r.check_error);
        r
    };
    let base = run(true, 1, false);
    assert_eq!(base.counters.noc.injected, 16 * 12);
    // the last send of a tile left its source queue only after the 11
    // before it had drained through the inject queues
    assert!(base.noc_latency.max_cycles > 12, "{:?}", base.noc_latency);
    for (leap, threads, retry) in [(true, 1, true), (false, 1, false), (false, 2, true)] {
        let mut other = run(leap, threads, retry);
        let key = format!("leap {leap}, {threads} threads, retry {retry}");
        assert_eq!(base.runtime_cycles, other.runtime_cycles, "{key}");
        assert_eq!(base.noc_latency, other.noc_latency, "{key}");
        let (a, b) = (
            base.counters.noc.onchip_flit_mm,
            other.counters.noc.onchip_flit_mm,
        );
        assert!((a - b).abs() < 1e-9 * a.max(1.0), "{key}");
        other.counters.noc.onchip_flit_mm = a;
        assert_eq!(base.counters, other.counters, "{key}");
    }
}
