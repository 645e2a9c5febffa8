//! The stall watchdog catches a deliberately wedged run.
//!
//! The app below sends one message to a task type whose input-queue
//! capacity is overridden to zero: the packet crosses the NoC, can never
//! eject into the full queue, and parks at the destination router
//! forever. No task executes and no flit moves from then on — the run is
//! wedged, not quiescent (a parked packet is pending work), so without a
//! watchdog it would spin forever. The stall ward must trip
//! with a diagnostic report that names the wedged tile.

use muchisim::config::SystemConfig;
use muchisim::core::{
    Application, GridInfo, MemorySubscriber, SimError, Simulation, SoftwareConfig, TaskCtx,
};

/// One message to an unservable task type; see the module docs.
struct WedgedApp;

impl Application for WedgedApp {
    type Tile = u32;
    fn name(&self) -> &'static str {
        "wedged"
    }
    fn task_types(&self) -> u8 {
        2
    }
    fn configure(&self, sw: &mut SoftwareConfig) {
        // task 1 can never be delivered anywhere
        sw.iq_capacity_override.push((1, 0));
    }
    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u32 {
        0
    }
    fn init(&self, _state: &mut u32, ctx: &mut TaskCtx<'_>) {
        if ctx.tile == 0 {
            ctx.int_ops(1);
            let last = ctx.grid().total_tiles - 1;
            ctx.send(1, last, &[42]);
        }
    }
    fn handle(&self, state: &mut u32, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        *state += msg[0];
        ctx.int_ops(1);
    }
}

fn wedged_config(stall_cycles: u64, sample_every: u64) -> SystemConfig {
    let mut cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .build()
        .expect("valid config");
    cfg.telemetry.sample_every = Some(sample_every);
    cfg.telemetry.wards.stall_cycles = Some(stall_cycles);
    cfg
}

#[test]
fn stall_watchdog_trips_on_a_wedged_run_with_diagnostics() {
    let cfg = wedged_config(1_000, 32);
    let wedged_tile = cfg.total_tiles() as u32 - 1;
    let err = Simulation::new(cfg, WedgedApp)
        .expect("simulation builds")
        .run_parallel(2)
        .expect_err("a wedged run must not finish");
    let SimError::Ward(report) = err else {
        panic!("expected SimError::Ward, got: {err}");
    };
    assert_eq!(report.ward, "stall");
    assert!(
        report.cycle >= 1_000,
        "the watchdog cannot trip before its span elapses (tripped at {})",
        report.cycle
    );
    assert!(
        report.detail.contains("stall") || !report.detail.is_empty(),
        "trip detail must say what happened: {:?}",
        report.detail
    );
    // the diagnostic names the wedged tile: the undeliverable packet is
    // parked in its router
    let diag = report
        .tiles
        .iter()
        .find(|d| d.tile == wedged_tile)
        .unwrap_or_else(|| {
            panic!(
                "diagnostics must include wedged tile {wedged_tile}, got: {:?}",
                report.tiles
            )
        });
    assert!(
        diag.parked_packets > 0,
        "the parked packet is the backlog: {diag:?}"
    );
    // the partial result is attached and labeled
    let partial = report.partial.as_ref().expect("partial result attached");
    assert_eq!(partial.termination, "ward:stall");
    assert_eq!(partial.termination_label(), "ward:stall");
    assert!(partial.runtime_cycles >= 1_000);
    // no snapshot was configured, so none may be claimed
    assert!(report.snapshot_path.is_none());
    assert!(report.snapshot_error.is_none());
    // the report renders human-readably (this is what the CLI prints)
    let text = report.to_string();
    assert!(text.contains("stall"), "{text}");
    assert!(text.contains(&format!("tile {wedged_tile}")), "{text}");
}

/// The same wedge trips at the same simulated cycle regardless of host
/// thread count, leap mode, and cadence-aligned subscriber presence —
/// ward decisions read only deterministic sample fields.
#[test]
fn stall_trip_cycle_is_deterministic() {
    let mut trips = Vec::new();
    for (threads, leap) in [(1usize, true), (2, true), (1, false)] {
        let mut cfg = wedged_config(500, 25);
        cfg.time_leap = leap;
        let memory = MemorySubscriber::new();
        let samples = memory.samples();
        let err = Simulation::new(cfg, WedgedApp)
            .expect("simulation builds")
            .with_subscriber(Box::new(memory))
            .run_parallel(threads)
            .expect_err("wedged");
        let SimError::Ward(report) = err else {
            panic!("expected ward trip");
        };
        assert_eq!(report.ward, "stall");
        let n_samples = samples.lock().expect("samples lock").len();
        assert!(n_samples > 0, "the stream ran up to the trip");
        trips.push((threads, leap, report.cycle));
    }
    let first = trips[0].2;
    assert!(
        trips.iter().all(|&(_, _, c)| c == first),
        "trip cycles diverged across hosts: {trips:?}"
    );
}
