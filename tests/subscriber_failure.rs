//! A telemetry subscriber that fails — or panics — ends the run with a
//! typed error at the leader's next publish, instead of being discovered
//! after the last cycle (or never, on a run that does not end).

use muchisim::config::SystemConfig;
use muchisim::core::{
    Application, GridInfo, MetricsSample, Payload, ScheduledSend, SendStream, SimError, SimResult,
    Simulation, Subscriber, TaskCtx,
};
use std::sync::mpsc;
use std::time::Duration;

/// One message, scheduled four billion cycles out. Sampled every cycle
/// (so no leap shortens the wait) the run outlasts any test timeout —
/// unless something stops it.
struct FarFuture;

impl Application for FarFuture {
    type Tile = ();

    fn name(&self) -> &'static str {
        "far-future"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn make_tile(&self, _tile: u32, _grid: &GridInfo) {}

    fn init(&self, _state: &mut (), _ctx: &mut TaskCtx<'_>) {}

    fn handle(&self, _state: &mut (), _task: u8, _msg: &[u32], ctx: &mut TaskCtx<'_>) {
        ctx.int_ops(1);
    }

    fn scheduled_sends(&self, tile: u32, _grid: &GridInfo) -> SendStream {
        if tile != 0 {
            return Box::new(std::iter::empty());
        }
        Box::new(std::iter::once(ScheduledSend {
            cycle: 4_000_000_000,
            dst: 1,
            task: 0,
            payload: Payload::from_slice(&[7]),
            reduce: None,
        }))
    }

    fn check(&self, _tiles: &[()]) -> Result<(), String> {
        Ok(())
    }
}

/// Fails on its third sample, by error or by panic.
struct Flaky {
    seen: u32,
    panic: bool,
}

impl Subscriber for Flaky {
    fn on_sample(&mut self, _: &MetricsSample) -> Result<(), String> {
        self.seen += 1;
        if self.seen < 3 {
            return Ok(());
        }
        if self.panic {
            panic!("subscriber bug");
        }
        Err("disk full".into())
    }
}

/// Runs `FarFuture` at 2 host threads under a 20 s watchdog, with the
/// `max_cycles` ward armed when a ceiling is given.
fn run_with_watchdog(panic: bool, max_cycles: Option<u64>) -> Result<SimResult, SimError> {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let mut cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
        cfg.telemetry.sample_every = Some(1);
        cfg.telemetry.wards.max_cycles = max_cycles;
        let sim = Simulation::new(cfg, FarFuture)
            .unwrap()
            .with_subscriber(Box::new(Flaky { seen: 0, panic }));
        let _ = done.send(sim.run_parallel(2));
    });
    result
        .recv_timeout(Duration::from_secs(20))
        .expect("the subscriber died and the run simulated on instead of stopping")
}

#[test]
fn a_failing_subscriber_ends_the_run_with_its_error() {
    match run_with_watchdog(false, None) {
        Err(SimError::Telemetry(why)) => assert!(why.contains("disk full"), "{why}"),
        other => panic!("expected a telemetry error, got {other:?}"),
    }
}

#[test]
fn a_panicking_subscriber_is_an_error_not_a_hang() {
    match run_with_watchdog(true, None) {
        Err(SimError::Telemetry(why)) => assert!(why.contains("panicked"), "{why}"),
        other => panic!("expected a telemetry error, got {other:?}"),
    }
}

/// A stream that fails on the sample a ward trips on is named in the
/// ward's report: with `max_cycles = 2` the third sample (cycle 2) is
/// both the failing one and the tripping one, so the subscriber fails
/// after the leader decided to stop, and the teardown has to fold the
/// stream's error into the report rather than drop it.
#[test]
fn a_ward_report_names_the_stream_that_failed_on_its_sample() {
    match run_with_watchdog(false, Some(2)) {
        Err(SimError::Ward(report)) => {
            assert_eq!((report.ward.as_str(), report.cycle), ("max_cycles", 2));
            let why = report.stream_error.as_deref().unwrap_or_default();
            assert!(why.contains("disk full"), "{report}");
            assert!(report.to_string().contains("disk full"), "{report}");
        }
        other => panic!("expected a ward stop, got {other:?}"),
    }
}
