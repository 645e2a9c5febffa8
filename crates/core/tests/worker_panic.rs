//! A panic inside one worker thread must end the run with a typed error,
//! not leave the other workers spinning at a barrier forever.

use muchisim_config::SystemConfig;
use muchisim_core::{
    Application, GridInfo, Payload, ScheduledSend, SendStream, SimError, SimResult, Simulation,
    TaskCtx,
};
use std::sync::mpsc;
use std::time::Duration;

/// Every tile messages its ring neighbour once; the handler on tile
/// `bomb` panics.
struct Bomb {
    bomb: u32,
}

impl Application for Bomb {
    type Tile = u32; // own tile id

    fn name(&self) -> &'static str {
        "bomb"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> u32 {
        tile
    }

    fn init(&self, _state: &mut u32, _ctx: &mut TaskCtx<'_>) {}

    fn handle(&self, state: &mut u32, _task: u8, _msg: &[u32], ctx: &mut TaskCtx<'_>) {
        assert!(*state != self.bomb, "task blew up on tile {}", self.bomb);
        ctx.int_ops(1);
    }

    fn scheduled_sends(&self, tile: u32, grid: &GridInfo) -> SendStream {
        Box::new(std::iter::once(ScheduledSend {
            cycle: 10,
            dst: (tile + 1) % grid.total_tiles,
            task: 0,
            payload: Payload::from_slice(&[tile]),
            reduce: None,
        }))
    }

    fn check(&self, _tiles: &[u32]) -> Result<(), String> {
        Ok(())
    }
}

/// Runs the bomb at 2 host threads under a 20 s watchdog.
fn run_with_watchdog(bomb: u32) -> Result<SimResult, SimError> {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
        let sim = Simulation::new(cfg, Bomb { bomb }).unwrap();
        let _ = done.send(sim.run_parallel(2));
    });
    result
        .recv_timeout(Duration::from_secs(20))
        .expect("a worker panicked and the run hung instead of returning an error")
}

#[test]
fn panic_in_a_spawned_worker_is_a_typed_error() {
    // column 3 belongs to worker 1
    match run_with_watchdog(7) {
        Err(SimError::WorkerPanic { worker, message }) => {
            assert_eq!(worker, 1);
            assert!(message.contains("task blew up on tile 7"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn panic_in_the_calling_threads_worker_is_a_typed_error() {
    // column 0 belongs to worker 0, which runs on the caller's thread
    match run_with_watchdog(4) {
        Err(SimError::WorkerPanic { worker, message }) => {
            assert_eq!(worker, 0);
            assert!(message.contains("task blew up on tile 4"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn the_same_app_without_a_bomb_finishes() {
    let result = run_with_watchdog(u32::MAX).expect("no tile panics");
    assert_eq!(result.counters.noc.ejected, 16);
}
