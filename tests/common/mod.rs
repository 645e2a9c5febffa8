//! `Mill`: a two-task-type application built to reach the tile queue
//! paths the suite apps leave cold. Shared by the golden-trace rows
//! (`MILL-*` in `golden_traces.rs`) and the snapshot pins (`mill/*` in
//! `snapshot_format.rs`).
//!
//! Every tile but 0 sends itself two local kicks. A kick computes for
//! 600 cycles and then bursts 12 messages at tile 0 — task-0 pairs from
//! the first kick, eight-word (heap-spilled) task-1 messages from the
//! second. That reaches, in order:
//!
//! * **CQ over capacity across a leap**: while the first kick runs, the
//!   second waits in the IQ and 12 immature messages sit in a CQ of
//!   capacity 8, so `cq_stall_cycles` ticks on every cycle of a stretch
//!   the leaping driver skips in one jump;
//! * **inject refusal** (the CQ head stays queued and retries): the
//!   burst matures within a few cycles and outruns the inject queue;
//! * **IQ-full eject refusal**: tile 0 consumes slowly behind IQs of
//!   capacity 4, so `eject_stalls` counts refused ejections;
//! * **scheduling with two occupied banks**: tile 0's task-0 handler
//!   feeds its own task-1 queue with local sends, so `Priority` and
//!   `OccupancyBased` pick differently from round-robin;
//! * **allocated-but-empty banks in a snapshot**: the 15 senders drain
//!   long before tile 0 does, so a mid-run snapshot holds tiles whose
//!   queue banks were used and are empty again.

use muchisim::config::{DramConfig, SchedulingPolicy, SystemConfig, Verbosity};
use muchisim::core::{Application, GridInfo, TaskCtx};

/// Messages per kick.
pub const BURST: u32 = 12;
/// PU cycles a kick computes before it sends.
pub const KICK_CYCLES: u64 = 600;

#[derive(Debug, Clone, Copy)]
pub struct Mill;

impl Application for Mill {
    /// Messages handled per task type.
    type Tile = [u64; 2];

    fn name(&self) -> &'static str {
        "mill"
    }
    fn task_types(&self) -> u8 {
        2
    }
    fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> [u64; 2] {
        [0; 2]
    }
    fn init(&self, _state: &mut [u64; 2], ctx: &mut TaskCtx<'_>) {
        if ctx.tile != 0 {
            ctx.int_ops(1);
            ctx.send(0, ctx.tile, &[0]);
            ctx.send(0, ctx.tile, &[1]);
        }
    }
    fn handle(&self, state: &mut [u64; 2], task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        state[task as usize] += 1;
        match (task, ctx.tile) {
            (0, 0) => {
                ctx.int_ops(10);
                if msg[1].is_multiple_of(4) {
                    ctx.send(1, 0, &[msg[0], msg[1]]);
                }
            }
            (0, tile) => {
                ctx.add_cycles(KICK_CYCLES);
                for i in 0..BURST {
                    if msg[0] == 0 {
                        ctx.send(0, 0, &[tile, i]);
                    } else {
                        ctx.send(1, 0, &[tile, i, 2, 3, 4, 5, 6, 7]);
                    }
                }
            }
            _ => {
                ctx.int_ops(5);
                ctx.load(ctx.local_addr(0, u64::from(msg[1]), 4));
            }
        }
    }
    fn check(&self, tiles: &[[u64; 2]]) -> Result<(), String> {
        let senders = tiles.len() as u64 - 1;
        let burst = u64::from(BURST);
        let want = [senders * burst, senders * (burst + burst / 4)];
        if tiles[0] == want && tiles[1..].iter().all(|t| *t == [2, 0]) {
            Ok(())
        } else {
            Err(format!("tile 0 handled {:?}, expected {want:?}", tiles[0]))
        }
    }
}

/// The 4x4 mesh `Mill` runs on: shallow queues (IQ 4, CQ 8) so every
/// capacity rule binds, under `policy`, on a scratchpad or a cache.
pub fn mill_config(policy: SchedulingPolicy, cache: bool) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(4, 4)
        .queues(4, 8)
        .scheduling(policy)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(64);
    if cache {
        b.sram_kib_per_tile(4).dram(DramConfig::default());
    }
    b.build().expect("valid mill config")
}

/// The three TSU policies, by the label their rows carry.
pub fn mill_policies() -> [(&'static str, SchedulingPolicy); 3] {
    [
        ("rr", SchedulingPolicy::RoundRobin),
        ("priority", SchedulingPolicy::Priority(vec![1])),
        ("occupancy", SchedulingPolicy::OccupancyBased),
    ]
}
