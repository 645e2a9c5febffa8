//! # muchisim-core
//!
//! The MuchiSim simulation engine (paper §III-B / §III-C).
//!
//! Applications are described as a set of *message-triggered tasks*
//! (MTTs): each task type has an input queue (IQ) per tile, and tasks
//! invoke each other by sending small messages, either locally (straight
//! into the destination IQ) or through the cycle-level NoC via per-task
//! channel queues (CQs). An *init task* runs once per tile at the start of
//! each kernel; kernels compose into an application with global barriers
//! between them. Both parallelization extremes are supported: pure do-all
//! kernels (everything in the init task) and pure MTT cascades seeded by a
//! single message.
//!
//! Compute is executed *functionally on the host*: task handlers run real
//! Rust code against their tile's partition of the dataset, and report
//! their DUT latency through the instrumentation methods of [`TaskCtx`]
//! ([`TaskCtx::int_ops`], [`TaskCtx::load`], ...), exactly the
//! user-instrumented PU model of the paper. Memory operations go through
//! [`muchisim_mem::TileMemory`], so their latency is hit/miss- and
//! contention-dependent.
//!
//! The engine advances the NoC every cycle; PUs run ahead of the network,
//! with message timestamps keeping the two consistent (paper §III-C). The
//! [`Simulation::run`] driver is single-threaded; [`Simulation::run_parallel`]
//! slices the tile grid by columns across host threads (one shard per
//! thread) and produces **bit-identical** results. By default the driver
//! is *time-leaping*: every layer holding latent work reports its
//! `next_event_cycle` and the driver jumps over provably event-free cycle
//! ranges, which is again bit-identical to stepping them (disable via
//! `SystemConfig::time_leap` or the `MUCHISIM_NO_LEAP` environment
//! variable to measure the lockstep driver).
//!
//! # Example: ping-pong across the grid
//!
//! ```
//! use muchisim_config::SystemConfig;
//! use muchisim_core::{Application, GridInfo, Simulation, SoftwareConfig, TaskCtx};
//!
//! struct Ping;
//! impl Application for Ping {
//!     type Tile = u32; // messages seen per tile
//!     fn name(&self) -> &'static str { "ping" }
//!     fn task_types(&self) -> u8 { 1 }
//!     fn make_tile(&self, _tile: u32, _grid: &GridInfo) -> u32 { 0 }
//!     fn init(&self, _state: &mut u32, ctx: &mut TaskCtx<'_>) {
//!         if ctx.tile == 0 {
//!             ctx.int_ops(1);
//!             let last = ctx.grid().total_tiles - 1;
//!             ctx.send(0, last, &[7]);
//!         }
//!     }
//!     fn handle(&self, state: &mut u32, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
//!         *state += msg[0];
//!         ctx.int_ops(1);
//!     }
//!     fn check(&self, tiles: &[u32]) -> Result<(), String> {
//!         (tiles.iter().sum::<u32>() == 7).then_some(()).ok_or("lost message".into())
//!     }
//! }
//!
//! let cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
//! let result = Simulation::new(cfg, Ping).unwrap().run().unwrap();
//! assert!(result.runtime_cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod counters;
pub mod digest;
mod engine;
mod error;
mod horizon;
mod parallel;
mod sched;
mod slice;
pub mod snapshot;
mod tile;
mod ward;

pub use app::{Application, GridInfo, OutMsg, ScheduledSend, SoftwareConfig, TaskCtx};
pub use counters::{PuCounters, SimCounters};
pub use engine::Simulation;
pub use error::SimError;
pub use muchisim_noc::{LatencyStats, Payload, ReduceOp, RouterVisits};
pub use muchisim_telemetry::{
    Frame, FrameLog, MemorySubscriber, MetricsSample, Subscriber, WardTrip,
};
pub use tile::{HostPhaseNs, SimResult};
pub use ward::{TileDiag, WardReport};
