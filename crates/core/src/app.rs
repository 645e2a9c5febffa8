//! The application-description API (paper §III-B).

use crate::snapshot::TileState;
use crate::tile::{materialize, TileCold};
use muchisim_mem::{AccessKind, ChannelState, TileMemory};
use muchisim_noc::{Payload, ReduceOp};
use serde::{Deserialize, Serialize};

/// Virtual address-space bytes reserved per tile.
///
/// The global address space is contiguous with each tile's PLM assigned a
/// chunk (paper §III-B); 16 MiB of virtual span per tile is far above any
/// physical PLM, so per-tile arrays never alias.
pub(crate) const TILE_SPAN_BYTES: u64 = 16 << 20;

/// Grid geometry visible to tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridInfo {
    /// Grid width in tiles.
    pub width: u32,
    /// Grid height in tiles.
    pub height: u32,
    /// Total tiles.
    pub total_tiles: u32,
    /// PUs per tile.
    pub pus_per_tile: u32,
}

impl GridInfo {
    /// Base virtual address of `tile`'s chunk of the global address space.
    fn tile_base(&self, tile: u32) -> u64 {
        tile as u64 * TILE_SPAN_BYTES
    }

    /// The virtual address of element `local_index` (of `elem_bytes`-sized
    /// elements) within `tile`'s copy of logical array `array_id`.
    ///
    /// Arrays are laid out consecutively in the tile's chunk, each given a
    /// fixed 2 MiB region — a simple deterministic layout matching the
    /// paper's per-tile scatter of every dataset array.
    pub fn array_addr(&self, tile: u32, array_id: u32, local_index: u64, elem_bytes: u64) -> u64 {
        self.tile_base(tile) + array_id as u64 * (2 << 20) + local_index * elem_bytes
    }
}

/// Software-configurable DUT parameters an application may override in its
/// `config_` hook (paper §III-B "Configuration functions").
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SoftwareConfig {
    /// Per-task-type input-queue capacity overrides (task id, messages).
    pub iq_capacity_override: Vec<(u8, u32)>,
}

/// A pre-scheduled NoC injection: a packet the engine injects for a tile
/// at a fixed NoC cycle, bypassing the PU/channel-queue path entirely.
///
/// This is the workload-generation primitive behind synthetic traffic and
/// trace replay (the `muchisim-traffic` crate): the injection schedule is
/// a [`SendStream`] the engine draws from as it injects, so the tile's PU
/// stays free to drain deliveries at full speed, injection timing is
/// exact, and the timetable costs memory for its next send only. When
/// the tile's inject queue is full at the scheduled cycle the send waits
/// at the head of its tile's schedule and retries — source queueing
/// delay that the latency statistics deliberately include (the packet's
/// `born` stamp is the *scheduled* cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledSend {
    /// NoC cycle at which to inject (absolute, from the start of the run).
    pub cycle: u64,
    /// Destination tile.
    pub dst: u32,
    /// Destination task type (also selects the NoC plane).
    pub task: u8,
    /// Payload words.
    pub payload: Payload,
    /// Optional in-network reduction.
    pub reduce: Option<ReduceOp>,
}

/// A tile's injection timetable as an exact-size stream of sends, in
/// non-decreasing cycle order (see [`Application::scheduled_sends`]).
pub type SendStream = Box<dyn ExactSizeIterator<Item = ScheduledSend> + Send>;

/// An outgoing message recorded by a task.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutMsg {
    /// Destination tile.
    pub dst: u32,
    /// Destination task type.
    pub task: u8,
    /// Payload words.
    pub payload: Payload,
    /// PU cycle (within the sending tile's clock) at which the message
    /// was pushed.
    pub at_pu_cycle: u64,
    /// Optional in-network reduction.
    pub reduce: Option<ReduceOp>,
}

/// Execution context handed to task handlers: latency instrumentation,
/// memory access, and message sending.
///
/// The handler runs *functionally* on the host; every instrumentation call
/// advances the simulated PU clock for this task. The first call that
/// counts an op, accesses memory or sends materializes the tile's cold
/// state (see `TileCold`): a task that does none of that leaves its tile
/// without one.
#[derive(Debug)]
pub struct TaskCtx<'a> {
    /// The executing tile.
    pub tile: u32,
    /// The kernel index (paper: `kernel_count`).
    pub kernel: u32,
    grid: GridInfo,
    /// PU cycle at which the task started.
    start_cycle: u64,
    /// Cycles accrued so far.
    cycles: u64,
    cold: &'a mut Option<Box<TileCold>>,
    mem_proto: &'a TileMemory,
    channel: Option<&'a mut ChannelState>,
    sends: &'a mut Vec<OutMsg>,
}

impl<'a> TaskCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        tile: u32,
        kernel: u32,
        grid: GridInfo,
        start_cycle: u64,
        cold: &'a mut Option<Box<TileCold>>,
        mem_proto: &'a TileMemory,
        channel: Option<&'a mut ChannelState>,
        sends: &'a mut Vec<OutMsg>,
    ) -> Self {
        TaskCtx {
            tile,
            kernel,
            grid,
            start_cycle,
            cycles: 0,
            cold,
            mem_proto,
            channel,
            sends,
        }
    }

    /// Grid geometry.
    pub fn grid(&self) -> GridInfo {
        self.grid
    }

    /// PU cycles accrued by this task so far.
    pub(crate) fn elapsed_cycles(&self) -> u64 {
        self.cycles
    }

    /// Adds raw cycles from a user-provided performance model.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Counts `n` integer ALU ops (1 cycle each on the in-order PU model).
    pub fn int_ops(&mut self, n: u64) {
        materialize(self.cold, self.mem_proto).counters.int_ops += n;
        self.cycles += n;
    }

    /// Counts `n` floating-point ops (1 cycle each, pipelined FPU).
    pub fn fp_ops(&mut self, n: u64) {
        materialize(self.cold, self.mem_proto).counters.fp_ops += n;
        self.cycles += n;
    }

    /// Counts `n` control-flow instructions.
    pub fn ctrl_ops(&mut self, n: u64) {
        materialize(self.cold, self.mem_proto).counters.ctrl_ops += n;
        self.cycles += n;
    }

    /// Counts `n` application-level work units (edges traversed, non-zeros
    /// multiplied, elements processed) for TEPS-style throughput.
    pub fn app_ops(&mut self, n: u64) {
        materialize(self.cold, self.mem_proto).counters.app_ops += n;
    }

    /// Performs a load at `addr`; the latency (hit/miss/contention
    /// dependent) is added to the task's cycles.
    pub fn load(&mut self, addr: u64) {
        let now = self.start_cycle + self.cycles;
        let cold = materialize(self.cold, self.mem_proto);
        cold.counters.loads += 1;
        self.cycles += cold
            .mem
            .access(addr, AccessKind::Read, now, self.channel.as_deref_mut());
    }

    /// Performs a store at `addr`.
    pub fn store(&mut self, addr: u64) {
        let now = self.start_cycle + self.cycles;
        let cold = materialize(self.cold, self.mem_proto);
        cold.counters.stores += 1;
        self.cycles += cold
            .mem
            .access(addr, AccessKind::Write, now, self.channel.as_deref_mut());
    }

    /// Virtual address of `local_index` in this tile's logical array
    /// `array_id` (convenience over [`GridInfo::array_addr`]).
    pub fn local_addr(&self, array_id: u32, local_index: u64, elem_bytes: u64) -> u64 {
        self.grid
            .array_addr(self.tile, array_id, local_index, elem_bytes)
    }

    /// Sends a message invoking `task` on tile `dst`.
    ///
    /// Local sends (dst == this tile) bypass the network; remote sends
    /// drain through the per-task channel queue into the NoC.
    pub fn send(&mut self, task: u8, dst: u32, payload: &[u32]) {
        self.send_inner(task, dst, payload, None);
    }

    /// Sends a reducible message: en route, it may combine with another
    /// message for the same task, tile and key (payload word 0), with
    /// `op` merging the value (payload word 1).
    pub fn send_reduce(&mut self, task: u8, dst: u32, payload: &[u32], op: ReduceOp) {
        self.send_inner(task, dst, payload, Some(op));
    }

    fn send_inner(&mut self, task: u8, dst: u32, payload: &[u32], reduce: Option<ReduceOp>) {
        // pushing into a queue costs a store-like queue write
        let cold = materialize(self.cold, self.mem_proto);
        cold.counters.msgs_sent += 1;
        self.cycles += cold.mem.queue_write(payload.len().max(1) as u64);
        self.sends.push(OutMsg {
            dst,
            task,
            payload: Payload::from_slice(payload),
            at_pu_cycle: self.start_cycle + self.cycles,
            reduce,
        });
    }
}

/// A MuchiSim application: a set of message-triggered task handlers plus
/// an init task, operating on per-tile state (paper §III-B).
///
/// The application object itself is shared immutably across host threads
/// (read-only dataset, parameters); all mutable state lives in
/// [`Application::Tile`] values, one per tile, which the engine owns and
/// hands back to handlers. This makes column-parallel simulation safe by
/// construction.
pub trait Application: Sync + Send {
    /// Mutable per-tile state (the tile's partition of the dataset
    /// outputs, frontiers, accumulators, ...), described once for
    /// snapshots and the footprint figure by [`TileState`].
    type Tile: Send + TileState;

    /// Application name (for logs and reports).
    fn name(&self) -> &'static str;

    /// Number of message-triggered task types (ids `0..task_types`).
    fn task_types(&self) -> u8;

    /// Number of kernels executed in sequence with global barriers
    /// between them (paper §III-B "Init task").
    fn kernels(&self) -> u32 {
        1
    }

    /// Task-invocation edges `(from, to)` used to verify the dependency
    /// chain is acyclic (paper §III-B: loops between MTTs are not allowed).
    fn task_graph(&self) -> Vec<(u8, u8)> {
        Vec::new()
    }

    /// Software-parameter overrides: per-task input-queue capacities.
    fn configure(&self, _sw: &mut SoftwareConfig) {}

    /// Builds the initial per-tile state.
    fn make_tile(&self, tile: u32, grid: &GridInfo) -> Self::Tile;

    /// Pre-scheduled NoC injections for `tile`, in non-decreasing cycle
    /// order, drawn front to back during kernel 0 as they come due.
    ///
    /// The default — no scheduled sends — costs ordinary applications
    /// nothing. Implementations drive the network directly on a fixed
    /// timetable: synthetic traffic patterns and recorded-trace replay.
    /// Scheduled packets still occupy inject queues, arbitrate, back-
    /// pressure, and eject into input queues that dispatch
    /// [`Application::handle`] like any other message.
    ///
    /// The engine keeps only a stream's next send. Every call for a tile
    /// must yield the same sends: a snapshot writes a tile's remaining
    /// sends by drawing its stream again and skipping those already
    /// injected, and a restore checks the snapshot's sends against it.
    fn scheduled_sends(&self, _tile: u32, _grid: &GridInfo) -> SendStream {
        Box::new(std::iter::empty())
    }

    /// The init task, run once per tile at the start of each kernel.
    fn init(&self, state: &mut Self::Tile, ctx: &mut TaskCtx<'_>);

    /// Handles one message-triggered task.
    fn handle(&self, state: &mut Self::Tile, task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>);

    /// The first memory address a queued `task` message will touch, used
    /// by the TSU to prefetch across one pointer indirection while the
    /// message waits in the input queue (paper §III-A "Prefetching").
    ///
    /// Only consulted when the DRAM configuration enables
    /// pointer-indirection prefetching; `None` disables it for this task.
    fn prefetch_addr(&self, _task: u8, _msg: &[u32], _tile: u32, _grid: &GridInfo) -> Option<u64> {
        None
    }

    /// Verifies the final result against a reference (paper §III-B
    /// "Result-check function").
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the mismatch.
    fn check(&self, _tiles: &[Self::Tile]) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::SystemConfig;

    fn grid() -> GridInfo {
        GridInfo {
            width: 4,
            height: 4,
            total_tiles: 16,
            pus_per_tile: 1,
        }
    }

    #[test]
    fn tile_addresses_never_alias() {
        let g = grid();
        let a = g.array_addr(0, 7, (2 << 20) / 4 - 1, 4);
        let b = g.array_addr(1, 0, 0, 4);
        assert!(a < b);
        assert!(g.tile_base(1) - g.tile_base(0) == TILE_SPAN_BYTES);
    }

    #[test]
    fn ctx_instrumentation_accrues_cycles() {
        let mem = TileMemory::from_system(&SystemConfig::default());
        let (mut cold, mut sends) = (None, Vec::new());
        let mut ctx = TaskCtx::new(0, 0, grid(), 100, &mut cold, &mem, None, &mut sends);
        ctx.add_cycles(0);
        assert!(
            ctx.cold.is_none(),
            "nothing counted yet: nothing materialized"
        );
        ctx.int_ops(3);
        ctx.fp_ops(2);
        ctx.ctrl_ops(1);
        ctx.add_cycles(4);
        assert_eq!(ctx.elapsed_cycles(), 10);
        ctx.load(0x100);
        assert!(ctx.elapsed_cycles() > 10);
        let counters = cold.expect("materialized by the first op").counters;
        assert_eq!(counters.int_ops, 3);
        assert_eq!(counters.fp_ops, 2);
        assert_eq!(counters.loads, 1);
    }

    #[test]
    fn ctx_send_records_timestamped_message() {
        let mem = TileMemory::from_system(&SystemConfig::default());
        let (mut cold, mut sends) = (None, Vec::new());
        let mut ctx = TaskCtx::new(0, 0, grid(), 50, &mut cold, &mem, None, &mut sends);
        ctx.int_ops(5);
        ctx.send(1, 9, &[1, 2]);
        assert_eq!(sends.len(), 1);
        let m = &sends[0];
        assert_eq!(m.dst, 9);
        assert_eq!(m.task, 1);
        assert_eq!(m.payload.as_slice(), &[1, 2]);
        // sent after the 5 compute cycles plus the queue write
        assert!(m.at_pu_cycle > 55);
        assert_eq!(cold.expect("materialized").counters.msgs_sent, 1);
    }

    #[test]
    fn send_reduce_tags_operator() {
        let mem = TileMemory::from_system(&SystemConfig::default());
        let (mut cold, mut sends) = (None, Vec::new());
        let mut ctx = TaskCtx::new(0, 0, grid(), 0, &mut cold, &mem, None, &mut sends);
        ctx.send_reduce(0, 3, &[9, 5], ReduceOp::MinU32);
        assert_eq!(sends[0].reduce, Some(ReduceOp::MinU32));
    }
}
