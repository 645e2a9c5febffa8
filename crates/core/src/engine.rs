//! Simulation setup and the sequential driver.

use crate::app::{
    Application, GridInfo, OutMsg, ScheduledSend, SendStream, SoftwareConfig, TaskCtx,
};
use crate::counters::SimCounters;
use crate::error::SimError;
use crate::horizon::ClockConv;
use crate::sched::Scheduler;
use crate::snapshot::{Queued, TileRecord};
use crate::tile::{materialize, HostPhaseNs, SimResult, TileCold};
use muchisim_config::{MemoryConfig, SystemConfig, TimePs, Verbosity};
use muchisim_mem::{ChannelMap, ChannelState, TileMemory};
use muchisim_noc::{
    split_columns, ActiveSet, Arena, ColSlice, EjectSink, InPort, Keep, Network, NetworkParams,
    OutDir, Packet, Payload, QueueLink, Shard, SharedNet,
};
use muchisim_telemetry::{Cadence, Frame, FrameLog};
use std::time::Instant;

/// Maximum task types supported by the engine.
const MAX_TASK_TYPES: u8 = 32;

/// A configured simulation, ready to run.
///
/// Build with [`Simulation::new`], then call [`Simulation::run`]
/// (sequential) or [`Simulation::run_parallel`].
#[derive(Debug)]
pub struct Simulation<A: Application> {
    cfg: SystemConfig,
    app: A,
    /// Extra telemetry subscribers attached via
    /// [`Simulation::with_subscriber`] (tests, embedding hosts), fed by
    /// the same sample stream as the configured file subscribers.
    subscribers: Vec<Box<dyn muchisim_telemetry::Subscriber>>,
    /// Test hook, see [`Simulation::forget_stall_memos_every_cycle`].
    forget_stall_memos: bool,
    /// Test hook, see [`Simulation::resnapshot_on_resume`].
    resnapshot_on_resume: bool,
}

impl<A: Application> Simulation<A> {
    /// Validates the configuration and application and builds a simulation.
    ///
    /// If the `MUCHISIM_NO_LEAP` environment variable is set, the
    /// time-leaping driver is disabled regardless of
    /// `SystemConfig::time_leap` (results are bit-identical either way;
    /// only host time changes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid configurations,
    /// [`SimError::TooManyTaskTypes`], or [`SimError::CyclicTaskGraph`] if
    /// the application's task-invocation graph has a loop (forbidden by
    /// the paper's deadlock-avoidance rule, §III-B).
    pub fn new(mut cfg: SystemConfig, app: A) -> Result<Self, SimError> {
        cfg.validate()?;
        // kill switch for the time-leaping driver: lets CI (and bug
        // bisection) run the whole suite through the lockstep path
        // without touching every call site
        if std::env::var_os("MUCHISIM_NO_LEAP").is_some() {
            cfg.time_leap = false;
        }
        let n = app.task_types();
        if n > MAX_TASK_TYPES {
            return Err(SimError::TooManyTaskTypes { declared: n });
        }
        if has_cycle(n, &app.task_graph()) {
            return Err(SimError::CyclicTaskGraph);
        }
        Ok(Simulation {
            cfg,
            app,
            subscribers: Vec::new(),
            forget_stall_memos: false,
            resnapshot_on_resume: false,
        })
    }

    /// Attaches an extra telemetry subscriber (e.g. a
    /// [`MemorySubscriber`](muchisim_telemetry::MemorySubscriber) in
    /// tests). Samples — and, at verbosity ≥ V1, frames — flow only when
    /// `SystemConfig::telemetry` sets a `sample_every` cadence.
    pub fn with_subscriber(mut self, subscriber: Box<dyn muchisim_telemetry::Subscriber>) -> Self {
        self.subscribers.push(subscriber);
        self
    }

    /// Test hook: wakes every router asleep on credit before every NoC
    /// step, so each back-pressured router-cycle runs the full evaluation,
    /// and every tile asleep on inject credit before every cycle, so each
    /// refused send is retried every cycle. Results, snapshots and
    /// checksums must not depend on it (only
    /// [`SimResult::host_router_visits`] and host time do).
    #[doc(hidden)]
    pub fn forget_stall_memos_every_cycle(mut self) -> Self {
        self.forget_stall_memos = true;
        self
    }

    /// Test hook: a resumed run writes a snapshot at the very cycle it
    /// re-enters at, before executing anything — `encode(restore(decode(
    /// file)))`, which must reproduce the file (see
    /// `tests/snapshot_format.rs`). Needs a checkpoint cadence, like any
    /// snapshot write.
    #[doc(hidden)]
    pub fn resnapshot_on_resume(mut self) -> Self {
        self.resnapshot_on_resume = true;
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs single-threaded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Ward`], with the partial result, when a
    /// telemetry ward trips: arming `telemetry.wards.max_cycles` is how a
    /// run is stopped at a cycle (judged, like every ward, where a
    /// `telemetry.sample_every` sample closes). Returns
    /// [`SimError::WorkerPanic`] when an application task panics.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.run_parallel(1)
    }

    /// Runs with up to `threads` host threads, one column slice each
    /// (paper §III-C). Results are bit-identical to [`Simulation::run`].
    ///
    /// When `SystemConfig::checkpoint_resume` is set and the checkpoint
    /// file exists, the run restores the snapshot and continues from its
    /// cycle (bit-identically to the uninterrupted run, under *any*
    /// thread count); a missing file starts from scratch. When
    /// `SystemConfig::checkpoint_every` is set, snapshots are written
    /// periodically during the run.
    ///
    /// # Errors
    ///
    /// See [`Simulation::run`]; additionally returns
    /// [`SimError::Telemetry`] when a metrics stream cannot be created or
    /// written, [`SimError::Snapshot`] when a checkpoint file is corrupt,
    /// incompatible with this configuration, or cannot be written, and
    /// [`SimError::Trace`] when the NoC trace cannot be written. A ward
    /// trip outranks a failed stream or snapshot write: its report names
    /// them instead.
    pub fn run_parallel(mut self, threads: usize) -> Result<SimResult, SimError> {
        let subscribers = std::mem::take(&mut self.subscribers);
        // a resume with no file yet is a fresh start (first run of a
        // restartable job); an existing-but-unreadable file is an error
        let snap = match (&self.cfg.checkpoint_path, self.cfg.checkpoint_resume) {
            (Some(path), true) if std::path::Path::new(path).exists() => {
                Some(crate::snapshot::read_snapshot(path)?)
            }
            _ => None,
        };
        let mut setup = SimSetup::build(&self.cfg, &self.app, threads);
        for w in &mut setup.workers {
            w.forget_stall_memos = self.forget_stall_memos;
        }
        let resume = match &snap {
            Some(data) => {
                validate_snapshot(&self.cfg, &self.app, data)?;
                for (widx, w) in setup.workers.iter_mut().enumerate() {
                    w.restore_from_snapshot(&self.app, data, widx)?;
                }
                restore_networks(&mut setup.networks, data)?;
                Some(crate::parallel::ResumeState {
                    at: data.at,
                    resnapshot: self.resnapshot_on_resume,
                })
            }
            None => None,
        };
        crate::parallel::drive(&self.cfg, &self.app, setup, resume, subscribers)
    }
}

/// Everything constructed before the cycle loop starts.
pub(crate) struct SimSetup<A: Application> {
    pub workers: Vec<Worker<A>>,
    pub networks: Vec<Network>,
}

impl<A: Application> SimSetup<A> {
    pub(crate) fn build(cfg: &SystemConfig, app: &A, threads: usize) -> Self {
        let channel_map = ChannelMap::from_system(cfg);
        let align = channel_map.map_or(1, |m| m.band_cols());
        let boundaries = split_columns(cfg.width(), threads, align);
        let planes = cfg.noc.num_physical.max(1);
        let networks: Vec<Network> = (0..planes)
            .map(|_| Network::with_boundaries(NetworkParams::from_system(cfg), &boundaries))
            .collect();
        let mut sw = SoftwareConfig::default();
        app.configure(&mut sw);
        let grid = GridInfo {
            width: cfg.width(),
            height: cfg.height(),
            total_tiles: cfg.width() * cfg.height(),
            pus_per_tile: cfg.pus_per_tile,
        };
        let mut workers = Vec::with_capacity(boundaries.len());
        let mut start = 0;
        for &end in &boundaries {
            let slice = ColSlice::new(start..end, cfg.width(), cfg.height());
            workers.push(Worker::new(cfg, app, &sw, slice, grid, channel_map));
            start = end;
        }
        SimSetup { workers, networks }
    }
}

/// Tasks a tile has executed and the PU cycles they kept it busy: the two
/// [`PuCounters`](crate::PuCounters) fields every dispatch writes, init
/// tasks included, and therefore dense (the rest is in [`TileCold`]).
#[derive(Debug, Clone, Copy, Default)]
struct Dispatched {
    tasks: u64,
    busy_cycles: u64,
}

/// One host worker: a column slice of tiles plus its DRAM channels.
///
/// Tiles are laid out by a [`ColSlice`], the one its [`Shard`]s use for
/// the same columns' routers (so `busy_grid`, which a shard fills by
/// local router id, is indexed by local tile id). What all tiles share
/// is held once (`iq_caps`, `sched`, `mem_proto`). Everything the
/// per-cycle sweeps and the TSU read is a dense array indexed by local
/// tile id (`pu_clock`, `iq_msgs`, `cq_msgs`, `init_pending`, the wake
/// caches, `rr_last`, `dispatched`) or by `local * ntasks + task` (the
/// queue links), so the active worklist drain walks contiguous memory.
/// Queued messages are nodes of two per-worker arenas. The rest of a
/// tile — memory model and task-written counters — is a lazily
/// materialized [`TileCold`] box.
pub(crate) struct Worker<A: Application> {
    pub slice: ColSlice,
    /// Task types: the row stride of `iq_links` and `cq_links`.
    ntasks: usize,
    /// Per-task IQ capacity in messages.
    iq_caps: Box<[u32]>,
    /// The TSU scheduling rule.
    sched: Scheduler,
    /// An untouched tile memory, cloned into a tile's cold box on first use.
    mem_proto: TileMemory,
    /// Each tile's TSU round-robin pointer (last served task id).
    rr_last: Vec<u8>,
    /// One input queue per (tile, task): payloads in `iq_arena` (the
    /// queue index is the task id).
    iq_links: Vec<QueueLink>,
    /// One channel queue per (tile, task), draining into the NoC:
    /// messages in `cq_arena`.
    cq_links: Vec<QueueLink>,
    iq_arena: Arena<Payload>,
    cq_arena: Arena<OutMsg>,
    dispatched: Vec<Dispatched>,
    /// Memory model and task-written counters per tile, `None` until
    /// [`materialize`]d.
    cold: Vec<Option<Box<TileCold>>>,
    pub states: Vec<A::Tile>,
    channels: Vec<ChannelState>,
    channel_map: Option<ChannelMap>,
    grid: GridInfo,
    kernel: u32,
    cq_capacity: u32,
    /// Integer-femtosecond PU/NoC clock conversions (shared by dispatch
    /// eligibility, CQ readiness, and time-leap horizons).
    pub clock: ClockConv,
    flit_bytes: u32,
    planes: usize,
    /// PUs per tile (row stride of `pu_clock`).
    pus: usize,
    /// Per-PU clocks in PU cycles (SoA, `local * pus + pu`).
    pu_clock: Vec<u64>,
    /// Messages queued in each tile's IQs (SoA; the activity check).
    iq_msgs: Vec<u32>,
    /// Messages queued in each tile's CQs (SoA).
    cq_msgs: Vec<u32>,
    /// Whether each tile's init task has not yet run (SoA).
    init_pending: Vec<bool>,
    /// First NoC cycle at which each tile's earliest PU can accept a
    /// dispatch again (SoA wake cache). Strictly before it, `pu_phase`
    /// provably dispatches nothing, so a tile with no CQ backlog (whose
    /// stall counter cannot tick) skips without touching its cold state.
    /// Refreshed at the end of every non-skipped visit; PU clocks are
    /// monotone, so a stale value is merely conservative (fewer skips).
    pu_wake: Vec<u64>,
    /// First NoC cycle at which any of each tile's sends — CQ heads and
    /// its timetable's head — can inject (SoA wake cache): the earliest
    /// maturity or due cycle among heads still waiting for one, `u64::MAX`
    /// when every head left is refused by a full inject queue — the tile
    /// is then *asleep on inject credit*, and the free that returns the
    /// credit wakes it (`wake_on_credit`). Strictly before it,
    /// `inject_phase` provably injects nothing for the tile. Lowered when
    /// `pu_phase` enqueues a send (the new message may be a fresh head)
    /// and recomputed from the surviving heads on every non-skipped drain
    /// pass.
    send_wake: Vec<u64>,
    /// PU busy cycles per tile in the current statistics frame (SoA).
    pu_busy_frame: Vec<u32>,
    verbosity: Verbosity,
    /// When a statistics frame closes; `None` at verbosity V0 (no frames
    /// are recorded).
    pub frame_cadence: Option<Cadence>,
    pointer_prefetch: bool,
    /// Per-tile open timetables of pre-scheduled NoC injections, drawn
    /// as they come due during kernel 0; `None` once a tile's is done.
    /// Empty for ordinary applications.
    scripted: Vec<Option<Timetable>>,
    /// Pending work: IQ + CQ messages + pending init tasks + scripted
    /// sends not yet injected.
    pub msg_count: i64,
    /// Running min of this cycle's tile-layer horizons (next PU dispatch,
    /// next CQ-head maturity, fresh deliveries), folded incrementally by
    /// the phase methods so `horizon` needs no extra sweep. Reset by
    /// `pu_phase`; NoC-cycle domain, may be in the past (clamped later).
    tile_horizon: u64,
    /// Latest PU completion time seen, in femtoseconds.
    pub max_pu_fs: u64,
    /// This worker's partial statistics frames, merged positionally with
    /// the other workers' in [`finish`].
    pub frames: FrameLog,
    frame_tasks: u64,
    frame_injected: u64,
    frame_ejected: u64,
    /// Tasks executed since the worker was built (telemetry; unlike
    /// `frame_tasks`, never reset at frame capture). Not persisted in
    /// snapshots — after a resume, telemetry deltas restart from the
    /// restore point, exactly like the ward engine's state.
    cum_tasks: u64,
    /// Router busy cycles of the closing frame, summed over the planes
    /// by local tile id; empty below verbosity V2.
    busy_grid: Vec<u32>,
    sends: Vec<OutMsg>,
    /// Host nanoseconds spent per driver phase by this worker (the
    /// built-in phase profiler; merged across workers into
    /// [`SimResult::host_phase_ns`]).
    pub phase: HostPhaseNs,
    /// Test hook: wake every router and tile asleep on credit every cycle.
    pub forget_stall_memos: bool,
    /// Worklist of tiles that can act: pending init or IQ work, or sends
    /// (queued CQ messages, an open scripted-send timetable) that wait to
    /// mature. Tiles activate on kernel start, on packet delivery (the
    /// worker's [`EjectSink::accept`]) and when returned inject credit
    /// wakes them (`begin_cycle`), and are retired by the retention pass
    /// at the end of `inject_phase`; the sweeps in `pu_phase`,
    /// `inject_phase`, and `leap_to` then cost `O(active tiles)` instead
    /// of `O(all tiles)`. The invariant: a tile with init or IQ work is
    /// listed, and one that holds sends is listed or parked asleep on
    /// inject credit — its remaining heads all refused, every refusing
    /// inject queue marked — and then costs the sweeps nothing until the
    /// credit returns.
    active: ActiveSet,
}

impl<A: Application> Worker<A> {
    fn new(
        cfg: &SystemConfig,
        app: &A,
        sw: &SoftwareConfig,
        slice: ColSlice,
        grid: GridInfo,
        channel_map: Option<ChannelMap>,
    ) -> Self {
        let ntasks = app.task_types();
        let mut iq_caps = vec![cfg.queues.iq_capacity; ntasks as usize];
        for &(t, c) in &sw.iq_capacity_override {
            if (t as usize) < iq_caps.len() {
                iq_caps[t as usize] = c;
            }
        }
        let states: Vec<A::Tile> = slice
            .iter_tiles()
            .map(|t| app.make_tile(t, &grid))
            .collect();
        let channels = match channel_map {
            Some(m) => vec![ChannelState::default(); m.total_channels(cfg.height()) as usize],
            None => Vec::new(),
        };
        let pointer_prefetch = matches!(
            &cfg.memory,
            MemoryConfig::Dram(d) if d.prefetch.pointer_indirection
        );
        let n = slice.num_tiles();
        // no table at all unless some tile has a timetable
        let mut scripted: Vec<Option<Timetable>> = Vec::new();
        for (local, t) in slice.iter_tiles().enumerate() {
            if let Some(timetable) = Timetable::open(app.scheduled_sends(t, &grid), 0) {
                if scripted.is_empty() {
                    scripted.resize_with(n, || None);
                }
                scripted[local] = Some(timetable);
            }
        }
        let pus = cfg.pus_per_tile.max(1) as usize;
        Worker {
            slice,
            ntasks: ntasks as usize,
            iq_caps: iq_caps.into(),
            sched: Scheduler::new(&cfg.scheduling, ntasks),
            mem_proto: TileMemory::from_system(cfg),
            rr_last: vec![Scheduler::initial_rr(ntasks); n],
            iq_links: vec![QueueLink::default(); n * ntasks as usize],
            cq_links: vec![QueueLink::default(); n * ntasks as usize],
            iq_arena: Arena::default(),
            cq_arena: Arena::default(),
            dispatched: vec![Dispatched::default(); n],
            // a zeroed allocation (a `None` box is a null pointer): the
            // pages of tiles that never materialize are never touched
            cold: vec![None; n],
            states,
            channels,
            channel_map,
            grid,
            kernel: 0,
            cq_capacity: cfg.queues.cq_capacity,
            clock: ClockConv::from_system(cfg),
            flit_bytes: cfg.flit_bytes(),
            planes: cfg.noc.num_physical.max(1) as usize,
            pus,
            pu_clock: vec![0; n * pus],
            iq_msgs: vec![0; n],
            cq_msgs: vec![0; n],
            init_pending: vec![false; n],
            pu_wake: vec![0; n],
            send_wake: vec![0; n],
            pu_busy_frame: vec![0; n],
            verbosity: cfg.verbosity,
            frame_cadence: (cfg.verbosity != Verbosity::V0)
                .then(|| Cadence::new(cfg.frame_interval_cycles)),
            pointer_prefetch,
            scripted,
            msg_count: 0,
            tile_horizon: u64::MAX,
            max_pu_fs: 0,
            frames: FrameLog::new(cfg.frame_interval_cycles.max(1)),
            frame_tasks: 0,
            frame_injected: 0,
            frame_ejected: 0,
            cum_tasks: 0,
            // the per-tile scratch grid is only ever read by V2+ frame
            // captures; below that it would be dead weight per worker
            busy_grid: if cfg.verbosity >= Verbosity::V2 {
                vec![0; n]
            } else {
                Vec::new()
            },
            sends: Vec::new(),
            phase: HostPhaseNs::default(),
            forget_stall_memos: false,
            active: ActiveSet::new(n, true),
        }
    }

    /// Whether the TSU of tile `local` has anything to dispatch.
    #[inline]
    fn has_work(&self, local: usize) -> bool {
        self.init_pending[local] || self.iq_msgs[local] > 0
    }

    /// Whether tile `local` is asleep on inject credit: it holds sends,
    /// and none waits to mature — every head left was refused.
    fn asleep_on_credit(&self, local: usize) -> bool {
        self.send_wake[local] == u64::MAX && has_sends(&self.cq_msgs, &self.scripted, local)
    }

    /// Makes tile `local` retry its refused sends at this cycle's inject
    /// pass — an inject queue it sleeps on returned credit, or the test
    /// hook forgets every sleep — and lists it again if it holds sends.
    fn wake_on_credit(&mut self, local: usize) {
        self.send_wake[local] = 0;
        if has_sends(&self.cq_msgs, &self.scripted, local) {
            self.active.activate(local as u32);
        }
    }

    /// Whether any channel queue of tile `local` exceeds the configured
    /// capacity (send-side backpressure: counted as stall pressure while
    /// the NoC drains the CQs). Callers gate this on `cq_msgs` being
    /// non-zero.
    #[inline]
    fn cq_over(&self, local: usize) -> bool {
        self.cq_links[local * self.ntasks..(local + 1) * self.ntasks]
            .iter()
            .any(|q| q.len() > self.cq_capacity)
    }

    /// Index of tile `local`'s PU with the earliest clock.
    #[inline]
    fn earliest_pu(&self, local: usize) -> usize {
        let clocks = &self.pu_clock[local * self.pus..(local + 1) * self.pus];
        let mut best = 0;
        for (i, &c) in clocks.iter().enumerate() {
            if c < clocks[best] {
                best = i;
            }
        }
        best
    }

    /// Marks every tile's init task pending for `kernel`.
    pub fn start_kernel(&mut self, kernel: u32) {
        self.kernel = kernel;
        // every tile owes an init task, so every tile is active
        self.active.activate_all();
        self.init_pending.fill(true);
        self.msg_count += self.slice.num_tiles() as i64;
        if kernel == 0 {
            // scripted sends count as pending work until injected, so the
            // quiescence decision cannot fire while a timetable is open
            self.msg_count += open_sends(&self.scripted);
        }
    }

    /// Dispatches ready tasks on every PU whose clock has been caught up
    /// by the network time (paper §III-C synchronization rule).
    pub fn pu_phase(&mut self, app: &A, cycle: u64) {
        let t0 = Instant::now();
        self.tile_horizon = u64::MAX;
        let now_pu = self.clock.pu_cycle_floor(cycle);
        // fold in tiles activated by deliveries since the last sweep
        // (net_step); every tile with work is on the list, so skipping
        // the rest is exact
        self.active.refresh();
        self.phase.worklist += t0.elapsed().as_nanos() as u64;
        for local in self.active.iter() {
            let local = local as usize;
            if !self.has_work(local) {
                continue;
            }
            // strictly before `pu_wake` no PU accepts a dispatch, and a
            // CQ backlog within the per-queue capacity (total ≤ cap ⇒
            // every queue ≤ cap) cannot tick the stall counter either:
            // the whole visit is a provable no-op beyond its horizon
            if cycle < self.pu_wake[local] && self.cq_msgs[local] <= self.cq_capacity {
                self.tile_horizon = self.tile_horizon.min(self.pu_wake[local]);
                continue;
            }
            let tile_g = self.slice.global(local);
            // Channel queues live in the PLM and spill beyond their
            // configured capacity (paper §III-A "Queues"); over-capacity
            // CQs are counted as send-side stall pressure but do not block
            // dispatch, which keeps acyclic task chains deadlock-free.
            if self.cq_msgs[local] > 0 && self.cq_over(local) {
                materialize(&mut self.cold[local], &self.mem_proto)
                    .counters
                    .cq_stall_cycles += 1;
            }
            let queues = local * self.ntasks;
            loop {
                let pu = self.earliest_pu(local);
                let pu_clk = self.pu_clock[local * self.pus + pu];
                if !self.clock.pu_ready(pu_clk, cycle) {
                    break;
                }
                let start = pu_clk.max(now_pu);
                let (is_init, task, payload) = if self.init_pending[local] {
                    self.init_pending[local] = false;
                    self.msg_count -= 1;
                    (true, 0u8, Payload::empty())
                } else if let Some(task) = self.sched.pick(
                    &mut self.rr_last[local],
                    &self.iq_links[queues..queues + self.ntasks],
                ) {
                    let payload = self.iq_links[queues + task as usize]
                        .pop_front(&mut self.iq_arena)
                        .expect("scheduler picked a non-empty queue");
                    self.iq_msgs[local] -= 1;
                    self.msg_count -= 1;
                    (false, task, payload)
                } else {
                    break;
                };
                let cold = &mut self.cold[local];
                // dequeue cost for message-triggered tasks
                let qlat = if is_init {
                    0
                } else {
                    materialize(cold, &self.mem_proto)
                        .mem
                        .queue_read(payload.len().max(1) as u64)
                };
                let channel_idx = self.channel_map.map(|m| {
                    let (x, y) = (tile_g % self.grid.width, tile_g / self.grid.width);
                    m.channel_of(x, y) as usize
                });
                // TSU pointer-indirection prefetch: warm the line the
                // *next* queued task of this type will touch, overlapping
                // it with the current task's execution (paper §III-A).
                if self.pointer_prefetch && !is_init {
                    if let Some(next) = self.iq_links[queues + task as usize].front(&self.iq_arena)
                    {
                        if let Some(addr) =
                            app.prefetch_addr(task, next.as_slice(), tile_g, &self.grid)
                        {
                            let ch = channel_idx.map(|i| &mut self.channels[i]);
                            materialize(cold, &self.mem_proto)
                                .mem
                                .prefetch(addr, start, ch);
                        }
                    }
                }
                let channel = channel_idx.map(|i| &mut self.channels[i]);
                let mut ctx = TaskCtx::new(
                    tile_g,
                    self.kernel,
                    self.grid,
                    start + qlat,
                    cold,
                    &self.mem_proto,
                    channel,
                    &mut self.sends,
                );
                if is_init {
                    app.init(&mut self.states[local], &mut ctx);
                } else {
                    app.handle(&mut self.states[local], task, payload.as_slice(), &mut ctx);
                }
                // one TSU dispatch cycle + dequeue + modeled task latency
                let duration = 1 + qlat + ctx.elapsed_cycles();
                let end = start + duration;
                self.pu_clock[local * self.pus + pu] = end;
                self.dispatched[local].tasks += 1;
                self.dispatched[local].busy_cycles += duration;
                self.pu_busy_frame[local] =
                    self.pu_busy_frame[local].saturating_add(duration.min(u32::MAX as u64) as u32);
                self.frame_tasks += 1;
                self.cum_tasks += 1;
                let end_fs = self.clock.pu_cycle_fs(end);
                if end_fs > self.max_pu_fs {
                    self.max_pu_fs = end_fs;
                }
                // drain produced messages into IQs (local) / CQs (remote)
                for msg in self.sends.drain(..) {
                    // the row stride would turn a task id past the bank
                    // into another tile's queue
                    let task = msg.task as usize;
                    assert!(task < self.ntasks, "send to undeclared task type {task}");
                    if msg.dst == tile_g {
                        self.iq_links[queues + task].push_back(&mut self.iq_arena, msg.payload);
                        self.iq_msgs[local] += 1;
                        self.msg_count += 1;
                    } else {
                        // the new message may become a fresh CQ head:
                        // lower the inject wake cache to its maturity
                        let due = self.clock.noc_cycle_for_pu(msg.at_pu_cycle);
                        self.cq_links[queues + task].push_back(&mut self.cq_arena, msg);
                        self.cq_msgs[local] += 1;
                        self.msg_count += 1;
                        if due < self.send_wake[local] {
                            self.send_wake[local] = due;
                        }
                    }
                }
            }
            // tasks left undispatched wait on the earliest PU clock
            let pu = self.pu_clock[local * self.pus + self.earliest_pu(local)];
            let wake = self.clock.noc_cycle_for_pu(pu);
            self.pu_wake[local] = wake;
            if self.has_work(local) {
                self.tile_horizon = self.tile_horizon.min(wake);
            }
        }
        self.phase.pu += t0.elapsed().as_nanos() as u64;
    }

    /// Drains ready sends into the NoC planes — each tile's channel-queue
    /// heads, then its due timetable entries — then retires tiles with no
    /// latent work from the active worklist, and parks tiles whose sends
    /// all wait for inject credit.
    ///
    /// Each head asks its plane's inject queue first
    /// ([`Shard::inject_admits`]) and leaves its queue only when admitted:
    /// a refused head stays at the front of its queue or timetable,
    /// holding back the rest behind it, and its tile waits for the
    /// queue's credit ([`Shard::wait_for_credit`]).
    pub fn inject_phase(&mut self, shards: &mut [&mut Shard], shareds: &[&SharedNet], cycle: u64) {
        let t0 = Instant::now();
        // the set is unchanged since pu_phase's refresh: task sends
        // target the sending tile's own queues, so no tile activates or
        // retires between the two sweeps
        for local in self.active.iter() {
            let local = local as usize;
            if !has_sends(&self.cq_msgs, &self.scripted, local) {
                continue;
            }
            // every head matures or comes due no earlier than `send_wake`:
            // strictly before it the drain pass is a provable no-op
            if cycle < self.send_wake[local] {
                self.tile_horizon = self.tile_horizon.min(self.send_wake[local]);
                continue;
            }
            let tile_g = self.slice.global(local);
            // earliest maturity or due cycle among heads left behind by
            // this pass
            let mut wake = u64::MAX;
            for task in 0..self.ntasks {
                let queue = &mut self.cq_links[local * self.ntasks + task];
                let Some(head) = queue.front(&self.cq_arena) else {
                    continue;
                };
                let ready_noc = self.clock.noc_cycle_for_pu(head.at_pu_cycle);
                if ready_noc > cycle {
                    wake = wake.min(ready_noc);
                    continue;
                }
                let plane = task % self.planes;
                let (shard, shared) = (&mut *shards[plane], shareds[plane]);
                while let Some(head) = queue.front(&self.cq_arena) {
                    let ready_noc = self.clock.noc_cycle_for_pu(head.at_pu_cycle);
                    if ready_noc > cycle {
                        wake = wake.min(ready_noc);
                        break;
                    }
                    // header flit + payload, as `Packet::unicast` stores it
                    let flits = 1 + head.payload.size_bytes().div_ceil(self.flit_bytes);
                    let flits = (flits as u16).max(1);
                    if !shard.inject_admits(shared, tile_g, flits) {
                        // inject queue full: the head stays where it
                        // is, and waits for the queue's credit to return
                        shard.wait_for_credit(shared, tile_g);
                        break;
                    }
                    let msg = queue.pop_front(&mut self.cq_arena).expect("checked head");
                    let mut pkt = Packet::unicast(tile_g, msg.dst, task as u8, msg.payload, flits)
                        .ready_at(cycle);
                    if let Some(op) = msg.reduce {
                        pkt = pkt.with_reduce(op);
                    }
                    shard.inject(shared, tile_g, pkt).expect("admitted");
                    self.cq_msgs[local] -= 1;
                    self.msg_count -= 1;
                    self.frame_injected += 1;
                }
            }
            // the timetable after the channel queues, so apps mixing both
            // keep CQ traffic first within a tile's cycle
            if let Some(slot) = self.scripted.get_mut(local) {
                while let Some(Timetable { head, .. }) = slot {
                    if head.cycle > cycle {
                        // not due yet: the schedule is sorted, so this head is
                        // the timetable's next injection event
                        wake = wake.min(head.cycle);
                        break;
                    }
                    let plane = head.task as usize % self.planes;
                    let (shard, shared) = (&mut *shards[plane], shareds[plane]);
                    let flits = (1 + head.payload.size_bytes().div_ceil(self.flit_bytes)) as u16;
                    if !shard.inject_admits(shared, tile_g, flits) {
                        // inject queue full: the head stays where it is,
                        // and waits for the queue's credit to return
                        shard.wait_for_credit(shared, tile_g);
                        break;
                    }
                    let head = Timetable::pop(slot);
                    let mut pkt = Packet::unicast(tile_g, head.dst, head.task, head.payload, flits)
                        .ready_at(cycle)
                        .born(head.cycle);
                    if let Some(op) = head.reduce {
                        pkt = pkt.with_reduce(op);
                    }
                    shard.inject(shared, tile_g, pkt).expect("admitted");
                    self.msg_count -= 1;
                    self.frame_injected += 1;
                }
            }
            self.tile_horizon = self.tile_horizon.min(wake);
            self.send_wake[local] = wake;
        }
        // retention pass: a tile stays active only while it has latent
        // work — a pending init/IQ task, or a send waiting to mature or
        // come due. One whose sends all wait for inject credit parks until
        // the credit returns. Deliveries during net_step re-activate.
        // Reads only the dense SoA arrays — this is the whole-worklist
        // walk the dense regime pays every cycle.
        let w0 = Instant::now();
        let init_pending = &self.init_pending;
        let iq_msgs = &self.iq_msgs;
        let cq_msgs = &self.cq_msgs;
        let scripted = &self.scripted;
        let send_wake = &self.send_wake;
        self.active.retain(|local| {
            let l = local as usize;
            if init_pending[l] || iq_msgs[l] > 0 {
                Keep::Listed
            } else if !has_sends(cq_msgs, scripted, l) {
                Keep::Dropped
            } else if send_wake[l] == u64::MAX {
                Keep::Parked
            } else {
                Keep::Listed
            }
        });
        self.phase.worklist += w0.elapsed().as_nanos() as u64;
        self.phase.inject += t0.elapsed().as_nanos() as u64;
        #[cfg(debug_assertions)]
        self.assert_queues_consistent(shareds);
    }

    /// Debug oracle, run at the end of every `inject_phase`: nothing off
    /// the worklist can act — no tile off it owes an init task or holds
    /// an IQ message, and one that holds sends is asleep on inject credit
    /// with a waiter mark on every inject queue it waits for, so returned
    /// credit wakes it, and parked exactly then. The links of
    /// each tile that holds messages add up to its message counts, and
    /// together to every live arena node — so no node leaked.
    #[cfg(debug_assertions)]
    fn assert_queues_consistent(&self, shareds: &[&SharedNet]) {
        let marked = |local: usize, plane: usize| {
            let tile = self.slice.global(local);
            let shared = shareds[plane];
            shared.occupancy[shared.topo.queue_id(tile, InPort::Inject)].marked()
        };
        let (mut iq_total, mut cq_total, mut parked) = (0, 0, 0);
        for local in 0..self.iq_msgs.len() {
            let listed = self.active.contains(local as u32);
            let asleep = self.asleep_on_credit(local);
            if !listed {
                assert!(
                    !self.has_work(local),
                    "tile {local} has work off the worklist"
                );
                assert!(
                    asleep || !has_sends(&self.cq_msgs, &self.scripted, local),
                    "tile {local} has sends off the worklist, not asleep on inject credit"
                );
                assert_eq!(
                    asleep,
                    self.active.is_parked(local as u32),
                    "tile {local} off the worklist: asleep on inject credit iff parked"
                );
                parked += usize::from(asleep);
            }
            if asleep {
                let tasks = local * self.ntasks..(local + 1) * self.ntasks;
                for (task, q) in self.cq_links[tasks].iter().enumerate() {
                    let plane = task % self.planes;
                    assert!(
                        q.is_empty() || marked(local, plane),
                        "tile {local} sleeps on plane {plane}'s inject credit, unmarked"
                    );
                }
                if let Some(Some(Timetable { head, .. })) = self.scripted.get(local) {
                    let plane = head.task as usize % self.planes;
                    assert!(
                        marked(local, plane),
                        "tile {local}'s timetable sleeps on plane {plane}'s inject credit, unmarked"
                    );
                }
            }
            if !listed && !asleep {
                continue;
            }
            let tile = local * self.ntasks..(local + 1) * self.ntasks;
            let iq: u32 = self.iq_links[tile.clone()].iter().map(QueueLink::len).sum();
            let cq: u32 = self.cq_links[tile].iter().map(QueueLink::len).sum();
            assert_eq!(iq, self.iq_msgs[local], "IQ links of tile {local}");
            assert_eq!(cq, self.cq_msgs[local], "CQ links of tile {local}");
            iq_total += iq as usize;
            cq_total += cq as usize;
        }
        assert_eq!(
            parked,
            self.active.parked_count(),
            "tiles asleep off the worklist miscounted"
        );
        assert_eq!(self.iq_arena.live(), iq_total, "IQ payload nodes leaked");
        assert_eq!(self.cq_arena.live(), cq_total, "CQ message nodes leaked");
    }

    /// Applies every shard's cycle-boundary bookkeeping (deferred frees,
    /// deferred pushes, mailbox drains) for the next cycle. Must run for
    /// all shards (with a barrier in parallel mode) before any shard's
    /// step for that cycle.
    ///
    /// Returned inject credit wakes the tiles asleep on it here, before
    /// this cycle's inject pass — the first pass a retry could have
    /// succeeded in.
    pub fn begin_cycle(&mut self, shards: &mut [&mut Shard], shareds: &[&SharedNet]) {
        let t0 = Instant::now();
        for (shard, shared) in shards.iter_mut().zip(shareds) {
            shard.begin_cycle(shared);
            for tile in shard.drain_woken_tiles() {
                let local = self.slice.local(tile);
                self.wake_on_credit(local);
            }
        }
        if self.forget_stall_memos {
            for local in 0..self.slice.num_tiles() {
                if self.asleep_on_credit(local) {
                    self.wake_on_credit(local);
                }
            }
        }
        self.phase.net += t0.elapsed().as_nanos() as u64;
    }

    /// Steps this worker's shard of every NoC plane for `cycle`, the worker
    /// itself taking the ejected packets ([`EjectSink`]).
    pub fn net_step(&mut self, shards: &mut [&mut Shard], shareds: &[&SharedNet], cycle: u64) {
        let t0 = Instant::now();
        for (shard, shared) in shards.iter_mut().zip(shareds) {
            if self.forget_stall_memos {
                shard.forget_stall_memos();
            }
            shard.step(shared, cycle, self);
        }
        self.phase.net += t0.elapsed().as_nanos() as u64;
    }

    /// Closes the statistics frame of the block containing `cycle` (the
    /// driver decides when: on a boundary of [`Worker::frame_cadence`],
    /// and where a kernel stopped between two).
    pub fn capture_frame(&mut self, shards: &mut [&mut Shard], cycle: u64) {
        let cadence = self.frame_cadence.expect("frames are recorded");
        let mut frame = Frame {
            start_cycle: cadence.block_start(cycle),
            tasks_delta: std::mem::take(&mut self.frame_tasks),
            injected_delta: std::mem::take(&mut self.frame_injected),
            ejected_delta: std::mem::take(&mut self.frame_ejected),
            ..Default::default()
        };
        if self.verbosity >= Verbosity::V2 {
            for shard in shards.iter_mut() {
                shard.take_busy(&mut self.busy_grid);
            }
            for local in 0..self.slice.num_tiles() {
                let g = self.slice.global(local);
                let busy = std::mem::take(&mut self.busy_grid[local]);
                if busy > 0 {
                    frame.router_busy.push((g, busy));
                }
                let pu = std::mem::take(&mut self.pu_busy_frame[local]);
                if pu > 0 {
                    frame.pu_busy.push((g, pu));
                }
                if self.verbosity >= Verbosity::V3 && self.iq_msgs[local] > 0 {
                    frame.iq_occupancy.push((g, self.iq_msgs[local]));
                }
            }
        }
        self.frames.push(frame);
    }

    /// This worker's next-event horizon after finishing `cycle`: the
    /// earliest future NoC cycle at which any of its tiles, DRAM
    /// channels, or NoC shards can act, or `u64::MAX` if the slice is
    /// completely idle. Never less than `cycle + 1`.
    ///
    /// The tile layer's horizon was folded incrementally while `pu_phase`,
    /// `inject_phase`, and `net_step` swept the tiles anyway, so dense
    /// cycles (tile horizon already at `cycle + 1`) decide in O(1) and
    /// never touch the NoC shards. Cross-shard mailboxes are deliberately
    /// *not* folded in here — other workers may still be writing them;
    /// the driver's leader action adds them after the step barrier.
    pub fn horizon(&self, shards: &[&mut Shard], cycle: u64) -> u64 {
        let floor = cycle + 1;
        let mut horizon = self.tile_horizon;
        if horizon <= floor {
            return floor;
        }
        let now_pu = self.clock.pu_cycle_floor(cycle);
        for ch in &self.channels {
            if let Some(pu) = ch.next_event_cycle(now_pu) {
                horizon = horizon.min(self.clock.noc_cycle_for_pu(pu));
            }
        }
        for shard in shards.iter() {
            if horizon <= floor {
                return floor;
            }
            if let Some(c) = shard.next_event_cycle(cycle) {
                horizon = horizon.min(c);
            }
        }
        horizon.max(floor)
    }

    /// Applies the side effect the lockstep driver would have produced
    /// while stepping through the skipped cycles `(cycle, next)`: batch
    /// CQ-stall accounting for backpressured tiles (their state is
    /// frozen across the gap, so the per-cycle increment is constant).
    /// Captures need nothing: the leader clamps every leap to the next
    /// close of each of the `armed` cadences, so none falls in the gap.
    pub fn leap_to(
        &mut self,
        shards: &mut [&mut Shard],
        cycle: u64,
        next: u64,
        armed: &[Option<Cadence>],
    ) {
        let skipped = next - cycle - 1;
        if skipped == 0 {
            return;
        }
        debug_assert!(
            armed.iter().flatten().all(|c| c.next_close(cycle) >= next),
            "a leap from {cycle} to {next} skips a capture boundary of {armed:?}"
        );
        debug_assert!(
            shards.iter().all(|s| s.sleepers() == 0 && s.inject_waiters() == 0),
            "a router or tile asleep on credit holds a ready send: no horizon lies past the next cycle"
        );
        let t0 = Instant::now();
        // every tile with work is active (deliveries during this cycle's
        // net_step activated theirs), so the batch accounting only needs
        // the worklist
        self.active.refresh();
        self.phase.worklist += t0.elapsed().as_nanos() as u64;
        for local in self.active.iter() {
            let local = local as usize;
            if self.has_work(local) && self.cq_msgs[local] > 0 && self.cq_over(local) {
                materialize(&mut self.cold[local], &self.mem_proto)
                    .counters
                    .cq_stall_cycles += skipped;
            }
        }
        self.phase.net += t0.elapsed().as_nanos() as u64;
    }

    /// Merges this worker's tile counters into `total`.
    pub fn merge_counters(&self, total: &mut SimCounters) {
        for d in &self.dispatched {
            total.pu.tasks_executed += d.tasks;
            total.pu.busy_cycles += d.busy_cycles;
        }
        // an absent cold box holds nothing but zeros
        for cold in self.cold.iter().flatten() {
            total.pu.merge(&cold.counters);
            total.mem.merge(cold.mem.counters());
        }
    }

    /// This worker's share of the run's pending work: its tiles' queued
    /// messages, init tasks and scripted sends, plus the packets in flight
    /// by its shards' counters. A share may be negative — its shards may
    /// eject more than they inject — but both parts sum over the workers
    /// to non-negative totals, so the shares sum to zero only when the run
    /// has nothing left anywhere.
    pub fn pending(&self, shards: &[&mut Shard]) -> i64 {
        self.msg_count + shards.iter().map(|s| s.counters().in_flight()).sum::<i64>()
    }

    /// Deposits this worker's share of a telemetry sample: cumulative
    /// task/message counters, activity gauges, and NoC statistics over
    /// its shards. Cheap (no per-tile sweep), read-only, and built from
    /// deterministic simulation state only — host timing is added by the
    /// leader's aggregator.
    pub fn telemetry_sample(&self, shards: &[&mut Shard]) -> muchisim_telemetry::WorkerSample {
        let mut s = muchisim_telemetry::WorkerSample {
            tasks: self.cum_tasks,
            pending: self.pending(shards),
            active_tiles: (self.active.active_count() + self.active.parked_count()) as u64,
            tiles: self.slice.num_tiles() as u64,
            ..Default::default()
        };
        for shard in shards.iter() {
            let c = shard.counters();
            s.injected += c.injected;
            s.ejected += c.ejected;
            s.flit_hops += c.flit_hops_by_class.iter().sum::<u64>();
            s.queued_msgs += shard.queued_packets();
            s.active_routers += shard.active_routers() as u64;
            s.latency.merge(shard.latency());
        }
        s.phase_ns = [
            self.phase.pu,
            self.phase.inject,
            self.phase.net,
            self.phase.worklist,
        ];
        s
    }

    /// Per-tile queue backlog for a ward report: IQ/CQ/scripted message
    /// counts plus packets parked in this tile's router input queues,
    /// for every local tile with a non-zero backlog, worst first
    /// (capped at `top`). Only runs on the slow path after a ward trips.
    pub fn telemetry_diag(&self, shards: &[&mut Shard], top: usize) -> Vec<crate::ward::TileDiag> {
        let mut diags: Vec<crate::ward::TileDiag> = Vec::new();
        for local in 0..self.slice.num_tiles() {
            let tile = self.slice.global(local);
            let parked = shards.iter().map(|s| s.queued_at(tile)).sum::<u32>();
            let d = crate::ward::TileDiag {
                tile,
                iq_msgs: self.iq_msgs[local],
                cq_msgs: self.cq_msgs[local],
                scripted: self
                    .scripted
                    .get(local)
                    .and_then(Option::as_ref)
                    .map_or(0, |t| t.len() as u32),
                parked_packets: parked,
            };
            if d.backlog() > 0 {
                diags.push(d);
            }
        }
        diags.sort_by(|a, b| b.backlog().cmp(&a.backlog()).then(a.tile.cmp(&b.tile)));
        diags.truncate(top);
        diags
    }

    /// Total host bytes of this worker's simulation state: the dense
    /// per-tile arrays, the two message arenas, the materialized cold
    /// boxes, the application tile states, DRAM channels, frame
    /// telemetry, and scratch buffers.
    pub fn state_bytes(&self, app: &A) -> u64 {
        use std::mem::size_of;
        let cold = self.cold.capacity() as u64 * size_of::<Option<Box<TileCold>>>() as u64
            + self
                .cold
                .iter()
                .flatten()
                .map(|c| size_of::<TileCold>() as u64 + c.mem.heap_bytes())
                .sum::<u64>()
            + self.mem_proto.heap_bytes();
        let queues = (self.iq_links.capacity() + self.cq_links.capacity()) as u64
            * size_of::<QueueLink>() as u64
            + self.iq_arena.heap_bytes(Payload::heap_bytes)
            + self.cq_arena.heap_bytes(|m| m.payload.heap_bytes());
        let states = self.states.capacity() as u64 * size_of::<A::Tile>() as u64
            + self
                .states
                .iter()
                .map(|s| app.tile_state_bytes(s))
                .sum::<u64>();
        size_of::<Self>() as u64
            + cold
            + queues
            + states
            + self.dispatched.capacity() as u64 * size_of::<Dispatched>() as u64
            + self.rr_last.capacity() as u64
            + self.pu_clock.capacity() as u64 * 8
            + self.iq_msgs.capacity() as u64 * 4
            + self.cq_msgs.capacity() as u64 * 4
            + self.init_pending.capacity() as u64
            + self.pu_wake.capacity() as u64 * 8
            + self.send_wake.capacity() as u64 * 8
            + self.pu_busy_frame.capacity() as u64 * 4
            + self.channels.capacity() as u64 * size_of::<ChannelState>() as u64
            + self.iq_caps.len() as u64 * 4
            + self.frames.heap_bytes()
            + self.busy_grid.capacity() as u64 * 4
            + self.sends.capacity() as u64 * size_of::<OutMsg>() as u64
            + self.active.heap_bytes()
            + self.scripted.capacity() as u64 * size_of::<Option<Timetable>>() as u64
            + self
                .scripted
                .iter()
                .flatten()
                .map(|t| std::mem::size_of_val(&*t.rest) as u64 + t.head.payload.heap_bytes())
                .sum::<u64>()
    }

    /// Streams this worker's checkpoint chunk into `buf`: the fields of
    /// [`crate::snapshot::WorkerChunk`], in its order, written straight
    /// from engine state — no record structs, no queue clones, nothing
    /// allocated per tile or per queue, and `buf` is reused from one
    /// snapshot to the next. This is the only chunk encoder; what it
    /// writes is what `WorkerChunk` reads. Must be called at the
    /// post-`begin_cycle` quiescent point of `cycle`.
    pub(crate) fn encode_chunk_into(
        &self,
        app: &A,
        shards: &[&mut Shard],
        cycle: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), String> {
        use crate::snapshot::{put_blob_with, put_seq, Put, Var};
        (
            self.max_pu_fs,
            self.frame_tasks,
            self.frame_injected,
            self.frame_ejected,
        )
            .put(buf);
        self.frames.put(buf);
        // planes: one `PlaneRecord` per shard
        (shards.len() as u32).put(buf);
        for sh in shards {
            sh.counters().put(buf);
            sh.latency().put(buf);
            sh.snapshot_packets().put(buf);
            sh.snapshot_links(cycle).put(buf);
            sh.snapshot_rr().put(buf);
            sh.snapshot_busy_frame().put(buf);
        }
        // tiles: one `TileRecord` each
        (self.slice.num_tiles() as u32).put(buf);
        for (local, cold) in self.cold.iter().enumerate() {
            let tile_g = self.slice.global(local);
            (
                tile_g,
                self.init_pending[local],
                self.pu_busy_frame[local],
                self.rr_last[local],
            )
                .put(buf);
            self.pu_clock[local * self.pus..(local + 1) * self.pus].put(buf);
            let d = self.dispatched[local];
            (Var(d.tasks), Var(d.busy_cycles)).put(buf);
            // an `Option<ColdRecord>`
            cold.is_some().put(buf);
            if let Some(c) = cold {
                let (tick, lines) = c.mem.cache_state();
                (c.counters, c.mem.counters(), Var(tick), lines).put(buf);
            }
            let tile = local * self.ntasks..(local + 1) * self.ntasks;
            put_seq(buf, bank(&self.iq_links[tile.clone()], &self.iq_arena));
            put_seq(buf, bank(&self.cq_links[tile], &self.cq_arena));
            match self.scripted.get(local) {
                // the sends not yet injected: the tile's stream drawn
                // again, past those already injected
                Some(Some(timetable)) => {
                    let mut rest = app
                        .scheduled_sends(tile_g, &self.grid)
                        .skip(timetable.injected());
                    let head = rest.next();
                    if head.as_ref() != Some(&timetable.head) {
                        return Err(format!(
                            "tile {tile_g}: the application's timetable draws differently \
                             a second time"
                        ));
                    }
                    put_seq(buf, head.into_iter().chain(rest));
                }
                _ => put_seq(buf, std::iter::empty::<ScheduledSend>()),
            }
            put_blob_with(buf, |blob| app.snapshot_tile(&self.states[local], blob))
                .map_err(|e| format!("tile {tile_g}: {e}"))?;
        }
        // only the owning worker ever advances a channel's clock; the
        // other workers' copies stay at zero, so non-zero == owned
        put_seq(
            buf,
            self.channels
                .iter()
                .enumerate()
                .filter(|(_, ch)| ch.transactions != 0)
                .map(|(id, ch)| (id as u32, ch.transactions)),
        );
        Ok(())
    }

    /// Overwrites this worker's dynamic state from a validated snapshot
    /// (the tile layer only; NoC shards are restored separately through
    /// [`restore_networks`]). The derived caches — message counts, wake
    /// caches, the active worklist — are recomputed rather than
    /// deserialized: a zero wake cache is a conservative lower bound and
    /// `activate_all` is a superset of the live worklist, both of which
    /// the sweeps resolve bit-identically on the first cycle.
    pub(crate) fn restore_from_snapshot(
        &mut self,
        app: &A,
        snap: &crate::snapshot::SnapshotData,
        widx: usize,
    ) -> Result<(), SimError> {
        let fail = |why: String| SimError::Snapshot(why);
        self.kernel = snap.at.kernel;
        // pending-work count: init tasks + queued messages + (during
        // kernel 0) the open scripted timetables, exactly mirroring what
        // `start_kernel` + the phase decrements would have left behind
        let mut count = 0i64;
        for local in 0..self.slice.num_tiles() {
            let g = self.slice.global(local);
            self.restore_record(app, local, &snap.state.tiles[g as usize])
                .map_err(|e| fail(format!("tile {g}: {e}")))?;
            count += i64::from(self.init_pending[local]);
            count += i64::from(self.iq_msgs[local]) + i64::from(self.cq_msgs[local]);
        }
        if snap.at.kernel == 0 {
            count += open_sends(&self.scripted);
        }
        self.msg_count = count;
        // the snapshot's open-frame scalars and captured frames are
        // global; worker 0 adopts them whole and the others contribute
        // zero-delta placeholders, so the positional frame merge at
        // `finish` reconstructs the same log an uninterrupted run keeps
        let state = &snap.state;
        if widx == 0 {
            self.max_pu_fs = state.max_pu_fs;
            self.frame_tasks = state.frame_tasks;
            self.frame_injected = state.frame_injected;
            self.frame_ejected = state.frame_ejected;
            for f in &state.frames.frames {
                self.frames.push(f.clone());
            }
        } else {
            for f in &state.frames.frames {
                self.frames.push(Frame {
                    start_cycle: f.start_cycle,
                    ..Default::default()
                });
            }
        }
        if let Some(map) = self.channel_map {
            if !state.channels.is_empty() {
                let mut owned = vec![false; self.channels.len()];
                for tile in self.slice.iter_tiles() {
                    let (x, y) = (tile % self.grid.width, tile / self.grid.width);
                    owned[map.channel_of(x, y) as usize] = true;
                }
                for &(id, tx) in &state.channels {
                    match owned.get(id as usize) {
                        Some(true) => self.channels[id as usize].transactions = tx,
                        Some(false) => {}
                        None => {
                            return Err(fail(format!(
                                "channel record {id} outside the {} configured channels",
                                self.channels.len()
                            )))
                        }
                    }
                }
            }
        }
        // every tile with restored work must be on the worklist; a
        // superset is exact (idle tiles retire on the first retention
        // pass without observable effect). Waiter marks are not restored:
        // every wake cache is zero, so a refused send retries on the
        // first cycle and marks its inject queue again.
        self.active.activate_all();
        Ok(())
    }

    /// Tile `tile_g`'s timetable reopened where a snapshot left it, once
    /// the snapshot's remaining sends `saved` are checked to be the end
    /// of the application's stream: the stream drawn again, past the
    /// sends already injected.
    fn resume_timetable(
        &self,
        app: &A,
        tile_g: u32,
        saved: &[ScheduledSend],
    ) -> Result<Option<Timetable>, String> {
        let stream = app.scheduled_sends(tile_g, &self.grid);
        let total = stream.len();
        let Some(injected) = total.checked_sub(saved.len()) else {
            return Err(format!(
                "snapshot holds {} scheduled sends, the application's timetable {total}",
                saved.len()
            ));
        };
        if let Some(i) = stream.skip(injected).zip(saved).position(|(a, b)| a != *b) {
            return Err(format!(
                "scheduled send {i} of the snapshot is not send {} of the application's \
                 timetable",
                injected + i
            ));
        }
        Ok(Timetable::open(
            app.scheduled_sends(tile_g, &self.grid),
            injected,
        ))
    }

    /// Restores local tile `local` from its snapshot record, checking
    /// every index the record carries before it is used.
    fn restore_record(&mut self, app: &A, local: usize, rec: &TileRecord) -> Result<(), String> {
        let (pus, ntasks, total_tiles) = (self.pus, self.ntasks, self.grid.total_tiles);
        if rec.pu_clock.len() != pus {
            return Err(format!(
                "snapshot has {} PU clocks, configuration has {pus}",
                rec.pu_clock.len()
            ));
        }
        // the TSU cursor names the task type served last
        if usize::from(rec.rr_last) >= ntasks.max(1) {
            return Err(format!(
                "scheduler cursor {} is outside the {ntasks} task types",
                rec.rr_last
            ));
        }
        // queued messages become packets: their destination and task
        // index the grid and the queue banks (scheduled sends must be the
        // application's own, which `resume_timetable` checks)
        for (dst, task) in rec.cqs.iter().flat_map(|(_, q)| q).map(|m| (m.dst, m.task)) {
            if dst >= total_tiles || usize::from(task) >= ntasks {
                return Err(format!(
                    "a queued message names tile {dst}, task {task}, outside the \
                     {total_tiles} tiles x {ntasks} task types"
                ));
            }
        }
        if self.scripted.is_empty() && !rec.scripted.is_empty() {
            return Err("snapshot carries scheduled sends the application does not declare".into());
        }
        if !self.scripted.is_empty() {
            let tile = self.slice.global(local);
            self.scripted[local] = self.resume_timetable(app, tile, &rec.scripted)?;
        }
        self.init_pending[local] = rec.init_pending;
        self.pu_busy_frame[local] = rec.pu_busy_frame;
        self.pu_clock[local * pus..(local + 1) * pus].copy_from_slice(&rec.pu_clock);
        self.rr_last[local] = rec.rr_last;
        self.dispatched[local] = Dispatched {
            tasks: rec.tasks.0,
            busy_cycles: rec.busy_cycles.0,
        };
        // a box exactly where the writer had one
        if let Some(saved) = &rec.cold {
            let cold = materialize(&mut self.cold[local], &self.mem_proto);
            cold.counters = saved.pu;
            cold.mem
                .restore(saved.mem, saved.cache_tick.0, &saved.cache_lines)?;
        }
        let tile = local * ntasks..(local + 1) * ntasks;
        self.iq_msgs[local] = refill(
            &mut self.iq_links[tile.clone()],
            &mut self.iq_arena,
            &rec.iqs,
            "input",
        )?;
        self.cq_msgs[local] = refill(
            &mut self.cq_links[tile],
            &mut self.cq_arena,
            &rec.cqs,
            "channel",
        )?;
        app.restore_tile(&mut self.states[local], &rec.app)
    }
}

impl<A: Application> std::fmt::Debug for Worker<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("cols", &self.slice.cols())
            .field("msg_count", &self.msg_count)
            .finish()
    }
}

/// The [`EjectSink`] [`Worker::net_step`] steps its shards into: a
/// delivered packet joins its tile's input queue, if it has room.
impl<A: Application> EjectSink for Worker<A> {
    fn admits(&mut self, tile: u32, pkt: &Packet) -> bool {
        let task = pkt.task as usize;
        // indexing the capacity table first keeps a task id past the
        // bank from reaching another tile's link
        let cap = self.iq_caps[task];
        self.iq_links[self.slice.local(tile) * self.ntasks + task].len() < cap
    }

    fn accept(&mut self, tile: u32, pkt: Packet) {
        let local = self.slice.local(tile);
        materialize(&mut self.cold[local], &self.mem_proto)
            .mem
            .queue_write(pkt.payload.len().max(1) as u64);
        self.iq_links[local * self.ntasks + pkt.task as usize]
            .push_back(&mut self.iq_arena, pkt.payload);
        self.iq_msgs[local] += 1;
        self.msg_count += 1;
        self.frame_ejected += 1;
        // a delivery is the one event that wakes an idle tile; it lists a
        // tile parked on inject credit too
        self.active.activate(local as u32);
        // the delivery may be dispatchable as soon as a PU frees up
        let pu = self.pu_clock[local * self.pus + self.earliest_pu(local)];
        self.tile_horizon = self.tile_horizon.min(self.clock.noc_cycle_for_pu(pu));
    }
}

/// A tile's open timetable: its next scheduled send, drawn, and the rest
/// of its [`SendStream`].
struct Timetable {
    head: ScheduledSend,
    rest: SendStream,
    /// The stream's length, so `total - len()` sends are injected.
    total: usize,
}

impl Timetable {
    /// `stream` opened past its first `skip` sends; `None` when nothing
    /// is left.
    fn open(mut stream: SendStream, skip: usize) -> Option<Self> {
        let total = stream.len();
        if skip > 0 {
            stream.nth(skip - 1);
        }
        let head = stream.next()?;
        Some(Timetable {
            head,
            rest: stream,
            total,
        })
    }

    /// Sends not yet injected, the head included.
    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Sends already injected.
    fn injected(&self) -> usize {
        self.total - self.len()
    }

    /// Takes the head of the open timetable in `slot`, drawing the next
    /// send into its place, or closing the timetable after its last.
    fn pop(slot: &mut Option<Self>) -> ScheduledSend {
        let timetable = slot.as_mut().expect("an open timetable");
        match timetable.rest.next() {
            Some(next) => std::mem::replace(&mut timetable.head, next),
            None => slot.take().expect("an open timetable").head,
        }
    }
}

/// Sends not yet injected over all open timetables.
fn open_sends(scripted: &[Option<Timetable>]) -> i64 {
    scripted.iter().flatten().map(|t| t.len() as i64).sum()
}

/// Whether tile `local` holds sends for the NoC: queued CQ messages or an
/// open timetable.
#[inline]
fn has_sends(cq_msgs: &[u32], scripted: &[Option<Timetable>], local: usize) -> bool {
    cq_msgs[local] > 0 || scripted.get(local).is_some_and(Option::is_some)
}

/// A tile's queue `links` (one per task) in the form [`refill`] reads:
/// the non-empty queues, `(task, items in FIFO order)`, by task.
fn bank<'a, T>(
    links: &'a [QueueLink],
    arena: &'a Arena<T>,
) -> impl Iterator<Item = (u8, Queued<'a, T>)> {
    let live = (0u8..).zip(links).filter(|(_, q)| !q.is_empty());
    live.map(move |(task, q)| (task, Queued(q, arena)))
}

/// Appends a tile record's sparse bank of `kind` queues to the tile's
/// `links` (one per task); returns the messages appended. The bank must
/// be in the encoder's one form: tasks in range and strictly ascending,
/// every queue non-empty.
fn refill<T: Clone + Default>(
    links: &mut [QueueLink],
    arena: &mut Arena<T>,
    bank: &[(u8, Vec<T>)],
    kind: &str,
) -> Result<u32, String> {
    let (mut prev, mut total) = (None, 0u32);
    for (task, items) in bank {
        let task = usize::from(*task);
        let why = match prev {
            _ if task >= links.len() => format!("is outside the {} task types", links.len()),
            Some(p) if p == task => "is listed twice".into(),
            Some(p) if p > task => format!("follows the bank of task {p}"),
            _ if items.is_empty() => "is listed empty".into(),
            _ => {
                for item in items {
                    links[task].push_back(arena, item.clone());
                }
                total += items.len() as u32;
                prev = Some(task);
                continue;
            }
        };
        return Err(format!("{kind}-queue bank of task {task} {why}"));
    }
    Ok(total)
}

/// Detects cycles in the task-invocation graph.
fn has_cycle(n: u8, edges: &[(u8, u8)]) -> bool {
    let n = n as usize;
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        if (a as usize) < n && (b as usize) < n {
            adj[a as usize].push(b as usize);
        }
    }
    // 0 = unvisited, 1 = on stack, 2 = done
    let mut state = vec![0u8; n];
    fn dfs(v: usize, adj: &[Vec<usize>], state: &mut [u8]) -> bool {
        state[v] = 1;
        for &w in &adj[v] {
            if state[w] == 1 || (state[w] == 0 && dfs(w, adj, state)) {
                return true;
            }
        }
        state[v] = 2;
        false
    }
    (0..n).any(|v| state[v] == 0 && dfs(v, &adj, &mut state))
}

/// Assembles the final result (called by the driver).
pub(crate) fn finish<A: Application>(
    cfg: &SystemConfig,
    app: &A,
    mut workers: Vec<Worker<A>>,
    networks: Vec<Network>,
    runtime_cycles: u64,
    host_started: Instant,
    telemetry_dropped: u64,
) -> SimResult {
    let threads = workers.len();
    let mut counters = SimCounters::default();
    let mut host_phase_ns = HostPhaseNs::default();
    for w in &workers {
        w.merge_counters(&mut counters);
        host_phase_ns.merge(&w.phase);
    }
    let mut noc_latency = muchisim_noc::LatencyStats::default();
    let mut host_router_visits = muchisim_noc::RouterVisits::default();
    for (plane, n) in networks.iter().enumerate() {
        debug_assert_eq!(
            n.in_flight(),
            n.queued_packets() as i64,
            "plane {plane}: injected − ejected − combined is not the packets the plane holds"
        );
        counters.noc.merge(&n.counters());
        noc_latency.merge(&n.latency());
        host_router_visits.merge(&n.router_visits());
    }
    // footprint telemetry, measured before the tile states are drained
    let host_state_bytes = workers.iter().map(|w| w.state_bytes(app)).sum::<u64>()
        + networks.iter().map(Network::state_bytes).sum::<u64>();
    let runtime = TimePs::ps(runtime_cycles as f64 * cfg.noc_clock.operating.period_ps());
    counters.runtime_cycles = runtime_cycles;
    counters.runtime_secs = runtime.as_secs();
    // every worker captured at the same boundaries
    let mut frames = FrameLog::new(cfg.frame_interval_cycles.max(1));
    for w in &workers {
        frames.merge(&w.frames);
    }
    // gather per-tile states in global order for the result check: the
    // workers own adjacent column ranges in ascending order and hold
    // their tiles row by row, so one grid row is each worker's next
    // `ncols` states in turn
    let total = (cfg.width() * cfg.height()) as usize;
    let mut states: Vec<A::Tile> = Vec::with_capacity(total);
    let mut rows: Vec<_> = workers
        .iter_mut()
        .map(|w| (w.slice.ncols() as usize, w.states.drain(..)))
        .collect();
    for _ in 0..cfg.height() {
        for (ncols, row) in &mut rows {
            states.extend(row.take(*ncols));
        }
    }
    drop(rows);
    assert_eq!(states.len(), total, "every tile has a state");
    let check_error = app.check(&states).err();
    SimResult {
        runtime_cycles,
        runtime,
        counters,
        frames,
        noc_latency,
        host_seconds: host_started.elapsed().as_secs_f64(),
        host_phase_ns,
        host_router_visits,
        host_threads: threads,
        total_tiles: total as u64,
        host_state_bytes,
        check_error,
        termination: "finished".into(),
        telemetry_dropped,
    }
}

/// Rejects a snapshot whose identity header disagrees with the run being
/// resumed. The rule is strict equality — same configuration hash, same
/// application name, same grid, same kernel count — because a snapshot
/// only replays bit-identically against the exact deterministic inputs
/// it was taken under.
pub(crate) fn validate_snapshot<A: Application>(
    cfg: &SystemConfig,
    app: &A,
    snap: &crate::snapshot::SnapshotData,
) -> Result<(), SimError> {
    let fail = |why: String| Err(SimError::Snapshot(why));
    let (head, at) = (&snap.header, &snap.at);
    let want = crate::snapshot::Header::of(cfg, app);
    if *head != want {
        return fail(format!(
            "snapshot was taken under a different configuration, application or grid: it \
             carries {head:?}, this run is {want:?}"
        ));
    }
    if at.kernel >= head.kernels {
        return fail(format!(
            "snapshot cursor is at kernel {} of {}",
            at.kernel, head.kernels
        ));
    }
    if at.cycle < at.base {
        return fail(format!(
            "snapshot cycle {} precedes its kernel base {}",
            at.cycle, at.base
        ));
    }
    Ok(())
}

/// Replays a validated snapshot's NoC state — queued packets, busy link
/// clocks, arbiter round-robin cursors, frame telemetry — into freshly
/// built networks. Occupancy and wake bookkeeping are recomputed by
/// [`Shard::restore_packet`] rather than deserialized; the packets in
/// flight are the restored counters' balance, so a plane whose counters
/// disagree with the packets it holds is rejected.
pub(crate) fn restore_networks(
    networks: &mut [Network],
    snap: &crate::snapshot::SnapshotData,
) -> Result<(), SimError> {
    let head = &snap.header;
    let total_tiles = u64::from(head.width) * u64::from(head.height);
    for (plane, net) in networks.iter_mut().enumerate() {
        let fail = |why: String| SimError::Snapshot(format!("plane {plane}: {why}"));
        let Some(rec) = snap.state.planes.get(plane) else {
            return Err(fail("missing from the snapshot".into()));
        };
        let (shared, shards) = net.split();
        // the shard that owns `tile`, for a record whose every index —
        // what the routers would otherwise index with unchecked — is
        // `sound`
        let shard_of = |tile: u32, sound: bool, kind: &str, record: &dyn std::fmt::Debug| {
            if u64::from(tile) < total_tiles && sound {
                Ok(shared.shard_of_col[(tile % head.width) as usize] as usize)
            } else {
                Err(fail(format!("{kind} record {record:?} is out of range")))
            }
        };
        let dirs = OutDir::ALL.len();
        // the plane-wide counters were captured merged; fold them back
        // into shard 0 so the final cross-shard merge reproduces them
        shards[0].restore_counters(&rec.counters, &rec.latency);
        for record in &rec.packets {
            let (tile, port, pkt) = record;
            let in_port = InPort::ALL.get(*port as usize);
            let sound = in_port.is_some()
                && u64::from(pkt.dst) < total_tiles
                && pkt.task < head.task_types
                && pkt.flits > 0
                && pkt.vc <= 1;
            let shard = shard_of(*tile, sound, "packet", record)?;
            let in_port = *in_port.expect("sound");
            shards[shard]
                .restore_packet(shared, *tile, in_port, pkt.clone())
                .map_err(|why| fail(format!("tile {tile}: {why}")))?;
        }
        let (counted, held) = (rec.counters.in_flight(), rec.packets.len());
        if counted != held as i64 {
            return Err(fail(format!(
                "the counters put {counted} packets in flight (injected − ejected − combined), \
                 the record holds {held}"
            )));
        }
        for record in &rec.links {
            let &(tile, dir, until) = record;
            let shard = shard_of(tile, (dir as usize) < dirs, "link", record)?;
            shards[shard].restore_link(tile, dir, until);
        }
        for record in &rec.rr {
            // the cursor names the input port served last
            let &(tile, dir, val) = record;
            let sound = (dir as usize) < dirs && (val as usize) < InPort::ALL.len();
            let shard = shard_of(tile, sound, "arbiter", record)?;
            shards[shard].restore_rr(tile, dir, val);
        }
        for record in &rec.busy_frame {
            let shard = shard_of(record.0, true, "busy-frame", record)?;
            shards[shard].restore_busy_frame(record.0, record.1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection() {
        assert!(!has_cycle(3, &[(0, 1), (1, 2)]));
        assert!(has_cycle(3, &[(0, 1), (1, 2), (2, 0)]));
        assert!(has_cycle(1, &[(0, 0)]));
        assert!(!has_cycle(0, &[]));
        assert!(!has_cycle(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
    }

    /// (The other malformed banks are rows of `checkpoint_robustness`,
    /// whose snapshots declare one task type.)
    #[test]
    fn a_queue_bank_out_of_task_order_is_rejected() {
        let p = || vec![Payload::from_slice(&[7])];
        let bank = [(1, p()), (0, p())];
        let mut links = [QueueLink::default(); 2];
        let err = refill(&mut links, &mut Arena::default(), &bank, "input");
        assert_eq!(
            err.unwrap_err(),
            "input-queue bank of task 0 follows the bank of task 1"
        );
    }
}
