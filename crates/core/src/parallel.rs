//! The cycle-loop driver: one host thread per column slice, with spin
//! barriers between the two phases of each NoC cycle.
//!
//! Phase order per cycle (paper §III-C semantics):
//!
//! 1. **local phase** — each shard applies deferred buffer frees and
//!    deferred pushes and drains cross-shard mailboxes (all self-owned
//!    state); then the worker dispatches ready tasks on its tiles and
//!    injects ready channel-queue heads into its own shards.
//! 2. *(barrier)* **step phase** — every shard routes one cycle; ejected
//!    packets land in the worker's input queues; each worker publishes
//!    its pending share (its queued messages plus its shards' packets in
//!    flight) and (leap mode) its next-event horizon.
//! 3. *(barrier, last arriver decides)* **decision phase** — global
//!    quiescence (the pending shares sum to zero),
//!    cycle-limit stop, or the next cycle to execute.
//!
//! In the default *time-leaping* mode ([`SystemConfig::time_leap`]) the
//! decision phase min-reduces the per-worker horizons — each layer's
//! `next_event_cycle` (tile PU clocks, channel-queue heads, DRAM backlogs, NoC queue heads)
//! plus the cross-shard mailbox horizon, and when the earliest possible
//! event is more than one cycle away it jumps the clock straight there —
//! but never past the next close of an armed capture [`Cadence`]
//! (statistics frames at verbosity ≥ V1, telemetry samples when sampling
//! is on), so every capture boundary is an executed cycle with a decision
//! barrier. Skipped cycles are provably event-free, so the jump is exact:
//! workers batch the stall counters the lockstep driver would have
//! produced, and results stay bit-identical (see `Worker::leap_to`).
//!
//! Because every inter-worker interaction is confined to barrier-separated
//! phases and single-producer queues, a run with N workers is
//! bit-identical to a run with one. The barriers are sense-reversing spin
//! barriers: at one microsecond-scale cycle cost, OS-level barriers would
//! dominate the simulation (the paper reaches linear speedup only because
//! its thread synchronization is similarly cheap).

use crate::app::Application;
use crate::engine::{finish, SimSetup, Worker};
use crate::error::SimError;
use crate::snapshot::{Header, Progress};
use crate::tile::SimResult;
use crate::ward::{TileDiag, WardReport};
use muchisim_config::SystemConfig;
use muchisim_noc::{Shard, SharedNet};
use muchisim_telemetry::{
    Cadence, CsvSubscriber, Frame, JsonlSubscriber, ProgressSubscriber, SampleAggregator,
    Subscriber, TelemetryHub, WardEngine, WardTrip, WorkerSample,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worst-backlogged tiles each worker contributes to a ward report (the
/// merged report is truncated to the same count).
const DIAG_TILES: usize = 8;

/// A peer worker panicked: the barrier will never fill again, leave the
/// cycle loop.
struct Poisoned;

/// A sense-reversing centralized spin barrier.
///
/// The last thread to arrive may run a closure (the "leader action")
/// before releasing the others — used for the global stop decision.
///
/// A worker that unwinds [`SpinBarrier::poison`]s the barrier; waiters
/// see the flag in their spin loop and return [`Poisoned`] instead of
/// waiting for an arrival that will never come.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            n,
        }
    }

    /// Releases every current and future waiter with [`Poisoned`].
    fn poison(&self) {
        // publishes nothing but itself: waiters only leave their loop
        self.poisoned.store(true, Ordering::Relaxed);
    }

    fn wait(&self, local_sense: &mut bool) -> Result<(), Poisoned> {
        self.wait_leader(local_sense, || {})
    }

    fn wait_leader<F: FnOnce()>(&self, local_sense: &mut bool, leader: F) -> Result<(), Poisoned> {
        let target = !*local_sense;
        *local_sense = target;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            leader();
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != target {
                if self.poisoned.load(Ordering::Relaxed) {
                    return Err(Poisoned);
                }
                spins += 1;
                if spins < 1 << 14 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        Ok(())
    }
}

/// Renders a panic payload (what `panic!` carried) as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Shared synchronization state for the worker threads.
struct SyncState {
    barrier: SpinBarrier,
    /// Kernel drained (set by the deciding thread).
    stop: AtomicBool,
    /// Cycle limit exceeded.
    limit_hit: AtomicBool,
    /// Per-worker pending shares ([`Worker::pending`]), published each
    /// cycle.
    activity: Vec<AtomicI64>,
    /// Per-worker next-event horizons, published each cycle in leap mode.
    horizon: Vec<AtomicU64>,
    /// The next cycle to execute, decided by the leader (leap mode).
    next_cycle: AtomicU64,
    /// Per-worker max PU completion time in femtoseconds, published at
    /// kernel end.
    max_pu_fs: Vec<AtomicU64>,
    /// Cycle at which the current kernel drained.
    drained_cycle: AtomicU64,
}

impl SyncState {
    fn new(n: usize) -> Self {
        SyncState {
            barrier: SpinBarrier::new(n),
            stop: AtomicBool::new(false),
            limit_hit: AtomicBool::new(false),
            activity: (0..n).map(|_| AtomicI64::new(0)).collect(),
            horizon: (0..n).map(|_| AtomicU64::new(0)).collect(),
            next_cycle: AtomicU64::new(0),
            max_pu_fs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            drained_cycle: AtomicU64::new(0),
        }
    }
}

/// Where a restored run re-enters the cycle loop.
#[derive(Clone, Copy)]
pub(crate) struct ResumeState {
    /// The snapshot's kernel, the cycle it was taken at (the
    /// post-`begin_cycle` capture point) and that kernel's base cycle
    /// (which restores the per-kernel cycle-limit accounting).
    pub at: Progress,
    /// Write a snapshot at `at.cycle` itself (test hook,
    /// `Simulation::resnapshot_on_resume`).
    pub resnapshot: bool,
}

/// Shared state for periodic snapshot writes: each worker deposits its
/// encoded chunk, then the barrier leader assembles and writes the file.
struct CheckpointState {
    /// Snapshot cadence in NoC cycles.
    every: u64,
    /// Snapshot file path (written atomically via a temp file).
    path: String,
    /// The pre-encoded magic, version and identity header, identical for
    /// every snapshot of this run.
    file_prefix: Vec<u8>,
    /// One encoded chunk slot per worker.
    chunks: Vec<std::sync::Mutex<Vec<u8>>>,
    /// First error from any worker or the writer; surfaced after the run.
    error: std::sync::Mutex<Option<String>>,
}

impl CheckpointState {
    /// Records `why` unless an earlier error already claimed the slot.
    fn record_error(&self, why: String) {
        let mut slot = self.error.lock().expect("checkpoint error lock");
        if slot.is_none() {
            *slot = Some(why);
        }
    }
}

/// Shared state for the telemetry stream and the ward pipeline.
///
/// Workers deposit a [`WorkerSample`] when a sample closes and (when
/// frames are streamed) a copy of the partial [`Frame`] they just closed;
/// the barrier leader merges the deposits, evaluates the wards, and hands
/// the merged records to the hub's subscriber thread without blocking.
/// Everything the wards read is deterministic simulated state, so a trip
/// lands on the same cycle for any host-thread count or leap/worklist
/// mode.
struct TelemetryState {
    /// When a sample closes.
    every: Cadence,
    /// Whether closed frames ride the stream too: verbosity ≥ V1 and
    /// somebody subscribed.
    stream_frames: bool,
    /// One deposit slot per worker, written before the leader's barrier.
    samples: Vec<Mutex<WorkerSample>>,
    /// One deposit slot per worker for the partial frame it just closed.
    frames: Vec<Mutex<Frame>>,
    /// Leader-only aggregation state, locked only when a sample closes.
    leader: Mutex<LeaderState>,
    /// Fan-out to the subscriber thread (never blocks the barrier).
    hub: TelemetryHub,
    /// A subscriber failed and the run is terminating. Set by the leader
    /// from the hub's flag, so every worker sees it change at a barrier.
    stream_dead: AtomicBool,
    /// The first tripped ward, set by the leader.
    trip: Mutex<Option<WardTrip>>,
    /// Cycle at (or after) which the post-mortem trip snapshot must be
    /// taken; `u64::MAX` while no trip snapshot is pending.
    snap_at: AtomicU64,
    /// A ward tripped and the run is terminating.
    tripped: AtomicBool,
    /// Write a snapshot to the checkpoint path before terminating on a
    /// trip.
    snapshot_on_trip: bool,
    /// Per-worker diagnostic slots, filled once `tripped` is set.
    diags: Vec<Mutex<Vec<TileDiag>>>,
}

/// Aggregator + ward engine, owned by whichever thread wins the barrier.
struct LeaderState {
    agg: SampleAggregator,
    wards: WardEngine,
    /// Scratch for the per-sample merge (reused, never reallocated).
    merged: Vec<WorkerSample>,
}

impl TelemetryState {
    /// Leader only: merges what the workers deposited for `cycle` and
    /// streams it, the frame first. The wards see the sample only when
    /// `judge` (the last sample of a stopped kernel is reported, not
    /// judged); their first trip is returned.
    fn publish(&self, cycle: u64, frame: bool, sample: bool, judge: bool) -> Option<WardTrip> {
        if frame && self.stream_frames {
            let mut parts = self
                .frames
                .iter()
                .map(|slot| slot.lock().expect("telemetry frame lock"));
            let mut merged = std::mem::take(&mut *parts.next().expect("at least one worker"));
            for part in parts {
                merged.merge(&part);
            }
            self.hub.publish_frame(merged);
        }
        let mut trip = None;
        if sample {
            let mut st = self.leader.lock().expect("telemetry leader lock");
            let st = &mut *st;
            st.merged.clear();
            for slot in &self.samples {
                st.merged
                    .push(slot.lock().expect("telemetry sample lock").clone());
            }
            let sample = st.agg.merge(cycle, &st.merged);
            if judge {
                trip = st.wards.observe(&sample);
            }
            self.hub.publish(sample);
        }
        if self.hub.failed() {
            self.stream_dead.store(true, Ordering::Release);
        }
        trip
    }
}

/// Builds the telemetry pipeline when the configuration (or an attached
/// test subscriber) asks for one.
fn telemetry_state(
    cfg: &SystemConfig,
    resume: Option<ResumeState>,
    extra: Vec<Box<dyn Subscriber>>,
    nworkers: usize,
    frames: bool,
) -> Result<Option<TelemetryState>, SimError> {
    let t = &cfg.telemetry;
    let Some(every) = t.sample_every else {
        return Ok(None);
    };
    if !t.wants_sampling() && extra.is_empty() {
        return Ok(None);
    }
    let mut subs: Vec<Box<dyn Subscriber>> = Vec::new();
    if let Some(path) = &t.metrics_path {
        subs.push(Box::new(
            JsonlSubscriber::create(path).map_err(SimError::Telemetry)?,
        ));
    }
    if let Some(path) = &t.metrics_csv {
        subs.push(Box::new(
            CsvSubscriber::create(path).map_err(SimError::Telemetry)?,
        ));
    }
    if t.progress {
        subs.push(Box::new(ProgressSubscriber::new(t.wards.max_cycles)));
    }
    subs.extend(extra);
    let start_cycle = resume.map_or(0, |r| r.at.cycle);
    Ok(Some(TelemetryState {
        every: Cadence::new(every),
        stream_frames: frames && !subs.is_empty(),
        samples: (0..nworkers)
            .map(|_| Mutex::new(WorkerSample::default()))
            .collect(),
        frames: (0..nworkers).map(|_| Mutex::default()).collect(),
        leader: Mutex::new(LeaderState {
            agg: SampleAggregator::new(start_cycle),
            wards: WardEngine::new(t.wards.clone(), start_cycle),
            merged: Vec::with_capacity(nworkers),
        }),
        hub: TelemetryHub::spawn(subs),
        stream_dead: AtomicBool::new(false),
        trip: Mutex::new(None),
        snap_at: AtomicU64::new(u64::MAX),
        tripped: AtomicBool::new(false),
        snapshot_on_trip: t.snapshot_on_trip,
        diags: (0..nworkers).map(|_| Mutex::new(Vec::new())).collect(),
    }))
}

/// Runs the whole simulation and assembles the result.
pub(crate) fn drive<A: Application>(
    cfg: &SystemConfig,
    app: &A,
    setup: SimSetup<A>,
    cycle_limit: u64,
    resume: Option<ResumeState>,
    subscribers: Vec<Box<dyn Subscriber>>,
) -> Result<SimResult, SimError> {
    let started = Instant::now();
    let SimSetup {
        mut workers,
        mut networks,
    } = setup;
    let nworkers = workers.len();
    let sync = SyncState::new(nworkers);
    let termination = cfg.termination_latency_cycles();
    let kernels = app.kernels();
    let leap = cfg.time_leap;
    // a checkpoint slot is also needed without a periodic cadence when a
    // ward trip may want a post-mortem snapshot (cadence u64::MAX then:
    // no periodic boundary is ever crossed)
    let ckpt = match (&cfg.checkpoint_path, cfg.checkpoint_every) {
        (Some(path), every) if every.is_some() || cfg.telemetry.snapshot_on_trip => {
            Some(CheckpointState {
                every: every.map_or(u64::MAX, |e| e.max(1)),
                path: path.clone(),
                file_prefix: Header::of(cfg, app).file_prefix(),
                chunks: (0..nworkers)
                    .map(|_| std::sync::Mutex::new(Vec::new()))
                    .collect(),
                error: std::sync::Mutex::new(None),
            })
        }
        _ => None,
    };
    let frames = workers[0].frame_cadence.is_some();
    let telem = telemetry_state(cfg, resume, subscribers, nworkers, frames)?;
    let runtime_cycles;
    {
        // hand each worker its shard of every NoC plane
        let mut shareds: Vec<&SharedNet> = Vec::with_capacity(networks.len());
        let mut per_worker: Vec<Vec<&mut Shard>> = (0..nworkers).map(|_| Vec::new()).collect();
        for net in networks.iter_mut() {
            let (shared, shards) = net.split();
            shareds.push(shared);
            debug_assert_eq!(shards.len(), nworkers);
            for (i, sh) in shards.iter_mut().enumerate() {
                per_worker[i].push(sh);
            }
        }
        let final_cycle = AtomicU64::new(0);
        // the first worker to unwind, as `(worker, panic message)`
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        // Runs one worker's loop to its end. A panic anywhere inside it
        // (an app task, a broken invariant) is caught here, recorded, and
        // poisons the barrier so the peers leave their loops too instead
        // of spinning for an arrival that will never come.
        let run_worker = |widx: usize, worker: &mut Worker<A>, shards: Vec<&mut Shard>| {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker_loop(
                    worker,
                    shards,
                    &shareds,
                    app,
                    &sync,
                    &final_cycle,
                    kernels,
                    cycle_limit,
                    termination,
                    leap,
                    widx,
                    nworkers,
                    resume,
                    ckpt.as_ref(),
                    telem.as_ref(),
                )
            }));
            if let Err(payload) = outcome {
                sync.barrier.poison();
                panicked
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .get_or_insert_with(|| (widx, panic_message(payload.as_ref())));
            }
        };
        std::thread::scope(|scope| {
            let mut rest = per_worker;
            let my_shards = rest.remove(0);
            let (first_worker, rest_workers) =
                workers.split_first_mut().expect("at least one worker");
            let run_worker = &run_worker;
            let handles: Vec<_> = rest_workers
                .iter_mut()
                .zip(rest)
                .enumerate()
                .map(|(i, (worker, shards))| scope.spawn(move || run_worker(i + 1, worker, shards)))
                .collect();
            run_worker(0, first_worker, my_shards);
            for h in handles {
                h.join()
                    .expect("worker panics are caught inside the thread");
            }
        });
        if let Some((worker, message)) = panicked
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            // the workers' state is torn mid-cycle: no result to assemble
            // (the telemetry hub closes its stream when dropped)
            return Err(SimError::WorkerPanic { worker, message });
        }
        runtime_cycles = final_cycle.load(Ordering::Acquire);
    }
    // telemetry teardown: close the subscriber stream, then surface a
    // ward trip (which outranks stream and checkpoint errors — those are
    // folded into its report instead of masking it)
    let mut stream_error: Option<String> = None;
    let mut telemetry_dropped = 0;
    let mut ward_trip: Option<(WardTrip, Vec<TileDiag>)> = None;
    if let Some(t) = telem {
        let TelemetryState {
            hub,
            trip,
            tripped,
            diags,
            ..
        } = t;
        telemetry_dropped = hub.dropped();
        stream_error = hub.close().err();
        if tripped.into_inner() {
            let trip = trip
                .into_inner()
                .expect("telemetry trip lock")
                .expect("tripped implies a recorded trip");
            let mut tiles: Vec<TileDiag> = diags
                .into_iter()
                .flat_map(|m| m.into_inner().expect("telemetry diag lock"))
                .collect();
            tiles.sort_by(|a, b| b.backlog().cmp(&a.backlog()).then(a.tile.cmp(&b.tile)));
            tiles.truncate(DIAG_TILES);
            ward_trip = Some((trip, tiles));
        }
    }
    if let Some((trip, tiles)) = ward_trip {
        let snapshot_error = ckpt
            .as_ref()
            .and_then(|c| c.error.lock().expect("checkpoint error lock").take());
        let snapshot_path = (cfg.telemetry.snapshot_on_trip && snapshot_error.is_none())
            .then(|| cfg.checkpoint_path.clone())
            .flatten();
        let mut partial = finish(
            cfg,
            app,
            workers,
            networks,
            runtime_cycles,
            started,
            nworkers,
            telemetry_dropped,
        );
        partial.termination = format!("ward:{}", trip.ward);
        return Err(SimError::Ward(Box::new(WardReport {
            ward: trip.ward.to_string(),
            cycle: trip.cycle,
            detail: trip.detail,
            tiles,
            snapshot_path,
            snapshot_error,
            partial: Some(Box::new(partial)),
        })));
    }
    if let Some(why) = stream_error {
        return Err(SimError::Telemetry(why));
    }
    if let Some(c) = &ckpt {
        if let Some(why) = c.error.lock().expect("checkpoint error lock").take() {
            return Err(SimError::Snapshot(why));
        }
    }
    if sync.limit_hit.load(Ordering::Acquire) {
        return Err(SimError::CycleLimitExceeded { limit: cycle_limit });
    }
    if let Some(path) = &cfg.noc_trace {
        // one merged, canonically sorted trace across planes and shards;
        // a tile's same-cycle packets keep their channel-queue order
        let mut events: Vec<muchisim_noc::TraceEvent> = Vec::new();
        for net in networks.iter_mut() {
            events.extend(net.take_trace());
        }
        muchisim_noc::write_trace_jsonl(path, &mut events).map_err(SimError::Trace)?;
    }
    Ok(finish(
        cfg,
        app,
        workers,
        networks,
        runtime_cycles,
        started,
        nworkers,
        telemetry_dropped,
    ))
}

/// The per-thread kernel + cycle loop.
#[allow(clippy::too_many_arguments)]
fn worker_loop<A: Application>(
    worker: &mut Worker<A>,
    mut shards: Vec<&mut Shard>,
    shareds: &[&SharedNet],
    app: &A,
    sync: &SyncState,
    final_cycle: &AtomicU64,
    kernels: u32,
    cycle_limit: u64,
    termination: u64,
    leap: bool,
    widx: usize,
    nworkers: usize,
    resume: Option<ResumeState>,
    ckpt: Option<&CheckpointState>,
    telem: Option<&TelemetryState>,
) -> Result<(), Poisoned> {
    let mut sense = false;
    // the capture schedule, for whichever of the two kinds is armed: a
    // statistics frame and a telemetry sample close on every boundary of
    // their cadence inside a kernel's cycle loop, and once more where the
    // kernel stopped (so the stream ends on the kernel's totals) unless
    // that was a boundary, which closed them already
    let armed = [worker.frame_cadence, telem.map(|t| t.every)];
    let closing = |cycle: u64, kernel_end: bool| {
        armed.map(|c| c.is_some_and(|c| c.closes(cycle) != kernel_end))
    };
    // on resume the restored kernel's state is already in place, so the
    // loop re-enters at the snapshot cycle without a fresh start_kernel
    let (start_kernel, mut resume_cycle) = match resume {
        Some(r) => (r.at.kernel, Some(r.at.cycle)),
        None => (0, None),
    };
    let mut base = resume.map_or(0, |r| r.at.base);
    // the first checkpoint boundary strictly after the starting cycle;
    // derived from barrier-synchronized values only, so every worker
    // agrees on each snapshot cycle without communicating
    let mut next_snap = ckpt.map_or(u64::MAX, |c| match resume {
        Some(r) if r.resnapshot => r.at.cycle,
        _ => (resume.map_or(0, |r| r.at.cycle) / c.every + 1) * c.every,
    });
    for kernel in start_kernel..kernels {
        let mut cycle = match resume_cycle.take() {
            Some(c) => c,
            None => {
                worker.start_kernel(kernel);
                base
            }
        };
        loop {
            // local phase: everything here touches only worker-owned state
            worker.begin_cycle(&mut shards, shareds);
            // the capture point is right after begin_cycle: deferred
            // frees, deferred pushes, and cross-shard mailboxes are all
            // drained, so every in-flight packet sits in a router queue.
            // Time leaping may skip the exact boundary; the first
            // executed cycle at or past it is the snapshot cycle. A
            // pending ward-trip snapshot (scheduled by the leader for
            // the cycle after the trip) uses the same capture point.
            let trip_snap = telem.map_or(u64::MAX, |t| t.snap_at.load(Ordering::Acquire));
            if cycle >= next_snap || cycle >= trip_snap {
                if let Some(c) = ckpt {
                    let at = Progress {
                        kernel,
                        cycle,
                        base,
                    };
                    take_checkpoint(worker, app, &shards, sync, c, at, &mut sense, widx)?;
                    next_snap = (cycle / c.every + 1) * c.every;
                }
            }
            worker.pu_phase(app, cycle);
            worker.inject_phase(&mut shards, shareds, cycle);
            sync.barrier.wait(&mut sense)?;
            // step phase
            worker.net_step(&mut shards, shareds, cycle);
            // this worker's share of what closes now, taken before the
            // decision barrier so the leader can merge coherent records
            let [frame, sample] = closing(cycle, false);
            capture(worker, &mut shards, cycle, frame, sample, telem, widx);
            sync.activity[widx].store(worker.pending(&shards), Ordering::Release);
            if leap {
                let h = worker.horizon(&shards, cycle);
                sync.horizon[widx].store(h, Ordering::Release);
            }
            // decision phase: the last thread to arrive decides
            sync.barrier.wait_leader(&mut sense, || {
                // a deferred trip snapshot was captured this cycle: the
                // run stops here, before any normal decision can race it
                if let Some(t) = telem {
                    if t.snap_at.load(Ordering::Acquire) <= cycle
                        && t.trip.lock().expect("telemetry trip lock").is_some()
                    {
                        t.tripped.store(true, Ordering::Release);
                        sync.drained_cycle.store(cycle, Ordering::Release);
                        sync.stop.store(true, Ordering::Release);
                        t.publish(cycle, frame, sample, false);
                        return;
                    }
                }
                let pending: i64 = (0..nworkers)
                    .map(|i| sync.activity[i].load(Ordering::Acquire))
                    .sum();
                if pending == 0 {
                    sync.drained_cycle.store(cycle, Ordering::Release);
                    sync.stop.store(true, Ordering::Release);
                } else if cycle - base >= cycle_limit {
                    sync.limit_hit.store(true, Ordering::Release);
                    sync.drained_cycle.store(cycle, Ordering::Release);
                    sync.stop.store(true, Ordering::Release);
                } else if leap {
                    // min-reduce the published horizons and jump if
                    // nothing can happen sooner; the cap keeps the
                    // cycle-limit check exact
                    let mut next = (0..nworkers)
                        .map(|i| sync.horizon[i].load(Ordering::Acquire))
                        .min()
                        .unwrap_or(u64::MAX);
                    if next == u64::MAX {
                        next = cycle + 1; // defensive: pending work implies a horizon
                    }
                    if next > cycle + 1 {
                        // cross-shard mailboxes (only readable after the
                        // step barrier) can only shorten a prospective
                        // leap — their horizons are >= cycle + 1, so the
                        // locking scan is skipped when no leap is on the
                        // table
                        for shared in shareds {
                            if let Some(c) = shared.mailbox_next_event_cycle(cycle) {
                                next = next.min(c);
                            }
                        }
                    }
                    // never leap over a capture boundary: every close of
                    // an armed cadence is an executed cycle
                    for cadence in armed.into_iter().flatten() {
                        next = next.min(cadence.next_close(cycle));
                    }
                    next = next.min(base.saturating_add(cycle_limit));
                    sync.next_cycle.store(next, Ordering::Release);
                }
                // merge, stream, and ward-check what closed this cycle
                // (after the stop decision: a drained or limit-hit run
                // still emits its final records, but wards no longer fire)
                if let Some(t) = telem {
                    let stopped = sync.stop.load(Ordering::Relaxed);
                    if let Some(trip) = t.publish(cycle, frame, sample, !stopped) {
                        *t.trip.lock().expect("telemetry trip lock") = Some(trip);
                        if t.snapshot_on_trip && ckpt.is_some() {
                            // defer the stop one cycle so every worker
                            // reaches the next capture point and writes
                            // the post-mortem snapshot first
                            t.snap_at.store(cycle + 1, Ordering::Release);
                            if leap {
                                sync.next_cycle.store(cycle + 1, Ordering::Release);
                            }
                        } else {
                            t.tripped.store(true, Ordering::Release);
                            sync.drained_cycle.store(cycle, Ordering::Release);
                            sync.stop.store(true, Ordering::Release);
                        }
                    }
                    // a dead stream ends the run here rather than after
                    // simulating on into the void
                    if t.stream_dead.load(Ordering::Acquire) {
                        sync.drained_cycle.store(cycle, Ordering::Release);
                        sync.stop.store(true, Ordering::Release);
                    }
                }
            })?;
            if sync.stop.load(Ordering::Acquire) {
                break;
            }
            let next = if leap {
                sync.next_cycle.load(Ordering::Acquire)
            } else {
                cycle + 1
            };
            if next > cycle + 1 {
                worker.leap_to(&mut shards, cycle, next, &armed);
            }
            cycle = next;
        }
        let [frame, sample] = closing(cycle, true);
        capture(worker, &mut shards, cycle, frame, sample, telem, widx);
        // publish this worker's PU tail and compute the kernel barrier
        sync.max_pu_fs[widx].store(worker.max_pu_fs, Ordering::Release);
        sync.barrier.wait(&mut sense)?;
        let drained = sync.drained_cycle.load(Ordering::Acquire);
        let max_pu_fs = (0..nworkers)
            .map(|i| sync.max_pu_fs[i].load(Ordering::Acquire))
            .max()
            .unwrap_or(0);
        let pu_tail_cycle = worker.clock.noc_cycle_for_fs(max_pu_fs);
        base = drained.max(pu_tail_cycle) + termination;
        sync.barrier.wait_leader(&mut sense, || {
            sync.stop.store(false, Ordering::Release);
            final_cycle.store(base, Ordering::Release);
            if let Some(t) = telem {
                t.publish(cycle, frame, sample, false);
            }
        })?;
        // a tripped ward ends the run here: every worker contributes its
        // queue diagnostics (slow path, only after a trip) and bails out
        // of the kernel sequence together
        if let Some(t) = telem {
            if t.tripped.load(Ordering::Acquire) {
                *t.diags[widx].lock().expect("telemetry diag lock") =
                    worker.telemetry_diag(&shards, DIAG_TILES);
                return Ok(());
            }
            if t.stream_dead.load(Ordering::Acquire) {
                return Ok(());
            }
        }
        if sync.limit_hit.load(Ordering::Acquire) {
            return Ok(());
        }
    }
    Ok(())
}

/// Worker `widx`'s share of the captures closing at `cycle`: closes its
/// partial `frame` (depositing a copy when frames are streamed) and
/// deposits its counters for a `sample`.
fn capture<A: Application>(
    worker: &mut Worker<A>,
    shards: &mut [&mut Shard],
    cycle: u64,
    frame: bool,
    sample: bool,
    telem: Option<&TelemetryState>,
    widx: usize,
) {
    if frame {
        worker.capture_frame(shards, cycle);
    }
    let Some(t) = telem else { return };
    if frame && t.stream_frames {
        let closed = worker.frames.frames.last().expect("a frame just closed");
        t.frames[widx]
            .lock()
            .expect("telemetry frame lock")
            .clone_from(closed);
    }
    if sample {
        *t.samples[widx].lock().expect("telemetry sample lock") = worker.telemetry_sample(shards);
    }
}

/// One synchronized snapshot: every worker encodes its chunk, then the
/// barrier leader stitches the chunks into the snapshot file (written to
/// a temp file and renamed, so a crash mid-write never corrupts the
/// previous snapshot). All workers reach this at the same `cycle`, so the
/// extra barrier pairs up cleanly. Failures are recorded, not raised: the
/// run continues and the driver surfaces the first error at the end.
#[allow(clippy::too_many_arguments)]
fn take_checkpoint<A: Application>(
    worker: &Worker<A>,
    app: &A,
    shards: &[&mut Shard],
    sync: &SyncState,
    ckpt: &CheckpointState,
    at: Progress,
    sense: &mut bool,
    widx: usize,
) -> Result<(), Poisoned> {
    {
        let mut buf = ckpt.chunks[widx].lock().expect("checkpoint chunk lock");
        // clear() keeps the capacity: snapshot N+1 reuses snapshot N's
        // allocation instead of re-growing a multi-megabyte buffer
        buf.clear();
        if let Err(why) = worker.encode_chunk_into(app, shards, at.cycle, &mut buf) {
            ckpt.record_error(why);
        }
    }
    sync.barrier.wait_leader(sense, || {
        if ckpt.error.lock().expect("checkpoint error lock").is_some() {
            return;
        }
        // read the workers' buffers in place — no take, no reassembly;
        // the guards pin the buffers for the duration of the write
        let guards: Vec<_> = ckpt
            .chunks
            .iter()
            .map(|m| m.lock().expect("checkpoint chunk lock"))
            .collect();
        let chunks: Vec<&[u8]> = guards.iter().map(|g| g.as_slice()).collect();
        if let Err(why) =
            crate::snapshot::write_snapshot_file(&ckpt.path, &ckpt.file_prefix, at, &chunks)
        {
            ckpt.record_error(why);
        }
    })
}
