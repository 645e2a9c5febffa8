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
//!    quiescence (the pending shares sum to zero), a ward or stream stop,
//!    or the next cycle to execute.
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
//! Everything the workers share lives in one [`Run`], built by [`drive`]
//! and borrowed by every worker: the per-run constants, the barrier, one
//! [`Stop`] reason, and one [`Slot`] per worker. A worker writes only its
//! own slot — its pending share, horizon and PU tail as atomics, and one
//! locked deposit for its snapshot chunk, telemetry sample, closed frame
//! and ward diagnostics — and the barrier leader reads them all. The
//! leader alone decides why the run stops ([`Run::halt`]); workers read
//! the reason after a barrier, and the teardown is one `match` on it.
//!
//! Because every inter-worker interaction is confined to barrier-separated
//! phases and single-producer queues, a run with N workers is
//! bit-identical to a run with one. The barriers are sense-reversing spin
//! barriers: at one microsecond-scale cycle cost, OS-level barriers would
//! dominate the simulation (the paper reaches linear speedup only because
//! its thread synchronization is similarly cheap). With more workers than
//! host cores a waiter yields at once instead, so the late arriver it
//! waits for gets a core.

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
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
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
/// A waiter spins only while every party can hold a core of its own;
/// with more parties than host cores a spinning waiter would keep the
/// core the late arriver needs, so it yields at once.
///
/// A worker that unwinds [`SpinBarrier::poison`]s the barrier; waiters
/// see the flag in their spin loop and return [`Poisoned`] instead of
/// waiting for an arrival that will never come.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
    n: usize,
    /// Spins before a waiter starts yielding its core.
    spins: u32,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        // a single party never waits: no need to ask the OS for cores
        let cores_each =
            n > 1 && std::thread::available_parallelism().is_ok_and(|cores| n <= cores.get());
        SpinBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            n,
            spins: if cores_each { 1 << 14 } else { 0 },
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
                if spins < self.spins {
                    spins += 1;
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

/// Why the cycle loop stops. The run keeps the highest reason it was
/// given: the order is the order in which a stopped kernel's exit and
/// the teardown act on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stop {
    Running,
    /// The kernel drained; the next kernel (if any) starts.
    Drained,
    /// A telemetry subscriber failed: simulating on would feed the void.
    DeadStream,
    /// A ward tripped.
    Ward,
}

impl Stop {
    const ALL: [Stop; 4] = [Stop::Running, Stop::Drained, Stop::DeadStream, Stop::Ward];
}

/// Where a restored run re-enters the cycle loop.
#[derive(Clone, Copy)]
pub(crate) struct ResumeState {
    /// The snapshot's kernel, the cycle it was taken at (the
    /// post-`begin_cycle` capture point) and that kernel's base cycle.
    pub at: Progress,
    /// Write a snapshot at `at.cycle` itself (test hook,
    /// `Simulation::resnapshot_on_resume`).
    pub resnapshot: bool,
}

/// One worker's slot in the [`Run`]: written by the worker before a
/// barrier, read by the leader behind it.
#[derive(Default)]
struct Slot {
    /// The worker's pending share ([`Worker::pending`]), every cycle.
    pending: AtomicI64,
    /// The worker's next-event horizon, every cycle in leap mode.
    horizon: AtomicU64,
    /// The worker's max PU completion time in femtoseconds, at kernel
    /// end.
    max_pu_fs: AtomicU64,
    deposit: Mutex<Deposit>,
}

/// What a worker hands the leader when a capture closes or the run
/// ends on a ward.
#[derive(Default)]
struct Deposit {
    /// The worker's encoded snapshot chunk (the buffer is reused).
    chunk: Vec<u8>,
    /// The worker's counters at the sample that just closed.
    sample: WorkerSample,
    /// A copy of the partial frame the worker just closed (streamed
    /// frames only).
    frame: Frame,
    /// The worker's worst-backlogged tiles, after a ward trip.
    diag: Vec<TileDiag>,
}

/// Aggregator + ward engine, used only inside barrier leader actions.
struct Leader {
    agg: SampleAggregator,
    wards: WardEngine,
    /// Scratch for the per-sample merge (reused, never reallocated).
    merged: Vec<WorkerSample>,
    /// The first tripped ward.
    trip: Option<WardTrip>,
}

/// Everything the workers of one run share.
struct Run<'a, A: Application> {
    app: &'a A,
    /// The shared half of every NoC plane.
    shareds: Vec<&'a SharedNet>,
    kernels: u32,
    termination: u64,
    leap: bool,
    resume: Option<ResumeState>,
    /// The statistics-frame and telemetry-sample cadences, where armed.
    armed: [Option<Cadence>; 2],
    barrier: SpinBarrier,
    slots: Vec<Slot>,
    /// The [`Stop`] reason, written only by [`Run::halt`] inside a leader
    /// action and read after the barrier that releases it.
    stop: AtomicU8,
    /// The cycle at which the current kernel stopped.
    stop_cycle: AtomicU64,
    /// The next cycle to execute, decided by the leader (leap mode).
    next_cycle: AtomicU64,
    /// The last kernel's end cycle: the run's runtime.
    final_cycle: AtomicU64,
    /// Snapshot file path, when snapshots are written periodically or
    /// post-mortem on a ward trip.
    snap_path: Option<String>,
    /// Snapshot cadence in NoC cycles (`u64::MAX`: trip snapshots only).
    snap_every: u64,
    /// The pre-encoded magic, version and identity header, identical for
    /// every snapshot of this run.
    snap_prefix: Vec<u8>,
    /// First snapshot error from any worker or the writer; surfaced
    /// after the run.
    snap_error: Mutex<Option<String>>,
    /// A ward trip writes a snapshot before the run stops.
    snap_on_trip: bool,
    /// Cycle at (or after) which the post-mortem trip snapshot must be
    /// taken; `u64::MAX` while no trip snapshot is pending.
    trip_snap_at: AtomicU64,
    /// Fan-out to the subscriber thread (never blocks the barrier); `None`
    /// when nobody samples.
    hub: Option<TelemetryHub>,
    /// Whether closed frames ride the stream too: verbosity ≥ V1 and
    /// somebody subscribed.
    stream_frames: bool,
    leader: Mutex<Leader>,
}

impl<A: Application> Run<'_, A> {
    fn reason(&self) -> Stop {
        Stop::ALL[usize::from(self.stop.load(Ordering::Acquire))]
    }

    /// Leader only: stops the run at `cycle` for `why`, unless it already
    /// stops for a weightier reason.
    fn halt(&self, cycle: u64, why: Stop) {
        self.stop_cycle.store(cycle, Ordering::Release);
        self.stop.fetch_max(why as u8, Ordering::AcqRel);
    }

    /// Records a snapshot error unless an earlier one claimed the slot.
    fn snap_failed(&self, why: String) {
        lock(&self.snap_error).get_or_insert(why);
    }

    /// The decision phase, run by the last worker to reach the barrier
    /// after `cycle`.
    fn decide(&self, cycle: u64, [frame, sample]: [bool; 2]) {
        // a deferred trip snapshot was captured this cycle: the run stops
        // here, before any normal decision can race it
        if self.trip_snap_at.load(Ordering::Acquire) <= cycle && lock(&self.leader).trip.is_some() {
            self.halt(cycle, Stop::Ward);
            self.publish(cycle, frame, sample, false);
            return;
        }
        let pending: i64 = self
            .slots
            .iter()
            .map(|s| s.pending.load(Ordering::Acquire))
            .sum();
        if pending == 0 {
            self.halt(cycle, Stop::Drained);
        } else if self.leap {
            // min-reduce the published horizons and jump if nothing can
            // happen sooner
            let mut next = self
                .slots
                .iter()
                .map(|s| s.horizon.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            if next == u64::MAX {
                next = cycle + 1; // defensive: pending work implies a horizon
            }
            if next > cycle + 1 {
                // cross-shard mailboxes (only readable after the step
                // barrier) can only shorten a prospective leap — their
                // horizons are >= cycle + 1, so the locking scan is
                // skipped when no leap is on the table
                for shared in &self.shareds {
                    if let Some(c) = shared.mailbox_next_event_cycle(cycle) {
                        next = next.min(c);
                    }
                }
            }
            // never leap over a capture boundary: every close of an
            // armed cadence is an executed cycle
            for cadence in self.armed.into_iter().flatten() {
                next = next.min(cadence.next_close(cycle));
            }
            self.next_cycle.store(next, Ordering::Release);
        }
        // merge, stream, and ward-check what closed this cycle (after the
        // stop decision: a drained run still emits its final records, but
        // wards no longer fire)
        if self.publish(cycle, frame, sample, self.reason() == Stop::Running) {
            if self.snap_on_trip {
                // defer the stop one cycle so every worker reaches the
                // next capture point and writes the post-mortem snapshot
                // first
                self.trip_snap_at.store(cycle + 1, Ordering::Release);
                if self.leap {
                    self.next_cycle.store(cycle + 1, Ordering::Release);
                }
            } else {
                self.halt(cycle, Stop::Ward);
            }
        }
    }

    /// Leader only: merges what the workers deposited for `cycle` and
    /// streams it, the frame first. The wards see the sample only when
    /// `judge` (the last sample of a stopped kernel is reported, not
    /// judged); returns whether one tripped. A failed subscriber halts
    /// the run here rather than after simulating on into the void.
    fn publish(&self, cycle: u64, frame: bool, sample: bool, judge: bool) -> bool {
        let Some(hub) = &self.hub else { return false };
        if frame && self.stream_frames {
            let mut parts = self.slots.iter().map(|s| lock(&s.deposit));
            let mut merged = std::mem::take(&mut parts.next().expect("at least one worker").frame);
            for part in parts {
                merged.merge(&part.frame);
            }
            hub.publish_frame(merged);
        }
        let mut tripped = false;
        if sample {
            let mut st = lock(&self.leader);
            let st = &mut *st;
            st.merged.clear();
            for slot in &self.slots {
                st.merged.push(lock(&slot.deposit).sample.clone());
            }
            let sample = st.agg.merge(cycle, &st.merged);
            if let Some(trip) = judge.then(|| st.wards.observe(&sample)).flatten() {
                st.trip = Some(trip);
                tripped = true;
            }
            hub.publish(sample);
        }
        if hub.failed() {
            self.halt(cycle, Stop::DeadStream);
        }
        tripped
    }
}

/// Locks one of the run's mutexes. Only a panic while holding it poisons
/// one, and a worker that panics never completes the barrier behind
/// which the others would read it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no worker panics holding a run lock")
}

/// The telemetry hub, and whether anybody subscribed to it, when the
/// configuration (or an attached test subscriber) asks for a stream.
fn telemetry_hub(
    cfg: &SystemConfig,
    extra: Vec<Box<dyn Subscriber>>,
) -> Result<Option<(TelemetryHub, bool)>, SimError> {
    let t = &cfg.telemetry;
    if t.sample_every.is_none() || (!t.wants_sampling() && extra.is_empty()) {
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
    let subscribed = !subs.is_empty();
    Ok(Some((TelemetryHub::spawn(subs), subscribed)))
}

/// Runs the whole simulation and assembles the result.
pub(crate) fn drive<A: Application>(
    cfg: &SystemConfig,
    app: &A,
    setup: SimSetup<A>,
    resume: Option<ResumeState>,
    subscribers: Vec<Box<dyn Subscriber>>,
) -> Result<SimResult, SimError> {
    let started = Instant::now();
    let SimSetup {
        mut workers,
        mut networks,
    } = setup;
    let nworkers = workers.len();
    // a snapshot path is also needed without a periodic cadence when a
    // ward trip may want a post-mortem snapshot (cadence u64::MAX then:
    // no periodic boundary is ever crossed)
    let snap_path = cfg
        .checkpoint_path
        .clone()
        .filter(|_| cfg.checkpoint_every.is_some() || cfg.telemetry.snapshot_on_trip);
    let frame_cadence = workers[0].frame_cadence;
    let (hub, subscribed) = telemetry_hub(cfg, subscribers)?.unzip();
    let stream_frames = frame_cadence.is_some() && subscribed == Some(true);
    let sample_cadence = hub
        .as_ref()
        .and(cfg.telemetry.sample_every)
        .map(Cadence::new);
    let start_cycle = resume.map_or(0, |r| r.at.cycle);
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
    let run = Run {
        app,
        shareds,
        kernels: app.kernels(),
        termination: cfg.termination_latency_cycles(),
        leap: cfg.time_leap,
        resume,
        armed: [frame_cadence, sample_cadence],
        barrier: SpinBarrier::new(nworkers),
        slots: (0..nworkers).map(|_| Slot::default()).collect(),
        stop: AtomicU8::new(Stop::Running as u8),
        stop_cycle: AtomicU64::new(0),
        next_cycle: AtomicU64::new(0),
        final_cycle: AtomicU64::new(0),
        snap_every: cfg.checkpoint_every.map_or(u64::MAX, |e| e.max(1)),
        snap_prefix: snap_path
            .as_ref()
            .map_or_else(Vec::new, |_| Header::of(cfg, app).file_prefix()),
        snap_on_trip: cfg.telemetry.snapshot_on_trip && snap_path.is_some(),
        snap_path,
        snap_error: Mutex::new(None),
        trip_snap_at: AtomicU64::new(u64::MAX),
        hub,
        stream_frames,
        leader: Mutex::new(Leader {
            agg: SampleAggregator::new(start_cycle),
            wards: WardEngine::new(cfg.telemetry.wards.clone(), start_cycle),
            merged: Vec::with_capacity(nworkers),
            trip: None,
        }),
    };
    // the first worker to unwind, as `(worker, panic message)`
    let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
    // Runs one worker's loop to its end. A panic anywhere inside it (an
    // app task, a broken invariant) is caught here, recorded, and poisons
    // the barrier so the peers leave their loops too instead of spinning
    // for an arrival that will never come.
    let run_worker = |widx: usize, worker: &mut Worker<A>, shards: Vec<&mut Shard>| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(&run, widx, worker, shards)
        }));
        if let Err(payload) = outcome {
            run.barrier.poison();
            panicked
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get_or_insert_with(|| (widx, panic_message(payload.as_ref())));
        }
    };
    std::thread::scope(|scope| {
        let mut rest = per_worker;
        let my_shards = rest.remove(0);
        let (first_worker, rest_workers) = workers.split_first_mut().expect("at least one worker");
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
    let stop = run.reason();
    let runtime_cycles = run.final_cycle.into_inner();
    let snapshot_error = run.snap_error.into_inner().expect("snapshot error lock");
    // close the subscriber stream; a ward trip outranks stream and
    // snapshot errors — those are folded into its report instead of
    // masking it
    let (telemetry_dropped, stream_error) = match run.hub {
        Some(hub) => (hub.dropped(), hub.close().err()),
        None => (0, None),
    };
    match (stop, stream_error, snapshot_error) {
        (Stop::Ward, stream_error, snapshot_error) => {
            let trip = lock(&run.leader)
                .trip
                .take()
                .expect("a ward stop has a recorded trip");
            let mut tiles: Vec<TileDiag> = run
                .slots
                .into_iter()
                .flat_map(|s| s.deposit.into_inner().expect("deposit lock").diag)
                .collect();
            tiles.sort_by(|a, b| b.backlog().cmp(&a.backlog()).then(a.tile.cmp(&b.tile)));
            tiles.truncate(DIAG_TILES);
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
                telemetry_dropped,
            );
            partial.termination = format!("ward:{}", trip.ward);
            Err(SimError::Ward(Box::new(WardReport {
                ward: trip.ward.to_string(),
                cycle: trip.cycle,
                detail: trip.detail,
                tiles,
                snapshot_path,
                snapshot_error,
                stream_error,
                partial: Some(Box::new(partial)),
            })))
        }
        (_, Some(why), _) => Err(SimError::Telemetry(why)),
        (_, None, Some(why)) => Err(SimError::Snapshot(why)),
        _ => {
            if let Some(path) = &cfg.noc_trace {
                // one merged, canonically sorted trace across planes and
                // shards; a tile's same-cycle packets keep their
                // channel-queue order
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
                telemetry_dropped,
            ))
        }
    }
}

/// The per-thread kernel + cycle loop of worker `widx`.
fn worker_loop<A: Application>(
    run: &Run<'_, A>,
    widx: usize,
    worker: &mut Worker<A>,
    mut shards: Vec<&mut Shard>,
) -> Result<(), Poisoned> {
    let mut sense = false;
    let slot = &run.slots[widx];
    // the capture schedule, for whichever of the two kinds is armed: a
    // statistics frame and a telemetry sample close on every boundary of
    // their cadence inside a kernel's cycle loop, and once more where the
    // kernel stopped (so the stream ends on the kernel's totals) unless
    // that was a boundary, which closed them already
    let closing = |cycle: u64, kernel_end: bool| {
        run.armed
            .map(|c| c.is_some_and(|c| c.closes(cycle) != kernel_end))
    };
    // on resume the restored kernel's state is already in place, so the
    // loop re-enters at the snapshot cycle without a fresh start_kernel
    let (start_kernel, mut resume_cycle) = match run.resume {
        Some(r) => (r.at.kernel, Some(r.at.cycle)),
        None => (0, None),
    };
    let mut base = run.resume.map_or(0, |r| r.at.base);
    // the first snapshot boundary strictly after the starting cycle;
    // derived from barrier-synchronized values only, so every worker
    // agrees on each snapshot cycle without communicating
    let mut next_snap = match run.resume {
        _ if run.snap_path.is_none() => u64::MAX,
        Some(r) if r.resnapshot => r.at.cycle,
        _ => (run.resume.map_or(0, |r| r.at.cycle) / run.snap_every + 1) * run.snap_every,
    };
    for kernel in start_kernel..run.kernels {
        let mut cycle = match resume_cycle.take() {
            Some(c) => c,
            None => {
                worker.start_kernel(kernel);
                base
            }
        };
        loop {
            // local phase: everything here touches only worker-owned state
            worker.begin_cycle(&mut shards, &run.shareds);
            // the capture point is right after begin_cycle: deferred
            // frees, deferred pushes, and cross-shard mailboxes are all
            // drained, so every in-flight packet sits in a router queue.
            // Time leaping may skip the exact boundary; the first
            // executed cycle at or past it is the snapshot cycle. A
            // pending ward-trip snapshot (scheduled by the leader for
            // the cycle after the trip) uses the same capture point.
            let trip_snap = run.trip_snap_at.load(Ordering::Acquire);
            if run.snap_path.is_some() && (cycle >= next_snap || cycle >= trip_snap) {
                let at = Progress {
                    kernel,
                    cycle,
                    base,
                };
                take_checkpoint(run, widx, worker, &shards, at, &mut sense)?;
                next_snap = (cycle / run.snap_every + 1) * run.snap_every;
            }
            worker.pu_phase(run.app, cycle);
            worker.inject_phase(&mut shards, &run.shareds, cycle);
            run.barrier.wait(&mut sense)?;
            // step phase
            worker.net_step(&mut shards, &run.shareds, cycle);
            // this worker's share of what closes now, taken before the
            // decision barrier so the leader can merge coherent records
            let closes = closing(cycle, false);
            capture(run, widx, worker, &mut shards, cycle, closes);
            slot.pending
                .store(worker.pending(&shards), Ordering::Release);
            if run.leap {
                let h = worker.horizon(&shards, cycle);
                slot.horizon.store(h, Ordering::Release);
            }
            // decision phase: the last thread to arrive decides
            run.barrier
                .wait_leader(&mut sense, || run.decide(cycle, closes))?;
            if run.reason() != Stop::Running {
                break;
            }
            let next = if run.leap {
                run.next_cycle.load(Ordering::Acquire)
            } else {
                cycle + 1
            };
            if next > cycle + 1 {
                worker.leap_to(&mut shards, cycle, next, &run.armed);
            }
            cycle = next;
        }
        let [frame, sample] = closing(cycle, true);
        capture(run, widx, worker, &mut shards, cycle, [frame, sample]);
        // publish this worker's PU tail and compute the kernel barrier
        slot.max_pu_fs.store(worker.max_pu_fs, Ordering::Release);
        run.barrier.wait(&mut sense)?;
        let drained = run.stop_cycle.load(Ordering::Acquire);
        let max_pu_fs = run
            .slots
            .iter()
            .map(|s| s.max_pu_fs.load(Ordering::Acquire))
            .max()
            .unwrap_or(0);
        let pu_tail_cycle = worker.clock.noc_cycle_for_fs(max_pu_fs);
        base = drained.max(pu_tail_cycle) + run.termination;
        run.barrier.wait_leader(&mut sense, || {
            // a drained kernel hands over to the next; every other
            // reason ends the run
            let _ = run.stop.compare_exchange(
                Stop::Drained as u8,
                Stop::Running as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            run.final_cycle.store(base, Ordering::Release);
            run.publish(cycle, frame, sample, false);
        })?;
        match run.reason() {
            Stop::Running => {}
            // a tripped ward ends the run here: every worker contributes
            // its queue diagnostics (slow path, only after a trip)
            Stop::Ward => {
                lock(&slot.deposit).diag = worker.telemetry_diag(&shards, DIAG_TILES);
                return Ok(());
            }
            _ => return Ok(()),
        }
    }
    Ok(())
}

/// Worker `widx`'s share of the captures closing at `cycle`: closes its
/// partial `frame` (depositing a copy when frames are streamed) and
/// deposits its counters for a `sample`.
fn capture<A: Application>(
    run: &Run<'_, A>,
    widx: usize,
    worker: &mut Worker<A>,
    shards: &mut [&mut Shard],
    cycle: u64,
    [frame, sample]: [bool; 2],
) {
    if frame {
        worker.capture_frame(shards, cycle);
        if run.stream_frames {
            let closed = worker.frames.frames.last().expect("a frame just closed");
            lock(&run.slots[widx].deposit).frame.clone_from(closed);
        }
    }
    if sample {
        lock(&run.slots[widx].deposit).sample = worker.telemetry_sample(shards);
    }
}

/// One synchronized snapshot: every worker encodes its chunk, then the
/// barrier leader stitches the chunks into the snapshot file (written to
/// a temp file and renamed, so a crash mid-write never corrupts the
/// previous snapshot). All workers reach this at the same `at.cycle`, so
/// the extra barrier pairs up cleanly. Failures are recorded, not raised:
/// the run continues and the driver surfaces the first error at the end.
fn take_checkpoint<A: Application>(
    run: &Run<'_, A>,
    widx: usize,
    worker: &Worker<A>,
    shards: &[&mut Shard],
    at: Progress,
    sense: &mut bool,
) -> Result<(), Poisoned> {
    {
        let mut deposit = lock(&run.slots[widx].deposit);
        // clear() keeps the capacity: snapshot N+1 reuses snapshot N's
        // allocation instead of re-growing a multi-megabyte buffer
        deposit.chunk.clear();
        if let Err(why) = worker.encode_chunk_into(run.app, shards, at.cycle, &mut deposit.chunk) {
            run.snap_failed(why);
        }
    }
    run.barrier.wait_leader(sense, || {
        if lock(&run.snap_error).is_some() {
            return;
        }
        let path = run.snap_path.as_deref().expect("snapshots are written");
        // read the workers' buffers in place — no take, no reassembly;
        // the guards pin the buffers for the duration of the write
        let deposits: Vec<_> = run.slots.iter().map(|s| lock(&s.deposit)).collect();
        let chunks: Vec<&[u8]> = deposits.iter().map(|d| d.chunk.as_slice()).collect();
        if let Err(why) = crate::snapshot::write_snapshot_file(path, &run.snap_prefix, at, &chunks)
        {
            run.snap_failed(why);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leader_counts_every_arrival_when_workers_outnumber_cores() {
        const ROUNDS: usize = 300;
        let n = 4 * std::thread::available_parallelism().map_or(1, |c| c.get());
        let barrier = SpinBarrier::new(n);
        assert_eq!(barrier.spins, 0, "more workers than cores must not spin");
        let arrived = AtomicUsize::new(0);
        let rounds = AtomicUsize::new(0);
        let miscounted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    let mut sense = false;
                    for _ in 0..ROUNDS {
                        // relaxed: the barrier's own acquire/release
                        // orders each arrival before the leader's count
                        arrived.fetch_add(1, Ordering::Relaxed);
                        let waited = barrier.wait_leader(&mut sense, || {
                            if arrived.swap(0, Ordering::Relaxed) != n {
                                miscounted.fetch_add(1, Ordering::Relaxed);
                            }
                            rounds.fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(waited.is_ok(), "nobody poisons this barrier");
                    }
                });
            }
        });
        assert_eq!(rounds.into_inner(), ROUNDS);
        assert_eq!(
            miscounted.into_inner(),
            0,
            "a leader ran before every arrival"
        );
    }
}
