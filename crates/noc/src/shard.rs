//! Column shards: the unit of host-thread parallelism.
//!
//! The simulator parallelizes over *columns* of the tile grid (paper
//! §III-C); each shard owns the routers of a contiguous column range.
//! Packets crossing a shard boundary travel through single-producer
//! mailboxes and buffer space is reserved through a shared atomic
//! credit table, so stepping shards concurrently is bit-identical to
//! stepping them sequentially: every queue has exactly one upstream
//! router, freed buffer space becomes visible at the next cycle boundary
//! in both modes, and packets never move in the cycle they arrive.
//!
//! Router state is split three ways. The per-cycle scalars the sweeps
//! actually read — `queued_msgs`, `wake`, `busy_until`, `rr_ptr` — live in
//! dense arrays indexed by local router id, so the active-router drain
//! walks contiguous memory. The packets live in one [`PacketArena`] per
//! shard (see [`crate::router`]): a router input queue is a pair of node
//! ids, and a hop to a router of the same shard unlinks the head node,
//! stamps `vc`/`ready_at` in place, parks the node *id* in
//! `pending_pushes` and links it to the destination queue at the next
//! cycle boundary — the packet itself never moves. The shard takes a
//! `Packet` out of its arena only to eject it, to hand it to another
//! shard's mailbox (node ids index this shard's arena and mean nothing in
//! another's), or when an arriving packet combines into a queued one.
//! What is left per router — 13 queue links, the combine index, the stall
//! memo — sits in a lazily materialized `Box<RouterState>`: a router that
//! never sees a packet costs one null pointer plus a few SoA slots. A
//! *drained* router returns its box to a per-shard free-list — its link
//! clocks survive in the SoA arrays (they must: `busy_until` keeps
//! serializing across idle gaps), while the next router to wake reuses the
//! box and its index allocation instead of round-tripping the allocator.

use crate::counters::{class_index, NocCounters, RouterVisits};
use crate::credit::{admits, Credit};
use crate::latency::LatencyStats;
use crate::network::{lock, EjectSink, SharedNet};
use crate::packet::Packet;
use crate::port::{InPort, OutDir, IN_PORTS, OUT_DIRS};
use crate::route;
use crate::router::{PacketArena, RouterState, StallMemo};
use crate::slice::ColSlice;
use crate::topo::TopoInfo;
use crate::trace::TraceEvent;
use crate::worklist::{ActiveSet, Keep};
use std::ops::Range;

/// Per-visit scratch: the ready heads of one router, grouped by the
/// output direction they route to.
///
/// `port` and `vc` are only ever read at indices the current visit wrote
/// (`n` gates every access), so they carry stale bytes between routers
/// instead of being re-zeroed ~130 bytes per visit. `n` alone must be
/// all-zero when a scan starts.
struct Candidates {
    /// Candidate input ports per direction, in ascending port order.
    port: [[u8; IN_PORTS]; OUT_DIRS],
    /// Live entries of `port` per direction.
    n: [u8; OUT_DIRS],
    /// The virtual channel each candidate port's head continues on.
    vc: [u8; IN_PORTS],
}

impl Candidates {
    fn new() -> Self {
        Candidates {
            port: [[0; IN_PORTS]; OUT_DIRS],
            n: [0; OUT_DIRS],
            vc: [0; IN_PORTS],
        }
    }

    /// The candidates of direction `oi`, as the arbiter sees them.
    #[inline]
    fn of(&self, oi: usize) -> &[u8] {
        &self.port[oi][..self.n[oi] as usize]
    }

    /// Computes each ready head's routing decision once, visiting
    /// occupied ports only. Returns the mask of directions holding a
    /// candidate and the earliest `ready_at` among immature heads
    /// (`u64::MAX` if none).
    #[inline]
    fn scan(
        &mut self,
        router: &RouterState,
        arena: &PacketArena,
        topo: &TopoInfo,
        tile: u32,
        cycle: u64,
    ) -> (u16, u64) {
        let mut ripen = u64::MAX;
        let mut dirty: u16 = 0;
        let mut mask = router.port_mask();
        while mask != 0 {
            let port = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let head = router.front(arena, port).expect("mask bit implies a head");
            if head.ready_at <= cycle {
                let d = route::decide(topo, tile, InPort::ALL[port], head.vc, head.dst);
                let oi = d.dir.index();
                self.port[oi][self.n[oi] as usize] = port as u8;
                self.n[oi] += 1;
                self.vc[port] = d.vc;
                dirty |= 1 << oi;
            } else {
                ripen = ripen.min(head.ready_at);
            }
        }
        (dirty, ripen)
    }
}

/// What a full visit at `cycle` that moves nothing has established, given
/// the scan results `(dirty, ripen)` in `c`: `false` when some candidate
/// could still move or an ejection would be attempted — otherwise `true`,
/// with `memo` holding the verdict the router can sleep on. A verdict with
/// no stalled direction (`dirs == 0`) means every candidate link is merely
/// busy.
///
/// The verdict is built in place, in a scratch memo the caller keeps
/// (one per shard): only its header, `cands` and `watched()` are written,
/// and on `false` it holds a partial verdict nobody reads.
///
/// All candidates of a free link must be refused, not just the
/// round-robin pick: the pointer reaches a winner within `n` cycles
/// otherwise. Reads nothing but its arguments, so the debug oracle can
/// re-run it on every router found asleep.
#[allow(clippy::too_many_arguments)]
fn stall_verdict(
    c: &Candidates,
    mut dirty: u16,
    ripen: u64,
    router: &RouterState,
    arena: &PacketArena,
    busy_until: &[u64],
    cycle: u64,
    topo: &TopoInfo,
    tile: u32,
    occupancy: &[Credit],
    memo: &mut StallMemo,
) -> bool {
    memo.until = ripen;
    memo.dirs = 0;
    memo.collisions = 0;
    memo.n_watch = 0;
    memo.cands = [0; OUT_DIRS];
    while dirty != 0 {
        let oi = dirty.trailing_zeros() as usize;
        dirty &= dirty - 1;
        if busy_until[oi] > cycle {
            memo.until = memo.until.min(busy_until[oi]);
            continue;
        }
        if oi == OutDir::Eject.index() {
            return false; // the sink is asked every cycle, never memoized
        }
        let cands = c.of(oi);
        for &port in cands {
            let port = port as usize;
            let (dest, in_port) = topo
                .neighbor(tile, OutDir::BY_INDEX[oi], c.vc[port])
                .expect("routing chose a non-existent link");
            let qid = topo.queue_id(dest, in_port);
            let occ = occupancy[qid].flits();
            let flits = router.front(arena, port).expect("candidate has head").flits as u32;
            if admits(occ, flits, topo.queue_capacity_flits) {
                return false;
            }
            let Ok(qid) = u32::try_from(qid) else {
                return false;
            };
            let seen = (qid, occ);
            if !memo.watched().contains(&seen) {
                memo.watch[memo.n_watch as usize] = seen;
                memo.n_watch += 1;
            }
            memo.cands[oi] |= 1 << port;
        }
        memo.dirs |= 1 << oi;
        memo.collisions += (cands.len() - 1) as u8;
    }
    true
}

/// The round-robin successor of `last` among the ports set in `mask`:
/// [`Shard::round_robin_pick`] over the bitmask form of a candidate list.
fn next_rr(mask: u16, last: u8) -> u8 {
    let above = mask & u16::MAX.checked_shl(u32::from(last) + 1).unwrap_or(0);
    (if above != 0 { above } else { mask }).trailing_zeros() as u8
}

/// `k` applications of [`next_rr`] in closed form: where the arbitration
/// pointer of a direction stands after `k` cycles in which the same
/// candidates `mask` were all refused. The first application lands on a
/// member of `mask`; every further one steps to the next member,
/// cyclically.
fn rotate_rr(mask: u16, last: u8, k: u64) -> u8 {
    if k == 0 {
        return last;
    }
    let first = next_rr(mask, last);
    let rank = (mask & ((1 << first) - 1)).count_ones();
    let target = (u64::from(rank) + (k - 1)) % u64::from(mask.count_ones());
    let mut rest = mask;
    for _ in 0..target {
        rest &= rest - 1;
    }
    rest.trailing_zeros() as u8
}

/// Debug-build oracle for the event-driven wake: a router found asleep on
/// a stall memo is re-evaluated from scratch, read-only, and must reach
/// the memo's verdict again — nothing moves, no ejection is attempted,
/// same stalled directions, candidates and watched credit, and the
/// verdict has not expired. Anything else means a wake event was missed.
/// Every router-cycle every sleeper of every debug test skips — on the
/// worklist or off it — is checked against per-cycle re-evaluation this
/// way, not trusted (see `Shard::check_sleepers`).
#[allow(clippy::too_many_arguments)]
fn assert_sleep_is_sound(
    memo: &StallMemo,
    router: &RouterState,
    arena: &PacketArena,
    busy_until: &[u64],
    cycle: u64,
    topo: &TopoInfo,
    tile: u32,
    occupancy: &[Credit],
) {
    assert!(
        cycle < memo.until,
        "tile {tile} sleeps past its memo's expiry {} at cycle {cycle}",
        memo.until
    );
    let mut c = Candidates::new();
    let (dirty, ripen) = c.scan(router, arena, topo, tile, cycle);
    let mut fresh = StallMemo::default();
    let stalled = stall_verdict(
        &c, dirty, ripen, router, arena, busy_until, cycle, topo, tile, occupancy, &mut fresh,
    );
    assert!(
        stalled && fresh == *memo,
        "tile {tile} slept through a wake event before cycle {cycle}: asleep on {memo:?}"
    );
}

/// After a push that changed a queue head of `router`, lowers its `wake`
/// bound: a router asleep on credit settles and re-evaluates at the next
/// step (its verdict covered the old heads), any other router may act
/// once the new head is ripe. A push *behind* a head never comes here:
/// `wake` is a function of the heads and the link clocks alone, and is
/// recomputed by the full visit that moves the head out of the way.
#[inline]
fn wake_for_new_head(wake: &mut u64, router: &RouterState, ready_at: u64) {
    *wake = if router.sleeping().is_some() {
        0
    } else {
        (*wake).min(ready_at)
    };
}

/// What the routers asleep on credit owe per executed cycle: each would
/// have been refused again, adding its memo's deltas to the counters.
/// [`Shard::step`] pays the whole shard's debt in one addition.
#[derive(Debug, Default)]
struct Owed {
    /// Routers asleep on a stall memo.
    sleepers: u64,
    /// Σ `memo.collisions` over them.
    collisions: u64,
    /// Σ stalled directions over them.
    backpressure: u64,
}

/// Where a router holding traffic goes after its step visit: every one
/// stays listed but a sleeper on credit with no expiry (`wake ==
/// u64::MAX`), which parks. Until a push lists it again (one behind its
/// heads only up to its next visit) or a wake event does, the sweep never
/// touches it.
#[inline]
fn keep_holding(wake: u64) -> Keep {
    if wake == u64::MAX {
        Keep::Parked
    } else {
        Keep::Listed
    }
}

/// A same-shard forward between [`Shard::step`], which unlinked `node`
/// and stamped its packet, and the next [`Shard::begin_cycle`], which
/// links it to queue `port` of router `local` (mirrors the mailbox delay
/// of cross-shard pushes). The global queue id is captured at forward
/// time so `begin_cycle` does not re-derive it from coordinates.
#[derive(Debug, Clone, Copy)]
struct PendingPush {
    local: u32,
    node: u32,
    qid: u32,
    port: u8,
}

/// Lazily materializes the router at `local`, reusing a pooled box when
/// one is available.
///
/// The pool holds `Box`es (not bare `RouterState`s) so a recycled
/// router moves back into the `Option<Box<_>>` slot as a pointer, never
/// memcpying the struct.
#[allow(clippy::vec_box)]
fn router_mut<'a>(
    routers: &'a mut [Option<Box<RouterState>>],
    pool: &mut Vec<Box<RouterState>>,
    local: usize,
) -> &'a mut RouterState {
    routers[local].get_or_insert_with(|| pool.pop().unwrap_or_default())
}

/// The credit word of `tile`'s inject queue.
fn inject_credit(shared: &SharedNet, tile: u32) -> &Credit {
    &shared.occupancy[shared.topo.queue_id(tile, InPort::Inject)]
}

/// One column shard of the network.
#[derive(Debug)]
pub struct Shard {
    idx: usize,
    /// The owned columns; local router ids follow its layout.
    slice: ColSlice,
    /// Every packet this shard holds, queued or parked in
    /// `pending_pushes`: live nodes == [`Shard::queued_packets`].
    arena: PacketArena,
    /// Per-router cold state, `None` while the router holds no packets.
    routers: Vec<Option<Box<RouterState>>>,
    /// Drained router boxes awaiting reuse; with the arena's free list
    /// they make steady-state dense traffic allocator-free. Boxes on
    /// purpose — reuse moves a pointer back into the `routers` slot, not
    /// the struct.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<RouterState>>,
    /// Packets queued per router (SoA; the worklist's emptiness check).
    queued_msgs: Vec<u32>,
    /// Earliest cycle at which each router can possibly move a packet
    /// (SoA wake cache; a lower bound). It is a function of the queue
    /// heads, the link clocks and — for a router asleep on credit — the
    /// watched downstream queues; every event that changes one of them
    /// (a delivery that changes a head, returned credit) lowers it, so
    /// strictly before `wake` a step visit is a provable no-op and skips
    /// without touching the router box.
    wake: Vec<u64>,
    /// Cycle until which each output link is busy serializing flits
    /// (SoA, `local * OUT_DIRS + dir`; survives router recycling).
    busy_until: Vec<u64>,
    /// Round-robin arbitration pointer per output direction (SoA,
    /// `local * OUT_DIRS + dir`; survives router recycling).
    rr_ptr: Vec<u8>,
    /// Exact at every cycle boundary: what sleepers owe is paid in full
    /// by each [`Shard::step`].
    counters: NocCounters,
    /// The per-cycle debt of the routers asleep on credit.
    owed: Owed,
    /// Inject queues carrying a waiter mark: each has a tile asleep on
    /// its credit (see [`Shard::wait_for_credit`]).
    inject_waiters: u64,
    /// Tiles whose inject queue returned credit under a waiter mark at
    /// this cycle boundary, for their worker to wake (global ids; see
    /// [`Shard::drain_woken_tiles`]).
    woken_tiles: Vec<u32>,
    /// Scratch the step builds each stall verdict in; a router that goes
    /// to sleep copies the live part into its own memo.
    verdict: StallMemo,
    /// Executed [`Shard::step`]s. Sleeps are measured in ticks, not
    /// cycles: a sleeper is owed one retry per step the shard ran.
    tick: u64,
    /// Host-side ledger of step visits (not simulated state).
    visits: RouterVisits,
    /// Injection-to-ejection latency of every packet delivered by this
    /// shard (generation-to-ejection for scheduled traffic).
    latency: LatencyStats,
    /// Injection trace, recorded when `SystemConfig::noc_trace` is set.
    trace: Option<Vec<TraceEvent>>,
    /// Per-router busy cycles of the current statistics frame; empty when
    /// heat-map tracking is disabled (verbosity < V2).
    busy_frame: Vec<u32>,
    /// Pushes into this shard's own queues, applied at the next cycle
    /// boundary.
    pending_pushes: Vec<PendingPush>,
    /// Occupancy decrements from this cycle's pops, applied at the next
    /// cycle boundary (credit-return delay; keeps parallel == sequential).
    pending_frees: Vec<(usize, u32)>,
    /// Worklist of routers currently holding traffic. Every push site
    /// (inject, deferred pushes, mailbox drains) activates the target;
    /// [`Shard::step`] drops routers it finds drained and parks the
    /// credit sleepers whose verdict has no expiry, which every wake site
    /// (`wake_upstream`, the wake-box drain, a push) lists again. The
    /// invariant "holds traffic ⇒ listed, or parked asleep on credit with
    /// no expiry" holds at every step/horizon point because no router
    /// *gains* traffic during `step` (same-shard forwards defer to
    /// `pending_pushes`, cross-shard ones to mailboxes).
    active: ActiveSet,
}

impl Shard {
    pub(crate) fn new(idx: usize, slice: ColSlice, track_busy: bool, record_trace: bool) -> Self {
        let n = slice.num_tiles();
        Shard {
            idx,
            slice,
            arena: PacketArena::default(),
            routers: vec![None; n],
            pool: Vec::new(),
            queued_msgs: vec![0; n],
            wake: vec![0; n],
            busy_until: vec![0; n * OUT_DIRS],
            rr_ptr: vec![0; n * OUT_DIRS],
            counters: NocCounters::default(),
            owed: Owed::default(),
            inject_waiters: 0,
            woken_tiles: Vec::new(),
            verdict: StallMemo::default(),
            tick: 0,
            visits: RouterVisits::default(),
            latency: LatencyStats::default(),
            trace: if record_trace { Some(Vec::new()) } else { None },
            busy_frame: if track_busy { vec![0; n] } else { Vec::new() },
            pending_pushes: Vec::new(),
            pending_frees: Vec::new(),
            active: ActiveSet::new(n, true),
        }
    }

    /// The column range this shard owns.
    pub fn cols(&self) -> Range<u32> {
        self.slice.cols()
    }

    /// Cumulative counters of this shard.
    pub fn counters(&self) -> &NocCounters {
        &self.counters
    }

    /// What [`Shard::step`] did with its router visits so far (host-side
    /// ledger; starts from zero in a restored run).
    pub(crate) fn router_visits(&self) -> &RouterVisits {
        &self.visits
    }

    /// Routers currently asleep on credit.
    pub fn sleepers(&self) -> u64 {
        self.owed.sleepers
    }

    /// Inject queues of this shard with a tile asleep on their credit.
    pub fn inject_waiters(&self) -> u64 {
        self.inject_waiters
    }

    /// The tiles to wake because their inject queue returned credit under
    /// a waiter mark at this cycle's [`Shard::begin_cycle`] (global ids, in
    /// the order the credit returned). A tile and the router holding its
    /// inject queue always belong to the same worker, which drains this
    /// right after `begin_cycle`, before its inject pass of the cycle.
    pub fn drain_woken_tiles(&mut self) -> std::vec::Drain<'_, u32> {
        self.woken_tiles.drain(..)
    }

    /// Test hook: wakes every router asleep on credit, so the next visit
    /// of each settles and evaluates in full. Results must not depend on
    /// it.
    #[doc(hidden)]
    pub fn forget_stall_memos(&mut self) {
        for local in 0..self.routers.len() {
            let router = self.routers[local].as_deref();
            if router.is_some_and(|r| r.sleeping().is_some()) {
                self.wake_now(local);
            }
        }
    }

    /// Latency statistics of packets this shard delivered.
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Drains the recorded injection trace (empty when recording is off).
    pub(crate) fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Routers whose cold state is currently materialized (holding at
    /// least one packet; drained boxes return to the free-list).
    pub fn allocated_routers(&self) -> usize {
        self.routers.iter().filter(|r| r.is_some()).count()
    }

    /// Drained router boxes waiting in the free-list for reuse.
    pub fn pooled_routers(&self) -> usize {
        self.pool.len()
    }

    /// Packet nodes this shard's arena has ever created (live + vacant):
    /// the high-water mark of packets held at once.
    pub fn arena_nodes(&self) -> usize {
        self.arena.nodes()
    }

    /// The earliest cycle after `now` at which this shard can move a
    /// packet, or `None` if it holds no packets at all.
    ///
    /// Queue heads are the earliest-ready packet of their FIFO (link
    /// serialization makes arrival times monotone within a queue), so
    /// scanning heads plus this shard's own deferred pushes is exact:
    /// strictly before the returned cycle, [`Shard::step`] is a no-op —
    /// no movement, no counter, no busy accounting. A head that is
    /// already ready but stalled (link busy, backpressure, eject refusal)
    /// clamps the horizon to `now + 1` because it retries every cycle.
    /// The time-leaping driver uses this to skip dead cycles while
    /// packets ride long-latency (die-to-die, inter-node) links.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        let floor = now + 1;
        if self.owed.sleepers > 0 || self.inject_waiters > 0 {
            // a router asleep on credit holds a ripe head it is refused
            // every cycle, a tile asleep on inject credit a due send; the
            // credit either waits for may return at the next boundary
            return Some(floor);
        }
        let mut horizon: Option<u64> = None;
        for push in &self.pending_pushes {
            let c = self.arena.get(push.node).ready_at.max(floor);
            horizon = Some(horizon.map_or(c, |h| h.min(c)));
        }
        // with no router asleep on credit only listed routers can hold
        // traffic (every push lists its target; step drops only drained
        // routers and parks only sleepers), so the worklist scan is exact
        for local in self.active.iter() {
            if horizon == Some(floor) {
                return horizon; // cannot get any earlier
            }
            let local = local as usize;
            if self.queued_msgs[local] == 0 {
                continue;
            }
            let Some(r) = self.routers[local].as_deref() else {
                continue;
            };
            let mut mask = r.port_mask();
            while mask != 0 {
                let port = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let head = r.front(&self.arena, port).expect("mask bit implies a head");
                let c = head.ready_at.max(floor);
                horizon = Some(horizon.map_or(c, |h| h.min(c)));
            }
        }
        horizon
    }

    /// Packets currently queued (including pending pushes).
    pub fn queued_packets(&self) -> u64 {
        let queued = self.pending_pushes.len() as u64
            + self.queued_msgs.iter().map(|&q| q as u64).sum::<u64>();
        debug_assert_eq!(queued, self.arena.live() as u64, "packet nodes leaked");
        queued
    }

    /// Links live node `node` into queue `port` of router `local`,
    /// maintaining the worklist, the per-router packet count, the wake
    /// bound, and the credit and combine count when the push combines
    /// (shared by every delivery site).
    fn deliver(&mut self, shared: &SharedNet, local: usize, qid: usize, port: usize, node: u32) {
        let ready_at = self.arena.get(node).ready_at;
        let router = router_mut(&mut self.routers, &mut self.pool, local);
        let pushed = router.link(&mut self.arena, port, node);
        if pushed.new_head {
            wake_for_new_head(&mut self.wake[local], router, ready_at);
        }
        self.active.activate(local as u32);
        if pushed.freed > 0 {
            if shared.occupancy[qid].free(pushed.freed) {
                self.wake_upstream(shared, qid);
            }
            self.counters.reduce_combines += 1;
        } else {
            self.queued_msgs[local] += 1;
        }
    }

    /// Wakes whoever feeds queue `qid`, which has just returned credit
    /// under a waiter mark. Local phase, run by the queue's owner: an
    /// inject queue's tile is listed for its worker to wake
    /// ([`Shard::drain_woken_tiles`]), a router of this shard is woken in
    /// place, another shard's through its wake box, which it drains at
    /// the top of this cycle's step.
    fn wake_upstream(&mut self, shared: &SharedNet, qid: usize) {
        let topo = &shared.topo;
        let (tile, port) = topo.queue_tile_port(qid);
        if port == InPort::Inject {
            self.inject_waiters -= 1;
            self.woken_tiles.push(tile);
            return;
        }
        let up = topo
            .upstream(tile, port)
            .expect("a queue fed by neither a tile nor a router is never marked");
        let (x, y) = topo.coords(up);
        let owner = shared.shard_of_col[x as usize] as usize;
        if owner == self.idx {
            self.wake_now(self.slice.local_of(x, y));
        } else {
            lock(shared.wake_box(owner, self.idx)).push(up);
        }
    }

    /// Makes router `local` re-evaluate at its next step visit, listing it
    /// on the worklist if it holds traffic: a credit sleeper with no
    /// expiry is parked until woken.
    fn wake_now(&mut self, local: usize) {
        self.wake[local] = 0;
        if self.queued_msgs[local] > 0 {
            self.active.activate(local as u32);
        }
    }

    /// Debug-build walk over every router holding traffic, listed or not,
    /// at the top of every step: the `active` invariant (nothing off the
    /// worklist can act: a router holding traffic off it is a parked
    /// credit sleeper with no expiry), the parked count, and
    /// [`assert_sleep_is_sound`] on every sleeper the step will skip.
    fn check_sleepers(&self, shared: &SharedNet, cycle: u64) {
        assert!(self.active.parked_count() as u64 <= self.owed.sleepers);
        let mut parked = 0;
        for (local, &queued) in self.queued_msgs.iter().enumerate() {
            if queued == 0 {
                continue;
            }
            let router = self.routers[local]
                .as_deref()
                .expect("queued packets imply a materialized router");
            let sleep = router.sleeping();
            if !self.active.contains(local as u32) {
                assert!(
                    sleep.is_some()
                        && self.wake[local] == u64::MAX
                        && self.active.is_parked(local as u32),
                    "router {local} of shard {} holds traffic off the worklist",
                    self.idx
                );
                parked += 1;
            }
            if let Some((memo, _)) = sleep.filter(|_| self.wake[local] > cycle) {
                assert_sleep_is_sound(
                    memo,
                    router,
                    &self.arena,
                    &self.busy_until[local * OUT_DIRS..(local + 1) * OUT_DIRS],
                    cycle,
                    &shared.topo,
                    self.slice.global(local),
                    &shared.occupancy,
                );
            }
        }
        assert_eq!(
            parked,
            self.active.parked_count(),
            "parked sleepers miscounted"
        );
    }

    /// Whether `tile`'s inject queue admits a packet of `flits` flits now
    /// (local phase, the queue's owner). Lets a caller leave a message in
    /// its own queue instead of taking it out, building the packet and
    /// putting it back on refusal.
    #[inline]
    pub fn inject_admits(&self, shared: &SharedNet, tile: u32, flits: u16) -> bool {
        let occ = inject_credit(shared, tile).flits();
        admits(occ, flits as u32, shared.inject_capacity_flits)
    }

    /// Leaves the waiter mark on `tile`'s inject queue: the tile goes to
    /// sleep on the queue's credit after a refusal (local phase, the
    /// queue's owner). The next free of the queue consumes the mark and
    /// lists the tile in [`Shard::drain_woken_tiles`]; until then
    /// [`Shard::next_event_cycle`] answers the next cycle, as it does
    /// while a router sleeps on credit. A refusal means the queue holds
    /// flits, so that free is on its way.
    #[inline]
    pub fn wait_for_credit(&mut self, shared: &SharedNet, tile: u32) {
        let credit = inject_credit(shared, tile);
        debug_assert!(credit.flits() > 0, "an empty inject queue refuses nothing");
        if !credit.marked() {
            credit.mark();
            self.inject_waiters += 1;
        }
    }

    /// Injects a packet at `tile`'s local inject queue if the queue
    /// [`Shard::inject_admits`] it, writing the queue's credit in place.
    ///
    /// # Errors
    ///
    /// Returns the packet back if the inject queue is full (the caller's
    /// channel queue keeps it and retries later).
    pub fn inject(&mut self, shared: &SharedNet, tile: u32, pkt: Packet) -> Result<(), Packet> {
        if !self.inject_admits(shared, tile, pkt.flits) {
            return Err(pkt);
        }
        let local = self.slice.local(tile);
        let flits = i64::from(pkt.flits);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::from_packet(&pkt));
        }
        let ready_at = pkt.ready_at;
        let router = router_mut(&mut self.routers, &mut self.pool, local);
        let pushed = router.push(&mut self.arena, InPort::Inject.index(), pkt);
        if pushed.new_head {
            wake_for_new_head(&mut self.wake[local], router, ready_at);
        }
        self.active.activate(local as u32);
        if pushed.freed > 0 {
            self.counters.reduce_combines += 1;
        } else {
            self.queued_msgs[local] += 1;
        }
        self.counters.injected += 1;
        // neither `reserve` (it drops the mark of the tile asleep on this
        // queue) nor `free` (it would wake the tile that is injecting)
        inject_credit(shared, tile).adjust(flits - i64::from(pushed.freed));
        Ok(())
    }

    /// Applies deferred frees (waking the routers asleep on the queues
    /// they return credit to), deferred local pushes, and drains incoming
    /// mailboxes. Must run for every shard (with a barrier in parallel
    /// mode) before any shard's [`Shard::step`] for the same cycle.
    pub fn begin_cycle(&mut self, shared: &SharedNet) {
        let mut frees = std::mem::take(&mut self.pending_frees);
        for (qid, flits) in frees.drain(..) {
            if shared.occupancy[qid].free(flits) {
                self.wake_upstream(shared, qid);
            }
        }
        self.pending_frees = frees;
        let mut pushes = std::mem::take(&mut self.pending_pushes);
        for p in pushes.drain(..) {
            self.deliver(
                shared,
                p.local as usize,
                p.qid as usize,
                p.port as usize,
                p.node,
            );
        }
        self.pending_pushes = pushes;
        for producer in 0..shared.num_shards() {
            if producer == self.idx {
                continue;
            }
            let mut inbox = lock(shared.mailbox(self.idx, producer));
            for (tile, port, pkt) in inbox.drain(..) {
                let local = self.slice.local(tile);
                let qid = shared.topo.queue_id(tile, port);
                let node = self.arena.alloc(pkt);
                self.deliver(shared, local, qid, port.index(), node);
            }
        }
    }

    /// Advances every router holding traffic by one NoC cycle.
    ///
    /// The sweep walks the active-router worklist in ascending local
    /// order (bit-identical to the full scan: idle routers are pure
    /// no-ops) and deactivates routers it leaves drained, recycling their
    /// boxes through the free-list.
    ///
    /// A router holding traffic is in one of three states. *Asleep on
    /// time*: no head can move before `wake` (immature heads, busy
    /// links), the visit returns at once. *Asleep on credit*: its last
    /// full evaluation moved nothing because every candidate was refused
    /// downstream; it left a stall memo, a waiter mark on each refusing
    /// queue and `wake = memo.until` — what the retries it skips would
    /// have added to the counters is paid by the shard (`owed`), what
    /// they would have done to its arbitration pointers is settled when
    /// it wakes. A sleeper whose verdict has no expiry (no busy link, no
    /// immature head: `until == u64::MAX`) parks off the worklist and
    /// costs the sweep nothing until an event lists it again; one with an
    /// expiry stays listed and returns at once like a router asleep on
    /// time. Otherwise the router is *evaluated* in full, which is the
    /// only place packets move and the only place memos are built.
    ///
    /// A sleeper is woken by the events its verdict depends on, never by
    /// polling: a changed head (`deliver`, [`Shard::inject`]) and
    /// returned credit ([`Shard::begin_cycle`] and `deliver` consume the
    /// mark and wake the queue's upstream router) set `wake = 0`, in
    /// place or through the wake boxes drained below; the memo's expiry
    /// is `wake` itself. Every wake site also lists the router again.
    /// Marks are written here, in the step phase, by the queue's unique
    /// upstream router and consumed in the local phase by the queue's
    /// owner (an inject queue's mark is its tile's, written and consumed
    /// in the local phase, see [`Shard::wait_for_credit`]); wake
    /// boxes are filled in the local phase and drained here in the same
    /// cycle — each word has one writer per phase, so parallel and
    /// sequential runs see the same values, and nothing is in flight
    /// when the driver decides how far to advance.
    pub fn step(&mut self, shared: &SharedNet, cycle: u64, sink: &mut dyn EjectSink) {
        let topo = &shared.topo;
        let width = topo.width;
        for producer in 0..shared.num_shards() {
            if producer == self.idx {
                continue;
            }
            for tile in lock(shared.wake_box(self.idx, producer)).drain(..) {
                let local = self.slice.local(tile);
                self.wake_now(local);
            }
        }
        if cfg!(debug_assertions) {
            self.check_sleepers(shared, cycle);
        }
        self.tick += 1;
        // every sleeper would have been refused again this cycle; one that
        // wakes below takes its share back before it evaluates
        self.counters.collisions += self.owed.collisions;
        self.counters.backpressure += self.owed.backpressure;
        let asleep_on_credit = self.owed.sleepers;
        // the sweep visits these, and counts each that does not wake as
        // asleep on time until the tally below
        let listed_sleepers = asleep_on_credit - self.active.parked_count() as u64;
        // split borrows: `router` stays mutably borrowed across the inner
        // loop while counters / pending buffers are updated alongside
        let Shard {
            idx,
            slice,
            arena,
            routers,
            pool,
            queued_msgs,
            wake,
            busy_until,
            rr_ptr,
            counters,
            owed,
            inject_waiters: _,
            woken_tiles: _,
            verdict,
            tick,
            visits,
            latency,
            trace: _,
            busy_frame,
            pending_pushes,
            pending_frees,
            active,
        } = self;
        let tick = *tick;
        active.refresh();
        // lives outside the per-router closure; every full visit leaves
        // `c.n` all-zero for the next one
        let mut c = Candidates::new();
        let mut settled = 0;
        active.retain(|local| {
            let local = local as usize;
            if queued_msgs[local] == 0 {
                return Keep::Dropped;
            }
            if wake[local] > cycle {
                // nothing it waits for has happened; a sleeper with no
                // expiry listed again by a push behind its heads parks
                visits.asleep += 1;
                return keep_holding(wake[local]);
            }
            let links = local * OUT_DIRS..(local + 1) * OUT_DIRS;
            let router = routers[local]
                .as_deref_mut()
                .expect("queued packets imply a materialized router");
            let (x, y) = slice.coords(local);
            let tile = y * width + x;
            if let Some((memo, since)) = router.wake_up() {
                // settle: the retries of the ticks slept through moved
                // each stalled direction's pointer one candidate on, and
                // this tick's share of the debt is the evaluation's own
                let slept = tick - 1 - since;
                let stalled = u64::from(memo.dirs.count_ones());
                let rr = &mut rr_ptr[links.clone()];
                let mut dirs = memo.dirs;
                while dirs != 0 {
                    let oi = dirs.trailing_zeros() as usize;
                    dirs &= dirs - 1;
                    rr[oi] = rotate_rr(memo.cands[oi], rr[oi], slept);
                }
                settled += 1;
                owed.sleepers -= 1;
                owed.collisions -= u64::from(memo.collisions);
                owed.backpressure -= stalled;
                counters.collisions -= u64::from(memo.collisions);
                counters.backpressure -= stalled;
            }
            let (mut dirty, ripen) = c.scan(router, arena, topo, tile, cycle);
            if dirty == 0 {
                // every head is immature: sleep until the earliest ripens
                wake[local] = ripen;
                visits.evaluated_stalled += 1;
                return Keep::Listed;
            }
            // stalled heads (eject refusal, collision losers, a refusal
            // no memo can cover) retry next cycle
            wake[local] = cycle + 1;
            let candidate_dirs = dirty;
            let (collisions0, backpressure0) = (counters.collisions, counters.backpressure);
            let mut moved = false;
            let mut eject_tried = false;
            // Visit only directions holding a candidate, in `OutDir::ALL`
            // order: the Eject bit first (local delivery is never starved
            // by through traffic), then N..RucheW — which is ascending
            // index order, exactly the remaining `ALL` entries.
            while dirty != 0 {
                let oi = if dirty & (1 << OutDir::Eject.index()) != 0 {
                    OutDir::Eject.index()
                } else {
                    dirty.trailing_zeros() as usize
                };
                dirty &= !(1 << oi);
                let out = OutDir::BY_INDEX[oi];
                if busy_until[local * OUT_DIRS + oi] > cycle {
                    continue; // link still serializing a previous message
                }
                let cands = c.of(oi);
                counters.collisions += (cands.len() - 1) as u64;
                let pick = Self::round_robin_pick(cands, rr_ptr[local * OUT_DIRS + oi]);
                rr_ptr[local * OUT_DIRS + oi] = pick;
                let pick = pick as usize;
                if out == OutDir::Eject {
                    eject_tried = true;
                    let head = router.front(arena, pick).expect("candidate has head");
                    if !sink.admits(tile, head) {
                        // refused: the head stays, retried next cycle
                        counters.eject_stalls += 1;
                        continue;
                    }
                    let pkt = router.pop(arena, pick);
                    queued_msgs[local] -= 1;
                    pending_frees.push((topo.queue_id(tile, InPort::ALL[pick]), pkt.flits as u32));
                    busy_until[local * OUT_DIRS + oi] = cycle + pkt.flits as u64;
                    counters.ejected += 1;
                    latency.record(cycle.saturating_sub(pkt.born));
                    sink.accept(tile, pkt);
                    moved = true;
                    continue;
                }
                let vc = c.vc[pick];
                let ((dx, dy), in_port, class, hop) = topo
                    .hop_info(x, y, out, vc)
                    .expect("routing chose a non-existent link");
                let dest = dy * width + dx;
                let qid = topo.queue_id(dest, in_port);
                let flits = router.front(arena, pick).expect("candidate has head").flits as u32;
                if !shared.occupancy[qid].reserve(flits, topo.queue_capacity_flits) {
                    counters.backpressure += 1;
                    continue;
                }
                let node = router.unlink(arena, pick);
                queued_msgs[local] -= 1;
                pending_frees.push((topo.queue_id(tile, InPort::ALL[pick]), flits));
                let pkt = arena.get_mut(node);
                pkt.vc = vc;
                pkt.ready_at = cycle + hop + (flits as u64 - 1);
                busy_until[local * OUT_DIRS + oi] = cycle + flits as u64;
                counters.msg_hops += 1;
                counters.flit_hops_by_class[class_index(class)] += flits as u64;
                if class == muchisim_config::LinkClass::OnChip {
                    counters.onchip_flit_mm += flits as f64 * topo.hop_wire_mm(out);
                }
                let dest_shard = shared.shard_of_col[dx as usize] as usize;
                if dest_shard == *idx {
                    // the node changes queues, the packet stays where it is
                    pending_pushes.push(PendingPush {
                        local: slice.local_of(dx, dy) as u32,
                        node,
                        // tile and queue ids fit `u32` (`MAX_TILES`)
                        qid: qid as u32,
                        port: in_port.index() as u8,
                    });
                } else {
                    // node ids mean nothing in another shard's arena
                    lock(shared.mailbox(dest_shard, *idx)).push((
                        dest,
                        in_port,
                        arena.release(node),
                    ));
                }
                moved = true;
            }
            if moved {
                visits.evaluated_moved += 1;
                if let Some(b) = busy_frame.get_mut(local) {
                    *b += 1;
                }
            } else {
                visits.evaluated_stalled += 1;
                if !eject_tried
                    && stall_verdict(
                        &c,
                        candidate_dirs,
                        ripen,
                        router,
                        arena,
                        &busy_until[links],
                        cycle,
                        topo,
                        tile,
                        &shared.occupancy,
                        verdict,
                    )
                {
                    // what this visit just did is what every retry before
                    // `until` would do again
                    debug_assert_eq!(
                        counters.collisions - collisions0,
                        u64::from(verdict.collisions)
                    );
                    debug_assert_eq!(
                        counters.backpressure - backpressure0,
                        u64::from(verdict.dirs.count_ones())
                    );
                    // a visit is a pure no-op until a busy candidate link
                    // frees or a head ripens — or, with stalled
                    // directions, until a watched queue returns credit
                    wake[local] = verdict.until;
                    if verdict.dirs != 0 {
                        for &(qid, _) in verdict.watched() {
                            shared.occupancy[qid as usize].mark();
                        }
                        owed.sleepers += 1;
                        owed.collisions += u64::from(verdict.collisions);
                        owed.backpressure += u64::from(verdict.dirs.count_ones());
                        router.sleep_on(verdict, tick);
                    }
                }
            }
            c.n = [0; OUT_DIRS];
            // a router with traffic stays on the worklist (unless it
            // sleeps on credit with no expiry, and parks); a drained
            // router recycles its box and retires
            if queued_msgs[local] > 0 {
                return keep_holding(wake[local]);
            }
            let drained = routers[local].take().expect("materialized above");
            drained.check_reusable();
            pool.push(drained);
            // the next delivery's min() then records its exact ready_at
            wake[local] = u64::MAX;
            Keep::Dropped
        });
        // a sleeper that did not settle had its router-cycle answered from
        // the memo: the listed ones by the wake check (counted as asleep on
        // time above), the parked ones without a visit
        visits.replayed += asleep_on_credit - settled;
        visits.asleep -= listed_sleepers - settled;
    }

    fn round_robin_pick(candidates: &[u8], last: u8) -> u8 {
        // first candidate strictly after `last`, cyclically
        *candidates
            .iter()
            .find(|&&c| c > last)
            .unwrap_or(&candidates[0])
    }

    /// Adds this shard's per-router busy-cycle counts into `grid`,
    /// indexed by local router id (the layout of a worker's column slice),
    /// and resets them (one statistics frame).
    ///
    /// No-op when busy tracking is disabled (verbosity < V2); the counts
    /// were never accumulated.
    pub fn take_busy(&mut self, grid: &mut [u32]) {
        for (sum, busy) in grid.iter_mut().zip(&mut self.busy_frame) {
            *sum += std::mem::take(busy);
        }
    }

    /// Host heap bytes owned by this shard: the packet arena (node
    /// capacity plus spilled payloads), the router pointer table, the SoA
    /// hot-state arrays, every materialized or pooled router's box, the
    /// busy grid, and the pending-push/free buffers.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let ptr = std::mem::size_of::<Option<Box<RouterState>>>() as u64;
        let per_router =
            |r: &RouterState| -> u64 { std::mem::size_of::<RouterState>() as u64 + r.heap_bytes() };
        let routers = self.routers.capacity() as u64 * ptr
            + self
                .routers
                .iter()
                .flatten()
                .map(|r| per_router(r))
                .sum::<u64>()
            + self.pool.iter().map(|r| per_router(r)).sum::<u64>();
        let trace = self.trace.as_ref().map_or(0, |t| {
            t.capacity() as u64 * std::mem::size_of::<TraceEvent>() as u64
                + t.iter()
                    .map(|e| e.payload.capacity() as u64 * 4)
                    .sum::<u64>()
        });
        routers
            + trace
            + self.arena.heap_bytes(|p| p.payload.heap_bytes())
            + self.pool.capacity() as u64 * ptr
            + self.queued_msgs.capacity() as u64 * 4
            + self.wake.capacity() as u64 * 8
            + self.busy_until.capacity() as u64 * 8
            + self.rr_ptr.capacity() as u64
            + self.busy_frame.capacity() as u64 * 4
            + self.pending_pushes.capacity() as u64 * std::mem::size_of::<PendingPush>() as u64
            + self.pending_frees.capacity() as u64 * std::mem::size_of::<(usize, u32)>() as u64
            + self.woken_tiles.capacity() as u64 * 4
            + self.active.heap_bytes()
    }

    /// Routers currently on the active worklist, plus the parked credit
    /// sleepers. Activity telemetry for scheduling studies; the cycle loop
    /// itself never reads this.
    pub fn active_routers(&self) -> usize {
        self.active.active_count() + self.active.parked_count()
    }

    /// Packets queued at `tile`'s router over all its input ports (the
    /// "parked packets" figure of a ward report).
    pub fn queued_at(&self, tile: u32) -> u32 {
        self.queued_msgs[self.slice.local(tile)]
    }

    // -----------------------------------------------------------------
    // Checkpointing. Snapshots are taken at a quiescent point — right
    // after `begin_cycle`, before any `step` — where the pending-push
    // and pending-free buffers are empty and every in-flight packet
    // sits in exactly one router input queue.
    // -----------------------------------------------------------------

    /// Every queued packet as `(global tile, input-port index, packet)`,
    /// in deterministic order: ascending local router id, ascending
    /// port, FIFO position within each queue.
    ///
    /// Must be called at the post-`begin_cycle` quiescent point; the
    /// deferred buffers are required to be empty.
    pub fn snapshot_packets(&self) -> Vec<(u32, u8, &Packet)> {
        debug_assert!(
            self.pending_pushes.is_empty() && self.pending_frees.is_empty(),
            "snapshot requires the post-begin_cycle quiescent point"
        );
        let mut out = Vec::new();
        for (local, slot) in self.routers.iter().enumerate() {
            let Some(router) = slot.as_deref() else {
                continue;
            };
            let tile = self.slice.global(local);
            for port in 0..IN_PORTS {
                for pkt in router.iter(&self.arena, port) {
                    out.push((tile, port as u8, pkt));
                }
            }
        }
        out
    }

    /// Output links still serializing flits at `now`, as
    /// `(global tile, direction index, busy_until)`.
    pub fn snapshot_links(&self, now: u64) -> Vec<(u32, u8, u64)> {
        let mut out = Vec::new();
        for local in 0..self.queued_msgs.len() {
            for dir in 0..OUT_DIRS {
                let until = self.busy_until[local * OUT_DIRS + dir];
                if until > now {
                    out.push((self.slice.global(local), dir as u8, until));
                }
            }
        }
        out
    }

    /// Non-zero round-robin arbitration pointers, as
    /// `(global tile, direction index, pointer)`.
    ///
    /// Reports *settled* pointers: those of a router asleep on credit are
    /// rotated, read-only, by the retries it has slept through, so the
    /// view does not depend on who happens to be asleep.
    pub fn snapshot_rr(&self) -> Vec<(u32, u8, u8)> {
        let mut out = Vec::new();
        for local in 0..self.queued_msgs.len() {
            let sleep = match self.queued_msgs[local] {
                0 => None,
                _ => self.routers[local].as_deref().and_then(|r| r.sleeping()),
            };
            for dir in 0..OUT_DIRS {
                let mut v = self.rr_ptr[local * OUT_DIRS + dir];
                if let Some((memo, since)) = sleep {
                    if memo.dirs & (1 << dir) != 0 {
                        v = rotate_rr(memo.cands[dir], v, self.tick - since);
                    }
                }
                if v != 0 {
                    out.push((self.slice.global(local), dir as u8, v));
                }
            }
        }
        out
    }

    /// Non-zero per-router busy counts of the current (open) statistics
    /// frame, as `(global tile, count)`. Empty when heat-map tracking is
    /// off (verbosity < V2).
    pub fn snapshot_busy_frame(&self) -> Vec<(u32, u32)> {
        self.busy_frame
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(local, &v)| (self.slice.global(local), v))
            .collect()
    }

    /// Re-queues a checkpointed packet into `tile`'s `port` queue,
    /// rebuilding the occupancy table, the per-router packet count, the
    /// wake cache, and the worklist. (The packets in flight are the
    /// restored counters' balance, see [`Shard::restore_counters`].)
    ///
    /// Packets must be restored in their snapshot order (FIFO order is
    /// load-bearing).
    ///
    /// # Errors
    ///
    /// Snapshots are taken post-combine, so no two packets of one queue
    /// can reduce into each other; a file that holds such a pair is
    /// rejected (the shard is then left half-restored and must not run).
    pub fn restore_packet(
        &mut self,
        shared: &SharedNet,
        tile: u32,
        port: InPort,
        pkt: Packet,
    ) -> Result<(), String> {
        let local = self.slice.local(tile);
        let qid = shared.topo.queue_id(tile, port);
        shared.occupancy[qid].adjust(i64::from(pkt.flits));
        let ready_at = pkt.ready_at;
        let router = router_mut(&mut self.routers, &mut self.pool, local);
        let pushed = router.push(&mut self.arena, port.index(), pkt);
        if pushed.new_head {
            wake_for_new_head(&mut self.wake[local], router, ready_at);
        }
        if pushed.freed != 0 {
            return Err(format!(
                "input port {} holds two packets that combine; a snapshot is post-combine",
                port.index()
            ));
        }
        self.queued_msgs[local] += 1;
        self.active.activate(local as u32);
        Ok(())
    }

    /// Restores one output link's `busy_until` clock.
    pub fn restore_link(&mut self, tile: u32, dir: u8, until: u64) {
        let local = self.slice.local(tile);
        self.busy_until[local * OUT_DIRS + dir as usize] = until;
    }

    /// Restores one round-robin arbitration pointer.
    pub fn restore_rr(&mut self, tile: u32, dir: u8, val: u8) {
        let local = self.slice.local(tile);
        self.rr_ptr[local * OUT_DIRS + dir as usize] = val;
    }

    /// Restores one router's open-frame busy count (no-op when heat-map
    /// tracking is off; the count was never captured either).
    pub fn restore_busy_frame(&mut self, tile: u32, val: u32) {
        let local = self.slice.local(tile);
        if let Some(b) = self.busy_frame.get_mut(local) {
            *b = val;
        }
    }

    /// Folds checkpointed NoC counters and latency statistics into this
    /// shard (applied once per plane, to one shard, on restore).
    pub fn restore_counters(&mut self, counters: &NocCounters, latency: &LatencyStats) {
        self.counters.merge(counters);
        self.latency.merge(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_wraps() {
        assert_eq!(Shard::round_robin_pick(&[0, 3, 7], 0), 3);
        assert_eq!(Shard::round_robin_pick(&[0, 3, 7], 7), 0);
        assert_eq!(Shard::round_robin_pick(&[0, 3, 7], 12), 0);
        assert_eq!(Shard::round_robin_pick(&[5], 5), 5);
    }

    #[test]
    fn next_rr_is_round_robin_pick_over_a_mask() {
        for mask in 1u16..1 << IN_PORTS {
            let list: Vec<u8> = (0..IN_PORTS as u8)
                .filter(|p| mask & (1 << p) != 0)
                .collect();
            for last in (0..=16).chain([u8::MAX]) {
                assert_eq!(
                    next_rr(mask, last),
                    Shard::round_robin_pick(&list, last),
                    "mask {mask:#b} last {last}"
                );
            }
        }
    }

    #[test]
    fn rotate_rr_is_next_rr_applied_k_times() {
        for mask in 1u16..1 << IN_PORTS {
            for last in 0..16u8 {
                let mut stepped = last;
                for k in 0..40 {
                    assert_eq!(
                        rotate_rr(mask, last, k),
                        stepped,
                        "mask {mask:#b} last {last} k {k}"
                    );
                    stepped = next_rr(mask, stepped);
                }
            }
        }
        // far beyond any sleep a test can reach
        assert_eq!(rotate_rr(0b1010, 1, 1 << 40), 1);
        assert_eq!(rotate_rr(0b1010, 1, (1 << 40) + 1), 3);
    }

    #[test]
    fn stall_check_allows_oversized_when_empty() {
        // tile 1 of a 3x1 row holds one 10-flit packet for tile 2, whose
        // buffers take 4 flits
        let cfg = muchisim_config::SystemConfig::builder()
            .chiplet_tiles(3, 1)
            .buffer_depth(4)
            .build()
            .unwrap();
        let topo = TopoInfo::from_system(&cfg);
        let occupancy = Credit::table(topo.num_queues());
        let mut arena = PacketArena::default();
        let mut router = RouterState::default();
        let inject = InPort::Inject.index();
        router.push(
            &mut arena,
            inject,
            Packet::unicast(1, 2, 0, crate::Payload::empty(), 10),
        );
        let mut c = Candidates::new();
        let (dirty, ripen) = c.scan(&router, &arena, &topo, 1, 0);
        assert_eq!((dirty, ripen), (1 << OutDir::E.index(), u64::MAX));
        let links = [0u64; OUT_DIRS];
        let mut memo = StallMemo::default();
        let verdict = |links: &[u64], memo: &mut StallMemo| {
            stall_verdict(
                &c, dirty, ripen, &router, &arena, links, 0, &topo, 1, &occupancy, memo,
            )
        };
        assert!(
            !verdict(&links, &mut memo),
            "an empty queue admits the oversized packet: not a stall"
        );
        let qid = topo.queue_id(2, InPort::FromW0);
        occupancy[qid].adjust(1);
        assert!(
            verdict(&links, &mut memo),
            "one flit queued downstream refuses ten more"
        );
        assert_eq!(memo.dirs, 1 << OutDir::E.index());
        assert_eq!(memo.cands[OutDir::E.index()], 1 << inject);
        assert_eq!(memo.watched(), [(qid as u32, 1)]);
        assert_eq!((memo.collisions, memo.until), (0, u64::MAX));
        // a busy link is not back-pressure: no stalled direction, and the
        // verdict holds until the link frees; the scratch is rebuilt, the
        // stale watch entry left past `n_watch` is not part of it
        let mut busy = links;
        busy[OutDir::E.index()] = 7;
        assert!(verdict(&busy, &mut memo), "nothing can move");
        assert_eq!((memo.dirs, memo.until), (0, 7));
        assert_eq!(
            memo,
            StallMemo {
                until: 7,
                ..StallMemo::default()
            }
        );
    }

    #[test]
    fn a_tile_refused_by_its_inject_queue_wakes_when_the_credit_returns() {
        // tile 0 of a 2x1 row sends 3-flit packets through an inject
        // queue of 4 flits (twice the channel-queue capacity of 2)
        let cfg = muchisim_config::SystemConfig::builder()
            .chiplet_tiles(2, 1)
            .queues(4, 2)
            .build()
            .unwrap();
        let mut net = crate::Network::new(crate::NetworkParams::from_system(&cfg), 1);
        let (shared, shards) = net.split();
        let shard = &mut shards[0];
        let pkt = || Packet::unicast(0, 1, 0, crate::Payload::empty(), 3);
        shard.inject(shared, 0, pkt()).unwrap();
        assert!(
            !shard.inject_admits(shared, 0, 3),
            "3 + 3 flits do not fit in 4"
        );
        assert!(shard.inject(shared, 0, pkt()).is_err());
        shard.wait_for_credit(shared, 0);
        shard.wait_for_credit(shared, 0); // refused again: still one waiter
        let credit = &shared.occupancy[shared.topo.queue_id(0, InPort::Inject)];
        assert!(credit.marked());
        assert_eq!(shard.inject_waiters(), 1);
        assert_eq!(
            shard.next_event_cycle(5),
            Some(6),
            "the credit may return next cycle"
        );
        // the router forwards the packet; its credit returns, and wakes
        // the tile, at the boundary after the pop
        let mut sink = crate::DrainSink::default();
        let mut woken = Vec::new();
        for cycle in 0..3 {
            shard.begin_cycle(shared);
            woken.extend(shard.drain_woken_tiles().map(|t| (cycle, t)));
            shard.step(shared, cycle, &mut sink);
        }
        assert_eq!(woken, [(1, 0)], "woken once, at the boundary after the pop");
        assert!(!credit.marked(), "the free consumed the mark");
        assert_eq!(shard.inject_waiters(), 0);
        assert!(shard.inject_admits(shared, 0, 3), "the retry gets in");
    }

    #[test]
    fn fresh_shard_allocates_no_routers() {
        let mut shard = Shard::new(0, ColSlice::new(0..8, 8, 8), false, false);
        assert_eq!(shard.allocated_routers(), 0);
        assert_eq!(shard.pooled_routers(), 0);
        assert_eq!(shard.active_routers(), 0);
        assert_eq!(shard.queued_packets(), 0);
        assert_eq!(shard.next_event_cycle(0), None);
        assert!(shard.busy_frame.is_empty(), "untracked shard has no grid");
        assert_eq!(shard.latency().count, 0);
        assert!(shard.take_trace().is_empty(), "tracing is off by default");
    }
}
