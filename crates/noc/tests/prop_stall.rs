//! Differential tests of the event-driven credit wake: a back-pressured
//! router sleeps on a memo of its last verdict until a queue that
//! refused it returns credit, instead of re-deciding every cycle, and
//! that must be unobservable.
//!
//! Twin networks receive the same traffic. One of them has every
//! sleeper woken before every step (the `forget_stall_memos` test hook),
//! so each of its back-pressured router-cycles runs the full evaluation
//! — the retry-every-cycle behaviour the sleep replaces. Counters,
//! settled arbitration pointers, link clocks, latency statistics and the
//! ejection stream must agree after every cycle. Traffic is all-to-few
//! onto tiny buffers, with the hotspot's ejection gated shut for a
//! while, so back-pressure reaches far upstream and most router-cycles
//! are slept through. (Debug builds also run the in-crate oracle on
//! every router-cycle of every sleeper, on the worklist or off it.)

use muchisim_config::{NocTopology, SystemConfig};
use muchisim_noc::{
    EjectSink, LatencyStats, Network, NetworkParams, NocCounters, Packet, Payload, ReduceOp,
    RouterVisits,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// An eject sink that refuses deliveries (at tile `only`, or anywhere)
/// before `open_at`, and every `stutter`-th cycle after it (below 2: never),
/// logging what it accepts.
#[derive(Default)]
struct Gate {
    cycle: u64,
    open_at: u64,
    only: Option<u32>,
    stutter: u64,
    accepted: Vec<(u64, u32, Packet)>,
}

impl EjectSink for Gate {
    fn admits(&mut self, tile: u32, _pkt: &Packet) -> bool {
        let shut = self.cycle < self.open_at && self.only.is_none_or(|t| t == tile);
        let stuttering = self.stutter > 1 && self.cycle.is_multiple_of(self.stutter);
        !(shut || stuttering)
    }

    fn accept(&mut self, tile: u32, pkt: Packet) {
        self.accepted.push((self.cycle, tile, pkt));
    }
}

/// Everything a shard exposes about its routers between cycles.
type Observed = (
    NocCounters,
    LatencyStats,
    Vec<(u32, u8, u8)>,
    Vec<(u32, u8, u64)>,
    u64,
);

fn observe(net: &mut Network, now: u64) -> Observed {
    let (counters, latency, queued) = (net.counters(), net.latency(), net.queued_packets());
    let (_, shards) = net.split();
    let rr = shards.iter().flat_map(|s| s.snapshot_rr()).collect();
    let links = shards.iter().flat_map(|s| s.snapshot_links(now)).collect();
    (counters, latency, rr, links, queued)
}

/// One scripted injection: due cycle, source tile, packet.
type Send = (u64, u32, Packet);

/// The sleeping network and its retry-every-cycle twin.
struct Twins {
    memo: Network,
    cold: Network,
    memo_sink: Gate,
    cold_sink: Gate,
    cycle: u64,
}

impl Twins {
    fn new(
        cfg: &SystemConfig,
        shards: usize,
        (open_at, only): (u64, Option<u32>),
        stutter: u64,
    ) -> Self {
        let gate = || Gate {
            open_at,
            only,
            stutter,
            ..Gate::default()
        };
        Twins {
            memo: Network::new(NetworkParams::from_system(cfg), shards),
            cold: Network::new(NetworkParams::from_system(cfg), shards),
            memo_sink: gate(),
            cold_sink: gate(),
            cycle: 0,
        }
    }

    /// Offers `pkt` to both networks; they must agree on admission.
    fn inject(&mut self, src: u32, pkt: Packet) -> bool {
        let pkt = pkt.ready_at(self.cycle).born(self.cycle);
        let a = self.memo.inject(src, pkt.clone()).is_ok();
        let b = self.cold.inject(src, pkt).is_ok();
        assert_eq!(a, b, "inject admission diverged at cycle {}", self.cycle);
        a
    }

    /// Steps both networks one cycle and compares everything observable.
    fn step(&mut self) {
        self.memo_sink.cycle = self.cycle;
        self.cold_sink.cycle = self.cycle;
        for shard in self.cold.split().1 {
            shard.forget_stall_memos();
        }
        self.memo.step(self.cycle, &mut self.memo_sink);
        self.cold.step(self.cycle, &mut self.cold_sink);
        assert_eq!(
            observe(&mut self.memo, self.cycle),
            observe(&mut self.cold, self.cycle),
            "router state diverged at cycle {}",
            self.cycle
        );
        assert_eq!(
            self.memo_sink.accepted, self.cold_sink.accepted,
            "ejection stream diverged at cycle {}",
            self.cycle
        );
        self.cycle += 1;
    }

    /// One cycle of the script: offers every due send (refused ones stay
    /// queued, in order), then steps.
    fn advance(&mut self, sends: &mut Vec<Send>) {
        let mut retry = Vec::new();
        for (due, src, pkt) in sends.drain(..) {
            if due > self.cycle || !self.inject(src, pkt.clone()) {
                retry.push((due, src, pkt));
            }
        }
        *sends = retry;
        self.step();
    }

    /// Plays `sends` (retrying refused injections in order every cycle)
    /// until both networks drain.
    fn run(&mut self, mut sends: Vec<Send>) {
        sends.sort_by_key(|s| s.0);
        while !sends.is_empty() || !self.memo.is_empty() {
            self.advance(&mut sends);
            assert!(self.cycle < 200_000, "traffic failed to drain");
        }
        assert!(self.cold.is_empty());
        assert_eq!(
            self.cold.router_visits().replayed,
            0,
            "the twin must never sleep through a cycle"
        );
        assert_eq!(self.sleepers(), 0, "a drained network has no sleepers");
    }

    /// Routers of the sleeping network currently asleep on credit.
    fn sleepers(&mut self) -> u64 {
        self.memo.split().1.iter().map(|s| s.sleepers()).sum()
    }
}

fn grid(w: u32, h: u32, topology: u8, depth: u32) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(w, h).buffer_depth(depth);
    match topology {
        0 => {}
        1 => {
            b.noc_topology(NocTopology::FoldedTorus);
        }
        _ => {
            b.ruche_factor(2);
        }
    }
    b.build().expect("valid grid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All-to-few traffic on random mesh / torus / ruche grids, 1–4
    /// shards, 1–3-flit buffers: the twins agree cycle by cycle (the name
    /// predates the sleep: a slept-through router-cycle is what used to
    /// be a replayed visit).
    #[test]
    fn replayed_visits_are_unobservable(
        shape in (3u32..8, 2u32..7, 0u8..3, 1u32..4),
        host in (1usize..5, 0u64..120, 0u64..4),
        hot in vec(any::<u32>(), 1..3),
        wave in vec((0u64..40, any::<u32>(), any::<u32>(), 1u16..4), 8..96),
    ) {
        let (w, h, topology, depth) = shape;
        let w = if topology == 2 { w + w % 2 } else { w }; // ruche 2 needs an even width
        let (shards, open_at, stutter) = host;
        let tiles = w * h;
        let cfg = grid(w, h, topology, depth);
        let mut twins = Twins::new(&cfg, shards.min(w as usize), (open_at, None), stutter);
        let sends: Vec<Send> = wave
            .into_iter()
            .map(|(due, src, word, flits)| {
                let dst = hot[word as usize % hot.len()] % tiles;
                let payload = Payload::from_slice(&[word % 7, word]);
                let mut pkt = Packet::unicast(src % tiles, dst, 0, payload, flits);
                if word & 8 == 0 {
                    pkt = pkt.with_reduce(ReduceOp::MinU32);
                }
                (due, src % tiles, pkt)
            })
            .collect();
        twins.run(sends);
    }
}

/// A 5×1 mesh row with 4-flit buffers whose right end (tile 4) refuses
/// ejection until `open_at`: everything sent east piles up behind it.
fn gated_row(open_at: u64) -> Twins {
    Twins::new(&grid(5, 1, 0, 4), 1, (open_at, None), 0)
}

fn plain(src: u32, dst: u32, word: u32, flits: u16) -> Packet {
    Packet::unicast(src, dst, 0, Payload::from_slice(&[word]), flits)
}

#[test]
fn hub_congestion_sleeps_and_stays_identical() {
    let mut twins = gated_row(300);
    let mut sends = Vec::new();
    for src in 0..4u32 {
        for i in 0..6u32 {
            sends.push((u64::from(i), src, plain(src, 4, src * 16 + i, 2)));
        }
    }
    twins.run(sends);
    let visits = twins.memo.router_visits();
    // tile 4 itself asks the sink every one of the 300 gated cycles (an
    // ejection attempt is never slept on); everything upstream sleeps
    assert!(
        visits.replayed > 10 * (visits.evaluated_stalled - 300),
        "the jam behind the gate must be slept through: {visits:?}"
    );
    assert_eq!(
        visits.awake() + visits.replayed,
        twins.cold.router_visits().awake(),
        "each router-cycle slept through stands for one full visit of the twin"
    );
    // blessed at 20189a8, where every sleeper stayed on the worklist and
    // was skipped by the wake check: a sleeper off the list changes how
    // the host gets there, not one count of the ledger
    assert_eq!(
        visits,
        RouterVisits {
            evaluated_moved: 84,
            evaluated_stalled: 393,
            replayed: 1225,
            asleep: 0,
        }
    );
}

#[test]
fn no_memo_while_another_candidate_would_fit() {
    // Tile 3's west input holds one 2-flit packet stuck behind tile 4's
    // closed gate... and tile 2 has two candidates for that queue: a
    // 3-flit packet arriving from the west (2 + 3 > 4: refused) and a
    // 1-flit packet of its own (2 + 1 <= 4: fits). The arbiter offers
    // the refused one first; the router must not go to sleep on that
    // refusal, because the round-robin pointer reaches the fitting
    // packet next.
    let mut twins = gated_row(200);
    assert!(twins.inject(3, plain(3, 4, 1, 2))); // reaches tile 4, jams at the gate
    twins.step();
    twins.step();
    assert!(twins.inject(3, plain(3, 4, 2, 2))); // parks in tile 4's west input
    assert!(twins.inject(2, plain(2, 4, 3, 2))); // parks in tile 3's west input
    for _ in 0..6 {
        twins.step();
    }
    assert!(twins.inject(1, plain(1, 4, 4, 3))); // the candidate that cannot fit
    for _ in 0..3 {
        twins.step();
    }
    assert!(twins.inject(2, plain(2, 4, 5, 1))); // the candidate that can
    let hops_before = twins.memo.counters().msg_hops;
    let refused_before = twins.memo.counters().backpressure;
    for _ in 0..4 {
        twins.step();
    }
    let c = twins.memo.counters();
    assert!(
        c.backpressure > refused_before,
        "the 3-flit packet was refused"
    );
    assert_eq!(
        c.msg_hops,
        hops_before + 1,
        "the 1-flit packet moved past it"
    );
    twins.run(Vec::new());
    let order: Vec<u32> = twins
        .memo_sink
        .accepted
        .iter()
        .map(|(_, _, p)| p.payload.word(0))
        .collect();
    assert_eq!(
        order,
        [1, 2, 3, 5, 4],
        "the short packet overtook the long one"
    );
}

#[test]
fn arrival_into_an_empty_port_wakes_a_stalled_router() {
    // 3×3 mesh, tile 5 (east edge, middle row) refuses ejection: tile 4
    // jams with eastbound packets and sleeps. A packet then reaches
    // tile 4 from the north through an empty port, bound south — a free
    // direction — and must pass through the jam without delay.
    let mut twins = Twins::new(&grid(3, 3, 0, 2), 1, (400, Some(5)), 0);
    let mut jam = Vec::new();
    for i in 0..6u32 {
        jam.push((0, 3, plain(3, 5, i, 2)));
        jam.push((0, 4, plain(4, 5, 16 + i, 2)));
    }
    let mut pending = jam;
    for _ in 0..60 {
        twins.advance(&mut pending);
    }
    let slept = twins.memo.router_visits().replayed;
    assert!(slept > 0, "the jammed routers must be asleep by now");
    let sent = twins.cycle;
    assert!(twins.inject(1, plain(1, 7, 99, 1))); // (1,0) -> (1,2), via tile 4
    twins.run(pending);
    let (arrived, tile, _) = twins
        .memo_sink
        .accepted
        .iter()
        .find(|(_, _, p)| p.payload.word(0) == 99)
        .expect("the through packet is delivered");
    assert_eq!(*tile, 7);
    assert!(
        arrived - sent <= 6,
        "two free hops and an ejection, not a wait behind the jam: {} cycles",
        arrived - sent
    );
    assert!(twins.memo.router_visits().replayed > slept);
}

/// The wake crosses a shard boundary: on an 8×1 row whose east end is
/// gated, the last router of shard 0 sleeps on a queue owned by shard 1.
/// When the gate opens the credit ripples back one router per cycle, and
/// the sleeper must move in the very cycle the credit reaches it — the
/// mark it left is consumed in shard 1's local phase, the wake request
/// crosses through the wake box and is drained at the top of shard 0's
/// step of the same cycle.
#[test]
fn a_sleeper_in_another_shard_moves_the_cycle_its_credit_returns() {
    const OPEN_AT: u64 = 200;
    for (shards, boundary) in [(2usize, 3u32), (4, 1)] {
        let mut twins = Twins::new(&grid(8, 1, 0, 4), shards, (OPEN_AT, None), 0);
        let cols = twins.memo.split().1[0].cols();
        assert_eq!(cols, 0..boundary + 1, "shard 0 ends at tile {boundary}");
        // only shard 0 injects, so every router east of it has a single
        // candidate and passes the credit on the cycle after it moves
        let mut sends = Vec::new();
        for src in 0..=boundary {
            for i in 0..12u32 {
                sends.push((0, src, plain(src, 7, src * 16 + i, 2)));
            }
        }
        while twins.cycle < OPEN_AT {
            twins.advance(&mut sends);
        }
        let shard0 = |twins: &mut Twins| {
            let shard = &twins.memo.split().1[0];
            (shard.sleepers(), shard.counters().msg_hops)
        };
        let (asleep, jammed_hops) = shard0(&mut twins);
        assert_eq!(
            asleep,
            u64::from(boundary) + 1,
            "every router of shard 0 sleeps behind the gate"
        );
        // tile 7 ejects at OPEN_AT, tile 6 moves one cycle later, ...:
        // tile `boundary` is 7 - boundary routers behind the gate
        let credit_arrives = OPEN_AT + u64::from(7 - boundary);
        while twins.cycle < credit_arrives {
            twins.advance(&mut sends);
            assert_eq!(
                shard0(&mut twins),
                (asleep, jammed_hops),
                "shard 0 moved before its credit returned (cycle {})",
                twins.cycle - 1
            );
        }
        twins.advance(&mut sends);
        assert_eq!(
            shard0(&mut twins),
            (asleep - 1, jammed_hops + 1),
            "{shards} shards: tile {boundary} must move at cycle {credit_arrives}"
        );
        twins.run(sends);
    }
}

/// Tile 3 of the gated row holds a 2-flit packet `P` for tile 4, whose
/// west input is full with a 1-flit and a 3-flit packet. Returns the
/// twins with tile 3 asleep on that queue.
fn sleeper_behind_a_full_queue(open_at: u64) -> Twins {
    let mut twins = gated_row(open_at);
    assert!(twins.inject(3, plain(3, 4, 1, 1)));
    assert!(twins.inject(3, plain(3, 4, 2, 3)));
    assert!(twins.inject(3, plain(3, 4, 3, 2))); // P
    for _ in 0..20 {
        twins.step();
    }
    assert_eq!(twins.memo.counters().msg_hops, 2, "P is still at tile 3");
    assert_eq!(twins.sleepers(), 1, "tile 3 sleeps on tile 4's west input");
    twins
}

/// Full evaluations of tile 3 that moved nothing. The only other router
/// holding traffic while the gate is shut is tile 4, whose every visit is
/// a refused ejection.
fn futile_visits_of_tile_3(twins: &Twins) -> u64 {
    twins.memo.router_visits().evaluated_stalled - twins.memo.counters().eject_stalls
}

#[test]
fn insufficient_credit_wakes_evaluates_and_sleeps_again() {
    const OPEN_AT: u64 = 50;
    let mut twins = sleeper_behind_a_full_queue(OPEN_AT);
    while twins.cycle <= OPEN_AT {
        twins.step(); // the last of these ejects the 1-flit packet
    }
    let before = twins.memo.router_visits();
    let refused = twins.memo.counters().backpressure;
    // one flit came back, P needs two: a wake, a full visit, a refusal
    // (counted like the twin's, `step` compares), and a fresh sleep
    twins.step();
    let after = twins.memo.router_visits();
    assert_eq!(
        after.evaluated_stalled,
        before.evaluated_stalled + 1,
        "the returned flit must wake tile 3"
    );
    assert_eq!(after.replayed, before.replayed, "... in that very cycle");
    assert_eq!(twins.memo.counters().backpressure, refused + 1);
    assert_eq!(twins.memo.counters().msg_hops, 2, "P cannot move yet");
    assert_eq!(twins.sleepers(), 1, "tile 3 sleeps again, on a fresh mark");
    // the 3-flit packet has left by now: P gets in
    twins.step();
    assert_eq!(twins.memo.counters().msg_hops, 3);
    assert_eq!(twins.sleepers(), 0);
    twins.run(Vec::new());
}

#[test]
fn an_immature_arrival_into_an_empty_port_wakes_a_sleeper() {
    let mut twins = sleeper_behind_a_full_queue(400);
    // a 3-flit packet from tile 2 reaches tile 3's empty west input with
    // two cycles of serialization still ahead of it
    assert!(twins.inject(2, plain(2, 4, 4, 3)));
    let sent = twins.cycle;
    let before = futile_visits_of_tile_3(&twins);
    for _ in 0..2 {
        twins.step(); // tile 2 forwards it; tile 3 receives it, immature
    }
    assert_eq!(
        futile_visits_of_tile_3(&twins),
        before + 1,
        "the new head must wake tile 3 although it cannot move yet"
    );
    assert_eq!(
        twins.sleepers(),
        1,
        "... and tile 3 sleeps on until it ripens"
    );
    assert_eq!(twins.memo.counters().collisions, 0);
    while twins.cycle <= sent + 3 {
        twins.step();
    }
    // ripe: two candidates for the east link from now on, one loses the
    // arbitration every cycle (on the books of the sleeper's debt)
    assert_eq!(futile_visits_of_tile_3(&twins), before + 2);
    let collided = twins.memo.counters().collisions;
    assert!(collided > 0);
    for _ in 0..10 {
        twins.step();
    }
    assert_eq!(twins.memo.counters().collisions, collided + 10);
    assert_eq!(futile_visits_of_tile_3(&twins), before + 2);
    twins.run(Vec::new());
}
