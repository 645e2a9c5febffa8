//! Differential tests of the stalled-router replay path: a back-pressured
//! router answers its visits from a memo of its last verdict instead of
//! re-deciding, and that must be unobservable.
//!
//! Twin networks receive the same traffic. One of them has every stall
//! memo dropped before every step (the `forget_stall_memos` test hook),
//! so each of its visits runs the full evaluation — the retry-every-cycle
//! behaviour the memo replaces. Counters, arbitration pointers, link
//! clocks, latency statistics and the ejection stream must agree after
//! every cycle. Traffic is all-to-few onto tiny buffers, with the
//! hotspot's ejection gated shut for a while, so back-pressure reaches
//! far upstream and most router visits are stalled ones. (Debug builds
//! also run the in-crate oracle on every replayed visit.)

use muchisim_config::{NocTopology, SystemConfig};
use muchisim_noc::{
    EjectSink, LatencyStats, Network, NetworkParams, NocCounters, Packet, Payload, ReduceOp,
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
    fn offer(&mut self, tile: u32, pkt: Packet) -> Result<(), Packet> {
        let shut = self.cycle < self.open_at && self.only.is_none_or(|t| t == tile);
        let stuttering = self.stutter > 1 && self.cycle.is_multiple_of(self.stutter);
        if shut || stuttering {
            return Err(pkt);
        }
        self.accepted.push((self.cycle, tile, pkt));
        Ok(())
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
    let width = net.topo().width;
    let (_, shards) = net.split();
    let rr = shards.iter().flat_map(|s| s.snapshot_rr(width)).collect();
    let links = shards
        .iter()
        .flat_map(|s| s.snapshot_links(width, now))
        .collect();
    (counters, latency, rr, links, queued)
}

/// One scripted injection: due cycle, source tile, packet.
type Send = (u64, u32, Packet);

/// The memoizing network and its retry-every-cycle twin.
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

    /// Plays `sends` (retrying refused injections in order every cycle)
    /// until both networks drain.
    fn run(&mut self, mut sends: Vec<Send>) {
        sends.sort_by_key(|s| s.0);
        while !sends.is_empty() || !self.memo.is_empty() {
            let mut retry = Vec::new();
            for (due, src, pkt) in sends.drain(..) {
                if due > self.cycle || !self.inject(src, pkt.clone()) {
                    retry.push((due, src, pkt));
                }
            }
            sends = retry;
            self.step();
            assert!(self.cycle < 200_000, "traffic failed to drain");
        }
        assert!(self.cold.is_empty());
        assert_eq!(
            self.cold.router_visits().replayed,
            0,
            "the twin must never replay"
        );
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All-to-few traffic on random mesh / torus / ruche grids, 1–4
    /// shards, 1–3-flit buffers: the twins agree cycle by cycle.
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
fn hub_congestion_replays_and_stays_identical() {
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
    // ejection attempt is never memoized); everything upstream replays
    assert!(
        visits.replayed > 10 * (visits.evaluated_stalled - 300),
        "the jam behind the gate must be answered from memos: {visits:?}"
    );
    assert_eq!(
        visits.awake(),
        twins.cold.router_visits().awake(),
        "replays stand in for full visits one to one"
    );
}

#[test]
fn no_memo_while_another_candidate_would_fit() {
    // Tile 3's west input holds one 2-flit packet stuck behind tile 4's
    // closed gate... and tile 2 has two candidates for that queue: a
    // 3-flit packet arriving from the west (2 + 3 > 4: refused) and a
    // 1-flit packet of its own (2 + 1 <= 4: fits). The arbiter offers
    // the refused one first; the router must not memoize that refusal,
    // because the round-robin pointer reaches the fitting packet next.
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
    // jams with eastbound packets and replays. A packet then reaches
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
        let mut retry = Vec::new();
        for (due, src, pkt) in pending.drain(..) {
            if !twins.inject(src, pkt.clone()) {
                retry.push((due, src, pkt));
            }
        }
        pending = retry;
        twins.step();
    }
    let replayed = twins.memo.router_visits().replayed;
    assert!(replayed > 0, "the jammed routers must be replaying by now");
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
    assert!(twins.memo.router_visits().replayed > replayed);
}
