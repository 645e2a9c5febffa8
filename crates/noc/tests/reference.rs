//! The NoC against an independent rendering of its specification: the
//! `Reference` below shares no code with `shard.rs`, `router.rs` or
//! `route.rs`. It visits every router every cycle, keeps `VecDeque`
//! FIFOs and a plain credit count per queue — all 13 of every router,
//! whether or not the topology can fill them —, routes with its own
//! dimension-ordered next hop, Ruche channels and dateline channels,
//! and has no worklist, sleep, memo, arena or mailbox. One NoC cycle:
//!
//! 1. Credit of the packets that left a queue last cycle returns; the
//!    packets sent last cycle join the tail of their downstream queue.
//! 2. A queue head whose ready cycle has come is a candidate for the
//!    output its route names: X before Y, on a torus the shorter way
//!    round (increasing on a tie); the Ruche link of that way while at
//!    least R hops remain and it lands in the grid (Ruche links never
//!    wrap); on channel 1 after a wrap link and on channel 0 at the
//!    start of each dimension (a Ruche hop keeps the channel).
//! 3. Outputs are served eject first, then N, S, E, W, then Ruche N, S,
//!    E, W, skipping a link still busy. All candidates but one collide;
//!    round-robin takes the first port above the output's last pick
//!    (wrapping), kept even when the move then fails.
//! 4. The sink may refuse an ejection (an eject stall); a link moves the
//!    packet iff the downstream queue is empty or has room (reserved at
//!    once), else that is back-pressure. A moved packet holds the link
//!    `flits` cycles and may move on `hop + flits − 1` cycles later.
//!
//! From the crate it takes what the configuration derives (`TopoInfo`'s
//! link latency, class and tile pitch; the inject capacity) and the shard
//! columns of the network under test, to sum the `f64` `onchip_flit_mm`
//! in the engine's order — nothing else depends on the order routers are
//! visited in. On mesh and torus grids up to 8×8 (one or two chiplets),
//! with or without Ruche channels of length 2–4, 1–4 shards, 1–3-flit
//! buffers and packets and a gated, then stuttering sink, every counter
//! and the latency statistics must agree after every cycle, and so must
//! every packet's eject cycle.

use muchisim_config::{LinkClass, NocTopology, SystemConfig};
use muchisim_noc::{
    EjectSink, LatencyStats, Network, NetworkParams, NocCounters, OutDir, Packet, Payload, TopoInfo,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;

/// Input queues per router, numbered in arbitration order: `2 · side +
/// vc` for links from the N, S, E and W side, `RUCHE + side` for Ruche
/// links from that side, and the inject queue.
const PORTS: usize = 13;
const RUCHE: usize = 8;
const INJECT: usize = 12;
/// Outputs in the order a router serves them, the Ruche ones from
/// `FIRST_RUCHE` on.
const FIRST_RUCHE: usize = 5;
const SERVE: [OutDir; 9] = [
    OutDir::Eject,
    OutDir::N,
    OutDir::S,
    OutDir::E,
    OutDir::W,
    OutDir::RucheN,
    OutDir::RucheS,
    OutDir::RucheE,
    OutDir::RucheW,
];

/// A sink that refuses deliveries before `open_at` (at tile `only`, or
/// anywhere) and on every `stutter`-th cycle after it (below 2: never),
/// logging `(cycle, tile, packet id)` of the ones it takes.
#[derive(Debug, Clone)]
struct Gate {
    open_at: u64,
    only: Option<u32>,
    stutter: u64,
    cycle: u64,
    log: Vec<(u64, u32, u32)>,
}

impl Gate {
    fn open(&self, tile: u32) -> bool {
        let shut = self.cycle < self.open_at && self.only.is_none_or(|t| t == tile);
        let stuttering = self.stutter > 1 && self.cycle.is_multiple_of(self.stutter);
        !(shut || stuttering)
    }

    fn take(&mut self, tile: u32, id: u32) -> bool {
        let open = self.open(tile);
        if open {
            self.log.push((self.cycle, tile, id));
        }
        open
    }
}

impl EjectSink for Gate {
    fn admits(&mut self, tile: u32, _pkt: &Packet) -> bool {
        self.open(tile)
    }

    fn accept(&mut self, tile: u32, pkt: Packet) {
        self.log.push((self.cycle, tile, pkt.payload.word(0)));
    }
}

#[derive(Debug, Clone)]
struct Pkt {
    id: u32,
    dst: u32,
    flits: u32,
    born: u64,
    ready: u64,
    /// Channel and axis of the last hop (channel 0 before the first).
    vc: u8,
    along_x: bool,
}

struct Reference {
    topo: TopoInfo,
    torus: bool,
    /// Ruche link length, 0 without Ruche channels.
    ruche: u32,
    inject_cap: u32,
    shards: Vec<Range<u32>>,
    gate: Gate,
    queues: Vec<VecDeque<Pkt>>,
    credit: Vec<u32>,
    /// Per router and output (in `SERVE` order): link busy until, last pick.
    busy: Vec<[u64; 9]>,
    last: Vec<[usize; 9]>,
    frees: Vec<(usize, u32)>,
    arrivals: Vec<(usize, Pkt)>,
    counters: NocCounters,
    wire_mm: Vec<f64>,
    latency: LatencyStats,
}

/// Steps from `cur` to `dst` along a ring of `size`: positive towards
/// increasing coordinates.
fn ring_steps(cur: u32, dst: u32, size: u32, torus: bool) -> i64 {
    let direct = i64::from(dst) - i64::from(cur);
    let around = direct - direct.signum() * i64::from(size);
    match (torus, direct.abs().cmp(&around.abs())) {
        (true, Ordering::Greater) => around,
        (true, Ordering::Equal) => direct.abs(),
        _ => direct,
    }
}

/// Whether `dir` travels the X dimension.
fn along_x(dir: OutDir) -> bool {
    matches!(dir, OutDir::E | OutDir::W | OutDir::RucheE | OutDir::RucheW)
}

impl Reference {
    fn new(cfg: &SystemConfig, shards: Vec<Range<u32>>, gate: Gate) -> Self {
        let params = NetworkParams::from_system(cfg);
        let tiles = (cfg.width() * cfg.height()) as usize;
        Reference {
            topo: params.topo,
            torus: cfg.noc.topology == NocTopology::FoldedTorus,
            ruche: cfg.noc.ruche_factor.unwrap_or(0),
            inject_cap: params.inject_capacity_flits,
            wire_mm: vec![0.0; shards.len()],
            shards,
            gate,
            queues: vec![VecDeque::new(); tiles * PORTS],
            credit: vec![0; tiles * PORTS],
            busy: vec![[0; 9]; tiles],
            last: vec![[0; 9]; tiles],
            frees: Vec::new(),
            arrivals: Vec::new(),
            counters: NocCounters::default(),
            latency: LatencyStats::default(),
        }
    }

    fn inject(&mut self, src: u32, pkt: Pkt) -> bool {
        let q = src as usize * PORTS + INJECT;
        if self.credit[q] > 0 && self.credit[q] + pkt.flits > self.inject_cap {
            return false;
        }
        self.credit[q] += pkt.flits;
        self.queues[q].push_back(pkt);
        self.counters.injected += 1;
        true
    }

    /// Where a packet at `(x, y)` bound for `dst` goes next, and whether
    /// that hop takes a wrap link (only a torus has them).
    fn route(&self, (x, y): (u32, u32), dst: u32) -> (OutDir, bool) {
        let (w, h) = (self.topo.width, self.topo.height);
        let dx = ring_steps(x, dst % w, w, self.torus);
        let dy = ring_steps(y, dst / w, h, self.torus);
        let r = i64::from(self.ruche);
        // a Ruche hop needs R steps left that way and a landing in the grid
        let ruche = |steps: i64, at: u32, size: u32| {
            r > 0
                && steps.abs() >= r
                && (0..i64::from(size)).contains(&(i64::from(at) + steps.signum() * r))
        };
        match (dx, dy) {
            (1.., _) if ruche(dx, x, w) => (OutDir::RucheE, false),
            (..=-1, _) if ruche(dx, x, w) => (OutDir::RucheW, false),
            (1.., _) => (OutDir::E, x == w - 1),
            (..=-1, _) => (OutDir::W, x == 0),
            (0, 1..) if ruche(dy, y, h) => (OutDir::RucheS, false),
            (0, ..=-1) if ruche(dy, y, h) => (OutDir::RucheN, false),
            (0, 1..) => (OutDir::S, y == h - 1),
            (0, ..=-1) => (OutDir::N, y == 0),
            (0, 0) => (OutDir::Eject, false),
        }
    }

    fn step(&mut self, cycle: u64) {
        for (q, flits) in std::mem::take(&mut self.frees) {
            self.credit[q] -= flits;
        }
        for (q, pkt) in std::mem::take(&mut self.arrivals) {
            self.queues[q].push_back(pkt);
        }
        for shard in 0..self.shards.len() {
            for y in 0..self.topo.height {
                for x in self.shards[shard].clone() {
                    self.visit((x, y), shard, cycle);
                }
            }
        }
    }

    fn visit(&mut self, (x, y): (u32, u32), shard: usize, cycle: u64) {
        let (w, h) = (self.topo.width, self.topo.height);
        let tile = y * w + x;
        let t = tile as usize;
        // (port, channel of the next hop) per output, ports ascending
        let mut cands: [Vec<(usize, u8)>; 9] = Default::default();
        for port in 0..PORTS {
            let queue = &self.queues[t * PORTS + port];
            let Some(head) = queue.front().filter(|head| head.ready <= cycle) else {
                continue;
            };
            let (dir, wrap) = self.route((x, y), head.dst);
            let same_ring = head.along_x == along_x(dir);
            let vc = match (wrap, same_ring) {
                (true, _) => 1,
                (false, true) => head.vc,
                (false, false) => 0,
            };
            let o = SERVE.iter().position(|&d| d == dir).expect("served");
            cands[o].push((port, vc));
        }
        for (o, dir) in SERVE.into_iter().enumerate() {
            let cand = &cands[o];
            if cand.is_empty() || self.busy[t][o] > cycle {
                continue;
            }
            self.counters.collisions += cand.len() as u64 - 1;
            let last = self.last[t][o];
            let (port, vc) = *cand.iter().find(|c| c.0 > last).unwrap_or(&cand[0]);
            self.last[t][o] = port;
            let q = t * PORTS + port;
            let flits = self.queues[q][0].flits;
            if dir == OutDir::Eject {
                self.gate.cycle = cycle;
                if !self.gate.take(tile, self.queues[q][0].id) {
                    self.counters.eject_stalls += 1;
                    continue;
                }
                let pkt = self.queues[q].pop_front().expect("a head");
                self.latency.record(cycle.saturating_sub(pkt.born));
                self.counters.ejected += 1;
            } else {
                // the side of the downstream router the link enters at
                let r = self.ruche;
                let ((nx, ny), side) = match dir {
                    OutDir::N => ((x, (y + h - 1) % h), 1),
                    OutDir::S => ((x, (y + 1) % h), 0),
                    OutDir::E => (((x + 1) % w, y), 3),
                    OutDir::W => (((x + w - 1) % w, y), 2),
                    OutDir::RucheN => ((x, y - r), 1),
                    OutDir::RucheS => ((x, y + r), 0),
                    OutDir::RucheE => ((x + r, y), 3),
                    _ => ((x - r, y), 2),
                };
                let port = if o >= FIRST_RUCHE {
                    RUCHE + side
                } else {
                    2 * side + vc as usize
                };
                let down = (ny * w + nx) as usize * PORTS + port;
                let occ = self.credit[down];
                if occ > 0 && occ + flits > self.topo.queue_capacity_flits {
                    self.counters.backpressure += 1;
                    continue;
                }
                self.credit[down] += flits;
                let mut pkt = self.queues[q].pop_front().expect("a head");
                let hop = self.topo.hop_cycles(tile, dir, 0).expect("a link");
                let class = self.topo.link_class(tile, dir, 0).expect("a link");
                pkt.ready = cycle + hop + u64::from(flits) - 1;
                pkt.vc = vc;
                pkt.along_x = along_x(dir);
                self.counters.msg_hops += 1;
                // one package: on-chip and die-to-die links only
                let c = usize::from(class == LinkClass::DieToDie);
                assert!(c == 1 || class == LinkClass::OnChip, "{class:?}");
                self.counters.flit_hops_by_class[c] += u64::from(flits);
                if class == LinkClass::OnChip {
                    let tiles = if o >= FIRST_RUCHE { f64::from(r) } else { 1.0 };
                    self.wire_mm[shard] += f64::from(flits) * (tiles * self.topo.tile_pitch_mm);
                }
                self.arrivals.push((down, pkt));
            }
            self.frees.push((q, flits));
            self.busy[t][o] = cycle + u64::from(flits);
        }
    }

    fn observed(&self) -> (NocCounters, LatencyStats) {
        let mut counters = self.counters;
        counters.onchip_flit_mm = self.wire_mm.iter().fold(0.0, |sum, mm| sum + mm);
        (counters, self.latency.clone())
    }
}

/// A grid of `chiplets` chiplets side by side, each `chiplet_w` × `h`
/// tiles — or, with Ruche channels (`ruche` ≥ 2), the nearest multiple
/// of `ruche` that is not larger, and at least `ruche`, tiles wide.
fn config(
    (chiplet_w, chiplets, h): (u32, u32, u32),
    (torus, depth, ruche): (bool, u32, u32),
) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.package_chiplets(chiplets, 1).buffer_depth(depth);
    if ruche >= 2 {
        b.chiplet_tiles(ruche * (chiplet_w / ruche).max(1), h)
            .ruche_factor(ruche);
    } else {
        b.chiplet_tiles(chiplet_w, h);
    }
    if torus {
        b.noc_topology(NocTopology::FoldedTorus);
    }
    b.build().expect("valid grid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_network_agrees_with_the_reference(
        grid in (2u32..5, 1u32..3, 2u32..9),
        noc in (any::<bool>(), 1u32..4, 0u32..5),
        host in (1usize..5, 0u64..120, 0u64..4, any::<bool>()),
        hot in vec(any::<u32>(), 1..4),
        wave in vec((0u64..60, any::<u32>(), any::<u32>(), 1u16..4), 8..128),
    ) {
        let case = format!("grid {grid:?} noc {noc:?} host {host:?}");
        let cfg = config(grid, noc);
        let tiles = cfg.width() * cfg.height();
        let (shards, open_at, stutter, gated_hub) = host;
        let mut sink = Gate {
            open_at,
            only: gated_hub.then(|| hot[0] % tiles),
            stutter,
            cycle: 0,
            log: Vec::new(),
        };
        let mut net = Network::new(NetworkParams::from_system(&cfg), shards);
        let cols = net.split().1.iter().map(|s| s.cols()).collect();
        let mut reference = Reference::new(&cfg, cols, sink.clone());
        // (due, src, packet id, dst, flits): half to the hot tiles
        let mut sends: Vec<(u64, u32, u32, u32, u16)> = wave
            .iter()
            .enumerate()
            .map(|(id, &(due, src, word, flits))| {
                let dst = if word & 1 == 0 { hot[word as usize % hot.len()] } else { word >> 1 };
                (due, src % tiles, id as u32, dst % tiles, flits)
            })
            .collect();
        sends.sort_by_key(|s| s.0);
        let mut cycle = 0;
        while !sends.is_empty() || !net.is_empty() {
            sends.retain(|&(due, src, id, dst, flits)| {
                if due > cycle {
                    return true;
                }
                let pkt = Packet::unicast(src, dst, 0, Payload::from_slice(&[id]), flits);
                let sent = net.inject(src, pkt.ready_at(cycle).born(cycle)).is_ok();
                let flits = u32::from(flits);
                let pkt = Pkt { id, dst, flits, born: cycle, ready: cycle, vc: 0, along_x: false };
                assert_eq!(sent, reference.inject(src, pkt), "{case}: admission at cycle {cycle}");
                !sent
            });
            sink.cycle = cycle;
            net.step(cycle, &mut sink);
            reference.step(cycle);
            assert_eq!(
                (net.counters(), net.latency()),
                reference.observed(),
                "{case}: the network left the reference at cycle {cycle}"
            );
            cycle += 1;
            assert!(cycle < 20_000, "{case}: traffic failed to drain");
        }
        assert!(reference.queues.iter().all(VecDeque::is_empty), "{case}");
        reference.gate.log.sort_unstable();
        sink.log.sort_unstable();
        assert_eq!(sink.log, reference.gate.log, "{case}: eject cycles");
    }
}
