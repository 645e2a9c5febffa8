//! Property tests on the packet arena and the router-box free-list (the
//! pooled packet storage of the dense-regime hot loops).
//!
//! **The queues against a model.** Router input queues are index-linked
//! lists through one shared [`PacketArena`]; the model is what they
//! replaced — one `VecDeque<Packet>` per port, a reducible arrival
//! combining into the first queued packet it can combine with. Random
//! `push` / `pop` / unlink-and-relink sequences over
//! several routers must leave both with the same FIFO contents, the same
//! [`Pushed`] verdicts and the same port masks, and the arena must run
//! out of its free list: it holds exactly as many nodes as packets were
//! ever alive at once, and a vacant node owns no heap payload.
//!
//! **The network against itself.** When a traffic wave drains, its router
//! boxes retire into the per-shard pools and its nodes onto the arena
//! free lists, and replaying the *same* wave through those recycled boxes
//! and nodes — time-shifted past every busy window — produces
//! bit-identical deliveries without either growing. A recycled box or
//! node is therefore observably indistinguishable from a fresh
//! allocation.
//!
//! All network traffic originates at tile 0, so every router sees packets
//! on at most one input port and arbitration never consults the
//! round-robin pointers (which intentionally survive recycling, like the
//! link clocks — they are SoA state, not box state).

use muchisim_config::SystemConfig;
use muchisim_noc::{
    DrainSink, Network, NetworkParams, Packet, PacketArena, Payload, Pushed, ReduceOp, RouterState,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Routers sharing the arena, and the input ports the ops spread over
/// (few, so queues get deep; the last one is the highest port there is).
const ROUTERS: usize = 3;
const PORTS: [usize; 3] = [0, 5, 12];

/// The reference router: the `VecDeque` FIFOs the arena replaced.
#[derive(Default)]
struct ModelRouter {
    queues: [VecDeque<Packet>; 13],
}

impl ModelRouter {
    fn push(&mut self, port: usize, pkt: Packet) -> Pushed {
        let queue = &mut self.queues[port];
        if let Some(idx) = queue.iter().position(|q| q.can_combine(&pkt)) {
            queue[idx].combine(&pkt);
            return Pushed {
                freed: u32::from(pkt.flits),
                new_head: idx == 0,
            };
        }
        queue.push_back(pkt);
        Pushed {
            freed: 0,
            new_head: queue.len() == 1,
        }
    }

    fn port_mask(&self) -> u16 {
        (0..13)
            .filter(|&p| !self.queues[p].is_empty())
            .fold(0, |mask, p| mask | 1 << p)
    }
}

/// A packet out of 32 random bits: one of 3 destinations and 4 keys (so
/// signatures collide often), reducible or not, inline or spilled.
fn packet(bits: u32) -> Packet {
    let (dst, key) = (bits % 3, (bits >> 2) % 4);
    let words: Vec<u32> = match (bits >> 4) % 4 {
        0 => vec![key],
        1 | 2 => vec![key, bits >> 8],
        _ => (0..9)
            .map(|i| if i == 0 { key } else { bits ^ i })
            .collect(),
    };
    let flits = 1 + words.len() as u16;
    let pkt = Packet::unicast(7, dst, 1, Payload::from_slice(&words), flits)
        .ready_at(u64::from(bits >> 20));
    match (bits >> 6) % 3 {
        0 => pkt,
        1 => pkt.with_reduce(ReduceOp::SumU32),
        _ => pkt.with_reduce(ReduceOp::MinU32),
    }
}

fn spilled(pkt: &Packet) -> u64 {
    pkt.payload.heap_bytes()
}

fn network(w: u32, h: u32, shards: usize) -> Network {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(w, h)
        .build()
        .expect("valid grid");
    Network::new(NetworkParams::from_system(&cfg), shards)
}

/// One scripted injection: relative inject cycle, destination, payload
/// seed word, flit count, and whether the packet joins a reduction.
type Send = (u64, u32, u32, u16, bool);

/// A delivered packet, in wave-relative time: (delivery cycle, eject
/// tile, destination, flits, payload words).
type Delivery = (u64, u32, u32, u16, Vec<u32>);

/// Injects `wave` from tile 0 starting at absolute cycle `base` and
/// steps until the network drains, retrying backpressured injections
/// each cycle in order. Returns the deliveries in wave-relative time.
fn run_wave(net: &mut Network, base: u64, wave: &[Send]) -> Vec<Delivery> {
    let mut pending: Vec<Send> = wave.to_vec();
    let mut out = Vec::new();
    let mut sink = DrainSink::default();
    let mut seen = 0;
    let mut cycle = base;
    loop {
        let rel = cycle - base;
        let mut retry = Vec::new();
        for send in pending.drain(..) {
            let (due, dst, word, flits, reduce) = send;
            if due > rel {
                retry.push(send);
                continue;
            }
            let payload = Payload::from_slice(&[word, word ^ 0x9e37]);
            let mut pkt = Packet::unicast(0, dst, 0, payload, flits).ready_at(cycle);
            if reduce {
                pkt = pkt.with_reduce(ReduceOp::SumU32);
            }
            if let Err(_refused) = net.inject(0, pkt) {
                retry.push(send); // inject queue full: retry next cycle
            }
        }
        pending = retry;
        net.step(cycle, &mut sink);
        for (tile, pkt) in &sink.drained[seen..] {
            out.push((
                rel,
                *tile,
                pkt.dst,
                pkt.flits,
                pkt.payload.as_slice().to_vec(),
            ));
        }
        seen = sink.drained.len();
        if pending.is_empty() && net.is_empty() {
            return out;
        }
        cycle += 1;
        assert!(cycle - base < 1 << 20, "wave failed to drain");
    }
}

fn arena_nodes(net: &mut Network) -> usize {
    let (_, shards) = net.split();
    shards.iter().map(|s| s.arena_nodes()).sum()
}

fn pooled_routers(net: &mut Network) -> usize {
    let (_, shards) = net.split();
    shards.iter().map(|s| s.pooled_routers()).sum()
}

fn allocated_routers(net: &mut Network) -> usize {
    let (_, shards) = net.split();
    shards.iter().map(|s| s.allocated_routers()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Linked queues through one arena behave like the `VecDeque`s they
    /// replaced, under any interleaving over several routers.
    #[test]
    fn linked_queues_match_the_vecdeque_model(
        ops in vec((0u8..5, any::<u32>(), any::<u32>()), 1..256),
    ) {
        let mut arena = PacketArena::default();
        let mut routers: Vec<RouterState> = (0..ROUTERS).map(|_| RouterState::default()).collect();
        let mut model: Vec<ModelRouter> = (0..ROUTERS).map(|_| ModelRouter::default()).collect();
        // most packets ever alive at once, counting the node an arrival
        // occupies before it turns out to combine
        let mut peak = 0;
        for (kind, a, b) in ops {
            let (r, port) = (a as usize % ROUTERS, PORTS[(a >> 8) as usize % PORTS.len()]);
            let live = arena.live();
            match kind {
                0..=2 => {
                    let pkt = packet(b);
                    peak = peak.max(live + 1);
                    let pushed = routers[r].push(&mut arena, port, pkt.clone());
                    prop_assert_eq!(pushed, model[r].push(port, pkt));
                }
                3 if !model[r].queues[port].is_empty() => {
                    let before = arena.heap_bytes(spilled);
                    let pkt = routers[r].pop(&mut arena, port);
                    prop_assert_eq!(
                        before - arena.heap_bytes(spilled),
                        spilled(&pkt),
                        "the payload leaves with the packet: a vacant node owns none"
                    );
                    prop_assert_eq!(Some(pkt), model[r].queues[port].pop_front());
                }
                4 if !model[r].queues[port].is_empty() => {
                    // a hop: the node is unlinked, stamped, linked elsewhere
                    let (to, to_port) =
                        ((b as usize) % ROUTERS, PORTS[(b >> 8) as usize % PORTS.len()]);
                    let (nodes, stamp) = (arena.nodes(), u64::from(b >> 12));
                    let node = routers[r].unlink(&arena, port);
                    arena.get_mut(node).ready_at = stamp;
                    arena.get_mut(node).vc = 1;
                    let pushed = routers[to].link(&mut arena, to_port, node);
                    let mut pkt = model[r].queues[port].pop_front().expect("checked");
                    pkt.ready_at = stamp;
                    pkt.vc = 1;
                    prop_assert_eq!(pushed, model[to].push(to_port, pkt));
                    prop_assert_eq!(arena.nodes(), nodes, "a hop allocates nothing");
                }
                _ => {} // pop or hop on an empty queue
            }
            let mut queued = 0;
            for (router, reference) in routers.iter().zip(&model) {
                prop_assert_eq!(router.port_mask(), reference.port_mask());
                prop_assert_eq!(router.is_empty(), reference.port_mask() == 0);
                for port in 0..13 {
                    let fifo: Vec<&Packet> = router.iter(&arena, port).collect();
                    let expect: Vec<&Packet> = reference.queues[port].iter().collect();
                    prop_assert_eq!(router.front(&arena, port), expect.first().copied());
                    prop_assert_eq!(fifo, expect, "FIFO contents of port {}", port);
                    queued += reference.queues[port].len();
                }
            }
            prop_assert_eq!(arena.live(), queued);
            prop_assert_eq!(arena.nodes(), peak, "vacant nodes are reused before the arena grows");
        }
        // everything drains back onto the free list
        for router in &mut routers {
            while !router.is_empty() {
                let port = router.port_mask().trailing_zeros() as usize;
                router.pop(&mut arena, port);
            }
        }
        prop_assert!(arena.all_vacant());
    }

    /// Replaying a wave through pooled boxes and vacant nodes matches the
    /// fresh run bit for bit, on any grid, shard split, and traffic mix.
    #[test]
    fn recycled_boxes_are_indistinguishable_from_fresh(
        w in 2u32..9,
        h in 2u32..9,
        shards in 1usize..4,
        wave in vec((0u64..24, any::<u32>(), any::<u32>(), 1u16..4), 1..32),
    ) {
        // the seed word's low bit doubles as the "reducible" flag (the
        // vendored proptest implements tuple strategies up to arity 4)
        let wave: Vec<Send> = wave
            .into_iter()
            .map(|(c, dst, word, flits)| (c, dst % (w * h), word, flits, word & 1 == 0))
            .collect();
        let mut net = network(w, h, shards.min(w as usize));
        let fresh = run_wave(&mut net, 0, &wave);
        prop_assert!(
            allocated_routers(&mut net) == 0 && pooled_routers(&mut net) > 0,
            "drained wave must retire its router boxes into the pools"
        );
        let hops_fresh = net.counters().msg_hops;
        let nodes_fresh = arena_nodes(&mut net);
        // far past every busy_until the first wave could have left behind
        let base = 1 << 14;
        let replay = run_wave(&mut net, base, &wave);
        prop_assert_eq!(replay, fresh, "recycled boxes changed behavior");
        prop_assert_eq!(arena_nodes(&mut net), nodes_fresh, "the replay fits the vacant nodes");
        prop_assert_eq!(
            net.counters().msg_hops - hops_fresh,
            hops_fresh,
            "replay must retrace the same hops"
        );
    }

    /// The pool never grows beyond the routers the traffic actually
    /// touched nor the arena beyond the packets it sent, and repeated
    /// waves reuse both instead of growing them (steady-state dense
    /// traffic is allocator-free).
    #[test]
    fn pool_reaches_steady_state(
        w in 2u32..7,
        h in 2u32..7,
        wave in vec((0u64..8, any::<u32>(), any::<u32>()), 1..16),
    ) {
        let wave: Vec<Send> = wave
            .into_iter()
            .map(|(c, dst, word)| (c, dst % (w * h), word, 1u16, false))
            .collect();
        let mut net = network(w, h, 1);
        run_wave(&mut net, 0, &wave);
        let after_first = (pooled_routers(&mut net), arena_nodes(&mut net));
        prop_assert!(after_first.0 <= (w * h) as usize);
        prop_assert!((1..=wave.len()).contains(&after_first.1));
        for round in 1..4u64 {
            run_wave(&mut net, round << 14, &wave);
            prop_assert_eq!(
                (pooled_routers(&mut net), arena_nodes(&mut net)),
                after_first,
                "identical waves must reuse the pooled boxes and vacant nodes, not grow either"
            );
        }
    }
}
