//! Per-shard packet storage and per-router queue state.
//!
//! Every packet queued in a shard lives in that shard's [`PacketArena`]
//! (an [`Arena`] of packets, see [`crate::arena`]). A router input queue
//! is a `(head, tail)` pair of node ids, so a FIFO that holds less than
//! one packet on average costs eight bytes, not a ring buffer, and a hop
//! between two routers of the same shard *relinks* a node —
//! [`RouterState::unlink`] at the sender, [`RouterState::link`] at the
//! receiver one cycle later — without the packet moving in memory.
//!
//! A `Packet` is taken *out* of the arena only where it leaves the
//! shard's custody: ejection into the tile, a cross-shard mailbox, an
//! in-network combine (the arriving packet dies), and — by reference — a
//! snapshot. Node ids mean nothing in another shard's arena: that is why
//! mailboxes and snapshots carry packets, never ids.
//!
//! The hot per-cycle scalars (`busy_until`, `rr_ptr`, `queued_msgs`) live
//! in dense per-shard arrays (see [`crate::shard::Shard`]), not here: the
//! active-router sweep reads them without chasing the
//! `Vec<Option<Box<RouterState>>>` pointer table, and they survive when a
//! drained router's box is recycled through the shard's free-list. What
//! remains in the box is the cold part — the queue links, the combine
//! index, the stall memo — touched only when a packet actually moves.

use crate::arena::{Arena, NIL};
use crate::packet::{Packet, ReduceOp};
use crate::port::{IN_PORTS, OUT_DIRS};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The packet storage of one shard: a vacant node holds
/// `Packet::default()`, which owns no payload.
pub type PacketArena = Arena<Packet>;

/// Identity of a reducible packet waiting in one input queue: input port,
/// destination, task, reduction key (payload word 0), and operator.
///
/// [`RouterState::link`] maintains the invariant that at most one queued
/// packet per signature exists in any input queue — a second arrival
/// combines into the first instead of enqueueing — so a signature→node
/// map replaces a first-match scan of the whole FIFO exactly.
type CombineSig = (u8, u32, u8, u32, ReduceOp);

/// Whether `pkt` participates in in-network combining at all (mirrors the
/// self-conditions of [`Packet::can_combine`]).
#[inline]
fn combine_sig(port: usize, pkt: &Packet) -> Option<CombineSig> {
    match pkt.reduce {
        Some(op) if pkt.payload.len() >= 2 => {
            Some((port as u8, pkt.dst, pkt.task, pkt.payload.word(0), op))
        }
        _ => None,
    }
}

/// The combine index's hasher: one multiply-xor round per field of a
/// [`CombineSig`]. The map is only ever probed by key — nothing iterates
/// it — so neither hash values nor bucket order can reach a result, and
/// the keys are simulated packet headers, not bytes an outsider crafts to
/// collide, which is what the default SipHash would be paying for.
#[derive(Debug, Default, Clone, Copy)]
struct SigHasher(u64);

impl Hasher for SigHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // a derived `Hash` writes the operator's discriminant as an `isize`
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        // the multiply leaves the entropy in the high bits; the table
        // picks its bucket from the low ones
        self.0 ^ (self.0 >> 32)
    }
}

/// The verdict of a full visit that found the router back-pressured:
/// nothing moved, no ejection was attempted, and *every* ready head aimed
/// at a free link was refused by its downstream queue.
///
/// Until one of its inputs changes, the next full visit would decide
/// exactly the same thing, so the router *sleeps* on the verdict (see
/// [`crate::shard::Shard::step`]) and its per-cycle effects are settled
/// when it wakes. The verdict is a pure function of the queue heads
/// (a push that changes one wakes the router, see [`Pushed`]), of which
/// candidate links are busy and which heads are immature (`until`), and
/// of the credit of the watched downstream queues (`watch`, each marked
/// so that returned credit wakes the router).
///
/// Only `watch[..n_watch]` is live: a verdict is built in place in one
/// per-shard scratch memo (see `stall_verdict` in [`crate::shard`]), so
/// the entries past `n_watch` carry whatever the last verdict left there,
/// and neither equality nor [`RouterState::sleep_on`] reads them.
#[derive(Debug, Default, Clone)]
pub(crate) struct StallMemo {
    /// First cycle at which the verdict may change on its own: a busy
    /// candidate link frees or an immature head ripens (`u64::MAX` when
    /// neither exists).
    pub until: u64,
    /// Back-pressured output directions (bit = `OutDir` index); each adds
    /// one `backpressure` per cycle.
    pub dirs: u16,
    /// Arbitration losers per cycle: Σ (candidates − 1) over `dirs`.
    pub collisions: u8,
    /// Live entries of `watch`.
    pub n_watch: u8,
    /// Candidate input ports of each direction in `dirs` as a bitmask —
    /// ascending bit order is the order the arbiter sees them in.
    pub cands: [u16; OUT_DIRS],
    /// The distinct downstream queues the candidates were refused by, as
    /// `(global queue id, flits seen reserved)`. The sleeper reads only
    /// the ids (to leave its marks); the flits let the debug oracle see
    /// a credit that returned without a wake.
    pub watch: [(u32, u32); IN_PORTS],
}

impl StallMemo {
    /// The watched `(queue id, flits seen)` pairs.
    pub(crate) fn watched(&self) -> &[(u32, u32)] {
        &self.watch[..self.n_watch as usize]
    }
}

impl PartialEq for StallMemo {
    fn eq(&self, other: &Self) -> bool {
        (self.until, self.dirs, self.collisions, self.cands)
            == (other.until, other.dirs, other.collisions, other.cands)
            && self.watched() == other.watched()
    }
}

impl Eq for StallMemo {}

/// What [`RouterState::link`] did with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pushed {
    /// Flits freed by combining into a queued packet (0 if enqueued).
    pub freed: u32,
    /// Whether a queue head changed: a push into an empty queue, or a
    /// combine into the head (which may delay its `ready_at`). Only then
    /// can the router decide differently than before — a push behind an
    /// existing head cannot — so only then must a sleeping router wake.
    pub new_head: bool,
}

/// One input queue: the ids of its first and last node.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// The mutable state of one router.
///
/// Queues are FIFOs of nodes of the owning shard's [`PacketArena`], which
/// every method that reads or moves a packet takes; capacity accounting
/// (in flits) lives in the shared occupancy table so that upstream routers
/// in other shards can reserve space without touching the queue itself.
#[derive(Debug, Clone)]
pub struct RouterState {
    /// One FIFO per input port.
    queues: [Fifo; IN_PORTS],
    /// Bit `p` set ⇔ `queues[p]` is non-empty (the step sweep visits
    /// occupied ports only, instead of scanning all 13 queue heads).
    port_mask: u16,
    /// The node of the unique queued reducible packet per signature: the
    /// bounded replacement for scanning the whole input FIFO per
    /// reducible push.
    combine: HashMap<CombineSig, u32, BuildHasherDefault<SigHasher>>,
    /// The verdict this router last slept on and the shard tick of the
    /// full visit that built it. Boxed and allocated on the first stall,
    /// so a router that never stalls pays one null pointer; the box is
    /// recycled with the router through the shard pool. Derived state:
    /// never serialized, rebuilt by the next full visit.
    stall: Option<Box<(StallMemo, u64)>>,
    /// Whether the router is asleep on `stall`: the verdict's per-cycle
    /// effects since that tick are still owed to its arbitration
    /// pointers (and are being paid to the counters by the shard).
    asleep: bool,
}

impl Default for RouterState {
    fn default() -> Self {
        RouterState {
            queues: [Fifo {
                head: NIL,
                tail: NIL,
            }; IN_PORTS],
            port_mask: 0,
            combine: HashMap::default(),
            stall: None,
            asleep: false,
        }
    }
}

impl RouterState {
    /// Goes to sleep on `memo`, the verdict of the full visit that just
    /// ended in shard tick `tick`. Copies the live part only: the header,
    /// `cands` and the watched entries.
    pub(crate) fn sleep_on(&mut self, memo: &StallMemo, tick: u64) {
        let slot = self.stall.get_or_insert_with(Box::default);
        let kept = &mut slot.0;
        kept.until = memo.until;
        kept.dirs = memo.dirs;
        kept.collisions = memo.collisions;
        kept.n_watch = memo.n_watch;
        kept.cands = memo.cands;
        kept.watch[..memo.watched().len()].copy_from_slice(memo.watched());
        slot.1 = tick;
        self.asleep = true;
    }

    /// The verdict the router is asleep on and the tick it was built in.
    #[inline]
    pub(crate) fn sleeping(&self) -> Option<(&StallMemo, u64)> {
        match &self.stall {
            Some(slot) if self.asleep => Some((&slot.0, slot.1)),
            _ => None,
        }
    }

    /// Ends the sleep, handing out what the caller must settle.
    #[inline]
    pub(crate) fn wake_up(&mut self) -> Option<(&StallMemo, u64)> {
        let slept = std::mem::take(&mut self.asleep);
        match &self.stall {
            Some(slot) if slept => Some((&slot.0, slot.1)),
            _ => None,
        }
    }

    /// Whether every input queue is empty.
    pub fn is_empty(&self) -> bool {
        self.port_mask == 0
    }

    /// Bitmask of non-empty input ports.
    #[inline]
    pub fn port_mask(&self) -> u16 {
        self.port_mask
    }

    /// The head of input queue `port`.
    #[inline]
    pub fn front<'a>(&self, arena: &'a PacketArena, port: usize) -> Option<&'a Packet> {
        match self.queues[port].head {
            NIL => None,
            head => Some(arena.get(head)),
        }
    }

    /// The packets of input queue `port`, head first.
    pub fn iter<'a>(
        &self,
        arena: &'a PacketArena,
        port: usize,
    ) -> impl Iterator<Item = &'a Packet> + 'a {
        arena.iter_from(self.queues[port].head)
    }

    /// Pushes a packet into input queue `port`, combining with the queued
    /// reducible packet of the same signature when one exists.
    pub fn push(&mut self, arena: &mut PacketArena, port: usize, pkt: Packet) -> Pushed {
        let node = arena.alloc(pkt);
        self.link(arena, port, node)
    }

    /// Links live node `node` to the tail of input queue `port` — or, when
    /// the queue holds a reducible packet of the same signature, combines
    /// the node's packet into that one and releases the node.
    pub fn link(&mut self, arena: &mut PacketArena, port: usize, node: u32) -> Pushed {
        if let Some(sig) = combine_sig(port, arena.get(node)) {
            match self.combine.entry(sig) {
                Entry::Occupied(slot) => {
                    let queued = *slot.get();
                    let pkt = arena.release(node);
                    arena.get_mut(queued).combine(&pkt);
                    return Pushed {
                        freed: pkt.flits as u32,
                        new_head: self.queues[port].head == queued,
                    };
                }
                Entry::Vacant(slot) => {
                    slot.insert(node);
                }
            }
        }
        arena.set_next(node, NIL);
        let queue = &mut self.queues[port];
        let new_head = queue.head == NIL;
        if new_head {
            queue.head = node;
            self.port_mask |= 1 << port;
        } else {
            arena.set_next(queue.tail, node);
        }
        queue.tail = node;
        Pushed { freed: 0, new_head }
    }

    /// Unlinks the head node of input queue `port` and hands it to the
    /// caller, still live: to stamp and [`RouterState::link`] elsewhere in
    /// the same arena, or to give back to the arena.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn unlink(&mut self, arena: &PacketArena, port: usize) -> u32 {
        debug_assert!(!self.asleep, "a sleeper settles before it moves a packet");
        let queue = &mut self.queues[port];
        let node = queue.head;
        assert!(node != NIL, "pop from empty router queue");
        queue.head = arena.next(node);
        if queue.head == NIL {
            queue.tail = NIL;
            self.port_mask &= !(1 << port);
        }
        if let Some(sig) = combine_sig(port, arena.get(node)) {
            // the signature is unique in the queue, so the head is the
            // indexed instance
            let indexed = self.combine.remove(&sig);
            debug_assert_eq!(indexed, Some(node), "combine index out of sync");
        }
        node
    }

    /// Pops the head of input queue `port`, taking the packet out of the
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn pop(&mut self, arena: &mut PacketArena, port: usize) -> Packet {
        let node = self.unlink(arena, port);
        arena.release(node)
    }

    /// Debug-checks that a drained router's box can serve another router
    /// via the shard free-list as it is: an empty router carries no bit
    /// that could matter, and the index and memo *capacity* it keeps is
    /// the point of the pool.
    pub(crate) fn check_reusable(&self) {
        debug_assert!(
            self.is_empty() && self.queues.iter().all(|q| q.head == NIL && q.tail == NIL),
            "recycling a router that still holds packets"
        );
        debug_assert!(self.combine.is_empty(), "combine index leaked an entry");
        debug_assert!(!self.asleep, "a drained router cannot be asleep on credit");
    }

    /// Host heap bytes owned by this router besides its packets (those
    /// are the arena's): combine index and stall memo.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.combine.capacity() as u64 * std::mem::size_of::<(CombineSig, u32)>() as u64
            + self
                .stall
                .as_ref()
                .map_or(0, |_| std::mem::size_of::<(StallMemo, u64)>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn pkt(dst: u32, key: u32, val: u32) -> Packet {
        Packet::unicast(0, dst, 1, Payload::from_slice(&[key, val]), 2)
            .with_reduce(ReduceOp::MinU32)
    }

    fn plain(dst: u32, word: u32) -> Packet {
        Packet::unicast(0, dst, 0, Payload::from_slice(&[word]), 1)
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        r.push(&mut a, 0, plain(1, 1));
        r.push(&mut a, 0, plain(2, 2));
        assert_eq!(r.port_mask(), 1);
        assert_eq!(r.front(&a, 0).map(|p| p.dst), Some(1));
        assert_eq!(r.iter(&a, 0).map(|p| p.dst).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(r.pop(&mut a, 0).dst, 1);
        assert_eq!(r.pop(&mut a, 0).dst, 2);
        assert!(r.is_empty() && r.front(&a, 0).is_none());
        assert!(a.all_vacant());
    }

    #[test]
    fn a_hop_relinks_the_node_it_unlinked() {
        let mut a = PacketArena::default();
        let (mut here, mut there) = (RouterState::default(), RouterState::default());
        here.push(&mut a, 2, plain(9, 7));
        there.push(&mut a, 4, plain(9, 8));
        let node = here.unlink(&a, 2);
        a.get_mut(node).ready_at = 5;
        assert!(here.is_empty());
        assert_eq!(a.live(), 2, "an unlinked node stays live");
        let pushed = there.link(&mut a, 4, node);
        assert_eq!(
            pushed,
            Pushed {
                freed: 0,
                new_head: false
            }
        );
        assert_eq!(a.nodes(), 2, "the hop allocated nothing");
        assert_eq!(there.pop(&mut a, 4).payload.word(0), 8);
        let moved = there.pop(&mut a, 4);
        assert_eq!((moved.payload.word(0), moved.ready_at), (7, 5));
    }

    #[test]
    fn a_vacant_packet_node_owns_no_payload() {
        let mut a = PacketArena::default();
        let big: Vec<u32> = (0..16).collect();
        let spilled = |p: &Packet| p.payload.heap_bytes();
        let id = a.alloc(Packet::unicast(0, 1, 0, Payload::from_slice(&big), 17));
        let full = a.heap_bytes(spilled);
        assert_eq!(a.release(id).payload.as_slice(), &big[..]);
        assert_eq!(full - a.heap_bytes(spilled), 64);
        assert_eq!(*a.get(id), Packet::default());
    }

    #[test]
    fn push_combines_reducible_packets() {
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        assert_eq!(r.push(&mut a, 0, pkt(9, 7, 10)).freed, 0);
        let freed = r.push(&mut a, 0, pkt(9, 7, 4)).freed;
        assert_eq!(freed, 2, "combined packet frees its flits");
        assert_eq!(a.live(), 1, "the combined packet's node is released");
        let head = r.pop(&mut a, 0);
        assert_eq!(head.payload.word(1), 4);
        assert!(r.is_empty());
    }

    #[test]
    fn push_does_not_combine_across_keys() {
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        r.push(&mut a, 0, pkt(9, 7, 10));
        assert_eq!(r.push(&mut a, 0, pkt(9, 8, 4)).freed, 0);
        assert_eq!(r.pop(&mut a, 0).payload.word(0), 7);
        assert_eq!(r.pop(&mut a, 0).payload.word(0), 8);
    }

    #[test]
    fn combine_index_survives_deep_queues_and_pops() {
        // The old implementation walked the whole FIFO per reducible push
        // (quadratic under dense reduction traffic); the index must keep
        // behaving identically — first (and only) same-signature packet
        // combines, at any queue depth, even after the queue under it
        // shifts through pops.
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        // 64 distinct-key reducible packets + one plain packet in front
        r.push(
            &mut a,
            3,
            Packet::unicast(0, 9, 1, Payload::from_slice(&[999]), 1),
        );
        for key in 0..64 {
            assert_eq!(r.push(&mut a, 3, pkt(9, key, key + 100)).freed, 0);
        }
        // a second wave combines into every queued packet, regardless of
        // how deep it sits
        for key in 0..64 {
            let freed = r.push(&mut a, 3, pkt(9, key, 1)).freed;
            assert_eq!(freed, 2, "key {key} must combine");
        }
        // shift the queue: pop the plain head and the first 10 reduced
        // packets, then push a third wave — survivors still combine, the
        // popped keys re-enqueue
        assert_eq!(r.pop(&mut a, 3).payload.word(0), 999);
        for _ in 0..10 {
            r.pop(&mut a, 3);
        }
        for key in 0..64 {
            let freed = r.push(&mut a, 3, pkt(9, key, 2)).freed;
            if key < 10 {
                assert_eq!(freed, 0, "popped key {key} re-enqueues");
            } else {
                assert_eq!(freed, 2, "queued key {key} still combines");
            }
        }
        assert_eq!(a.live(), 64);
    }

    #[test]
    fn reduce_without_key_words_never_indexes() {
        // reducible flag but payload < 2 words: can_combine is always
        // false for these, so they enqueue and never join the index
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        let short =
            Packet::unicast(0, 9, 1, Payload::from_slice(&[7]), 1).with_reduce(ReduceOp::SumU32);
        assert_eq!(r.push(&mut a, 0, short.clone()).freed, 0);
        let freed = r.push(&mut a, 0, short).freed;
        assert_eq!(freed, 0, "second short packet also enqueues");
        assert_eq!(r.iter(&a, 0).count(), 2);
    }

    #[test]
    fn only_a_changed_head_reports_a_new_head() {
        let enqueued = |new_head| Pushed { freed: 0, new_head };
        let combined = |new_head| Pushed { freed: 2, new_head };
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        assert_eq!(
            r.push(&mut a, 0, pkt(9, 7, 10)),
            enqueued(true),
            "empty port"
        );
        // behind an existing head: the verdict cannot change
        assert_eq!(r.push(&mut a, 0, pkt(9, 8, 1)), enqueued(false));
        // combining into a queued non-head packet: same
        assert_eq!(r.push(&mut a, 0, pkt(9, 8, 0)), combined(false));
        // combining into the head may delay its ready_at
        assert_eq!(r.push(&mut a, 0, pkt(9, 7, 3)), combined(true));
        assert_eq!(
            r.push(&mut a, 5, pkt(9, 7, 1)),
            enqueued(true),
            "another empty port"
        );
    }

    #[test]
    fn the_signature_hash_spreads_neighbouring_keys() {
        use std::hash::{BuildHasher, Hash};
        let build = BuildHasherDefault::<SigHasher>::default();
        // the hash table takes its bucket from the low bits and its tag
        // from the top seven: neither may collapse on dense keys
        let (mut low, mut top) = ([0u32; 128], [0u32; 128]);
        for key in 0..4096u32 {
            let sig: CombineSig = (3, 9, 1, key, ReduceOp::MinU32);
            let mut h = build.build_hasher();
            sig.hash(&mut h);
            low[(h.finish() & 127) as usize] += 1;
            top[(h.finish() >> 57) as usize] += 1;
        }
        for n in low.into_iter().chain(top) {
            assert!((8..=96).contains(&n), "a bucket of 32 expected holds {n}");
        }
    }

    #[test]
    fn a_router_sleeps_on_its_memo_until_woken() {
        let memo = StallMemo {
            until: 9,
            dirs: 1,
            collisions: 0,
            n_watch: 1,
            cands: [0; OUT_DIRS],
            watch: [(4, 2); IN_PORTS],
        };
        let mut a = PacketArena::default();
        let mut r = RouterState::default();
        r.push(&mut a, 0, pkt(9, 7, 10));
        assert!(r.sleeping().is_none());
        assert!(r.wake_up().is_none(), "nothing to settle");
        r.sleep_on(&memo, 41);
        assert_eq!(r.sleeping(), Some((&memo, 41)));
        // pushes do not end the sleep: the shard wakes the router and the
        // visit settles first
        r.push(&mut a, 5, pkt(9, 7, 1));
        assert_eq!(r.sleeping(), Some((&memo, 41)));
        assert_eq!(r.wake_up(), Some((&memo, 41)));
        assert!(
            r.sleeping().is_none() && r.wake_up().is_none(),
            "settled once"
        );
        // recycling keeps the allocations, not the sleep
        while !r.is_empty() {
            let port = r.port_mask().trailing_zeros() as usize;
            r.pop(&mut a, port);
        }
        r.check_reusable();
        assert!(r.sleeping().is_none());
        assert!(r.heap_bytes() >= std::mem::size_of::<StallMemo>() as u64);
    }

    #[test]
    fn the_router_box_stays_small() {
        // what a materialized router costs besides its packets: 13 queue
        // links, the index header, the memo pointer
        assert!(std::mem::size_of::<RouterState>() <= 176);
    }
}
