//! Per-router state: input queues and the in-network combine index.
//!
//! The hot per-cycle scalars (`busy_until`, `rr_ptr`, `queued_msgs`) live
//! in dense per-shard arrays (see [`crate::shard::Shard`]), not here: the
//! active-router sweep reads them without chasing the
//! `Vec<Option<Box<RouterState>>>` pointer table, and they survive when a
//! drained router's box is recycled through the shard's free-list. What
//! remains in the box is the cold bulk — the packet FIFOs — plus the
//! bookkeeping that is only touched when a packet actually moves.

use crate::packet::{Packet, ReduceOp};
use crate::port::{IN_PORTS, OUT_DIRS};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Identity of a reducible packet waiting in one input queue: input port,
/// destination, task, reduction key (payload word 0), and operator.
///
/// [`RouterState::push`] maintains the invariant that at most one queued
/// packet per signature exists in any input queue — a second arrival
/// combines into the first instead of enqueueing — so a signature→position
/// map replaces the old first-match scan of the whole FIFO exactly.
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pub fn watched(&self) -> &[(u32, u32)] {
        &self.watch[..self.n_watch as usize]
    }
}

/// What [`RouterState::push`] did with a packet.
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

/// The mutable state of one router.
///
/// Queues are FIFOs; capacity accounting (in flits) lives in the shared
/// occupancy table so that upstream routers in other shards can reserve
/// space without touching the queue itself.
#[derive(Debug, Default)]
pub struct RouterState {
    /// One FIFO per input port.
    pub queues: [VecDeque<Packet>; IN_PORTS],
    /// Bit `p` set ⇔ `queues[p]` is non-empty (the step sweep visits
    /// occupied ports only, instead of scanning all 13 queue heads).
    port_mask: u16,
    /// Pops per port since the last reset (wrapping). Together with a
    /// queue position this yields a stable sequence number, which is what
    /// the combine index stores — positions shift on every pop, sequence
    /// numbers never do.
    pops: [u32; IN_PORTS],
    /// Sequence number of the unique queued reducible packet per
    /// signature: the bounded replacement for scanning the whole input
    /// FIFO per reducible push.
    combine: HashMap<CombineSig, u32>,
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

impl RouterState {
    /// Goes to sleep on `memo`, the verdict of the full visit that just
    /// ended in shard tick `tick`.
    pub(crate) fn sleep_on(&mut self, memo: StallMemo, tick: u64) {
        match &mut self.stall {
            Some(slot) => **slot = (memo, tick),
            None => self.stall = Some(Box::new((memo, tick))),
        }
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
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.port_mask == 0
    }

    /// Bitmask of non-empty input ports.
    #[inline]
    pub fn port_mask(&self) -> u16 {
        self.port_mask
    }

    /// Pushes a packet into input queue `port`, combining with the queued
    /// reducible packet of the same signature when one exists.
    pub fn push(&mut self, port: usize, pkt: Packet) -> Pushed {
        if let Some(sig) = combine_sig(port, &pkt) {
            match self.combine.entry(sig) {
                Entry::Occupied(slot) => {
                    let idx = slot.get().wrapping_sub(self.pops[port]) as usize;
                    let queued = &mut self.queues[port][idx];
                    debug_assert!(queued.can_combine(&pkt), "combine index out of sync");
                    queued.combine(&pkt);
                    return Pushed {
                        freed: pkt.flits as u32,
                        new_head: idx == 0,
                    };
                }
                Entry::Vacant(slot) => {
                    slot.insert(self.pops[port].wrapping_add(self.queues[port].len() as u32));
                }
            }
        }
        let new_head = self.queues[port].is_empty();
        self.port_mask |= 1 << port;
        self.queues[port].push_back(pkt);
        Pushed { freed: 0, new_head }
    }

    /// Pops the head of input queue `port`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn pop(&mut self, port: usize) -> Packet {
        debug_assert!(!self.asleep, "a sleeper settles before it moves a packet");
        let pkt = self.queues[port]
            .pop_front()
            .expect("pop from empty router queue");
        if self.queues[port].is_empty() {
            self.port_mask &= !(1 << port);
        }
        self.pops[port] = self.pops[port].wrapping_add(1);
        if let Some(sig) = combine_sig(port, &pkt) {
            // the signature is unique in the queue, so the head is the
            // indexed instance
            let seq = self.combine.remove(&sig);
            debug_assert_eq!(seq, Some(self.pops[port].wrapping_sub(1)));
        }
        pkt
    }

    /// Restores a just-popped packet to the head of queue `port` (eject
    /// refusal: the tile's input queue had no room, retry next cycle).
    pub fn restore_front(&mut self, port: usize, pkt: Packet) {
        self.pops[port] = self.pops[port].wrapping_sub(1);
        if let Some(sig) = combine_sig(port, &pkt) {
            let prev = self.combine.insert(sig, self.pops[port]);
            debug_assert!(prev.is_none(), "restored signature already indexed");
        }
        self.queues[port].push_front(pkt);
        self.port_mask |= 1 << port;
    }

    /// Resets bookkeeping so a drained router's box can serve another
    /// router via the shard free-list. Queue and index *capacity* is
    /// deliberately kept — recycled buffers are the point of the pool.
    pub(crate) fn reset_for_reuse(&mut self) {
        debug_assert!(
            self.queues.iter().all(VecDeque::is_empty),
            "recycling a router that still holds packets"
        );
        debug_assert!(self.combine.is_empty(), "combine index leaked an entry");
        debug_assert!(!self.asleep, "a drained router cannot be asleep on credit");
        self.port_mask = 0;
        self.pops = [0; IN_PORTS];
    }

    /// Host heap bytes owned by this router's queues (buffer capacity
    /// plus spilled payloads), combine index and stall memo.
    pub fn heap_bytes(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| {
                q.capacity() as u64 * std::mem::size_of::<Packet>() as u64
                    + q.iter().map(|p| p.payload.heap_bytes()).sum::<u64>()
            })
            .sum::<u64>()
            + self.combine.capacity() as u64 * std::mem::size_of::<(CombineSig, u32)>() as u64
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

    #[test]
    fn push_pop_fifo_order() {
        let mut r = RouterState::default();
        r.push(0, Packet::unicast(0, 1, 0, Payload::from_slice(&[1]), 1));
        r.push(0, Packet::unicast(0, 2, 0, Payload::from_slice(&[2]), 1));
        assert_eq!(r.port_mask(), 1);
        assert_eq!(r.pop(0).dst, 1);
        assert_eq!(r.pop(0).dst, 2);
        assert!(r.is_empty());
    }

    #[test]
    fn push_combines_reducible_packets() {
        let mut r = RouterState::default();
        assert_eq!(r.push(0, pkt(9, 7, 10)).freed, 0);
        let freed = r.push(0, pkt(9, 7, 4)).freed;
        assert_eq!(freed, 2, "combined packet frees its flits");
        let head = r.pop(0);
        assert_eq!(head.payload.word(1), 4);
        assert!(r.is_empty());
    }

    #[test]
    fn push_does_not_combine_across_keys() {
        let mut r = RouterState::default();
        r.push(0, pkt(9, 7, 10));
        assert_eq!(r.push(0, pkt(9, 8, 4)).freed, 0);
        assert_eq!(r.pop(0).payload.word(0), 7);
        assert_eq!(r.pop(0).payload.word(0), 8);
    }

    #[test]
    fn combine_index_survives_deep_queues_and_pops() {
        // The satellite regression test: the old implementation walked the
        // whole FIFO per reducible push (quadratic under dense reduction
        // traffic); the index must keep behaving identically — first (and
        // only) same-signature packet combines, at any queue depth, even
        // after the positions under it shift through pops and restores.
        let mut r = RouterState::default();
        // 64 distinct-key reducible packets + one plain packet in front
        r.push(3, Packet::unicast(0, 9, 1, Payload::from_slice(&[999]), 1));
        for key in 0..64 {
            assert_eq!(r.push(3, pkt(9, key, key + 100)).freed, 0);
        }
        // a second wave combines into every queued packet, regardless of
        // how deep it sits
        for key in 0..64 {
            assert_eq!(r.push(3, pkt(9, key, 1)).freed, 2, "key {key} must combine");
        }
        // shift the queue: pop the plain head and the first 10 reduced
        // packets, then push a third wave — survivors still combine, the
        // popped keys re-enqueue
        assert_eq!(r.pop(3).payload.word(0), 999);
        for _ in 0..10 {
            r.pop(3);
        }
        for key in 0..64 {
            let freed = r.push(3, pkt(9, key, 2)).freed;
            if key < 10 {
                assert_eq!(freed, 0, "popped key {key} re-enqueues");
            } else {
                assert_eq!(freed, 2, "queued key {key} still combines");
            }
        }
        // restore-front keeps the index consistent too
        let head = r.pop(3);
        let key = head.payload.word(0);
        r.restore_front(3, head);
        assert_eq!(r.push(3, pkt(9, key, 3)).freed, 2, "restored head combines");
    }

    #[test]
    fn reduce_without_key_words_never_indexes() {
        // reducible flag but payload < 2 words: can_combine is always
        // false for these, so they enqueue and never join the index
        let mut r = RouterState::default();
        let short =
            Packet::unicast(0, 9, 1, Payload::from_slice(&[7]), 1).with_reduce(ReduceOp::SumU32);
        assert_eq!(r.push(0, short.clone()).freed, 0);
        assert_eq!(
            r.push(0, short).freed,
            0,
            "second short packet also enqueues"
        );
        assert_eq!(r.queues[0].len(), 2);
    }

    #[test]
    fn only_a_changed_head_reports_a_new_head() {
        let enqueued = |new_head| Pushed { freed: 0, new_head };
        let combined = |new_head| Pushed { freed: 2, new_head };
        let mut r = RouterState::default();
        assert_eq!(r.push(0, pkt(9, 7, 10)), enqueued(true), "empty port");
        // behind an existing head: the verdict cannot change
        assert_eq!(r.push(0, pkt(9, 8, 1)), enqueued(false));
        // combining into a queued non-head packet: same
        assert_eq!(r.push(0, pkt(9, 8, 0)), combined(false));
        // combining into the head may delay its ready_at
        assert_eq!(r.push(0, pkt(9, 7, 3)), combined(true));
        assert_eq!(
            r.push(5, pkt(9, 7, 1)),
            enqueued(true),
            "another empty port"
        );
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
        let mut r = RouterState::default();
        r.push(0, pkt(9, 7, 10));
        assert!(r.sleeping().is_none());
        assert!(r.wake_up().is_none(), "nothing to settle");
        r.sleep_on(memo.clone(), 41);
        assert_eq!(r.sleeping(), Some((&memo, 41)));
        // pushes do not end the sleep: the shard wakes the router and the
        // visit settles first
        r.push(5, pkt(9, 7, 1));
        assert_eq!(r.sleeping(), Some((&memo, 41)));
        assert_eq!(r.wake_up(), Some((&memo, 41)));
        assert!(
            r.sleeping().is_none() && r.wake_up().is_none(),
            "settled once"
        );
        // recycling keeps the allocation, not the sleep
        while !r.is_empty() {
            let port = r.port_mask().trailing_zeros() as usize;
            r.pop(port);
        }
        r.reset_for_reuse();
        assert!(r.sleeping().is_none());
        assert!(r.heap_bytes() >= std::mem::size_of::<StallMemo>() as u64);
    }

    #[test]
    fn reuse_reset_keeps_capacity() {
        let mut r = RouterState::default();
        for i in 0..32 {
            r.push(5, pkt(9, i, i));
        }
        let cap_before = r.queues[5].capacity();
        assert!(cap_before >= 32);
        while !r.is_empty() {
            r.pop(5);
        }
        r.reset_for_reuse();
        assert_eq!(r.port_mask(), 0);
        assert_eq!(r.queues[5].capacity(), cap_before, "buffers are recycled");
    }
}
