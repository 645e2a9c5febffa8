//! Property test of the tile queues against the model they replaced.
//!
//! A worker keeps one [`QueueLink`] per (tile, task) for its input queues
//! and one for its channel queues, all input queues threaded through one
//! `Arena<Payload>` and all channel queues through one `Arena<OutMsg>`.
//! The model is what those were before: one `VecDeque` per (tile, task).
//! Random `push_back` / `pop_front` sequences over several tiles and
//! tasks must leave both with the same lengths, heads and FIFO contents,
//! and the arena must run out of its free list: it holds exactly as many
//! nodes as messages were ever queued at once, a vacant node owns no
//! heap payload, and a drained arena refills from its first node — so a
//! recycled node is observably a fresh one.
//!
//! (Equivalence of the whole engine — dispatch order, capacity rules,
//! snapshot bytes — is pinned by the golden traces and the snapshot
//! pins, `MILL-*` / `mill-*` rows included.)

use muchisim_core::{OutMsg, Payload, ReduceOp};
use muchisim_noc::{Arena, QueueLink};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Queues sharing each arena: 4 tiles x 3 task types.
const TILES: usize = 4;
const TASKS: usize = 3;

/// A message out of 32 random bits: short, full-inline or heap-spilled
/// payload, reducible or not.
fn message(bits: u32) -> OutMsg {
    let words: Vec<u32> = match bits % 3 {
        0 => vec![bits],
        1 => (0..6).map(|i| bits ^ i).collect(),
        _ => (0..11).map(|i| bits.wrapping_add(i)).collect(),
    };
    OutMsg {
        dst: bits >> 7,
        task: (bits >> 3) as u8 % TASKS as u8,
        payload: Payload::from_slice(&words),
        at_pu_cycle: u64::from(bits) << 3,
        reduce: (bits & 4 != 0).then_some(ReduceOp::SumU32),
    }
}

/// One arena's worth of queues next to its model.
struct Bank<T> {
    arena: Arena<T>,
    links: Vec<QueueLink>,
    model: Vec<VecDeque<T>>,
    /// Most items ever queued at once.
    peak: usize,
}

impl<T: Clone + Default + PartialEq + std::fmt::Debug> Bank<T> {
    fn new() -> Self {
        Bank {
            arena: Arena::default(),
            links: QueueLink::table(TILES * TASKS),
            model: (0..TILES * TASKS).map(|_| VecDeque::new()).collect(),
            peak: 0,
        }
    }

    fn push(&mut self, q: usize, item: T) {
        self.peak = self.peak.max(self.arena.live() + 1);
        self.links[q].push_back(&mut self.arena, item.clone());
        self.model[q].push_back(item);
    }

    /// Pops queue `q` in both; returns the arena's item. A link drained
    /// by the pop is the all-zero link that [`QueueLink::table`] starts
    /// from.
    fn pop(&mut self, q: usize) -> Option<T> {
        let got = self.links[q].pop_front(&mut self.arena);
        prop_assert_eq!(&got, &self.model[q].pop_front());
        if self.model[q].is_empty() {
            prop_assert_eq!(self.links[q], QueueLink::default(), "queue {} drained", q);
        }
        got
    }

    fn check(&self, heap: impl Fn(&T) -> u64) {
        let mut queued = 0;
        for (q, (link, model)) in self.links.iter().zip(&self.model).enumerate() {
            prop_assert_eq!(link.len() as usize, model.len(), "length of queue {}", q);
            prop_assert_eq!(link.is_empty(), model.is_empty());
            prop_assert_eq!(link.front(&self.arena), model.front());
            let fifo: Vec<&T> = link.iter(&self.arena).collect();
            prop_assert_eq!(fifo, model.iter().collect::<Vec<_>>(), "queue {}", q);
            queued += model.len();
        }
        prop_assert_eq!(self.arena.live(), queued);
        prop_assert_eq!(
            self.arena.nodes(),
            self.peak,
            "vacant nodes are reused before the arena grows"
        );
        // what the queued items spill is all the arena owns past its nodes
        let spilled: u64 = self.model.iter().flatten().map(&heap).sum();
        let nodes_only = self.arena.heap_bytes(|_| 0);
        prop_assert_eq!(self.arena.heap_bytes(&heap) - nodes_only, spilled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Links through shared arenas behave like the `VecDeque`s they
    /// replaced, under any interleaving over tiles, tasks and both banks.
    #[test]
    fn linked_queues_match_the_vecdeque_model(
        ops in vec((0u8..8, any::<u32>(), any::<u32>()), 1..320),
    ) {
        let mut cqs: Bank<OutMsg> = Bank::new();
        let mut iqs: Bank<Payload> = Bank::new();
        for (kind, a, b) in ops {
            let q = a as usize % (TILES * TASKS);
            match kind {
                // a task sends: a remote message into a CQ
                0..=2 => cqs.push(q, message(b)),
                // a local send or a delivery: a payload into an IQ
                3 | 4 => iqs.push(q, message(b).payload),
                // the NoC takes a CQ head; delivered, its payload lands
                // in some IQ (the one move between the two arenas)
                5 => {
                    if let Some(msg) = cqs.pop(q) {
                        iqs.push(b as usize % (TILES * TASKS), msg.payload);
                    }
                }
                // the TSU dispatches an IQ head
                6 => {
                    iqs.pop(q);
                }
                // one queue drains completely (the arena starts over when
                // it was the last occupied one)
                _ => {
                    while cqs.pop(q).is_some() {}
                }
            }
            cqs.check(|m| m.payload.heap_bytes());
            iqs.check(Payload::heap_bytes);
        }
        // everything drains back, and a drained arena hands its nodes
        // out again from the first one, as a fresh arena would
        for q in 0..TILES * TASKS {
            while cqs.pop(q).is_some() {}
            while iqs.pop(q).is_some() {}
        }
        prop_assert!(cqs.arena.all_vacant() && iqs.arena.all_vacant());
        let nodes = cqs.arena.nodes();
        let refill: Vec<u32> = (0..nodes as u32).map(|i| cqs.arena.alloc(message(i))).collect();
        prop_assert_eq!(refill, (0..nodes as u32).collect::<Vec<_>>());
        prop_assert_eq!(cqs.arena.nodes(), nodes, "the refill fits the vacant nodes");
    }
}
