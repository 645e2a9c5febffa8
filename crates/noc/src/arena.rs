//! Index-linked node storage: one `Vec` of nodes `{item, next}` with a
//! LIFO free list threaded through the vacant ones, and FIFOs that are
//! `(head, tail)` pairs of node ids.
//!
//! Two users, three instances: every packet queued in a NoC shard lives
//! in that shard's [`PacketArena`](crate::PacketArena) (router input
//! queues, see [`crate::router`]), and every message queued at a tile
//! lives in one of its worker's two arenas — input-queue payloads and
//! channel-queue messages — through one [`QueueLink`] per (tile, task).
//! A FIFO that holds less than one item on average then costs its link,
//! not a ring buffer, and an idle one costs nothing else.
//!
//! **Node lifetime.** [`Arena::alloc`] makes a node live,
//! [`Arena::release`] takes its item out and returns the node to the free
//! list; in between the node is owned by exactly one queue (or, in a
//! shard, by the deferred-push buffer between unlink and link). Node ids
//! are indices into one arena's `Vec` and mean nothing in another.

/// The "no node" id: the last node's `next`, the end of the free list.
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<T> {
    /// The queued item; `T::default()` while the node is vacant, so a
    /// vacant node never owns heap memory.
    item: T,
    /// The next node towards the queue's tail, or the next vacant node.
    next: u32,
}

/// Node storage with a free list (see the module comment).
#[derive(Debug)]
pub struct Arena<T> {
    nodes: Vec<Node<T>>,
    /// Most recently released node: reused first, while it is still warm
    /// in the cache.
    free: u32,
    /// Nodes from here on have been vacant since the arena last drained
    /// and are on no list: with the free list empty, they are handed out
    /// next, in index order.
    untouched: u32,
    live: u32,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            nodes: Vec::new(),
            free: NIL,
            untouched: 0,
            live: 0,
        }
    }
}

/// The id of the node that extends an arena of `len` nodes.
///
/// Ids are `u32` and [`NIL`] is reserved, so an arena holds at most
/// 2³² − 1 nodes. That bound is an invariant, not an input-reachable
/// state. A shard's arena holds the packets queued in its routers: at
/// most `MAX_TILES` routers x 13 queues of `MAX_QUEUE_FLITS` flits each
/// are admitted by `SystemConfig::validate`, but every node is ≥ 72 bytes,
/// so 2³² − 1 of them are ≥ 288 GiB of host memory in one `Vec` — the
/// allocator fails first. A worker's tile arenas are bounded the same
/// way: channel queues spill without a configured limit, but 2³² − 1
/// queued messages are ≥ 160 GiB of nodes.
///
/// # Panics
///
/// Panics when `len` has reached that bound.
fn fresh_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NIL)
        .expect("arena full: node ids are u32 and one is reserved, so it holds 2^32 - 1 nodes")
}

impl<T> Arena<T> {
    /// The item of live node `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &T {
        &self.nodes[id as usize].item
    }

    /// The item of live node `id`, to change in place.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut T {
        &mut self.nodes[id as usize].item
    }

    /// The node after `id` in its queue ([`NIL`] at the tail).
    #[inline]
    pub(crate) fn next(&self, id: u32) -> u32 {
        self.nodes[id as usize].next
    }

    /// Makes `next` the node after `id`.
    #[inline]
    pub(crate) fn set_next(&mut self, id: u32, next: u32) {
        self.nodes[id as usize].next = next;
    }

    /// The items from node `head` to the tail of its queue.
    pub(crate) fn iter_from(&self, head: u32) -> impl Iterator<Item = &T> + '_ {
        let mut id = head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(id as usize)?;
            id = node.next;
            Some(&node.item)
        })
    }

    /// Live nodes: the items the arena holds.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// Nodes ever created (live + vacant); grows only when an item
    /// arrives while no node is vacant.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether every node is vacant: on the free list (by walking it) or
    /// untouched since the last drain.
    pub fn all_vacant(&self) -> bool {
        let mut vacant = self.nodes.len() - self.untouched as usize;
        let mut id = self.free;
        while id != NIL && vacant <= self.nodes.len() {
            vacant += 1;
            id = self.nodes[id as usize].next;
        }
        self.live == 0 && vacant == self.nodes.len()
    }

    /// Host heap bytes: node capacity plus what `item_heap` says each
    /// item owns beyond its inline size (a vacant node's owns nothing).
    pub fn heap_bytes(&self, item_heap: impl Fn(&T) -> u64) -> u64 {
        self.nodes.capacity() as u64 * std::mem::size_of::<Node<T>>() as u64
            + self.nodes.iter().map(|n| item_heap(&n.item)).sum::<u64>()
    }
}

impl<T: Default> Arena<T> {
    /// Stores `item` in a vacant node — the most recently released one, a
    /// new one only when none is vacant — and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the arena already holds 2³² − 1 nodes (an invariant,
    /// see `fresh_id`).
    #[inline]
    pub fn alloc(&mut self, item: T) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let id = self.free;
            let node = &mut self.nodes[id as usize];
            self.free = node.next;
            node.item = item;
            return id;
        }
        let id = match self.nodes.get_mut(self.untouched as usize) {
            Some(node) => {
                node.item = item;
                self.untouched
            }
            None => {
                let id = fresh_id(self.nodes.len());
                self.nodes.push(Node { item, next: NIL });
                id
            }
        };
        self.untouched = id + 1;
        id
    }

    /// Takes the item out of live node `id` and returns the node to the
    /// free list.
    #[inline]
    pub(crate) fn release(&mut self, id: u32) -> T {
        let node = &mut self.nodes[id as usize];
        let item = std::mem::take(&mut node.item);
        node.next = self.free;
        self.free = id;
        self.live -= 1;
        if self.live == 0 {
            // drained: forget the order the nodes came back in, so the
            // next burst fills the arena front to back — queues that a
            // sweep fills in index order then sit in memory in that order
            self.free = NIL;
            self.untouched = 0;
        }
        item
    }
}

/// One FIFO of an [`Arena`]: the ids of its first and last node and its
/// length. Twelve bytes whether the queue is empty or deep; every method
/// that reads or moves an item takes the arena the nodes live in, which
/// must be the same one for the link's whole life.
///
/// `len` alone says whether the queue is empty, and an empty link is all
/// zero bits — the `Default`, and what popping the last item leaves — so
/// a table of idle links built by [`QueueLink::table`] is never written.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueLink {
    head: u32,
    tail: u32,
    len: u32,
}

impl QueueLink {
    /// `n` empty links, collected in place from a zeroed allocation: the
    /// map from zero words to zero words writes nothing, so pages of links
    /// no queue ever uses stay untouched (a `vec![QueueLink::default(); n]`
    /// stores every link).
    pub fn table(n: usize) -> Vec<QueueLink> {
        let words = vec![[0u32; 3]; n];
        words
            .into_iter()
            .map(|[head, tail, len]| QueueLink { head, tail, len })
            .collect()
    }

    /// Items queued.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The head item.
    #[inline]
    pub fn front<'a, T>(&self, arena: &'a Arena<T>) -> Option<&'a T> {
        (self.len != 0).then(|| arena.get(self.head))
    }

    /// The queued items, head first.
    pub fn iter<'a, T>(&self, arena: &'a Arena<T>) -> impl Iterator<Item = &'a T> + 'a {
        arena.iter_from(self.head).take(self.len as usize)
    }

    /// Appends `item` at the tail.
    #[inline]
    pub fn push_back<T: Default>(&mut self, arena: &mut Arena<T>, item: T) {
        let node = arena.alloc(item);
        arena.set_next(node, NIL);
        if self.len == 0 {
            self.head = node;
        } else {
            arena.set_next(self.tail, node);
        }
        self.tail = node;
        self.len += 1;
    }

    /// Takes the head item out; the last one leaves the all-zero link.
    #[inline]
    pub fn pop_front<T: Default>(&mut self, arena: &mut Arena<T>) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let node = self.head;
        self.len -= 1;
        if self.len == 0 {
            *self = QueueLink::default();
        } else {
            self.head = arena.next(node);
        }
        Some(arena.release(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn released_nodes_are_reused_last_out_first() {
        let mut a: Arena<Vec<u32>> = Arena::default();
        let ids: Vec<u32> = (0..3).map(|i| a.alloc(vec![i; 4])).collect();
        let heap = |v: &Vec<u32>| v.capacity() as u64 * 4;
        let full = a.heap_bytes(heap);
        assert_eq!(a.release(ids[0]), [0; 4]);
        a.release(ids[2]);
        assert_eq!(full - a.heap_bytes(heap), 32, "a vacant node owns nothing");
        assert_eq!((a.live(), a.nodes()), (1, 3));
        assert_eq!(a.alloc(vec![7]), ids[2]);
        assert_eq!(a.alloc(vec![8]), ids[0]);
        assert_eq!(a.alloc(vec![9]), 3, "grows only when none is vacant");
        assert!(!a.all_vacant());
    }

    #[test]
    fn nodes_stay_small() {
        assert_eq!(std::mem::size_of::<Node<crate::Packet>>(), 72);
        assert_eq!(std::mem::size_of::<Node<crate::Payload>>(), 40);
    }

    #[test]
    fn node_ids_stop_short_of_nil() {
        assert_eq!(fresh_id(0), 0);
        assert_eq!(fresh_id(NIL as usize - 1), NIL - 1);
    }

    #[test]
    #[should_panic(expected = "arena full")]
    fn the_nil_id_is_never_handed_out() {
        fresh_id(NIL as usize);
    }

    #[test]
    fn links_sharing_an_arena_stay_fifo() {
        let mut a: Arena<u32> = Arena::default();
        let fresh = QueueLink::table(2);
        let (mut p, mut q) = (fresh[0], fresh[1]);
        assert_eq!(q, QueueLink::default(), "a table's link is the zero link");
        assert!(p.is_empty() && p.front(&a).is_none() && p.pop_front(&mut a).is_none());
        p.push_back(&mut a, 1);
        q.push_back(&mut a, 10);
        p.push_back(&mut a, 2);
        q.push_back(&mut a, 11);
        p.push_back(&mut a, 3);
        assert_eq!((p.len(), q.len(), a.live()), (3, 2, 5));
        assert_eq!(p.iter(&a).copied().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(q.iter(&a).copied().collect::<Vec<_>>(), [10, 11]);
        assert_eq!(p.front(&a), Some(&1));
        assert_eq!(p.pop_front(&mut a), Some(1));
        assert_eq!(q.pop_front(&mut a), Some(10));
        assert_eq!(q.pop_front(&mut a), Some(11));
        assert_eq!(q, QueueLink::default(), "a drained link is a fresh one");
        q.push_back(&mut a, 12);
        assert_eq!((q.front(&a), q.len()), (Some(&12), 1));
        assert_eq!(
            a.nodes(),
            5,
            "vacant nodes are reused before the arena grows"
        );
    }

    #[test]
    fn a_drained_arena_refills_front_to_back() {
        let mut a: Arena<u32> = Arena::default();
        let ids: Vec<u32> = (0..4).map(|v| a.alloc(v)).collect();
        for &id in &[ids[2], ids[0], ids[3]] {
            a.release(id);
        }
        assert_eq!(a.alloc(9), ids[3], "not drained: last out, first reused");
        a.release(ids[3]);
        a.release(ids[1]);
        assert!(a.all_vacant());
        let again: Vec<u32> = (0..5).map(|v| a.alloc(v)).collect();
        assert_eq!(again, [0, 1, 2, 3, 4], "drained: index order, then growth");
        assert_eq!(a.nodes(), 5);
    }
}
