//! Network packets and payloads.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of 32-bit words stored inline in a [`Payload`].
const INLINE_WORDS: usize = 6;

/// A small message payload of 32-bit words.
///
/// Payloads up to `INLINE_WORDS` (6) words are stored inline (no heap
/// allocation on the critical path); larger payloads spill to the heap.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// Inline storage.
    Inline {
        /// Number of valid words.
        len: u8,
        /// Word storage; only `words[..len]` is meaningful.
        words: [u32; INLINE_WORDS],
    },
    /// Heap storage for payloads longer than `INLINE_WORDS` words.
    Heap(Box<[u32]>),
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Self::zeros(0)
    }

    /// A payload of `len` zero words.
    pub fn zeros(len: usize) -> Self {
        if len <= INLINE_WORDS {
            Payload::Inline {
                len: len as u8,
                words: [0; INLINE_WORDS],
            }
        } else {
            Payload::Heap(vec![0; len].into())
        }
    }

    /// Builds a payload from a word slice.
    pub fn from_slice(words: &[u32]) -> Self {
        if words.len() <= INLINE_WORDS {
            let mut buf = [0u32; INLINE_WORDS];
            buf[..words.len()].copy_from_slice(words);
            Payload::Inline {
                len: words.len() as u8,
                words: buf,
            }
        } else {
            Payload::Heap(words.into())
        }
    }

    /// The payload as a word slice.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Payload::Inline { len, words } => &words[..*len as usize],
            Payload::Heap(v) => v,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        match self {
            Payload::Inline { len, .. } => *len as usize,
            Payload::Heap(v) => v.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes (4 bytes per word).
    pub fn size_bytes(&self) -> u32 {
        self.len() as u32 * 4
    }

    /// Word at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn word(&self, idx: usize) -> u32 {
        self.as_slice()[idx]
    }

    /// Replaces word `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn set_word(&mut self, idx: usize, value: u32) {
        match self {
            Payload::Inline { len, words } => {
                assert!(idx < *len as usize, "payload index out of range");
                words[idx] = value;
            }
            Payload::Heap(v) => v[idx] = value,
        }
    }

    /// Host heap bytes owned by this payload (0 while stored inline).
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Payload::Inline { .. } => 0,
            Payload::Heap(v) => v.len() as u64 * 4,
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({:?})", self.as_slice())
    }
}

impl From<&[u32]> for Payload {
    fn from(words: &[u32]) -> Self {
        Payload::from_slice(words)
    }
}

/// An in-network reduction operator (Tascade-style, paper §III-A).
///
/// Two queued packets with the same destination, task and key (payload
/// word 0) combine their value (payload word 1) with this operator,
/// eliminating one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// `f32` addition on the value word.
    SumF32,
    /// `u32` (wrapping) addition on the value word.
    SumU32,
    /// `u32` minimum on the value word.
    MinU32,
    /// `f32` minimum on the value word.
    MinF32,
    /// `u32` maximum on the value word.
    MaxU32,
}

impl ReduceOp {
    /// Combines two value words.
    pub(crate) fn combine(self, a: u32, b: u32) -> u32 {
        match self {
            ReduceOp::SumF32 => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
            ReduceOp::SumU32 => a.wrapping_add(b),
            ReduceOp::MinU32 => a.min(b),
            ReduceOp::MaxU32 => a.max(b),
            ReduceOp::MinF32 => f32::from_bits(a).min(f32::from_bits(b)).to_bits(),
        }
    }
}

/// A message traveling through the NoC.
///
/// The `ready_at` timestamp is the earliest NoC cycle at which the packet
/// may be moved again; it is set at injection and updated on every hop
/// (paper §III-C: "the timestamps do not exist in the DUT, but they are
/// used to allow PUs and routers to be simulated in parallel").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Source tile id.
    pub src: u32,
    /// Destination tile id.
    pub dst: u32,
    /// Task-type id selecting the destination input queue.
    pub task: u8,
    /// Current virtual channel (dateline discipline; 0 or 1).
    pub vc: u8,
    /// Message length in flits, including the one-flit header.
    pub flits: u16,
    /// Earliest NoC cycle this packet may be routed.
    pub ready_at: u64,
    /// NoC cycle at which the packet was *generated* (scheduled by a
    /// traffic source, or handed to the injection point by a channel
    /// queue). Ejection records `eject_cycle − born` into the latency
    /// statistics, so for scheduled traffic the measured latency includes
    /// source-queueing time — the quantity that diverges at saturation.
    pub born: u64,
    /// Optional in-network reduction operator.
    pub reduce: Option<ReduceOp>,
    /// Payload words.
    pub payload: Payload,
}

/// A one-flit packet from tile 0 to itself with no payload: what a
/// vacant arena node holds.
impl Default for Packet {
    fn default() -> Self {
        Packet::unicast(0, 0, 0, Payload::empty(), 1)
    }
}

impl Packet {
    /// Creates an ordinary (non-reducible) packet ready at cycle 0.
    /// `flits` counts the header flit, so it is at least 1.
    pub fn unicast(src: u32, dst: u32, task: u8, payload: Payload, flits: u16) -> Self {
        Packet {
            src,
            dst,
            task,
            vc: 0,
            flits,
            ready_at: 0,
            born: 0,
            reduce: None,
            payload,
        }
    }

    /// Marks the packet as reducible with `op` (consuming builder step).
    pub fn with_reduce(mut self, op: ReduceOp) -> Self {
        self.reduce = Some(op);
        self
    }

    /// Sets the earliest-routing timestamp (consuming builder step).
    ///
    /// Also sets `born` to `cycle`, so injectors that don't distinguish
    /// generation from injection get injection-to-ejection latency
    /// accounting for free; apply [`Packet::born`] *afterwards* when the
    /// two differ.
    pub fn ready_at(mut self, cycle: u64) -> Self {
        self.ready_at = cycle;
        self.born = cycle;
        self
    }

    /// Sets the generation timestamp (consuming builder step).
    pub fn born(mut self, cycle: u64) -> Self {
        self.born = cycle;
        self
    }

    /// The reduction key: payload word 0, or `None` for empty payloads.
    fn reduce_key(&self) -> Option<u32> {
        self.payload.as_slice().first().copied()
    }

    /// Whether `other` can be combined into `self` by an in-network
    /// reduction: same destination, task, operator and key.
    pub fn can_combine(&self, other: &Packet) -> bool {
        self.reduce.is_some()
            && self.reduce == other.reduce
            && self.dst == other.dst
            && self.task == other.task
            && self.payload.len() >= 2
            && other.payload.len() >= 2
            && self.reduce_key() == other.reduce_key()
    }

    /// Combines `other` into `self` (value word 1).
    ///
    /// # Panics
    ///
    /// Panics if [`Packet::can_combine`] is false.
    pub fn combine(&mut self, other: &Packet) {
        assert!(self.can_combine(other), "packets are not combinable");
        let op = self.reduce.expect("can_combine checked reduce");
        let merged = op.combine(self.payload.word(1), other.payload.word(1));
        self.payload.set_word(1, merged);
        // The combined packet may move no earlier than either input.
        self.ready_at = self.ready_at.max(other.ready_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_inline_round_trip() {
        let p = Payload::from_slice(&[1, 2, 3]);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.size_bytes(), 12);
        assert!(matches!(p, Payload::Inline { .. }));
    }

    #[test]
    fn payload_heap_spill() {
        let words: Vec<u32> = (0..10).collect();
        let p = Payload::from_slice(&words);
        assert!(matches!(p, Payload::Heap(_)));
        assert_eq!(p.as_slice(), &words[..]);
    }

    #[test]
    fn payload_set_word() {
        let mut p = Payload::from_slice(&[1, 2]);
        p.set_word(1, 42);
        assert_eq!(p.word(1), 42);
    }

    #[test]
    fn empty_payload() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.size_bytes(), 0);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::SumU32.combine(3, 5), 8);
        assert_eq!(ReduceOp::MinU32.combine(3, 5), 3);
        assert_eq!(ReduceOp::MaxU32.combine(3, 5), 5);
        let s = ReduceOp::SumF32.combine(1.5f32.to_bits(), 2.25f32.to_bits());
        assert_eq!(f32::from_bits(s), 3.75);
        let m = ReduceOp::MinF32.combine(1.5f32.to_bits(), 2.25f32.to_bits());
        assert_eq!(f32::from_bits(m), 1.5);
    }

    #[test]
    fn combine_requires_matching_key() {
        let a = Packet::unicast(0, 9, 1, Payload::from_slice(&[7, 10]), 2)
            .with_reduce(ReduceOp::MinU32);
        let b =
            Packet::unicast(3, 9, 1, Payload::from_slice(&[7, 4]), 2).with_reduce(ReduceOp::MinU32);
        let c =
            Packet::unicast(3, 9, 1, Payload::from_slice(&[8, 4]), 2).with_reduce(ReduceOp::MinU32);
        assert!(a.can_combine(&b));
        assert!(!a.can_combine(&c));
        let mut a2 = a.clone();
        a2.combine(&b);
        assert_eq!(a2.payload.word(1), 4);
    }

    #[test]
    fn combine_takes_later_timestamp() {
        let a = Packet::unicast(0, 9, 1, Payload::from_slice(&[7, 10]), 2)
            .with_reduce(ReduceOp::MinU32)
            .ready_at(5);
        let b = Packet::unicast(3, 9, 1, Payload::from_slice(&[7, 4]), 2)
            .with_reduce(ReduceOp::MinU32)
            .ready_at(9);
        let mut a2 = a;
        a2.combine(&b);
        assert_eq!(a2.ready_at, 9);
    }

    #[test]
    fn non_reduce_packets_never_combine() {
        let a = Packet::unicast(0, 9, 1, Payload::from_slice(&[7, 10]), 2);
        let b = Packet::unicast(3, 9, 1, Payload::from_slice(&[7, 4]), 2);
        assert!(!a.can_combine(&b));
    }

    #[test]
    fn ready_at_sets_born_unless_overridden() {
        let p = Packet::unicast(0, 1, 0, Payload::empty(), 1).ready_at(9);
        assert_eq!(p.born, 9);
        let p = Packet::unicast(0, 1, 0, Payload::empty(), 1)
            .ready_at(9)
            .born(4);
        assert_eq!(p.ready_at, 9);
        assert_eq!(p.born, 4);
    }
}
