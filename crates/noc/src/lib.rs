//! # muchisim-noc
//!
//! Cycle-level, flit-granularity network-on-chip model (paper §III-A,
//! §III-C).
//!
//! The NoC is the part of the system MuchiSim simulates in full detail:
//! every router is evaluated every cycle. This crate models:
//!
//! * **Topologies**: 2D mesh and 2D folded torus with dimension-ordered
//!   (XY) routing, plus optional *Ruche* channels connecting every R-th
//!   router with long straight wires.
//! * **Virtual channels**: torus ring deadlock is broken with a dateline
//!   VC per ring dimension (packets switch to VC1 after using a wrap
//!   link), the standard discipline for bounded-buffer torus networks.
//! * **Flit-level bandwidth**: a message of F flits occupies its output
//!   link for F cycles (`busy_until`), and buffer space is accounted in
//!   flits; round-robin arbitration resolves output-port collisions and
//!   full downstream buffers back-pressure the sender — both are counted.
//! * **Timestamps**: each packet carries the earliest NoC cycle at which
//!   it may move again, updated every hop. This is the mechanism that lets
//!   PUs be simulated ahead of the network (paper §III-C).
//! * **In-network reduction**: packets flagged with a [`ReduceOp`] combine
//!   opportunistically, in any router queue, with a queued packet for the
//!   same destination, task and key — asynchronous in-network reduction
//!   standing in for the Tascade reduction subtrees of the paper's Fig. 2
//!   torus+tree configuration (no subtrees are built).
//! * **Column sharding**: the network is split into column [`Shard`]s with
//!   single-producer mailboxes between them, so the core crate can step
//!   shards on separate host threads while remaining *bit-identical* to
//!   the sequential schedule (freed buffer space becomes visible one cycle
//!   later in both modes).
//! * **Activity tracking**: each shard keeps an [`ActiveSet`] worklist of
//!   routers holding traffic, so stepping a mostly-idle million-tile
//!   plane costs `O(active routers)` per cycle, not `O(all routers)`. The
//!   worklist is the only sweep there is; debug builds check every step
//!   that no router holding traffic is off it unless parked asleep on
//!   credit with no expiry.
//!
//! # Example
//!
//! ```
//! use muchisim_config::SystemConfig;
//! use muchisim_noc::{DrainSink, Network, NetworkParams, Packet, Payload};
//!
//! let cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
//! let mut net = Network::new(NetworkParams::from_system(&cfg), 1);
//! let pkt = Packet::unicast(0, 15, 0, Payload::from_slice(&[7]), 2);
//! net.inject(0, pkt).unwrap();
//! let mut sink = DrainSink::default();
//! let mut cycle = 0;
//! while !net.is_empty() {
//!     net.step(cycle, &mut sink);
//!     cycle += 1;
//! }
//! assert_eq!(sink.drained.len(), 1);
//! assert_eq!(sink.drained[0].1.payload.as_slice(), &[7]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod counters;
mod credit;
mod latency;
mod network;
mod packet;
mod port;
mod route;
mod router;
mod shard;
mod slice;
mod topo;
mod trace;
mod worklist;

pub use arena::{Arena, QueueLink};
pub use counters::{NocCounters, RouterVisits};
pub use credit::Credit;
pub use latency::LatencyStats;
pub use network::{split_columns, DrainSink, EjectSink, Network, NetworkParams, SharedNet};
pub use packet::{Packet, Payload, ReduceOp};
pub use port::{InPort, OutDir};
pub use route::{decide, RouteDecision};
pub use router::{PacketArena, Pushed, RouterState};
pub use shard::Shard;
pub use slice::ColSlice;
pub use topo::TopoInfo;
pub use trace::{read_trace_jsonl, sort_events, write_trace_jsonl, TraceEvent};
pub use worklist::{ActiveSet, Keep};
