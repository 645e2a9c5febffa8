//! # muchisim-mem
//!
//! Memory-system models (paper §III-A "Private Local Memory",
//! "Prefetching", and §III-D "SRAM model" / "DRAM model").
//!
//! Each tile has a private local memory (PLM) in SRAM. Depending on the
//! [`MemoryConfig`], the PLM is either
//!
//! * a **scratchpad**: the tile-distributed SRAM *is* the system's main
//!   memory and every local access costs the (bank-scaled) SRAM latency; or
//! * a **write-back cache** in front of on-package HBM DRAM: tags and
//!   valid/dirty bits are carved out of the local SRAM, misses fetch a
//!   full 512-bit line from the chiplet's memory controller, and dirty
//!   victims are written back.
//!
//! DRAM channels are shared by many tiles; contention is modeled exactly
//! as the paper describes: a channel accepts one request per cycle and
//! keeps a transaction count `Y`, so a request at cycle `X` waits
//! `max(Y − X, 0)` cycles plus the controller round trip.
//!
//! [`MemoryConfig`]: muchisim_config::MemoryConfig

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod channel;
mod counters;
mod tile_mem;

pub use cache::{AccessOutcome, CacheLine, CacheModel};
pub use channel::{ChannelMap, ChannelState};
pub use counters::MemCounters;
pub use tile_mem::{AccessKind, TileMemory};
