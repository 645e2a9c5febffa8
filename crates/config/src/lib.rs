//! # muchisim-config
//!
//! Typed configuration model for the MuchiSim manycore simulator.
//!
//! This crate defines the *design under test* (DUT): the hierarchical
//! organization of tiles into chiplets, packages, nodes and a cluster
//! (paper §III-A), the clock domains of the processing units (PUs) and
//! network-on-chip (NoC), the memory system (SRAM scratchpad or
//! PLM-as-cache backed by on-package HBM), the NoC shape, and the full set
//! of latency / energy / area / cost model parameters with the defaults of
//! Table I of the ISPASS'24 paper.
//!
//! Everything is plain serializable data: a [`SystemConfig`] can be stored
//! as JSON next to a simulation log and later re-loaded to re-run the
//! energy and cost post-processing with different parameters, mirroring the
//! `configs/` folder workflow of the original framework.
//!
//! # Example
//!
//! ```
//! use muchisim_config::{SystemConfig, NocTopology};
//!
//! # fn main() -> Result<(), muchisim_config::ConfigError> {
//! let cfg = SystemConfig::builder()
//!     .chiplet_tiles(16, 16)
//!     .noc_topology(NocTopology::FoldedTorus)
//!     .sram_kib_per_tile(256)
//!     .build()?;
//! assert_eq!(cfg.total_tiles(), 256);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod hierarchy;
pub mod output;
mod params;
pub mod presets;
mod system;
mod telemetry;
mod traffic;
mod units;

pub use error::ConfigError;
pub use hierarchy::{Extent, Hierarchy, LinkClass, TileCoord, MAX_TILES};
pub use params::{
    CostParams, HbmParams, LinkParams, ModelParams, PhyParams, PuParams, SramParams, VoltageModel,
};
pub use system::{
    ClockDomain, DramConfig, InterposerKind, MemoryConfig, NocConfig, NocTopology, PrefetchConfig,
    QueueConfig, SchedulingPolicy, SystemConfig, SystemConfigBuilder, Verbosity, MAX_QUEUE_FLITS,
};
pub use telemetry::{ConvergedWard, TelemetryParams, WardMetric, WardParams};
pub use traffic::{TrafficParams, TrafficPattern};
pub use units::{Frequency, TimePs};
