//! # MuchiSim (Rust)
//!
//! A from-scratch Rust reproduction of **MuchiSim: A Simulation Framework
//! for Design Exploration of Multi-Chip Manycore Systems** (ISPASS 2024).
//!
//! MuchiSim is a parallel, application-level simulator for tiled,
//! distributed manycore architectures running data-dependent
//! communication-intensive applications (graph analytics, sparse linear
//! algebra, HPC kernels). It models the NoC cycle by cycle at flit
//! granularity, the memory system including PLM-as-cache and HBM channel
//! contention, executes application tasks functionally on the host with
//! user-instrumented latencies, and reports performance, energy, area,
//! and fabrication cost.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`config`] | `muchisim-config` | DUT configuration, Table I parameter defaults |
//! | [`data`] | `muchisim-data` | RMAT/Kronecker datasets, CSR, partitioning |
//! | [`noc`] | `muchisim-noc` | cycle-level mesh/torus/Ruche NoC with in-network reduction |
//! | [`mem`] | `muchisim-mem` | PLM scratchpad/cache, SRAM scaling, HBM channels |
//! | [`core`] | `muchisim-core` | the engine: MTT API, TSU, kernels, parallel driver |
//! | [`energy`] | `muchisim-energy` | energy / area / cost / yield models, post-processing |
//! | [`apps`] | `muchisim-apps` | the 8-application benchmark suite |
//! | [`telemetry`] | `muchisim-telemetry` | live metric streams, subscribers, ward engine |
//! | [`traffic`] | `muchisim-traffic` | synthetic traffic patterns, trace replay, saturation sweeps |
//! | [`viz`] | `muchisim-viz` | report tables, time series, heat-map frames |
//! | [`dse`] | `muchisim-dse` | declarative sweeps, parallel batch runner, resumable stores |
//!
//! # Quickstart
//!
//! ```
//! use muchisim::config::SystemConfig;
//! use muchisim::core::Simulation;
//! use muchisim::apps::{Bfs, SyncMode};
//! use muchisim::data::rmat::RmatConfig;
//! use muchisim::energy::Report;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::builder().chiplet_tiles(8, 8).build()?;
//! let graph = std::sync::Arc::new(RmatConfig::scale(8).generate(42));
//! let app = Bfs::new(graph, cfg.total_tiles() as u32, 0, SyncMode::Async);
//! let result = Simulation::new(cfg.clone(), app)?.run()?;
//! assert!(result.check_error.is_none());
//! let report = Report::from_counters(&cfg, &result.counters);
//! println!("runtime {} power {:.1} W", result.runtime, report.average_power_w);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use muchisim_apps as apps;
pub use muchisim_config as config;
pub use muchisim_core as core;
pub use muchisim_data as data;
pub use muchisim_dse as dse;
pub use muchisim_energy as energy;
pub use muchisim_mem as mem;
pub use muchisim_noc as noc;
pub use muchisim_telemetry as telemetry;
pub use muchisim_traffic as traffic;
pub use muchisim_viz as viz;
