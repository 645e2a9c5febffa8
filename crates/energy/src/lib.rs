//! # muchisim-energy
//!
//! Energy, area, and fabrication-cost models (paper §III-D and §III-E).
//!
//! These models are deliberately *decoupled* from the runtime simulation:
//! they are pure functions of a [`SystemConfig`] and a
//! [`SimCounters`] value (the "counters file"), so a finished simulation
//! can be re-priced under different technology assumptions — new HBM $/GB,
//! different operating frequency, a refined area model — without
//! re-simulating (paper: "MuchiSim allows post-processing a given
//! simulation to re-calculate the energy and cost with different model
//! parameters").
//!
//! # Example
//!
//! ```
//! use muchisim_config::SystemConfig;
//! use muchisim_core::SimCounters;
//! use muchisim_energy::Report;
//!
//! let cfg = SystemConfig::default();
//! let mut counters = SimCounters::default();
//! counters.pu.fp_ops = 1_000_000;
//! counters.runtime_cycles = 100_000;
//! counters.runtime_secs = 1e-4;
//! let report = Report::from_counters(&cfg, &counters);
//! assert!(report.area.total_compute_mm2 > 0.0);
//! assert!(report.cost.total_usd > 0.0);
//! ```
//!
//! [`SystemConfig`]: muchisim_config::SystemConfig
//! [`SimCounters`]: muchisim_core::SimCounters

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod area;
mod cost;
mod energy;
mod report;
mod yield_model;

pub use area::AreaBreakdown;
pub use cost::CostBreakdown;
pub use energy::EnergyBreakdown;
pub use report::Report;
