//! # muchisim-traffic
//!
//! Synthetic traffic, trace record/replay, and latency-versus-load NoC
//! characterization for the MuchiSim reproduction.
//!
//! The benchmark suite exercises the simulator the way the paper does —
//! whole applications — but NoC design exploration also needs the
//! workload-generation layer every network simulator ships:
//!
//! * **Pattern generators** ([`TrafficApp`]): uniform-random,
//!   bit-complement, transpose, shuffle, nearest-neighbor and hotspot
//!   patterns at a configurable offered load, packet-size distribution
//!   and seed (all in `SystemConfig::traffic`, hence sweepable through
//!   DSE overrides like `traffic.rate=0.08`). Implemented over the
//!   engine's scheduled-injection hook, so traffic runs through the
//!   parallel time-leaping driver, telemetry, and the CLI unmodified.
//! * **Trace replay** ([`TrafficApp::replay`]): any run with
//!   `SystemConfig::noc_trace` set records its injection stream; the
//!   same timetable app re-injects it app-free, enabling NoC-only
//!   re-simulation of a real communication pattern under different
//!   `noc.*` configs — bit-identical NoC counters on the recording
//!   config (given eject headroom), and a topology study in a fraction
//!   of full-app time otherwise.
//! * **Saturation curves** ([`SaturationCurve`]): offered-load points,
//!   each read off one run by [`LoadPoint::of`], → mean/percentile
//!   latency curve plus detected saturation throughput, the
//!   latency-versus-load figure of every NoC paper. `muchisim traffic
//!   sweep` runs the points through the design-space batch runner.
//!
//! # Example
//!
//! ```
//! use muchisim_config::{SystemConfig, TrafficPattern};
//! use muchisim_core::Simulation;
//! use muchisim_traffic::TrafficApp;
//!
//! let mut cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
//! cfg.traffic.cycles = 200;
//! let app = TrafficApp::new(&cfg, TrafficPattern::Transpose).unwrap();
//! let result = Simulation::new(cfg, app).unwrap().run().unwrap();
//! assert!(result.check_error.is_none());
//! assert!(result.noc_latency.mean() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod patterns;
mod saturation;

pub use app::TrafficApp;
pub use patterns::{tile_seed, PatternMap};
pub use saturation::{LoadPoint, SaturationCurve};
