//! # muchisim-apps
//!
//! The MuchiSim benchmark suite (paper §III-G): four graph algorithms
//! (BFS, SSSP, PageRank, WCC), two sparse linear algebra kernels (SPMV,
//! SPMM), and two HPC kernels (3D FFT, Histogram), all programmed for
//! distributed scale-out systems against the message-triggered-task API
//! of [`muchisim_core`].
//!
//! Every application is *functional*: handlers compute real results
//! against the tile's partition of the dataset and each app's `check`
//! compares against a host-computed reference (paper §III-B
//! "Result-check function"). Datasets are scattered so every tile owns an
//! equal chunk of each array, and graphs are stored in CSR.
//!
//! # Example
//!
//! ```
//! use muchisim_apps::{Bfs, SyncMode};
//! use muchisim_config::SystemConfig;
//! use muchisim_core::Simulation;
//! use muchisim_data::rmat::RmatConfig;
//!
//! let graph = std::sync::Arc::new(RmatConfig::scale(6).generate(1));
//! let cfg = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
//! let app = Bfs::new(graph, 16, 0, SyncMode::Async);
//! let result = Simulation::new(cfg, app).unwrap().run().unwrap();
//! assert!(result.check_error.is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bfs;
mod common;
mod fft;
mod histogram;
mod pagerank;
mod spmm;
mod spmv;
mod suite;
mod wcc;

pub use bfs::{Bfs, BfsTile, Sssp, SsspTile};
pub use common::SyncMode;
pub use fft::{Fft3d, FftTile};
pub use histogram::{Histogram, HistogramTile};
pub use pagerank::{PageRank, PageRankTile};
pub use spmm::{Spmm, SpmmTile};
pub use spmv::{Spmv, SpmvTile};
pub use suite::{high_degree_root, run_benchmark, Benchmark};
pub use wcc::{Wcc, WccTile};
