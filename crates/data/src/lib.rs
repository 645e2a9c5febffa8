//! # muchisim-data
//!
//! Dataset generation and storage for the MuchiSim benchmark suite
//! (paper §III-G).
//!
//! The paper's suite ships six RMAT (Kronecker) graph scales — the
//! Graph500 standard — plus four SNAP real-world graphs, all stored in
//! Compressed Sparse Row (CSR) format without any partitioning: three
//! arrays (non-zero values, column indices, row pointers). This crate
//! reproduces the RMAT half: a seedable [`rmat`] generator (this
//! reproduction runs offline, so the SNAP graphs are not included),
//! [`synthetic`] uniform-random and grid graphs, the [`Csr`] container,
//! and the equal-chunk [`Partition`] used to scatter each dataset array
//! across tiles (paper §III-B "Address space and dataset layout").
//!
//! # Example
//!
//! ```
//! use muchisim_data::{rmat::RmatConfig, Partition};
//!
//! let graph = RmatConfig::scale(8).generate(42);   // 256 vertices
//! assert_eq!(graph.num_vertices(), 256);
//! let part = Partition::new(graph.num_vertices() as u64, 16);
//! let owner = part.owner_of(200);                  // tile owning vertex 200
//! assert!(owner < 16);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod csr;
mod partition;
pub mod rmat;
pub mod synthetic;
pub mod tensor;

pub use csr::Csr;
pub use partition::Partition;
