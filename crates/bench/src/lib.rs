//! Shared helpers for the measurement benches (`leap`, `scale`,
//! `traffic`), which record the root `BENCH_*.json` files.
//!
//! The paper's own figures and numbers live elsewhere: the shapes are
//! asserted by `tests/paper_anchors.rs` and printed by the examples.

use muchisim_data::rmat::RmatConfig;
use muchisim_data::Csr;
use std::sync::Arc;

/// Default RMAT scale for the benches: the paper runs RMAT-22/25/26; a
/// bench at that scale would take hours of host time, so they run at
/// RMAT-11 on correspondingly smaller grids.
pub const BENCH_RMAT_SCALE: u32 = 11;

/// The shared dataset seed.
const BENCH_SEED: u64 = 0x6D75_6368_6953_696D;

/// Generates the shared bench dataset at `scale`, behind an [`Arc`] so
/// every experiment in a bench shares one host copy.
pub fn bench_graph(scale: u32) -> Arc<Csr> {
    Arc::new(RmatConfig::scale(scale).generate(BENCH_SEED))
}

/// Prints a rule line for the bench reports.
pub fn rule(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        assert_eq!(bench_graph(6).num_vertices(), 64);
    }
}
