//! Shared helpers for the figure-regeneration benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/`; the experiments run the full code paths at geometrically
//! scaled-down sizes (DESIGN.md substitution #1) and print the same rows
//! / series the paper reports. `EXPERIMENTS.md` records the
//! paper-vs-measured shapes.

use muchisim_data::rmat::RmatConfig;
use muchisim_data::Csr;
use std::sync::Arc;

/// Default RMAT scale for the figure benches (paper: RMAT-22/25/26;
/// scaled down per DESIGN.md).
pub const BENCH_RMAT_SCALE: u32 = 11;

/// The shared dataset seed.
pub const BENCH_SEED: u64 = 0x6D75_6368_6953_696D;

/// Generates the shared bench dataset at `scale`, behind an [`Arc`] so
/// every experiment in a bench shares one host copy.
pub fn bench_graph(scale: u32) -> Arc<Csr> {
    Arc::new(RmatConfig::scale(scale).generate(BENCH_SEED))
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
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
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
