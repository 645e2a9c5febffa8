//! RMAT (recursive-matrix / Kronecker) graph generation.
//!
//! The paper's datasets are the Graph500-standard RMAT graphs, named after
//! their scale: RMAT-`s` has `2^s` vertices and `16·2^s` edges. The
//! partition probabilities follow the Graph500 reference
//! (`a = 0.57, b = 0.19, c = 0.19, d = 0.05`).

use crate::csr::Csr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for an RMAT generator run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex (Graph500 default: 16).
    pub edge_factor: u32,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Whether to emit uniformly random edge weights in `(0, 1]` (for
    /// SSSP/SPMV); otherwise all weights are 1.0.
    pub weighted: bool,
    /// Apply the Graph500 random vertex-label permutation, which spreads
    /// the high-degree hub vertices (biased towards low recursive-matrix
    /// coordinates) uniformly over the id space.
    pub permute: bool,
}

impl RmatConfig {
    /// A Graph500-parameter configuration at `scale` (so `RMAT-22` is
    /// `RmatConfig::scale(22)`).
    pub fn scale(scale: u32) -> Self {
        RmatConfig {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            weighted: true,
            permute: true,
        }
    }

    /// Number of vertices (`2^scale`).
    pub(crate) fn num_vertices(&self) -> u32 {
        1u32 << self.scale
    }

    /// Number of generated edges (`edge_factor · 2^scale`).
    pub(crate) fn num_edges(&self) -> u64 {
        self.edge_factor as u64 * self.num_vertices() as u64
    }

    /// Generates the graph deterministically from `seed`.
    ///
    /// Duplicate edges and self-loops are kept, as in the raw Graph500
    /// kernel-0 output; callers wanting simple graphs can post-process.
    pub fn generate(&self, seed: u64) -> Csr {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = self.num_vertices();
        let perm: Vec<u32> = if self.permute {
            let mut p: Vec<u32> = (0..n).collect();
            // Fisher-Yates with the same seeded rng
            for i in (1..n as usize).rev() {
                let j = rng.gen_range(0..=i);
                p.swap(i, j);
            }
            p
        } else {
            (0..n).collect()
        };
        let mut edges = Vec::with_capacity(self.num_edges() as usize);
        for _ in 0..self.num_edges() {
            let (src, dst) = self.sample_edge(&mut rng);
            let (src, dst) = (perm[src as usize], perm[dst as usize]);
            let w = if self.weighted {
                // uniform in (0, 1]: avoid zero-weight edges for SSSP
                1.0 - rng.gen::<f32>().min(0.999_999)
            } else {
                1.0
            };
            debug_assert!(src < n && dst < n);
            edges.push((src, dst, w));
        }
        Csr::from_edges(n, &edges)
    }

    /// Samples one edge by recursive quadrant descent with per-level
    /// probability noise (the standard +-10 % smoothing that prevents
    /// degenerate staircase structure).
    fn sample_edge(&self, rng: &mut SmallRng) -> (u32, u32) {
        let mut src = 0u32;
        let mut dst = 0u32;
        for level in 0..self.scale {
            let noise = 1.0 + 0.1 * (rng.gen::<f64>() - 0.5);
            let a = self.a * noise;
            let b = self.b * noise;
            let c = self.c * noise;
            let total = a + b + c + (1.0 - self.a - self.b - self.c) * noise;
            let r = rng.gen::<f64>() * total;
            let bit = 1u32 << (self.scale - 1 - level);
            if r < a {
                // top-left: neither bit set
            } else if r < a + b {
                dst |= bit;
            } else if r < a + b + c {
                src |= bit;
            } else {
                src |= bit;
                dst |= bit;
            }
        }
        (src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shape_matches_graph500_convention() {
        let cfg = RmatConfig::scale(8);
        assert_eq!(cfg.num_vertices(), 256);
        assert_eq!(cfg.num_edges(), 4096);
        let g = cfg.generate(1);
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 4096);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = RmatConfig::scale(6);
        assert_eq!(cfg.generate(7), cfg.generate(7));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RmatConfig::scale(6);
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // RMAT graphs are heavy-tailed: the max degree should far exceed
        // the mean degree (16).
        let g = RmatConfig::scale(10).generate(3);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        assert!(
            max_deg > 64,
            "expected heavy tail, max degree was {max_deg}"
        );
    }

    #[test]
    fn weights_in_unit_interval() {
        let g = RmatConfig::scale(7).generate(9);
        for (_, _, w) in g.iter_edges() {
            assert!(w > 0.0 && w <= 1.0, "weight {w} outside (0, 1]");
        }
    }

    #[test]
    fn unweighted_mode_gives_unit_weights() {
        let mut cfg = RmatConfig::scale(6);
        cfg.weighted = false;
        let g = cfg.generate(4);
        assert!(g.iter_edges().all(|(_, _, w)| w == 1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_all_endpoints_in_range(scale in 4u32..9, seed in 0u64..1000) {
            let g = RmatConfig::scale(scale).generate(seed);
            let n = g.num_vertices();
            for (s, d, _) in g.iter_edges() {
                prop_assert!(s < n && d < n);
            }
        }
    }
}
