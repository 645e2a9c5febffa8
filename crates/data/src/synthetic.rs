//! Synthetic stand-ins for the paper's SNAP real-world graphs.
//!
//! The paper evaluates Wikipedia (V = 4.2 M, E = 101 M), LiveJournal
//! (V = 5.3 M, E = 79 M), Amazon (V = 262 K, E = 1.2 M) and Twitter
//! (V = 81 K, E = 2.4 M). The build runs offline, so those downloads
//! are substituted with deterministic generators matching each graph's
//! *shape*: vertex/edge ratio and degree skew, optionally scaled down by
//! a power of two. RMAT quadrant
//! probabilities are tuned per profile so the degree tail matches the
//! qualitative class (social graphs heavier-tailed than co-purchase
//! graphs).

use crate::csr::Csr;
use crate::rmat::RmatConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named real-world-graph profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphProfile {
    /// Wikipedia links: moderately skewed, high edge factor (~24).
    Wikipedia,
    /// LiveJournal social network: skewed, edge factor ~15.
    LiveJournal,
    /// Amazon co-purchase: near-uniform degrees, edge factor ~4.6.
    Amazon,
    /// Twitter ego-network sample: very heavy-tailed, edge factor ~30.
    Twitter,
}

impl GraphProfile {
    /// All profiles, in the paper's order.
    pub const ALL: [GraphProfile; 4] = [
        GraphProfile::Wikipedia,
        GraphProfile::LiveJournal,
        GraphProfile::Amazon,
        GraphProfile::Twitter,
    ];

    /// Published vertex count of the real graph.
    fn real_vertices(self) -> u64 {
        match self {
            GraphProfile::Wikipedia => 4_200_000,
            GraphProfile::LiveJournal => 5_300_000,
            GraphProfile::Amazon => 262_000,
            GraphProfile::Twitter => 81_000,
        }
    }

    /// Published edge count of the real graph.
    fn real_edges(self) -> u64 {
        match self {
            GraphProfile::Wikipedia => 101_000_000,
            GraphProfile::LiveJournal => 79_000_000,
            GraphProfile::Amazon => 1_200_000,
            GraphProfile::Twitter => 2_400_000,
        }
    }

    /// Generates a synthetic analogue scaled down by `2^downscale` in
    /// vertex count, keeping the edges-per-vertex ratio.
    ///
    /// `downscale = 0` reproduces the published size (memory permitting).
    pub fn generate(self, downscale: u32, seed: u64) -> Csr {
        let vertices = (self.real_vertices() >> downscale).max(64);
        let scale = (64 - (vertices - 1).leading_zeros() as u64) as u32; // ceil log2
        let edge_factor =
            ((self.real_edges() as f64 / self.real_vertices() as f64).round() as u32).max(1);
        let (a, b, c) = match self {
            // heavier a => heavier tail
            GraphProfile::Twitter => (0.65, 0.15, 0.15),
            GraphProfile::LiveJournal => (0.57, 0.19, 0.19),
            GraphProfile::Wikipedia => (0.55, 0.20, 0.20),
            GraphProfile::Amazon => (0.45, 0.22, 0.22),
        };
        RmatConfig {
            scale,
            edge_factor,
            a,
            b,
            c,
            weighted: true,
            permute: true,
        }
        .generate(seed ^ self as u64)
    }
}

impl fmt::Display for GraphProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GraphProfile::Wikipedia => "wikipedia",
            GraphProfile::LiveJournal => "livejournal",
            GraphProfile::Amazon => "amazon",
            GraphProfile::Twitter => "twitter",
        };
        f.write_str(s)
    }
}

/// A uniformly random directed graph: every edge endpoint drawn uniformly.
///
/// Useful as a *non*-skewed baseline when studying endpoint contention.
pub fn uniform_random(num_vertices: u32, num_edges: u64, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32, f32)> = (0..num_edges)
        .map(|_| {
            (
                rng.gen_range(0..num_vertices),
                rng.gen_range(0..num_vertices),
                1.0 - rng.gen::<f32>().min(0.999_999),
            )
        })
        .collect();
    Csr::from_edges(num_vertices, &edges)
}

/// A 2D grid graph (each vertex connected to its 4 neighbors), the
/// best-case near-neighbor communication pattern.
pub fn grid_2d(width: u32, height: u32) -> Csr {
    let n = width * height;
    let mut edges = Vec::with_capacity(n as usize * 4);
    for y in 0..height {
        for x in 0..width {
            let v = y * width + x;
            if x + 1 < width {
                edges.push((v, v + 1, 1.0));
                edges.push((v + 1, v, 1.0));
            }
            if y + 1 < height {
                edges.push((v, v + width, 1.0));
                edges.push((v + width, v, 1.0));
            }
        }
    }
    Csr::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_down_keeping_edge_factor() {
        let g = GraphProfile::Amazon.generate(4, 1);
        // 262k >> 4 = 16375 -> ceil log2 = 14 -> 16384 vertices
        assert_eq!(g.num_vertices(), 16384);
        // edge factor ~ 4.6 -> 5
        assert_eq!(g.num_edges(), 5 * 16384);
    }

    #[test]
    fn twitter_heavier_tail_than_amazon() {
        let tw = GraphProfile::Twitter.generate(3, 7);
        let am = GraphProfile::Amazon.generate(5, 7); // similar vertex count
        let max_deg = |g: &Csr| (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        let mean_deg = |g: &Csr| g.num_edges() as f64 / g.num_vertices() as f64;
        let tw_skew = max_deg(&tw) as f64 / mean_deg(&tw);
        let am_skew = max_deg(&am) as f64 / mean_deg(&am);
        assert!(
            tw_skew > am_skew,
            "twitter skew {tw_skew:.1} should exceed amazon skew {am_skew:.1}"
        );
    }

    #[test]
    fn all_profiles_generate() {
        for p in GraphProfile::ALL {
            let g = p.generate(8, 0);
            assert!(g.num_vertices() >= 64, "{p}");
            assert!(g.num_edges() > 0, "{p}");
        }
    }

    #[test]
    fn uniform_random_shape() {
        let g = uniform_random(100, 500, 3);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn uniform_random_deterministic() {
        assert_eq!(uniform_random(50, 100, 9), uniform_random(50, 100, 9));
    }

    #[test]
    fn grid_graph_degrees() {
        let g = grid_2d(4, 3);
        assert_eq!(g.num_vertices(), 12);
        // corner has degree 2, interior 4
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(5), 4); // (1,1)
                                    // grid edges are symmetric
        for (a, b, _) in g.iter_edges() {
            assert!(g.neighbors(b).contains(&a));
        }
    }

    #[test]
    fn display_names_lowercase() {
        assert_eq!(GraphProfile::Wikipedia.to_string(), "wikipedia");
        assert_eq!(GraphProfile::Twitter.to_string(), "twitter");
    }
}
