//! Non-RMAT graphs: a uniformly random graph and a 2D grid.

use crate::csr::Csr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
}
