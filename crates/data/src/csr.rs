//! Compressed Sparse Row storage (paper §III-G "Datasets").
//!
//! Graphs are viewed interchangeably as square sparse matrices: `V` rows
//! and columns, `E` non-zeros. Storage is exactly the paper's three-array
//! layout: non-zero values, column indices, and row pointers.

use serde::{Deserialize, Serialize};

/// A graph / square sparse matrix in CSR format.
///
/// Construct with [`Csr::from_edges`]. Vertex ids are dense `u32` in
/// `0..num_vertices`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    num_vertices: u32,
    /// `row_ptr[v]..row_ptr[v+1]` indexes `col_idx`/`values` for row `v`.
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR from an edge list `(src, dst, weight)`.
    ///
    /// Edges are counting-sorted by source; duplicates and self-loops are
    /// kept (as in the raw Graph500 generator output) unless removed by the
    /// caller beforehand.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: u32, edges: &[(u32, u32, f32)]) -> Self {
        let mut degree = vec![0u64; num_vertices as usize + 1];
        for &(src, dst, _) in edges {
            assert!(
                src < num_vertices && dst < num_vertices,
                "edge ({src}, {dst}) out of range for {num_vertices} vertices"
            );
            degree[src as usize + 1] += 1;
        }
        for i in 1..degree.len() {
            degree[i] += degree[i - 1];
        }
        let row_ptr = degree;
        let mut cursor: Vec<u64> = row_ptr[..num_vertices as usize].to_vec();
        let mut col_idx = vec![0u32; edges.len()];
        let mut values = vec![0f32; edges.len()];
        for &(src, dst, w) in edges {
            let at = cursor[src as usize] as usize;
            col_idx[at] = dst;
            values[at] = w;
            cursor[src as usize] += 1;
        }
        Csr {
            num_vertices,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of vertices (matrix dimension).
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges (non-zeros).
    pub fn num_edges(&self) -> u64 {
        self.col_idx.len() as u64
    }

    /// Out-neighbors (column indices) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let (lo, hi) = self.row_range(v);
        &self.col_idx[lo..hi]
    }

    /// Edge weights (non-zero values) of row `v`, parallel to
    /// [`Csr::neighbors`].
    pub fn weights(&self, v: u32) -> &[f32] {
        let (lo, hi) = self.row_range(v);
        &self.values[lo..hi]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        let (lo, hi) = self.row_range(v);
        (hi - lo) as u64
    }

    /// The raw row-pointer array (length `num_vertices + 1`).
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The raw column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The raw values array.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Memory footprint of the three CSR arrays in bytes, as laid out on
    /// the DUT (paper: 8-byte row pointers, 4-byte indices and FP32 values).
    pub fn footprint_bytes(&self) -> u64 {
        self.row_ptr.len() as u64 * 8 + self.col_idx.len() as u64 * (4 + 4)
    }

    /// Returns the union of this graph and its transpose (symmetrized),
    /// dropping duplicate edges and self-loops; useful for connectivity
    /// kernels (WCC) on directed inputs.
    pub fn symmetrize(&self) -> Csr {
        let mut edges = Vec::with_capacity(self.col_idx.len() * 2);
        for v in 0..self.num_vertices {
            let (lo, hi) = self.row_range(v);
            for k in lo..hi {
                let u = self.col_idx[k];
                if u != v {
                    edges.push((v, u, self.values[k]));
                    edges.push((u, v, self.values[k]));
                }
            }
        }
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        edges.dedup_by_key(|&mut (s, d, _)| (s, d));
        Csr::from_edges(self.num_vertices, &edges)
    }

    /// Iterates over all `(src, dst, weight)` triples in row order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.num_vertices).flat_map(move |v| {
            let (lo, hi) = self.row_range(v);
            (lo..hi).map(move |k| (v, self.col_idx[k], self.values[k]))
        })
    }

    fn row_range(&self, v: u32) -> (usize, usize) {
        assert!(v < self.num_vertices, "vertex {v} out of range");
        (
            self.row_ptr[v as usize] as usize,
            self.row_ptr[v as usize + 1] as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights(0), &[1.0, 2.0]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn unsorted_input_grouped_by_row() {
        let g = Csr::from_edges(3, &[(2, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn symmetrize_drops_self_loops_and_dups() {
        let g = Csr::from_edges(3, &[(0, 1, 1.0), (1, 0, 9.0), (1, 1, 5.0)]);
        let s = g.symmetrize();
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.neighbors(0), &[1]);
        assert_eq!(s.neighbors(1), &[0]);
    }

    #[test]
    fn footprint_matches_layout() {
        let g = diamond();
        // row_ptr: 5 * 8, col_idx+values: 4 * 8
        assert_eq!(g.footprint_bytes(), 5 * 8 + 4 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Csr::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    fn iter_edges_visits_all() {
        let g = diamond();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], (0, 1, 1.0));
        assert_eq!(edges[3], (2, 3, 4.0));
    }

    proptest! {
        #[test]
        fn prop_row_ptr_monotone_and_total(
            edges in proptest::collection::vec((0u32..50, 0u32..50), 0..200)
        ) {
            let e: Vec<_> = edges.iter().map(|&(s, d)| (s, d, 1.0f32)).collect();
            let g = Csr::from_edges(50, &e);
            prop_assert_eq!(g.num_edges(), e.len() as u64);
            for w in g.row_ptr().windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert_eq!(*g.row_ptr().last().unwrap(), e.len() as u64);
            // every edge is findable in its row
            for (s, d, _) in &e {
                prop_assert!(g.neighbors(*s).contains(d));
            }
        }

        #[test]
        fn prop_degree_sums_to_edge_count(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..100)
        ) {
            let e: Vec<_> = edges.iter().map(|&(s, d)| (s, d, 1.0f32)).collect();
            let g = Csr::from_edges(20, &e);
            let total: u64 = (0..20).map(|v| g.degree(v)).sum();
            prop_assert_eq!(total, g.num_edges());
        }

        #[test]
        fn prop_symmetrize_is_symmetric(
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..60)
        ) {
            let e: Vec<_> = edges.iter().map(|&(s, d)| (s, d, 1.0f32)).collect();
            let s = Csr::from_edges(15, &e).symmetrize();
            for (a, b, _) in s.iter_edges() {
                prop_assert!(s.neighbors(b).contains(&a));
                prop_assert_ne!(a, b);
            }
        }
    }
}
