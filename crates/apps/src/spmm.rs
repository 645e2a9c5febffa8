//! Sparse Matrix–dense Matrix multiplication `Y = A·X` (paper §III-G).
//!
//! `X` is a dense `V × K` matrix; the result `Y` is dense `V × K`. The
//! message pattern matches SPMV but each phase-1 message carries a K-wide
//! row of products, giving SPMM an order of magnitude more arithmetic
//! intensity than the other kernels (the effect the paper's Fig. 5
//! highlights for performance-per-dollar).

use crate::common::{arrays, f2w, w2f, GraphData};
use muchisim_core::{tile_state, Application, GridInfo, TaskCtx};
use muchisim_data::Csr;
use std::sync::Arc;

/// The deterministic dense input `X[j][c]`.
pub(crate) fn input_x(j: u32, c: u32) -> f32 {
    1.0 / (1.0 + ((j + 3 * c) % 13) as f32)
}

/// Sparse matrix × dense matrix.
#[derive(Debug)]
pub struct Spmm {
    graph: GraphData,
    k: u32,
    reference: Vec<f32>,
}

/// Per-tile SPMM state: the local rows of `Y`, row-major `K` wide.
#[derive(Debug)]
pub struct SpmmTile {
    y: Vec<f32>,
}

tile_state!(SpmmTile, "spmm tile" { y });

impl Spmm {
    /// Builds `Y = A·X` with `k` dense columns.
    pub fn new(graph: Arc<Csr>, tiles: u32, k: u32) -> Self {
        assert!(k >= 1, "SPMM needs at least one dense column");
        let reference = host_spmm(&graph, k);
        Spmm {
            graph: GraphData::new(graph, tiles),
            k,
            reference,
        }
    }
}

impl Application for Spmm {
    type Tile = SpmmTile;

    fn name(&self) -> &'static str {
        "spmm"
    }

    fn task_types(&self) -> u8 {
        2
    }

    fn task_graph(&self) -> Vec<(u8, u8)> {
        vec![(0, 1)]
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> SpmmTile {
        let range = self.graph.range_of(tile);
        SpmmTile {
            y: vec![0.0; (range.end - range.start) as usize * self.k as usize],
        }
    }

    fn init(&self, _state: &mut SpmmTile, ctx: &mut TaskCtx<'_>) {
        let range = self.graph.range_of(ctx.tile);
        let base = self.graph.edge_base(ctx.tile);
        for local in 0..(range.end - range.start) {
            let i = (range.start + local) as u32;
            let (lo, hi) = self.graph.read_row(ctx, local);
            for k in lo..hi {
                let j = self.graph.read_edge(ctx, k, base);
                let a = self.graph.read_weight(ctx, k, base);
                ctx.int_ops(1);
                ctx.send(0, self.graph.owner(j), &[j, i, f2w(a)]);
            }
        }
    }

    fn handle(&self, state: &mut SpmmTile, task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        match task {
            0 => {
                // multiply the K-wide X row, forward the product row
                let (j, i, a) = (msg[0], msg[1], w2f(msg[2]));
                let local = self.graph.local(j);
                let mut out = Vec::with_capacity(self.k as usize + 1);
                out.push(i);
                for c in 0..self.k {
                    ctx.load(ctx.local_addr(arrays::VERT, local * self.k as u64 + c as u64, 4));
                    ctx.fp_ops(1);
                    out.push(f2w(a * input_x(j, c)));
                }
                ctx.app_ops(1);
                ctx.send(1, self.graph.owner(i), &out);
            }
            _ => {
                // accumulate the K products into Y[i]
                let i = msg[0];
                let local = self.graph.local(i);
                for c in 0..self.k as usize {
                    ctx.load(ctx.local_addr(arrays::OUT, local * self.k as u64 + c as u64, 4));
                    ctx.fp_ops(1);
                    state.y[local as usize * self.k as usize + c] += w2f(msg[c + 1]);
                    ctx.store(ctx.local_addr(arrays::OUT, local * self.k as u64 + c as u64, 4));
                }
            }
        }
    }

    fn check(&self, tiles: &[SpmmTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.y);
        }
        for (idx, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            if (g - r).abs() > 1e-3 * r.abs().max(1e-3) {
                return Err(format!("spmm: Y[{idx}] = {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

/// Host reference SpMM.
fn host_spmm(g: &Csr, k: u32) -> Vec<f32> {
    let mut y = vec![0.0f32; g.num_vertices() as usize * k as usize];
    for (i, j, a) in g.iter_edges() {
        for c in 0..k {
            y[i as usize * k as usize + c as usize] += a * input_x(j, c);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_spmm_matches_spmv_column_zero_shape() {
        let g = Csr::from_edges(3, &[(0, 1, 2.0), (1, 2, 1.5), (2, 0, 0.5)]);
        let y = host_spmm(&g, 4);
        assert_eq!(y.len(), 12);
        assert!((y[0] - 2.0 * input_x(1, 0)).abs() < 1e-6);
        assert!((y[1] - 2.0 * input_x(1, 1)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_k_rejected() {
        let g = Csr::from_edges(2, &[(0, 1, 1.0)]);
        let _ = Spmm::new(g.into(), 2, 0);
    }
}
