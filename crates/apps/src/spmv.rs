//! Sparse Matrix–Vector multiplication `y = A·x` (paper §III-G).
//!
//! The sparse matrix is the graph in CSR; rows, `x` and `y` are
//! partitioned over tiles by the same equal-chunk scatter. The kernel is
//! two-phase message passing: for each non-zero `A[i][j]` the row owner
//! sends `(j, i, a)` to the *column* owner (task 0), which multiplies by
//! its local `x[j]` and forwards the product to the row owner of `y[i]`
//! (task 1) for accumulation. The task chain 0 → 1 is acyclic, as the
//! paper's deadlock rule requires.

use crate::common::{arrays, f2w, w2f, GraphData};
use muchisim_core::snapshot::{ByteReader, Put};
use muchisim_core::{Application, GridInfo, TaskCtx};
use muchisim_data::Csr;
use std::sync::Arc;

/// The deterministic dense input vector: `x[j] = 1 / (1 + (j mod 17))`.
pub fn input_x(j: u32) -> f32 {
    1.0 / (1.0 + (j % 17) as f32)
}

/// Sparse matrix–vector multiply.
#[derive(Debug)]
pub struct Spmv {
    graph: GraphData,
    reference: Vec<f32>,
}

/// Per-tile SPMV state: the local chunk of `y`.
#[derive(Debug)]
pub struct SpmvTile {
    y: Vec<f32>,
}

impl Spmv {
    /// Builds `y = A·x` over `graph` as the matrix, on `tiles`.
    pub fn new(graph: Arc<Csr>, tiles: u32) -> Self {
        let reference = host_spmv(&graph);
        Spmv {
            graph: GraphData::new(graph, tiles),
            reference,
        }
    }
}

impl Application for Spmv {
    type Tile = SpmvTile;

    fn name(&self) -> &'static str {
        "spmv"
    }

    fn task_types(&self) -> u8 {
        2
    }

    fn task_graph(&self) -> Vec<(u8, u8)> {
        vec![(0, 1)]
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> SpmvTile {
        let range = self.graph.range_of(tile);
        SpmvTile {
            y: vec![0.0; (range.end - range.start) as usize],
        }
    }

    fn init(&self, _state: &mut SpmvTile, ctx: &mut TaskCtx<'_>) {
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

    fn handle(&self, state: &mut SpmvTile, task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        match task {
            0 => {
                // multiply by the local x[j], forward to y[i]'s owner
                let (j, i, a) = (msg[0], msg[1], w2f(msg[2]));
                let local = self.graph.local(j);
                ctx.load(ctx.local_addr(arrays::VERT, local, 4));
                ctx.fp_ops(1);
                ctx.app_ops(1);
                let p = a * input_x(j);
                ctx.send(1, self.graph.owner(i), &[i, f2w(p)]);
            }
            _ => {
                // accumulate into the local y[i]
                let (i, p) = (msg[0], w2f(msg[1]));
                let local = self.graph.local(i) as usize;
                ctx.load(ctx.local_addr(arrays::OUT, local as u64, 4));
                ctx.fp_ops(1);
                state.y[local] += p;
                ctx.store(ctx.local_addr(arrays::OUT, local as u64, 4));
            }
        }
    }

    fn prefetch_addr(&self, task: u8, msg: &[u32], _tile: u32, grid: &GridInfo) -> Option<u64> {
        let target = *msg.first()?;
        let array = if task == 0 { arrays::VERT } else { arrays::OUT };
        Some(grid.array_addr(self.graph.owner(target), array, self.graph.local(target), 4))
    }

    fn tile_state_bytes(&self, state: &SpmvTile) -> u64 {
        state.y.capacity() as u64 * 4
    }

    fn snapshot_tile(&self, state: &SpmvTile, out: &mut Vec<u8>) -> Result<(), String> {
        state.y.put(out);
        Ok(())
    }

    fn restore_tile(&self, state: &mut SpmvTile, bytes: &[u8]) -> Result<(), String> {
        let mut r = ByteReader::new(bytes);
        r.seq_into(&mut state.y, "spmv tile")?;
        r.expect_end()
    }

    fn check(&self, tiles: &[SpmvTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.y);
        }
        for (i, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            if (g - r).abs() > 1e-3 * r.abs().max(1e-3) {
                return Err(format!("spmv: y[{i}] = {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

/// Host reference SpMV.
fn host_spmv(g: &Csr) -> Vec<f32> {
    let mut y = vec![0.0f32; g.num_vertices() as usize];
    for (i, j, a) in g.iter_edges() {
        y[i as usize] += a * input_x(j);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_spmv_small() {
        // A = [[0, 2], [3, 0]], x = [x0, x1]
        let g = Csr::from_edges(2, &[(0, 1, 2.0), (1, 0, 3.0)]);
        let y = host_spmv(&g);
        assert!((y[0] - 2.0 * input_x(1)).abs() < 1e-6);
        assert!((y[1] - 3.0 * input_x(0)).abs() < 1e-6);
    }

    #[test]
    fn input_vector_deterministic_and_bounded() {
        for j in 0..100 {
            let x = input_x(j);
            assert!(x > 0.0 && x <= 1.0);
            assert_eq!(x, input_x(j));
        }
    }
}
