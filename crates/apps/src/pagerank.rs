//! PageRank by synchronous power iteration (paper §III-G).
//!
//! Each kernel is one iteration with a global barrier: every tile pushes
//! `rank[v] / degree[v]` contributions along its out-edges (optionally as
//! in-network SumF32 reductions), and the next kernel's init folds the
//! accumulated contributions into new ranks.

use crate::common::{arrays, f2w, w2f, GraphData};
use muchisim_core::{tile_state, Application, GridInfo, ReduceOp, TaskCtx};
use muchisim_data::Csr;
use std::sync::Arc;

/// Damping factor (the standard 0.85).
const DAMPING: f32 = 0.85;

/// PageRank over a directed graph.
#[derive(Debug)]
pub struct PageRank {
    graph: GraphData,
    iterations: u32,
    reference: Vec<f32>,
    reduction: bool,
}

/// Per-tile PageRank state: local ranks and accumulators.
#[derive(Debug)]
pub struct PageRankTile {
    rank: Vec<f32>,
    acc: Vec<f32>,
}

tile_state!(PageRankTile, "pagerank tile" { rank, acc });

impl PageRank {
    /// Builds `iterations` PageRank iterations over `graph` on `tiles`.
    pub fn new(graph: Arc<Csr>, tiles: u32, iterations: u32) -> Self {
        let reference = host_pagerank(&graph, iterations);
        PageRank {
            graph: GraphData::new(graph, tiles),
            iterations,
            reference,
            reduction: false,
        }
    }

    /// Sends contributions as in-network SumF32 reductions.
    pub fn with_reduction(mut self, enable: bool) -> Self {
        self.reduction = enable;
        self
    }

    fn fold(&self, state: &mut PageRankTile, ctx: &mut TaskCtx<'_>) {
        let n = self.graph.csr.num_vertices() as f32;
        for local in 0..state.rank.len() {
            ctx.load(ctx.local_addr(arrays::OUT, local as u64, 4));
            ctx.fp_ops(2); // damping multiply-add
            state.rank[local] = (1.0 - DAMPING) / n + DAMPING * state.acc[local];
            state.acc[local] = 0.0;
            ctx.store(ctx.local_addr(arrays::VERT, local as u64, 4));
            ctx.store(ctx.local_addr(arrays::OUT, local as u64, 4));
        }
    }
}

impl Application for PageRank {
    type Tile = PageRankTile;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn kernels(&self) -> u32 {
        self.iterations + 1
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> PageRankTile {
        let range = self.graph.range_of(tile);
        let n = (range.end - range.start) as usize;
        let total = self.graph.csr.num_vertices() as f32;
        PageRankTile {
            rank: vec![1.0 / total; n],
            acc: vec![0.0; n],
        }
    }

    fn init(&self, state: &mut PageRankTile, ctx: &mut TaskCtx<'_>) {
        if ctx.kernel > 0 {
            self.fold(state, ctx);
        }
        if ctx.kernel == self.iterations {
            return; // final kernel only folds
        }
        let range = self.graph.range_of(ctx.tile);
        let base = self.graph.edge_base(ctx.tile);
        for local in 0..state.rank.len() {
            let v = (range.start + local as u64) as u32;
            let (lo, hi) = self.graph.read_row(ctx, local as u64);
            let deg = hi - lo;
            if deg == 0 {
                continue;
            }
            ctx.load(ctx.local_addr(arrays::VERT, local as u64, 4));
            ctx.fp_ops(1); // divide by degree
            let contrib = state.rank[local] / deg as f32;
            let _ = v;
            for k in lo..hi {
                let w = self.graph.read_edge(ctx, k, base);
                ctx.app_ops(1);
                let dst = self.graph.owner(w);
                if self.reduction {
                    ctx.send_reduce(0, dst, &[w, f2w(contrib)], ReduceOp::SumF32);
                } else {
                    ctx.send(0, dst, &[w, f2w(contrib)]);
                }
            }
        }
    }

    fn handle(&self, state: &mut PageRankTile, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        let (w, contrib) = (msg[0], w2f(msg[1]));
        let local = self.graph.local(w) as usize;
        ctx.load(ctx.local_addr(arrays::OUT, local as u64, 4));
        ctx.fp_ops(1);
        state.acc[local] += contrib;
        ctx.store(ctx.local_addr(arrays::OUT, local as u64, 4));
    }

    fn check(&self, tiles: &[PageRankTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.rank);
        }
        for (v, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            // f32 summation order differs between DUT and host; allow a
            // small relative tolerance
            if (g - r).abs() > 1e-3 * r.abs().max(1e-6) {
                return Err(format!("pagerank: vertex {v} rank {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

/// Host reference power iteration with the same dangling-mass policy
/// (no redistribution) as the distributed kernel.
fn host_pagerank(g: &Csr, iterations: u32) -> Vec<f32> {
    let n = g.num_vertices();
    let mut rank = vec![1.0 / n as f32; n as usize];
    for _ in 0..iterations {
        let mut acc = vec![0.0f32; n as usize];
        for v in 0..n {
            let deg = g.degree(v);
            if deg == 0 {
                continue;
            }
            let contrib = rank[v as usize] / deg as f32;
            for &w in g.neighbors(v) {
                acc[w as usize] += contrib;
            }
        }
        for v in 0..n as usize {
            rank[v] = (1.0 - DAMPING) / n as f32 + DAMPING * acc[v];
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_pagerank_sums_below_one() {
        // rank mass leaks through dangling vertices, never exceeds 1
        let g = Csr::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let r = host_pagerank(&g, 20);
        let total: f32 = r.iter().sum();
        assert!(total > 0.0 && total <= 1.0 + 1e-6, "{total}");
    }

    #[test]
    fn host_pagerank_symmetric_cycle_uniform() {
        let g = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let r = host_pagerank(&g, 50);
        assert!((r[0] - r[1]).abs() < 1e-6);
        assert!((r[1] - r[2]).abs() < 1e-6);
    }

    #[test]
    fn popular_vertex_ranks_higher() {
        // everyone points at vertex 3
        let g = Csr::from_edges(4, &[(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let r = host_pagerank(&g, 30);
        assert!(r[3] > r[0] && r[3] > r[1] && r[3] > r[2]);
    }
}
