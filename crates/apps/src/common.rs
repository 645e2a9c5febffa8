//! Shared helpers for the benchmark applications.

use muchisim_core::TaskCtx;
use muchisim_data::{Csr, Partition};
use std::sync::Arc;

/// Logical per-tile array ids in the tile's address-space chunk.
pub(crate) mod arrays {
    /// CSR row pointers.
    pub(crate) const ROW_PTR: u32 = 0;
    /// CSR column indices.
    pub(crate) const COL_IDX: u32 = 1;
    /// CSR non-zero values.
    pub(crate) const VALUES: u32 = 2;
    /// Per-vertex state (distances, ranks, labels, input vector).
    pub(crate) const VERT: u32 = 3;
    /// Per-vertex output (accumulators, results).
    pub(crate) const OUT: u32 = 4;
    /// Auxiliary (frontiers, counters, pencil buffers).
    pub(crate) const AUX: u32 = 5;
}

/// Synchronization variant for the iterative graph kernels (paper §III-G:
/// BFS, SSSP and WCC support running with or without barrier
/// synchronization at the end of each epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Fully asynchronous: updates propagate as soon as they happen.
    Async,
    /// Level-synchronous: a global barrier ends each epoch; the next
    /// epoch's frontier is replayed from per-tile state.
    Barrier,
}

/// A graph scattered across tiles: shared read-only CSR plus the
/// equal-chunk vertex partition (paper §III-B).
#[derive(Debug, Clone)]
pub(crate) struct GraphData {
    /// The graph (shared, read-only).
    pub csr: Arc<Csr>,
    /// Vertex → tile partition.
    pub part: Partition,
}

impl GraphData {
    /// Scatters `csr` over `tiles` tiles.
    ///
    /// The graph arrives behind an [`Arc`] so that batch runs (many sweep
    /// points over the same dataset) share one host copy instead of
    /// deep-cloning the CSR per simulation.
    pub(crate) fn new(csr: Arc<Csr>, tiles: u32) -> Self {
        let part = Partition::new(csr.num_vertices() as u64, tiles);
        GraphData { csr, part }
    }

    /// The tile owning vertex `v`.
    pub(crate) fn owner(&self, v: u32) -> u32 {
        self.part.owner_of(v as u64)
    }

    /// The local index of `v` within its owner's chunk.
    pub(crate) fn local(&self, v: u32) -> u64 {
        self.part.local_offset(v as u64)
    }

    /// The vertex range owned by `tile`.
    pub(crate) fn range_of(&self, tile: u32) -> std::ops::Range<u64> {
        self.part.range_of(tile)
    }

    /// Instrumented read of vertex `v`'s CSR row bounds on the executing
    /// tile (two row-pointer loads plus address arithmetic).
    pub(crate) fn read_row(&self, ctx: &mut TaskCtx<'_>, local_v: u64) -> (usize, usize) {
        ctx.load(ctx.local_addr(arrays::ROW_PTR, local_v, 8));
        ctx.load(ctx.local_addr(arrays::ROW_PTR, local_v + 1, 8));
        ctx.int_ops(2);
        let range = self.range_of(ctx.tile);
        let v = (range.start + local_v) as u32;
        (
            self.csr.row_ptr()[v as usize] as usize,
            self.csr.row_ptr()[v as usize + 1] as usize,
        )
    }

    /// Instrumented read of edge slot `k` (column index) on the executing
    /// tile. `row_base` is the first edge slot of the tile's chunk, used
    /// to form the local address.
    pub(crate) fn read_edge(&self, ctx: &mut TaskCtx<'_>, k: usize, row_base: usize) -> u32 {
        ctx.load(ctx.local_addr(arrays::COL_IDX, (k - row_base) as u64, 4));
        self.csr.col_idx()[k]
    }

    /// Instrumented read of edge weight `k`.
    pub(crate) fn read_weight(&self, ctx: &mut TaskCtx<'_>, k: usize, row_base: usize) -> f32 {
        ctx.load(ctx.local_addr(arrays::VALUES, (k - row_base) as u64, 4));
        self.csr.values()[k]
    }

    /// First edge slot of `tile`'s vertex chunk (its CSR arrays start
    /// here, so edge addresses are tile-local).
    pub(crate) fn edge_base(&self, tile: u32) -> usize {
        let range = self.range_of(tile);
        self.csr.row_ptr()[range.start as usize] as usize
    }
}

/// `f32` ↔ `u32` payload word helpers.
pub(crate) fn f2w(x: f32) -> u32 {
    x.to_bits()
}

pub(crate) fn w2f(w: u32) -> f32 {
    f32::from_bits(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_data::rmat::RmatConfig;

    #[test]
    fn graph_data_partitions_vertices() {
        let g = GraphData::new(Arc::new(RmatConfig::scale(6).generate(1)), 16);
        assert_eq!(g.part.parts(), 16);
        let mut total = 0;
        for t in 0..16 {
            total += g.range_of(t).end - g.range_of(t).start;
        }
        assert_eq!(total, 64);
        assert_eq!(g.owner(0), 0);
        assert_eq!(g.owner(63), 15);
    }

    #[test]
    fn word_conversions() {
        assert_eq!(w2f(f2w(3.25)), 3.25);
        assert_eq!(w2f(f2w(-0.0)), 0.0);
    }
}
