//! Histogram (paper §III-G): counts the values falling within a series
//! of intervals.
//!
//! The input is the graph's column-index array, scattered over tiles; the
//! output array of bin counts is partitioned the same way. Each element
//! produces one increment message to its bin's owner — the all-to-all,
//! zero-arithmetic-intensity extreme of the suite. Increments are
//! natural candidates for in-network SumU32 reduction.

use crate::common::{arrays, GraphData};
use muchisim_core::{tile_state, Application, GridInfo, TaskCtx};
use muchisim_data::{Csr, Partition};
use std::sync::Arc;

/// Histogram of the dataset's column indices into `bins` intervals.
#[derive(Debug)]
pub struct Histogram {
    graph: GraphData,
    bins: u32,
    bin_part: Partition,
    reference: Vec<u32>,
}

/// Per-tile histogram state: the local chunk of bin counts.
#[derive(Debug)]
pub struct HistogramTile {
    counts: Vec<u32>,
}

tile_state!(HistogramTile, "histogram tile" { counts });

impl Histogram {
    /// Builds a histogram of `graph`'s column indices into `bins` bins on
    /// `tiles` tiles.
    pub fn new(graph: Arc<Csr>, tiles: u32, bins: u32) -> Self {
        assert!(bins >= 1, "histogram needs at least one bin");
        let n = graph.num_vertices();
        let mut reference = vec![0u32; bins as usize];
        for &j in graph.col_idx() {
            reference[(j as u64 * bins as u64 / n as u64) as usize] += 1;
        }
        Histogram {
            graph: GraphData::new(graph, tiles),
            bins,
            bin_part: Partition::new(bins as u64, tiles),
            reference,
        }
    }

    fn bin_of(&self, value: u32) -> u32 {
        (value as u64 * self.bins as u64 / self.graph.csr.num_vertices() as u64) as u32
    }
}

impl Application for Histogram {
    type Tile = HistogramTile;

    fn name(&self) -> &'static str {
        "histogram"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> HistogramTile {
        let r = self.bin_part.range_of(tile);
        HistogramTile {
            counts: vec![0; (r.end - r.start) as usize],
        }
    }

    fn init(&self, _state: &mut HistogramTile, ctx: &mut TaskCtx<'_>) {
        // each tile scans its chunk of the element (col_idx) array
        let elems = Partition::new(self.graph.csr.num_edges(), self.bin_part.parts());
        let range = elems.range_of(ctx.tile);
        for (local, k) in (range.start..range.end).enumerate() {
            ctx.load(ctx.local_addr(arrays::COL_IDX, local as u64, 4));
            ctx.int_ops(2); // bin computation
            ctx.app_ops(1);
            let value = self.graph.csr.col_idx()[k as usize];
            let bin = self.bin_of(value);
            let dst = self.bin_part.owner_of(bin as u64);
            ctx.send(0, dst, &[bin, 1]);
        }
    }

    fn handle(&self, state: &mut HistogramTile, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        let (bin, count) = (msg[0], msg[1]);
        let local = self.bin_part.local_offset(bin as u64) as usize;
        ctx.load(ctx.local_addr(arrays::OUT, local as u64, 4));
        ctx.int_ops(1);
        state.counts[local] += count;
        ctx.store(ctx.local_addr(arrays::OUT, local as u64, 4));
    }

    fn check(&self, tiles: &[HistogramTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.counts);
        }
        for (bin, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            if g != r {
                return Err(format!("histogram: bin {bin} count {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_data::rmat::RmatConfig;

    #[test]
    fn reference_counts_all_elements() {
        let g = RmatConfig::scale(6).generate(2);
        let edges = g.num_edges();
        let h = Histogram::new(g.into(), 4, 16);
        let total: u64 = h.reference.iter().map(|&c| c as u64).sum();
        assert_eq!(total, edges);
    }

    #[test]
    fn bin_mapping_covers_range() {
        let g = RmatConfig::scale(6).generate(2);
        let h = Histogram::new(g.into(), 4, 16);
        assert_eq!(h.bin_of(0), 0);
        assert_eq!(h.bin_of(63), 15);
    }
}
