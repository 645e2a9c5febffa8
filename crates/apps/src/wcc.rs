//! Weakly Connected Components by label propagation / graph coloring
//! (paper §III-G, citing the coloring approach of Slota et al.).
//!
//! Each vertex starts with its own id as label; the minimum label floods
//! each component. The input graph is symmetrized at construction so
//! weak connectivity is computed for directed inputs.

use crate::common::{arrays, GraphData, SyncMode};
use muchisim_core::{tile_state, Application, GridInfo, TaskCtx};
use muchisim_data::Csr;
use std::sync::Arc;

/// Weakly Connected Components.
#[derive(Debug)]
pub struct Wcc {
    graph: GraphData,
    mode: SyncMode,
    reference: Vec<u32>,
    rounds: u32,
}

/// Per-tile WCC state: local labels plus the changed-flag frontier.
#[derive(Debug)]
pub struct WccTile {
    label: Vec<u32>,
    changed: Vec<bool>,
}

tile_state!(WccTile, "wcc tile" { label, changed });

impl Wcc {
    /// Builds WCC over the symmetrized `graph` scattered on `tiles`.
    pub fn new(graph: Arc<Csr>, tiles: u32, mode: SyncMode) -> Self {
        let sym = Arc::new(graph.symmetrize());
        let (reference, rounds) = host_wcc(&sym);
        Wcc {
            graph: GraphData::new(sym, tiles),
            mode,
            reference,
            rounds,
        }
    }

    fn propagate(&self, ctx: &mut TaskCtx<'_>, v: u32, label: u32) {
        let local = self.graph.local(v);
        let (lo, hi) = self.graph.read_row(ctx, local);
        let base = self.graph.edge_base(ctx.tile);
        for k in lo..hi {
            let w = self.graph.read_edge(ctx, k, base);
            ctx.int_ops(1);
            ctx.app_ops(1);
            let dst = self.graph.owner(w);
            ctx.send(0, dst, &[w, label]);
        }
    }
}

impl Application for Wcc {
    type Tile = WccTile;

    fn name(&self) -> &'static str {
        "wcc"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn kernels(&self) -> u32 {
        match self.mode {
            SyncMode::Async => 1,
            SyncMode::Barrier => self.rounds + 1,
        }
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> WccTile {
        let range = self.graph.range_of(tile);
        let n = (range.end - range.start) as usize;
        WccTile {
            label: (0..n).map(|i| (range.start + i as u64) as u32).collect(),
            changed: vec![true; n],
        }
    }

    fn init(&self, state: &mut WccTile, ctx: &mut TaskCtx<'_>) {
        match self.mode {
            SyncMode::Async => {
                if ctx.kernel == 0 {
                    // every vertex seeds its own label once
                    let range = self.graph.range_of(ctx.tile);
                    for local in 0..state.label.len() {
                        ctx.load(ctx.local_addr(arrays::VERT, local as u64, 4));
                        let v = (range.start + local as u64) as u32;
                        self.propagate(ctx, v, state.label[local]);
                    }
                }
            }
            SyncMode::Barrier => {
                let range = self.graph.range_of(ctx.tile);
                for local in 0..state.label.len() {
                    ctx.load(ctx.local_addr(arrays::AUX, local as u64, 1));
                    ctx.int_ops(1);
                    if state.changed[local] {
                        state.changed[local] = false;
                        let v = (range.start + local as u64) as u32;
                        self.propagate(ctx, v, state.label[local]);
                    }
                }
            }
        }
    }

    fn handle(&self, state: &mut WccTile, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        let (v, label) = (msg[0], msg[1]);
        let local = self.graph.local(v) as usize;
        ctx.load(ctx.local_addr(arrays::VERT, local as u64, 4));
        ctx.int_ops(1);
        if label < state.label[local] {
            state.label[local] = label;
            ctx.store(ctx.local_addr(arrays::VERT, local as u64, 4));
            match self.mode {
                SyncMode::Async => self.propagate(ctx, v, label),
                SyncMode::Barrier => {
                    state.changed[local] = true;
                    ctx.store(ctx.local_addr(arrays::AUX, local as u64, 1));
                }
            }
        }
    }

    fn check(&self, tiles: &[WccTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.label);
        }
        for (v, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            if g != r {
                return Err(format!("wcc: vertex {v} label {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

/// Host reference: min-label propagation until fixpoint; returns labels
/// and the number of *Jacobi* rounds with changes (matching the
/// barrier-synchronized schedule, which only sees the previous round's
/// labels).
fn host_wcc(g: &Csr) -> (Vec<u32>, u32) {
    let n = g.num_vertices();
    let mut label: Vec<u32> = (0..n).collect();
    let mut changing_rounds = 0;
    loop {
        let snapshot = label.clone();
        let mut changed = false;
        for v in 0..n {
            let lv = snapshot[v as usize];
            for &w in g.neighbors(v) {
                if lv < label[w as usize] {
                    label[w as usize] = lv;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        changing_rounds += 1;
    }
    (label, changing_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_wcc_two_components() {
        // 0-1-2 and 3-4 (symmetric already)
        let g = Csr::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (3, 4, 1.0),
                (4, 3, 1.0),
            ],
        );
        let (labels, _) = host_wcc(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }
}
