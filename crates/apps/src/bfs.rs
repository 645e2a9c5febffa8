//! Breadth-First Search and Single-Source Shortest Path (paper §III-G).
//!
//! Both are push-style vertex-centric kernels: an update message
//! `(vertex, distance)` triggers a task on the vertex's owner tile, which
//! relaxes the distance and propagates to neighbors. Both support the
//! asynchronous variant (updates propagate immediately; convergence
//! follows from monotonically decreasing distances) and the
//! barrier-synchronized variant, where each epoch ends with a global
//! barrier and the next frontier is replayed from per-tile state.

use crate::common::{arrays, f2w, w2f, GraphData, SyncMode};
use muchisim_core::{tile_state, Application, GridInfo, ReduceOp, TaskCtx};
use muchisim_data::Csr;
use std::sync::Arc;

/// Infinity marker for unreached vertices.
pub(crate) const INF: u32 = u32::MAX;

/// Breadth-First Search from a root vertex.
#[derive(Debug)]
pub struct Bfs {
    graph: GraphData,
    root: u32,
    mode: SyncMode,
    reference: Vec<u32>,
    levels: u32,
    reduction: bool,
}

/// Per-tile BFS state: the local chunk of the distance array.
#[derive(Debug)]
pub struct BfsTile {
    dist: Vec<u32>,
}

tile_state!(BfsTile, "bfs tile" { dist });

impl Bfs {
    /// Builds a BFS of `graph` scattered over `tiles`, from `root`.
    pub fn new(graph: Arc<Csr>, tiles: u32, root: u32, mode: SyncMode) -> Self {
        let reference = host_bfs(&graph, root);
        let levels = reference
            .iter()
            .filter(|&&d| d != INF)
            .max()
            .map_or(1, |&m| m + 1);
        Bfs {
            graph: GraphData::new(graph, tiles),
            root,
            mode,
            reference,
            levels,
            reduction: false,
        }
    }

    /// Tags update messages as in-network reducible (MinU32), for
    /// in-network reduction studies (consuming builder step).
    pub fn with_reduction(mut self, enable: bool) -> Self {
        self.reduction = enable;
        self
    }

    fn expand(&self, ctx: &mut TaskCtx<'_>, v: u32, next_depth: u32) {
        let local = self.graph.local(v);
        let (lo, hi) = self.graph.read_row(ctx, local);
        let base = self.graph.edge_base(ctx.tile);
        for k in lo..hi {
            let w = self.graph.read_edge(ctx, k, base);
            ctx.int_ops(1);
            ctx.app_ops(1);
            let dst = self.graph.owner(w);
            if self.reduction {
                ctx.send_reduce(0, dst, &[w, next_depth], ReduceOp::MinU32);
            } else {
                ctx.send(0, dst, &[w, next_depth]);
            }
        }
    }
}

impl Application for Bfs {
    type Tile = BfsTile;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn kernels(&self) -> u32 {
        match self.mode {
            SyncMode::Async => 1,
            SyncMode::Barrier => self.levels,
        }
    }

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> BfsTile {
        let range = self.graph.range_of(tile);
        let mut dist = vec![INF; (range.end - range.start) as usize];
        if self.mode == SyncMode::Barrier && range.contains(&(self.root as u64)) {
            dist[self.graph.local(self.root) as usize] = 0;
        }
        BfsTile { dist }
    }

    fn init(&self, state: &mut BfsTile, ctx: &mut TaskCtx<'_>) {
        match self.mode {
            SyncMode::Async => {
                if ctx.kernel == 0 && self.graph.owner(self.root) == ctx.tile {
                    ctx.int_ops(1);
                    ctx.send(0, ctx.tile, &[self.root, 0]);
                }
            }
            SyncMode::Barrier => {
                // expand the frontier at depth == kernel
                let depth = ctx.kernel;
                for local in 0..state.dist.len() {
                    ctx.load(ctx.local_addr(arrays::VERT, local as u64, 4));
                    ctx.int_ops(1);
                    if state.dist[local] == depth {
                        let v = (self.graph.range_of(ctx.tile).start + local as u64) as u32;
                        self.expand(ctx, v, depth + 1);
                    }
                }
            }
        }
    }

    fn handle(&self, state: &mut BfsTile, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        let (v, depth) = (msg[0], msg[1]);
        let local = self.graph.local(v) as usize;
        ctx.load(ctx.local_addr(arrays::VERT, local as u64, 4));
        ctx.int_ops(1); // compare
        if depth < state.dist[local] {
            state.dist[local] = depth;
            ctx.store(ctx.local_addr(arrays::VERT, local as u64, 4));
            if self.mode == SyncMode::Async {
                self.expand(ctx, v, depth + 1);
            }
        }
    }

    fn prefetch_addr(&self, _task: u8, msg: &[u32], _tile: u32, grid: &GridInfo) -> Option<u64> {
        // a queued update (v, depth) will first load dist[v]
        let v = *msg.first()?;
        Some(grid.array_addr(self.graph.owner(v), arrays::VERT, self.graph.local(v), 4))
    }

    fn check(&self, tiles: &[BfsTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.dist);
        }
        for (v, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            if g != r {
                return Err(format!("bfs: vertex {v} depth {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

/// Single-Source Shortest Path (push-based Bellman-Ford).
#[derive(Debug)]
pub struct Sssp {
    graph: GraphData,
    root: u32,
    mode: SyncMode,
    reference: Vec<f32>,
    rounds: u32,
}

/// Per-tile SSSP state: local distances plus a changed-flag frontier for
/// the barrier variant.
#[derive(Debug)]
pub struct SsspTile {
    dist: Vec<f32>,
    changed: Vec<bool>,
}

tile_state!(SsspTile, "sssp tile" { dist, changed });

impl Sssp {
    /// Builds an SSSP of `graph` over `tiles`, from `root`.
    pub fn new(graph: Arc<Csr>, tiles: u32, root: u32, mode: SyncMode) -> Self {
        let (reference, rounds) = host_sssp(&graph, root);
        Sssp {
            graph: GraphData::new(graph, tiles),
            root,
            mode,
            reference,
            rounds,
        }
    }

    fn expand(&self, ctx: &mut TaskCtx<'_>, v: u32, dist_v: f32) {
        let local = self.graph.local(v);
        let (lo, hi) = self.graph.read_row(ctx, local);
        let base = self.graph.edge_base(ctx.tile);
        for k in lo..hi {
            let w = self.graph.read_edge(ctx, k, base);
            let wt = self.graph.read_weight(ctx, k, base);
            ctx.fp_ops(1); // dist + weight
            ctx.app_ops(1);
            let cand = dist_v + wt;
            let dst = self.graph.owner(w);
            ctx.send(0, dst, &[w, f2w(cand)]);
        }
    }
}

impl Application for Sssp {
    type Tile = SsspTile;

    fn name(&self) -> &'static str {
        "sssp"
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

    fn make_tile(&self, tile: u32, _grid: &GridInfo) -> SsspTile {
        let range = self.graph.range_of(tile);
        let n = (range.end - range.start) as usize;
        let mut dist = vec![f32::INFINITY; n];
        let mut changed = vec![false; n];
        if self.mode == SyncMode::Barrier && range.contains(&(self.root as u64)) {
            let local = self.graph.local(self.root) as usize;
            dist[local] = 0.0;
            changed[local] = true;
        }
        SsspTile { dist, changed }
    }

    fn init(&self, state: &mut SsspTile, ctx: &mut TaskCtx<'_>) {
        match self.mode {
            SyncMode::Async => {
                if ctx.kernel == 0 && self.graph.owner(self.root) == ctx.tile {
                    ctx.int_ops(1);
                    ctx.send(0, ctx.tile, &[self.root, f2w(0.0)]);
                }
            }
            SyncMode::Barrier => {
                for local in 0..state.dist.len() {
                    ctx.load(ctx.local_addr(arrays::AUX, local as u64, 1));
                    ctx.int_ops(1);
                    if state.changed[local] {
                        state.changed[local] = false;
                        let v = (self.graph.range_of(ctx.tile).start + local as u64) as u32;
                        self.expand(ctx, v, state.dist[local]);
                    }
                }
            }
        }
    }

    fn handle(&self, state: &mut SsspTile, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        let (v, cand) = (msg[0], w2f(msg[1]));
        let local = self.graph.local(v) as usize;
        ctx.load(ctx.local_addr(arrays::VERT, local as u64, 4));
        ctx.fp_ops(1); // compare
        if cand < state.dist[local] {
            state.dist[local] = cand;
            ctx.store(ctx.local_addr(arrays::VERT, local as u64, 4));
            match self.mode {
                SyncMode::Async => self.expand(ctx, v, cand),
                SyncMode::Barrier => {
                    state.changed[local] = true;
                    ctx.store(ctx.local_addr(arrays::AUX, local as u64, 1));
                }
            }
        }
    }

    fn check(&self, tiles: &[SsspTile]) -> Result<(), String> {
        let mut got = Vec::with_capacity(self.reference.len());
        for t in tiles {
            got.extend_from_slice(&t.dist);
        }
        for (v, (&g, &r)) in got.iter().zip(&self.reference).enumerate() {
            let ok = if r.is_infinite() {
                g.is_infinite()
            } else {
                (g - r).abs() <= 1e-4 * r.max(1.0)
            };
            if !ok {
                return Err(format!("sssp: vertex {v} dist {g} != reference {r}"));
            }
        }
        Ok(())
    }
}

/// Host reference BFS.
fn host_bfs(g: &Csr, root: u32) -> Vec<u32> {
    let mut dist = vec![INF; g.num_vertices() as usize];
    let mut frontier = vec![root];
    dist[root as usize] = 0;
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.neighbors(v) {
                if dist[w as usize] == INF {
                    dist[w as usize] = depth;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Host reference Bellman-Ford; returns distances and the number of
/// *Jacobi* rounds with changes (matching the barrier-synchronized
/// schedule, where a round only sees the previous round's updates).
fn host_sssp(g: &Csr, root: u32) -> (Vec<f32>, u32) {
    let mut dist = vec![f32::INFINITY; g.num_vertices() as usize];
    dist[root as usize] = 0.0;
    let mut changing_rounds = 0;
    loop {
        let snapshot = dist.clone();
        let mut changed = false;
        for v in 0..g.num_vertices() {
            if snapshot[v as usize].is_finite() {
                let dv = snapshot[v as usize];
                for (&w, &wt) in g.neighbors(v).iter().zip(g.weights(v)) {
                    if dv + wt < dist[w as usize] {
                        dist[w as usize] = dv + wt;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
        changing_rounds += 1;
    }
    (dist, changing_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_data::rmat::RmatConfig;
    use muchisim_data::synthetic::grid_2d;

    #[test]
    fn host_bfs_on_path() {
        let mut edges = Vec::new();
        for i in 0..4u32 {
            edges.push((i, i + 1, 1.0));
        }
        let g = Csr::from_edges(5, &edges);
        assert_eq!(host_bfs(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(host_bfs(&g, 4), vec![INF, INF, INF, INF, 0]);
    }

    #[test]
    fn host_sssp_prefers_cheap_detour() {
        // 0->1 (10.0), 0->2 (1.0), 2->1 (1.0)
        let g = Csr::from_edges(3, &[(0, 1, 10.0), (0, 2, 1.0), (2, 1, 1.0)]);
        let (d, _) = host_sssp(&g, 0);
        assert_eq!(d, vec![0.0, 2.0, 1.0]);
    }

    #[test]
    fn levels_match_reference_depth() {
        let g = grid_2d(8, 8);
        let bfs = Bfs::new(g.into(), 16, 0, SyncMode::Barrier);
        // corner-to-corner grid depth is 14 -> 15 levels
        assert_eq!(bfs.kernels(), 15);
    }

    #[test]
    fn reference_reaches_most_of_rmat() {
        let g = RmatConfig::scale(8).generate(3);
        let bfs = Bfs::new(g.into(), 16, 0, SyncMode::Async);
        let reached = bfs.reference.iter().filter(|&&d| d != INF).count();
        assert!(
            reached > 64,
            "root should reach a large component, got {reached}"
        );
    }
}
