//! Static topology information shared by all routers.

use crate::port::{InPort, OutDir, IN_PORTS, OUT_DIRS};
use muchisim_config::{Hierarchy, LinkClass, NocTopology, SystemConfig, TileCoord};

/// Division by a runtime-constant divisor via the round-up reciprocal:
/// for `d ≥ 2`, `⌊n·⌈2^64/d⌉ / 2^64⌋ = ⌊n/d⌋` for every `n < 2^32`
/// (the reciprocal overshoot contributes less than `2^-32 < 1/d`, so
/// the floor never crosses). The hot sweeps convert a tile id to
/// coordinates for every routed packet; a hardware `div` costs ~20+
/// cycles where the multiply-high costs ~4.
#[derive(Debug, Clone, Copy)]
pub struct FastDiv {
    d: u32,
    /// `⌈2^64 / d⌉`; unused (zero) for `d ≤ 1`.
    magic: u64,
}

impl FastDiv {
    /// Divider for divisor `d ≥ 1`.
    pub fn new(d: u32) -> Self {
        debug_assert!(d >= 1, "division by zero");
        FastDiv {
            d,
            magic: if d >= 2 { u64::MAX / d as u64 + 1 } else { 0 },
        }
    }

    /// `n / d`.
    #[inline]
    pub fn div(self, n: u32) -> u32 {
        if self.d <= 1 {
            n
        } else {
            ((self.magic as u128 * n as u128) >> 64) as u32
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub fn divmod(self, n: u32) -> (u32, u32) {
        let q = self.div(n);
        (q, n - q * self.d)
    }
}

/// Immutable topology data derived from a [`SystemConfig`]: grid shape,
/// link classes, and per-hop latencies in NoC cycles.
#[derive(Debug, Clone)]
pub struct TopoInfo {
    /// Grid width in tiles.
    pub width: u32,
    /// Grid height in tiles.
    pub height: u32,
    /// NoC topology.
    pub topology: NocTopology,
    /// Ruche link length in hops, if Ruche channels are configured.
    pub ruche_factor: Option<u32>,
    /// The tile hierarchy for link classification.
    pub hierarchy: Hierarchy,
    /// Estimated tile pitch in mm (side of a tile), used for wire length.
    pub tile_pitch_mm: f64,
    /// Base on-chip hop latency in NoC cycles (router + one tile of wire).
    pub hop_cycles_on_chip: u64,
    /// Extra cycles for a die-to-die crossing.
    pub extra_cycles_d2d: u64,
    /// Extra cycles for an off-package crossing.
    pub extra_cycles_off_package: u64,
    /// Extra cycles for an inter-node crossing.
    pub extra_cycles_inter_node: u64,
    /// Buffer capacity per input queue, in flits.
    pub queue_capacity_flits: u32,
    /// Reciprocal divider for `width` (hot: tile id → coordinates).
    pub div_width: FastDiv,
    /// Per output direction ([`OutDir::index`]; ejection has no link),
    /// the `(link class, head-flit hop cycles)` of the hop that leaves
    /// coordinate `c` along the direction's travel axis — `x` for east /
    /// west hops, `y` for north / south ones. A hop along one axis keeps
    /// the other coordinate, so its class depends on `c` alone and
    /// `width + height` entries per direction describe every link of
    /// the grid. Entries of links that do not exist are never read.
    link_rows: [Vec<(LinkClass, u64)>; OUT_DIRS - 1],
}

impl TopoInfo {
    /// Derives the topology info from a system configuration.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        let pitch = estimate_tile_pitch_mm(cfg);
        let link = &cfg.params.link;
        let period = cfg.noc_clock.operating.period_ps();
        let hop_ps = link.noc_router_latency_ps + link.noc_wire_latency_ps_per_mm * pitch;
        let hop_cycles = (hop_ps / period).ceil().max(1.0) as u64;
        let mut topo = TopoInfo {
            width: cfg.width(),
            height: cfg.height(),
            topology: cfg.noc.topology,
            ruche_factor: cfg.noc.ruche_factor,
            hierarchy: cfg.hierarchy,
            tile_pitch_mm: pitch,
            hop_cycles_on_chip: hop_cycles,
            extra_cycles_d2d: cfg.hop_extra_cycles(LinkClass::DieToDie),
            extra_cycles_off_package: cfg.hop_extra_cycles(LinkClass::OffPackage),
            extra_cycles_inter_node: cfg.hop_extra_cycles(LinkClass::InterNode),
            queue_capacity_flits: cfg.noc.buffer_depth,
            div_width: FastDiv::new(cfg.width()),
            link_rows: Default::default(),
        };
        topo.link_rows = std::array::from_fn(|oi| topo.link_row(OutDir::BY_INDEX[oi]));
        topo
    }

    /// The [`Self::link_rows`] row of `dir`, from the hierarchy's own
    /// classification (which stays the source of truth).
    fn link_row(&self, dir: OutDir) -> Vec<(LinkClass, u64)> {
        let along_x = Self::travels_along_x(dir);
        let len = if along_x { self.width } else { self.height };
        (0..len)
            .map(|c| {
                let (x, y) = if along_x { (c, 0) } else { (0, c) };
                match self.neighbor_xy(x, y, dir) {
                    Some((dx, dy)) => self.classify_hop((x, y), (dx, dy), dir),
                    None => (LinkClass::OnChip, 0),
                }
            })
            .collect()
    }

    fn travels_along_x(dir: OutDir) -> bool {
        matches!(dir, OutDir::E | OutDir::W | OutDir::RucheE | OutDir::RucheW)
    }

    /// Link class and head-flit latency (router traversal + wire + any
    /// boundary-crossing extra) of the `dir` hop from `from` to `to`.
    fn classify_hop(&self, from: (u32, u32), to: (u32, u32), dir: OutDir) -> (LinkClass, u64) {
        let class = self
            .hierarchy
            .link_class(TileCoord::new(from.0, from.1), TileCoord::new(to.0, to.1));
        let extra = match class {
            LinkClass::OnChip => 0,
            LinkClass::DieToDie => self.extra_cycles_d2d,
            LinkClass::OffPackage => self.extra_cycles_off_package,
            LinkClass::InterNode => self.extra_cycles_inter_node,
        };
        let ruche_extra = if dir.is_ruche() {
            // The long wire costs proportionally more wire delay: half a
            // base hop per extra tile spanned. Dividing after the
            // multiplication (with a ceiling) keeps the extra non-zero
            // even when the base hop is a single cycle — a Ruche wire
            // spanning R tiles is never as fast as a one-tile hop.
            ((self.ruche_factor.unwrap_or(1) as u64).saturating_sub(1) * self.hop_cycles_on_chip)
                .div_ceil(2)
        } else {
            0
        };
        (class, self.hop_cycles_on_chip + extra + ruche_extra)
    }

    /// Total routers (= tiles).
    pub fn num_tiles(&self) -> u32 {
        self.width * self.height
    }

    /// Coordinates of tile `id`.
    #[inline]
    pub fn coords(&self, id: u32) -> (u32, u32) {
        let (y, x) = self.div_width.divmod(id);
        (x, y)
    }

    /// Tile id at `(x, y)`.
    pub fn tile_at(&self, x: u32, y: u32) -> u32 {
        y * self.width + x
    }

    /// The neighbor reached from `cur` via `dir` on virtual channel `vc`,
    /// with the input port the packet arrives on, or `None` if the link
    /// does not exist (mesh edge, or Ruche link leaving the grid).
    pub fn neighbor(&self, cur: u32, dir: OutDir, vc: u8) -> Option<(u32, InPort)> {
        let (x, y) = self.coords(cur);
        let (dx, dy) = self.neighbor_xy(x, y, dir)?;
        Some((self.tile_at(dx, dy), InPort::arrival_port(dir, vc)))
    }

    /// Coordinate form of [`Self::neighbor`]: the destination coordinates
    /// of the `dir` link out of `(x, y)`, or `None` if the link does not
    /// exist. Callers that already hold the source coordinates (and need
    /// the destination's) skip the id → coordinate conversions.
    #[inline]
    fn neighbor_xy(&self, x: u32, y: u32, dir: OutDir) -> Option<(u32, u32)> {
        let torus = self.topology == NocTopology::FoldedTorus;
        let r = self.ruche_factor.unwrap_or(0);
        match dir {
            OutDir::N => {
                if y > 0 {
                    Some((x, y - 1))
                } else if torus {
                    Some((x, self.height - 1))
                } else {
                    None
                }
            }
            OutDir::S => {
                if y + 1 < self.height {
                    Some((x, y + 1))
                } else if torus {
                    Some((x, 0))
                } else {
                    None
                }
            }
            OutDir::E => {
                if x + 1 < self.width {
                    Some((x + 1, y))
                } else if torus {
                    Some((0, y))
                } else {
                    None
                }
            }
            OutDir::W => {
                if x > 0 {
                    Some((x - 1, y))
                } else if torus {
                    Some((self.width - 1, y))
                } else {
                    None
                }
            }
            OutDir::RucheN => (r > 0 && y >= r).then(|| (x, y - r)),
            OutDir::RucheS => (r > 0 && y + r < self.height).then(|| (x, y + r)),
            OutDir::RucheE => (r > 0 && x + r < self.width).then(|| (x + r, y)),
            OutDir::RucheW => (r > 0 && x >= r).then(|| (x - r, y)),
            OutDir::Eject => None,
        }
    }

    /// Everything a router at `(x, y)` needs to move a head flit via
    /// `dir` in one lookup: destination coordinates, arrival port,
    /// physical link class, and total head-flit hop latency in NoC
    /// cycles. The forwarding hot loop calls this once per moved packet
    /// with the coordinates it already holds; class and latency are one
    /// read of the direction's link row, no division.
    #[inline]
    pub fn hop_info(
        &self,
        x: u32,
        y: u32,
        dir: OutDir,
        vc: u8,
    ) -> Option<((u32, u32), InPort, LinkClass, u64)> {
        let dest = self.neighbor_xy(x, y, dir)?;
        let along = if Self::travels_along_x(dir) { x } else { y };
        let (class, cycles) = self.link_rows[dir.index()][along as usize];
        Some((dest, InPort::arrival_port(dir, vc), class, cycles))
    }

    /// The physical link class crossed by hopping from `cur` via `dir`.
    pub fn link_class(&self, cur: u32, dir: OutDir, vc: u8) -> Option<LinkClass> {
        let (x, y) = self.coords(cur);
        self.hop_info(x, y, dir, vc).map(|(_, _, class, _)| class)
    }

    /// Total hop latency in NoC cycles for the head flit from `cur` via
    /// `dir` (router traversal + wire + any boundary-crossing extra).
    pub fn hop_cycles(&self, cur: u32, dir: OutDir, vc: u8) -> Option<u64> {
        let (x, y) = self.coords(cur);
        self.hop_info(x, y, dir, vc).map(|(_, _, _, cycles)| cycles)
    }

    /// The router that feeds input queue `port` of `tile` — the unique
    /// writer of that queue's credit during the step phase, and the one
    /// to wake when the queue returns credit. The inverse of
    /// [`Self::neighbor`]: `upstream(dest, in_port) == Some(cur)` exactly
    /// when `neighbor(cur, dir, vc) == Some((dest, in_port))`. `None` for
    /// the inject port (fed by the tile's PU) and for ports whose link
    /// does not exist (mesh edge, Ruche link from outside the grid).
    pub fn upstream(&self, tile: u32, port: InPort) -> Option<u32> {
        // a packet arriving "from the north" was sent south by the
        // router whose south neighbor this tile is: step back north
        let back = match port {
            InPort::FromN0 | InPort::FromN1 => OutDir::N,
            InPort::FromS0 | InPort::FromS1 => OutDir::S,
            InPort::FromE0 | InPort::FromE1 => OutDir::E,
            InPort::FromW0 | InPort::FromW1 => OutDir::W,
            InPort::FromRucheN => OutDir::RucheN,
            InPort::FromRucheS => OutDir::RucheS,
            InPort::FromRucheE => OutDir::RucheE,
            InPort::FromRucheW => OutDir::RucheW,
            InPort::Inject => return None,
        };
        let (x, y) = self.coords(tile);
        let (ux, uy) = self.neighbor_xy(x, y, back)?;
        Some(self.tile_at(ux, uy))
    }

    /// Wire length in mm of the hop (for on-chip wire energy).
    pub fn hop_wire_mm(&self, dir: OutDir) -> f64 {
        if dir.is_ruche() {
            self.ruche_factor.unwrap_or(1) as f64 * self.tile_pitch_mm
        } else {
            self.tile_pitch_mm
        }
    }

    /// Global input-queue id for `(tile, port)`.
    pub fn queue_id(&self, tile: u32, port: InPort) -> usize {
        tile as usize * IN_PORTS + port.index()
    }

    /// Total input queues in the network.
    pub fn num_queues(&self) -> usize {
        self.num_tiles() as usize * IN_PORTS
    }
}

/// Rough tile pitch from the area parameters: PU + TSU + router + SRAM
/// plus 10 % wiring overhead. (The energy crate owns the authoritative
/// area model; this local estimate only feeds wire-length latency/energy.)
fn estimate_tile_pitch_mm(cfg: &SystemConfig) -> f64 {
    let p = &cfg.params.pu;
    let sram_mm2 = cfg.sram_kib_per_tile as f64 / 1024.0 / cfg.params.sram.density_mb_per_mm2;
    let peak_ghz = cfg.pu_clock.peak.as_ghz();
    let freq_growth = 1.0 + p.area_growth_per_freq * (peak_ghz - 1.0).max(0.0);
    let pu_mm2 = p.area_mm2 * cfg.pus_per_tile as f64 * freq_growth;
    let router_mm2 = (p.router_base_area_mm2
        + p.router_area_mm2_per_bit * cfg.noc.width_bits as f64)
        * cfg.noc.num_physical as f64;
    let tile_mm2 = (pu_mm2 + p.tsu_area_mm2 + router_mm2 + sram_mm2) * 1.1;
    tile_mm2.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::SystemConfig;

    fn mesh_8x8() -> TopoInfo {
        TopoInfo::from_system(&SystemConfig::builder().chiplet_tiles(8, 8).build().unwrap())
    }

    #[test]
    fn neighbors_mesh_interior() {
        let t = mesh_8x8();
        let c = t.tile_at(3, 3);
        assert_eq!(
            t.neighbor(c, OutDir::N, 0),
            Some((t.tile_at(3, 2), InPort::FromS0))
        );
        assert_eq!(
            t.neighbor(c, OutDir::S, 0),
            Some((t.tile_at(3, 4), InPort::FromN0))
        );
        assert_eq!(
            t.neighbor(c, OutDir::E, 0),
            Some((t.tile_at(4, 3), InPort::FromW0))
        );
        assert_eq!(
            t.neighbor(c, OutDir::W, 0),
            Some((t.tile_at(2, 3), InPort::FromE0))
        );
    }

    #[test]
    fn mesh_edges_have_no_links() {
        let t = mesh_8x8();
        assert_eq!(t.neighbor(t.tile_at(0, 0), OutDir::N, 0), None);
        assert_eq!(t.neighbor(t.tile_at(0, 0), OutDir::W, 0), None);
        assert_eq!(t.neighbor(t.tile_at(7, 7), OutDir::S, 0), None);
        assert_eq!(t.neighbor(t.tile_at(7, 7), OutDir::E, 0), None);
    }

    #[test]
    fn torus_wraps() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(8, 8)
            .noc_topology(muchisim_config::NocTopology::FoldedTorus)
            .build()
            .unwrap();
        let t = TopoInfo::from_system(&cfg);
        assert_eq!(
            t.neighbor(t.tile_at(7, 0), OutDir::E, 1),
            Some((t.tile_at(0, 0), InPort::FromW1))
        );
        assert_eq!(
            t.neighbor(t.tile_at(0, 0), OutDir::N, 0),
            Some((t.tile_at(0, 7), InPort::FromS0))
        );
    }

    #[test]
    fn ruche_links() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .ruche_factor(4)
            .build()
            .unwrap();
        let t = TopoInfo::from_system(&cfg);
        assert_eq!(
            t.neighbor(t.tile_at(2, 0), OutDir::RucheE, 0),
            Some((t.tile_at(6, 0), InPort::FromRucheW))
        );
        // ruche never wraps
        assert_eq!(t.neighbor(t.tile_at(13, 0), OutDir::RucheE, 0), None);
        assert_eq!(t.neighbor(t.tile_at(2, 0), OutDir::RucheW, 0), None);
    }

    #[test]
    fn link_class_chiplet_boundary() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .package_chiplets(2, 1)
            .build()
            .unwrap();
        let t = TopoInfo::from_system(&cfg);
        assert_eq!(
            t.link_class(t.tile_at(3, 0), OutDir::E, 0),
            Some(LinkClass::DieToDie)
        );
        assert_eq!(
            t.link_class(t.tile_at(2, 0), OutDir::E, 0),
            Some(LinkClass::OnChip)
        );
    }

    #[test]
    fn hop_cycles_d2d_exceeds_on_chip() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .package_chiplets(2, 1)
            .build()
            .unwrap();
        let t = TopoInfo::from_system(&cfg);
        let on = t.hop_cycles(t.tile_at(2, 0), OutDir::E, 0).unwrap();
        let d2d = t.hop_cycles(t.tile_at(3, 0), OutDir::E, 0).unwrap();
        assert!(on >= 1);
        assert!(d2d > on);
    }

    #[test]
    fn ruche_hop_slower_than_plain_hop_even_at_one_cycle_base() {
        // regression: with a 1-cycle base hop, the old
        // `(r-1) * (hop/2)` truncated to 0 extra cycles, making a
        // 4-tile-long Ruche wire exactly as fast as a 1-tile hop
        let cfg = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .ruche_factor(4)
            .build()
            .unwrap();
        let t = TopoInfo::from_system(&cfg);
        assert_eq!(t.hop_cycles_on_chip, 1, "default pitch yields 1-cycle hops");
        let plain = t.hop_cycles(t.tile_at(2, 0), OutDir::E, 0).unwrap();
        let ruche = t.hop_cycles(t.tile_at(2, 0), OutDir::RucheE, 0).unwrap();
        assert!(
            ruche > plain,
            "ruche hop ({ruche} cy) must cost more than a plain hop ({plain} cy)"
        );
        // (r-1) * hop / 2, rounded up: (4-1)*1/2 -> 2 extra cycles
        assert_eq!(ruche, plain + 2);
        // but per tile spanned it is cheaper than stepping
        assert!(ruche < plain * 4, "ruche must still beat 4 plain hops");
    }

    /// A four-level hierarchy (4x2-tile chiplets, 2x2 chiplets per
    /// package, 2x1 packages per node, 1x3 nodes: 16 x 12 tiles, every
    /// link class present in both dimensions or one) on each topology.
    fn four_level_grids() -> Vec<TopoInfo> {
        [
            (NocTopology::Mesh, None),
            (NocTopology::FoldedTorus, None),
            (NocTopology::Mesh, Some(2)),
        ]
        .into_iter()
        .map(|(topology, ruche)| {
            let mut b = SystemConfig::builder();
            b.chiplet_tiles(4, 2)
                .package_chiplets(2, 2)
                .node_packages(2, 1)
                .cluster_nodes(1, 3)
                .noc_topology(topology);
            if let Some(r) = ruche {
                b.ruche_factor(r);
            }
            TopoInfo::from_system(&b.build().expect("valid four-level grid"))
        })
        .collect()
    }

    #[test]
    fn link_rows_equal_the_direct_computation_on_every_link() {
        for t in four_level_grids() {
            let mut classes = std::collections::HashSet::new();
            for tile in 0..t.num_tiles() {
                let (x, y) = t.coords(tile);
                for dir in OutDir::BY_INDEX {
                    let Some((dx, dy)) = t.neighbor_xy(x, y, dir) else {
                        assert_eq!(t.hop_info(x, y, dir, 0), None);
                        continue;
                    };
                    let (class, cycles) = t.classify_hop((x, y), (dx, dy), dir);
                    assert_eq!(
                        class,
                        t.hierarchy
                            .link_class(TileCoord::new(x, y), TileCoord::new(dx, dy))
                    );
                    for vc in 0..2 {
                        assert_eq!(
                            t.hop_info(x, y, dir, vc),
                            Some(((dx, dy), InPort::arrival_port(dir, vc), class, cycles)),
                            "{:?} ruche {:?}: tile ({x}, {y}) via {dir:?}",
                            t.topology,
                            t.ruche_factor
                        );
                    }
                    classes.insert(class);
                }
            }
            assert_eq!(classes.len(), 4, "the grid must exercise every link class");
        }
    }

    #[test]
    fn upstream_is_the_inverse_of_neighbor() {
        for t in four_level_grids() {
            let mut fed = vec![false; t.num_queues()];
            for cur in 0..t.num_tiles() {
                for dir in OutDir::BY_INDEX {
                    for vc in 0..2 {
                        let Some((dest, port)) = t.neighbor(cur, dir, vc) else {
                            continue;
                        };
                        assert_eq!(
                            t.upstream(dest, port),
                            Some(cur),
                            "{:?} ruche {:?}: tile {cur} via {dir:?} vc {vc}",
                            t.topology,
                            t.ruche_factor
                        );
                        fed[t.queue_id(dest, port)] = true;
                    }
                }
            }
            // and a queue no router feeds has no upstream
            for tile in 0..t.num_tiles() {
                for port in InPort::ALL {
                    if !fed[t.queue_id(tile, port)] {
                        assert_eq!(t.upstream(tile, port), None, "tile {tile} {port:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pitch_is_sub_millimeter_for_default_tile() {
        let t = mesh_8x8();
        assert!(
            t.tile_pitch_mm > 0.1 && t.tile_pitch_mm < 1.0,
            "{}",
            t.tile_pitch_mm
        );
    }

    #[test]
    fn queue_ids_dense_and_unique() {
        let t = mesh_8x8();
        let mut seen = vec![false; t.num_queues()];
        for tile in 0..t.num_tiles() {
            for p in InPort::ALL {
                let q = t.queue_id(tile, p);
                assert!(!seen[q]);
                seen[q] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coords_round_trip() {
        let t = mesh_8x8();
        for id in 0..64 {
            let (x, y) = t.coords(id);
            assert_eq!(t.tile_at(x, y), id);
        }
    }
}
