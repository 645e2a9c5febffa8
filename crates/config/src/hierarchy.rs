//! The hierarchical organization of tiles (paper §III-A, Fig. 1).
//!
//! A cluster is a grid of nodes; a node (board) is a grid of chip packages;
//! a package is a grid of compute chiplets; a chiplet is a grid of tiles.
//! For simulation the whole system is viewed as one *global grid of tiles*
//! (paper §III-C); the hierarchy determines which physical link class a hop
//! between two adjacent tiles crosses (on-chip wire, die-to-die PHY,
//! off-package I/O, or inter-node link) for latency / energy accounting.

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Coordinates of a tile in the global grid.
///
/// `x` grows eastwards (columns), `y` grows southwards (rows).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TileCoord {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl TileCoord {
    /// Creates a coordinate.
    pub fn new(x: u32, y: u32) -> Self {
        TileCoord { x, y }
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// The physical class of the link crossed by a hop between adjacent tiles.
///
/// Each class has distinct latency and energy parameters (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// A regular NoC wire between two tiles on the same chiplet.
    OnChip,
    /// A die-to-die PHY crossing between chiplets in the same package.
    DieToDie,
    /// An off-package link between packages on the same board.
    OffPackage,
    /// A board-to-board link between cluster nodes.
    InterNode,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkClass::OnChip => "on-chip",
            LinkClass::DieToDie => "die-to-die",
            LinkClass::OffPackage => "off-package",
            LinkClass::InterNode => "inter-node",
        };
        f.write_str(s)
    }
}

/// A rectangular extent, `x` units wide and `y` units tall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Extent {
    /// Width in units of the contained level.
    pub x: u32,
    /// Height in units of the contained level.
    pub y: u32,
}

impl Extent {
    /// Creates an extent.
    pub(crate) fn new(x: u32, y: u32) -> Self {
        Extent { x, y }
    }

    /// Total units contained.
    pub(crate) fn count(self) -> u64 {
        self.x as u64 * self.y as u64
    }
}

/// The largest grid, in tiles, the simulator can address: tile ids and
/// the ids of a router's 13 input queues (`tile · 13 + port`) are `u32`
/// everywhere — in packets, snapshots, wake boxes and stall memos.
pub const MAX_TILES: u64 = u32::MAX as u64 / 13;

/// The four-level tile hierarchy (chiplet ⊂ package ⊂ node ⊂ cluster).
///
/// The global tile grid is *derived*: its width is
/// `chiplet.x · package.x · node.x · cluster.x` and similarly for height,
/// so a hierarchy is always self-consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hierarchy {
    /// Tiles per compute chiplet.
    pub chiplet: Extent,
    /// Chiplets per chip package.
    pub package: Extent,
    /// Packages per cluster node (board).
    pub node: Extent,
    /// Nodes in the cluster.
    pub cluster: Extent,
}

impl Default for Hierarchy {
    /// A single 32×32-tile chiplet in one package on one node.
    fn default() -> Self {
        Hierarchy {
            chiplet: Extent::new(32, 32),
            package: Extent::new(1, 1),
            node: Extent::new(1, 1),
            cluster: Extent::new(1, 1),
        }
    }
}

impl Hierarchy {
    /// Validates that every level is non-empty and that the derived grid
    /// holds at most [`MAX_TILES`] tiles — after which
    /// [`Self::grid_width`], [`Self::grid_height`] and every tile or queue
    /// id computed from them fit their `u32`.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let levels = [self.chiplet, self.package, self.node, self.cluster];
        for (name, e) in ["chiplet", "package", "node", "cluster"]
            .into_iter()
            .zip(levels)
        {
            if e.x == 0 || e.y == 0 {
                return Err(ConfigError::EmptyExtent { level: name });
            }
        }
        // four u32 factors cannot overflow a u128; each side is bounded
        // before the two are multiplied
        let width: u128 = levels.iter().map(|e| u128::from(e.x)).product();
        let height: u128 = levels.iter().map(|e| u128::from(e.y)).product();
        let max = u128::from(MAX_TILES);
        if width > max || height > max || width * height > max {
            return Err(ConfigError::LimitExceeded {
                what: "the tile grid (width x height)",
                max: MAX_TILES,
            });
        }
        Ok(())
    }

    /// Global grid width in tiles.
    pub(crate) fn grid_width(&self) -> u32 {
        self.chiplet.x * self.package.x * self.node.x * self.cluster.x
    }

    /// Global grid height in tiles.
    pub(crate) fn grid_height(&self) -> u32 {
        self.chiplet.y * self.package.y * self.node.y * self.cluster.y
    }

    /// Total number of tiles in the system.
    pub(crate) fn total_tiles(&self) -> u64 {
        self.grid_width() as u64 * self.grid_height() as u64
    }

    /// Total number of compute chiplets in the system.
    pub fn total_chiplets(&self) -> u64 {
        self.package.count() * self.node.count() * self.cluster.count()
    }

    /// Tiles per chiplet.
    pub fn tiles_per_chiplet(&self) -> u64 {
        self.chiplet.count()
    }

    /// Index of the chiplet (in chiplet-grid coordinates) containing `t`.
    fn chiplet_of(&self, t: TileCoord) -> (u32, u32) {
        (t.x / self.chiplet.x, t.y / self.chiplet.y)
    }

    /// Index of the package (in package-grid coordinates) containing `t`.
    fn package_of(&self, t: TileCoord) -> (u32, u32) {
        (
            t.x / (self.chiplet.x * self.package.x),
            t.y / (self.chiplet.y * self.package.y),
        )
    }

    /// Index of the node (in node-grid coordinates) containing `t`.
    fn node_of(&self, t: TileCoord) -> (u32, u32) {
        (
            t.x / (self.chiplet.x * self.package.x * self.node.x),
            t.y / (self.chiplet.y * self.package.y * self.node.y),
        )
    }

    /// Classifies the physical link crossed by a hop between tiles `a` and
    /// `b`.
    ///
    /// The tiles need not be grid-adjacent (torus wrap links also cross
    /// chiplet/package/node boundaries and are classified the same way):
    /// the *highest* hierarchy boundary crossed determines the class.
    pub fn link_class(&self, a: TileCoord, b: TileCoord) -> LinkClass {
        if self.node_of(a) != self.node_of(b) {
            LinkClass::InterNode
        } else if self.package_of(a) != self.package_of(b) {
            LinkClass::OffPackage
        } else if self.chiplet_of(a) != self.chiplet_of(b) {
            LinkClass::DieToDie
        } else {
            LinkClass::OnChip
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> Hierarchy {
        // 4x4-tile chiplets, 2x2 chiplets per package, 2x1 packages per
        // node, 1x2 nodes: grid is (4*2*2*1) x (4*2*1*2) = 16 x 16 tiles.
        Hierarchy {
            chiplet: Extent::new(4, 4),
            package: Extent::new(2, 2),
            node: Extent::new(2, 1),
            cluster: Extent::new(1, 2),
        }
    }

    #[test]
    fn grid_dims_derived() {
        let h = two_by_two();
        assert_eq!(h.grid_width(), 16);
        assert_eq!(h.grid_height(), 16);
        assert_eq!(h.total_tiles(), 256);
        assert_eq!(h.total_chiplets(), 2 * 2 * 2 * 2);
    }

    #[test]
    fn link_classification_on_chip() {
        let h = two_by_two();
        assert_eq!(
            h.link_class(TileCoord::new(0, 0), TileCoord::new(1, 0)),
            LinkClass::OnChip
        );
        assert_eq!(
            h.link_class(TileCoord::new(2, 2), TileCoord::new(2, 3)),
            LinkClass::OnChip
        );
    }

    #[test]
    fn link_classification_die_to_die() {
        let h = two_by_two();
        // x=3 -> chiplet 0, x=4 -> chiplet 1 (same package: package.x covers
        // 4*2=8 tiles).
        assert_eq!(
            h.link_class(TileCoord::new(3, 0), TileCoord::new(4, 0)),
            LinkClass::DieToDie
        );
    }

    #[test]
    fn link_classification_off_package() {
        let h = two_by_two();
        // package boundary at x=8 (within node 0: node.x covers 16 tiles).
        assert_eq!(
            h.link_class(TileCoord::new(7, 0), TileCoord::new(8, 0)),
            LinkClass::OffPackage
        );
    }

    #[test]
    fn link_classification_inter_node() {
        let h = two_by_two();
        // node boundary in y at 8 (node.y covers 4*2*1 = 8 tiles).
        assert_eq!(
            h.link_class(TileCoord::new(0, 7), TileCoord::new(0, 8)),
            LinkClass::InterNode
        );
    }

    #[test]
    fn torus_wrap_link_is_highest_boundary() {
        let h = two_by_two();
        // Wrap link from x=15 to x=0 crosses package boundary.
        assert_eq!(
            h.link_class(TileCoord::new(15, 0), TileCoord::new(0, 0)),
            LinkClass::OffPackage
        );
        // Wrap in y crosses node boundary.
        assert_eq!(
            h.link_class(TileCoord::new(0, 15), TileCoord::new(0, 0)),
            LinkClass::InterNode
        );
    }

    #[test]
    fn monolithic_hierarchy_all_on_chip() {
        let h = Hierarchy::default();
        assert_eq!(
            h.link_class(TileCoord::new(0, 0), TileCoord::new(31, 31)),
            LinkClass::OnChip
        );
    }

    #[test]
    fn validate_rejects_empty() {
        let h = Hierarchy {
            package: Extent::new(0, 1),
            ..Hierarchy::default()
        };
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_rejects_grids_beyond_the_id_space() {
        let too_large = |h: Hierarchy| {
            assert_eq!(
                h.validate(),
                Err(ConfigError::LimitExceeded {
                    what: "the tile grid (width x height)",
                    max: MAX_TILES
                }),
                "{h:?}"
            );
        };
        // 2^32 tiles: the unchecked product used to wrap to 0
        too_large(Hierarchy {
            chiplet: Extent::new(65536, 65536),
            ..Hierarchy::default()
        });
        // a width alone beyond u32 (and beyond u64 with two more levels)
        too_large(Hierarchy {
            package: Extent::new(1_000_000, 1),
            node: Extent::new(1_000_000, 1),
            ..Hierarchy::default()
        });
        too_large(Hierarchy {
            chiplet: Extent::new(u32::MAX, 1),
            package: Extent::new(u32::MAX, 1),
            node: Extent::new(u32::MAX, 1),
            cluster: Extent::new(u32::MAX, u32::MAX),
        });
        // the largest square that fits does
        let side = (MAX_TILES as f64).sqrt() as u32;
        let fits = Hierarchy {
            chiplet: Extent::new(side, side),
            ..Hierarchy::default()
        };
        assert_eq!(fits.validate(), Ok(()));
        assert!(fits.total_tiles() * 13 <= u64::from(u32::MAX));
        too_large(Hierarchy {
            chiplet: Extent::new(side + 1, side + 1),
            ..Hierarchy::default()
        });
    }
}
