//! The column-slice layout shared by NoC shards and the workers that own
//! the same columns' tiles.

use crate::topo::FastDiv;
use std::ops::Range;

/// A contiguous range of grid columns, with local ↔ global tile-id
/// conversion. Local ids run row by row over the owned columns; a
/// [`Shard`](crate::Shard) indexes its routers and a worker its tiles
/// this way, so one's per-router arrays line up with the other's
/// per-tile ones.
///
/// Both divisions go through a multiply-high reciprocal (`FastDiv`), not
/// a hardware divide: the hot sweeps convert ids for every routed or
/// delivered packet.
#[derive(Debug, Clone)]
pub struct ColSlice {
    cols: Range<u32>,
    width: u32,
    height: u32,
    div_width: FastDiv,
    div_ncols: FastDiv,
}

impl ColSlice {
    /// Columns `cols` of a `width` × `height` grid.
    pub fn new(cols: Range<u32>, width: u32, height: u32) -> Self {
        debug_assert!(
            cols.start < cols.end && cols.end <= width,
            "bad slice {cols:?}"
        );
        ColSlice {
            div_width: FastDiv::new(width),
            div_ncols: FastDiv::new(cols.end - cols.start),
            cols,
            width,
            height,
        }
    }

    /// The owned columns.
    pub fn cols(&self) -> Range<u32> {
        self.cols.clone()
    }

    /// Number of columns owned.
    pub fn ncols(&self) -> u32 {
        self.cols.end - self.cols.start
    }

    /// Number of tiles owned.
    pub fn num_tiles(&self) -> usize {
        (self.ncols() * self.height) as usize
    }

    /// Local index of the tile at `(x, y)`.
    #[inline]
    pub(crate) fn local_of(&self, x: u32, y: u32) -> usize {
        debug_assert!(self.cols.contains(&x), "column {x} not in {:?}", self.cols);
        (y * self.ncols() + (x - self.cols.start)) as usize
    }

    /// Local index of a global tile id.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the tile is not owned.
    #[inline]
    pub fn local(&self, tile: u32) -> usize {
        let (y, x) = self.div_width.divmod(tile);
        self.local_of(x, y)
    }

    /// Grid coordinates `(x, y)` of a local index.
    #[inline]
    pub(crate) fn coords(&self, local: usize) -> (u32, u32) {
        let (y, xr) = self.div_ncols.divmod(local as u32);
        (self.cols.start + xr, y)
    }

    /// Global tile id of a local index.
    #[inline]
    pub fn global(&self, local: usize) -> u32 {
        let (x, y) = self.coords(local);
        y * self.width + x
    }

    /// Iterates over all owned global tile ids in local order.
    pub fn iter_tiles(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.num_tiles()).map(move |l| self.global(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_global_round_trip() {
        for s in [
            ColSlice::new(2..5, 8, 4),
            ColSlice::new(0..1, 7, 3),
            ColSlice::new(6..7, 7, 3),
        ] {
            assert_eq!(s.num_tiles(), s.ncols() as usize * s.height as usize);
            for l in 0..s.num_tiles() {
                let g = s.global(l);
                assert!(s.cols().contains(&(g % s.width)));
                assert_eq!(s.local(g), l);
                let (x, y) = s.coords(l);
                assert_eq!((x, y), (g % s.width, g / s.width));
                assert_eq!(s.local_of(x, y), l);
            }
        }
    }

    #[test]
    fn iter_covers_all() {
        let s = ColSlice::new(0..8, 8, 2);
        let tiles: Vec<u32> = s.iter_tiles().collect();
        assert_eq!(tiles.len(), 16);
        assert_eq!(tiles[0], 0);
        assert_eq!(*tiles.last().unwrap(), 15);
    }
}
