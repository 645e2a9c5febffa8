//! Equal-chunk scattering of dataset arrays across tiles.
//!
//! Paper §III-B: "the dataset is scattered so that each tile has an equal
//! chunk of each data array", and the global address space is contiguous
//! with each tile's PLM owning one chunk. A [`Partition`] maps array
//! indices to owning tiles and back.

use serde::{Deserialize, Serialize};

/// An equal-chunk partition of `len` elements over `parts` owners.
///
/// The first `len % parts` owners hold one extra element, so chunk sizes
/// differ by at most one and the mapping is gap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    len: u64,
    parts: u32,
}

impl Partition {
    /// Creates a partition of `len` elements over `parts` owners.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn new(len: u64, parts: u32) -> Self {
        assert!(parts > 0, "partition needs at least one part");
        Partition { len, parts }
    }

    /// Number of owners.
    pub fn parts(&self) -> u32 {
        self.parts
    }

    /// The owner of element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn owner_of(&self, index: u64) -> u32 {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let base = self.len / self.parts as u64;
        let extra = self.len % self.parts as u64;
        // first `extra` parts have (base + 1) elements
        let boundary = extra * (base + 1);
        if index < boundary {
            (index / (base + 1)) as u32
        } else {
            // base == 0 means len < parts and every element landed in the
            // boundary region, so this division cannot be reached then
            let off = (index - boundary)
                .checked_div(base)
                .expect("index below len implies boundary covers it when base is 0");
            (extra + off) as u32
        }
    }

    /// The half-open element range `[start, end)` owned by `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part >= parts`.
    pub fn range_of(&self, part: u32) -> std::ops::Range<u64> {
        assert!(part < self.parts, "part {part} out of range {}", self.parts);
        let base = self.len / self.parts as u64;
        let extra = self.len % self.parts as u64;
        let p = part as u64;
        let start = if p <= extra {
            p * (base + 1)
        } else {
            extra * (base + 1) + (p - extra) * base
        };
        let size = if p < extra { base + 1 } else { base };
        start..(start + size)
    }

    /// The local offset of `index` within its owner's chunk.
    pub fn local_offset(&self, index: u64) -> u64 {
        index - self.range_of(self.owner_of(index)).start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chunk_len(p: &Partition, part: u32) -> u64 {
        let r = p.range_of(part);
        r.end - r.start
    }

    #[test]
    fn even_split() {
        let p = Partition::new(100, 4);
        assert_eq!(p.range_of(0), 0..25);
        assert_eq!(p.range_of(3), 75..100);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(24), 0);
        assert_eq!(p.owner_of(25), 1);
        assert_eq!(p.owner_of(99), 3);
    }

    #[test]
    fn uneven_split_front_loaded() {
        let p = Partition::new(10, 4); // sizes 3,3,2,2
        assert_eq!(chunk_len(&p, 0), 3);
        assert_eq!(chunk_len(&p, 1), 3);
        assert_eq!(chunk_len(&p, 2), 2);
        assert_eq!(chunk_len(&p, 3), 2);
        assert_eq!(p.owner_of(5), 1);
        assert_eq!(p.owner_of(6), 2);
    }

    #[test]
    fn more_parts_than_elements() {
        let p = Partition::new(3, 8);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(2), 2);
        assert_eq!(chunk_len(&p, 3), 0);
        assert_eq!(p.range_of(7), 3..3);
    }

    #[test]
    fn local_offset() {
        let p = Partition::new(100, 4);
        assert_eq!(p.local_offset(25), 0);
        assert_eq!(p.local_offset(30), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_of_out_of_range_panics() {
        Partition::new(10, 2).owner_of(10);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::new(0, 4);
        assert_eq!(p.len, 0);
        assert_eq!(chunk_len(&p, 0), 0);
    }

    proptest! {
        #[test]
        fn prop_ranges_tile_the_space(len in 0u64..10_000, parts in 1u32..64) {
            let p = Partition::new(len, parts);
            let mut cursor = 0;
            for part in 0..parts {
                let r = p.range_of(part);
                prop_assert_eq!(r.start, cursor);
                cursor = r.end;
            }
            prop_assert_eq!(cursor, len);
        }

        #[test]
        fn prop_owner_consistent_with_range(len in 1u64..10_000, parts in 1u32..64, idx_frac in 0.0f64..1.0) {
            let p = Partition::new(len, parts);
            let idx = ((len as f64 * idx_frac) as u64).min(len - 1);
            let owner = p.owner_of(idx);
            prop_assert!(p.range_of(owner).contains(&idx));
        }

        #[test]
        fn prop_chunks_differ_by_at_most_one(len in 0u64..10_000, parts in 1u32..64) {
            let p = Partition::new(len, parts);
            let sizes: Vec<u64> = (0..parts).map(|i| chunk_len(&p, i)).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
