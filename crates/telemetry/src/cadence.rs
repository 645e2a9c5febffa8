//! The one capture-schedule rule shared by frames and samples.

/// A periodic capture schedule: simulated time is cut into blocks of
/// `every` cycles and a capture *closes* on the last cycle of each block.
///
/// The cycle driver asks [`closes`](Cadence::closes) after executing a
/// cycle, and its leap decision clamps to
/// [`next_close`](Cadence::next_close) — so every capture boundary is an
/// executed cycle and no capture is ever reconstructed after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    every: u64,
}

impl Cadence {
    /// A schedule closing every `every` cycles (clamped to ≥ 1).
    pub fn new(every: u64) -> Self {
        Cadence {
            every: every.max(1),
        }
    }

    /// Whether `cycle` is the last cycle of a block.
    pub fn closes(self, cycle: u64) -> bool {
        (cycle + 1).is_multiple_of(self.every)
    }

    /// The first closing cycle strictly after `cycle`.
    pub fn next_close(self, cycle: u64) -> u64 {
        ((cycle + 1) / self.every + 1).saturating_mul(self.every) - 1
    }

    /// The first cycle of the block containing `cycle`.
    pub fn block_start(self, cycle: u64) -> u64 {
        cycle - cycle % self.every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_close_matches_per_cycle_stepping() {
        for every in [1u64, 2, 3, 7, 64] {
            let cadence = Cadence::new(every);
            for cycle in 0..200u64 {
                let want = (cycle + 1..)
                    .find(|&c| cadence.closes(c))
                    .expect("a block always ends");
                assert_eq!(cadence.next_close(cycle), want, "every {every} at {cycle}");
                assert!(cadence.block_start(cycle) <= cycle);
                assert!(cycle - cadence.block_start(cycle) < every);
                assert_eq!(cadence.block_start(cycle) % every, 0);
            }
        }
    }

    #[test]
    fn a_zero_interval_is_one_cycle() {
        let cadence = Cadence::new(0);
        assert!(cadence.closes(0));
        assert_eq!(cadence.next_close(0), 1);
    }
}
