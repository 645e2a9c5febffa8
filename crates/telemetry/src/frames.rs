//! Periodic statistics frames (paper §III-D / §III-F).
//!
//! The simulator logs performance counters in *frames* at a configurable
//! cycle interval. Frames drive the visualization tools: aggregate time
//! series at verbosity V1, plus per-tile router/PU activity heat maps at
//! V2 and queue occupancies at V3.
//!
//! A frame is the second record kind of the telemetry stream: every
//! worker keeps its partial frames in a plain [`FrameLog`] (merged
//! positionally into `SimResult::frames` at the end of the run), and
//! when a subscriber listens the barrier leader merges each freshly
//! closed frame across workers and publishes it through the
//! [`TelemetryHub`](crate::TelemetryHub) beside the samples.

use serde::{Deserialize, Serialize};

/// One statistics frame.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Frame {
    /// Frame index.
    pub index: u64,
    /// First NoC cycle covered by this frame.
    pub start_cycle: u64,
    /// Tasks dispatched during the frame.
    pub tasks_delta: u64,
    /// Messages injected into the NoC during the frame.
    pub injected_delta: u64,
    /// Messages delivered during the frame.
    pub ejected_delta: u64,
    /// Per-tile router busy cycles, `(tile, busy)` sparse pairs
    /// (verbosity ≥ V2).
    pub router_busy: Vec<(u32, u32)>,
    /// Per-tile PU busy cycles, sparse pairs (verbosity ≥ V2).
    pub pu_busy: Vec<(u32, u32)>,
    /// Per-tile total input-queue occupancy, sparse pairs (verbosity V3).
    pub iq_occupancy: Vec<(u32, u32)>,
}

impl Frame {
    /// Merges a partial frame (from another worker) covering the same
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics when a delta overflows; frames that come from a file go
    /// through [`FrameLog::checked_merge`] instead.
    pub fn merge(&mut self, other: &Frame) {
        debug_assert_eq!(self.index, other.index);
        self.checked_absorb(other).expect("frame deltas overflow");
    }

    /// Accumulates `other`'s deltas and sparse grids into `self`,
    /// ignoring indices and start cycles: `None` (with `self` partly
    /// merged) when a delta overflows.
    fn checked_absorb(&mut self, other: &Frame) -> Option<()> {
        self.tasks_delta = self.tasks_delta.checked_add(other.tasks_delta)?;
        self.injected_delta = self.injected_delta.checked_add(other.injected_delta)?;
        self.ejected_delta = self.ejected_delta.checked_add(other.ejected_delta)?;
        self.router_busy.extend_from_slice(&other.router_busy);
        self.pu_busy.extend_from_slice(&other.pu_busy);
        self.iq_occupancy.extend_from_slice(&other.iq_occupancy);
        Some(())
    }

    /// Host heap bytes owned by this frame's sparse grids.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.router_busy.capacity() + self.pu_busy.capacity() + self.iq_occupancy.capacity())
            as u64
            * std::mem::size_of::<(u32, u32)>() as u64
    }

    /// Dense per-tile router-activity grid (`total_tiles` entries).
    pub fn router_grid(&self, total_tiles: u32) -> Vec<u32> {
        let mut grid = vec![0u32; total_tiles as usize];
        for &(t, v) in &self.router_busy {
            grid[t as usize] += v;
        }
        grid
    }

    /// Dense per-tile PU-activity grid.
    pub fn pu_grid(&self, total_tiles: u32) -> Vec<u32> {
        let mut grid = vec![0u32; total_tiles as usize];
        for &(t, v) in &self.pu_busy {
            grid[t as usize] += v;
        }
        grid
    }
}

/// The sequence of frames produced by one simulation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameLog {
    /// Frame interval in NoC cycles.
    pub interval_cycles: u64,
    /// Frames in time order.
    pub frames: Vec<Frame>,
}

impl FrameLog {
    /// Creates an empty log with the given interval.
    pub fn new(interval_cycles: u64) -> Self {
        FrameLog {
            interval_cycles,
            frames: Vec::new(),
        }
    }

    /// Number of frames recorded.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames were recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Appends `frame`, numbering it by its position in the log.
    pub fn push(&mut self, mut frame: Frame) {
        frame.index = self.frames.len() as u64;
        self.frames.push(frame);
    }

    /// Host heap bytes owned by the retained frames.
    pub fn heap_bytes(&self) -> u64 {
        self.frames.capacity() as u64 * std::mem::size_of::<Frame>() as u64
            + self.frames.iter().map(Frame::heap_bytes).sum::<u64>()
    }

    /// Merges a per-worker partial log into this one (frame-by-frame).
    ///
    /// Frames are paired by position; a longer `other` appends its tail.
    /// The caller merges only logs captured on the same boundaries, which
    /// the engine guarantees by construction.
    ///
    /// # Panics
    ///
    /// Panics when a frame delta overflows; logs that come from a file go
    /// through [`FrameLog::checked_merge`] instead.
    pub fn merge(&mut self, other: &FrameLog) {
        self.checked_merge(other).expect("frame deltas overflow");
    }

    /// [`FrameLog::merge`]; `None` (with `self` partly merged) when a
    /// frame delta overflows.
    pub fn checked_merge(&mut self, other: &FrameLog) -> Option<()> {
        for (i, f) in other.frames.iter().enumerate() {
            match self.frames.get_mut(i) {
                Some(mine) => mine.checked_absorb(f)?,
                None => self.frames.push(f.clone()),
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(index: u64, tasks: u64) -> Frame {
        Frame {
            index,
            start_cycle: index * 10,
            tasks_delta: tasks,
            ..Default::default()
        }
    }

    #[test]
    fn merge_combines_sparse_grids() {
        let mut a = Frame {
            index: 0,
            tasks_delta: 2,
            router_busy: vec![(0, 5)],
            ..Default::default()
        };
        let b = Frame {
            index: 0,
            tasks_delta: 3,
            router_busy: vec![(1, 7)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tasks_delta, 5);
        assert_eq!(a.router_grid(2), vec![5, 7]);
    }

    #[test]
    fn log_merge_aligns_by_index() {
        let mut a = FrameLog::new(100);
        a.frames.push(Frame {
            index: 0,
            pu_busy: vec![(0, 1)],
            ..Default::default()
        });
        let mut b = FrameLog::new(100);
        b.frames.push(Frame {
            index: 0,
            pu_busy: vec![(1, 2)],
            ..Default::default()
        });
        b.frames.push(Frame {
            index: 1,
            pu_busy: vec![(1, 3)],
            ..Default::default()
        });
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.frames[0].pu_grid(2), vec![1, 2]);
        assert_eq!(a.frames[1].pu_grid(2), vec![0, 3]);
    }

    #[test]
    fn push_numbers_frames_by_position() {
        let mut log = FrameLog::new(10);
        assert!(log.is_empty());
        log.push(frame(7, 1));
        log.push(frame(7, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.frames[0].index, 0);
        assert_eq!(log.frames[1].index, 1);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut full = FrameLog::new(10);
        full.frames.push(frame(0, 5));
        let snapshot = full.clone();
        // empty other: no-op
        full.merge(&FrameLog::new(10));
        assert_eq!(full, snapshot);
        // empty self: adopts other's frames
        let mut empty = FrameLog::new(10);
        empty.merge(&snapshot);
        assert_eq!(empty.frames, snapshot.frames);
    }
}
