//! Periodic statistics frames (paper §III-D / §III-F).
//!
//! The simulator logs performance counters in *frames* at a configurable
//! cycle interval. Frames drive the visualization tools: aggregate time
//! series at verbosity V1, plus per-tile router/PU activity heat maps at
//! V2 and queue occupancies at V3.
//!
//! Two collection modes exist:
//!
//! * [`FrameLog`] — the plain in-memory sequence (one frame per
//!   interval, unbounded). This is the default and what short runs use.
//! * [`FrameSink`] — the *streaming* collector for long or huge runs:
//!   in-memory frames are bounded by a budget (on overflow, adjacent
//!   frames merge pairwise, doubling the effective interval — classic
//!   telemetry downsampling), and every full-resolution frame can
//!   additionally be spilled to a JSONL file as it closes, so perfect
//!   fidelity lands on disk while host memory stays O(budget).
//!
//! Both modes capture at the *same* cycle boundaries, so the
//! time-leaping driver's backfill arithmetic
//! ([`FrameLog::lockstep_capture_starts`]) is shared and stays
//! bit-identical either way.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::{Arc, Mutex};

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
    pub fn merge(&mut self, other: &Frame) {
        debug_assert_eq!(self.index, other.index);
        self.absorb(other);
    }

    /// Accumulates `other`'s deltas and sparse grids into `self`,
    /// ignoring indices and start cycles (used both for same-interval
    /// merges across workers and for adjacent-interval downsampling).
    fn absorb(&mut self, other: &Frame) {
        self.checked_absorb(other).expect("frame deltas overflow");
    }

    /// [`Frame::absorb`] for deltas that come from a file: `None` (with
    /// `self` partly merged) when one overflows.
    fn checked_absorb(&mut self, other: &Frame) -> Option<()> {
        self.tasks_delta = self.tasks_delta.checked_add(other.tasks_delta)?;
        self.injected_delta = self.injected_delta.checked_add(other.injected_delta)?;
        self.ejected_delta = self.ejected_delta.checked_add(other.ejected_delta)?;
        self.router_busy.extend_from_slice(&other.router_busy);
        self.pu_busy.extend_from_slice(&other.pu_busy);
        self.iq_occupancy.extend_from_slice(&other.iq_occupancy);
        Some(())
    }

    /// Sums duplicate tile keys in the sparse grids (sorting each by
    /// tile id), so a frame holds at most one pair per active tile no
    /// matter how many partial frames were absorbed into it. The dense
    /// grids are unchanged; only pair order and multiplicity are
    /// normalized. Used by the streaming sink, whose memory bound
    /// depends on it.
    fn compact(&mut self) {
        fn compact_pairs(pairs: &mut Vec<(u32, u32)>) {
            if pairs.len() < 2 {
                return;
            }
            pairs.sort_unstable_by_key(|&(t, _)| t);
            let mut out = 0;
            for i in 1..pairs.len() {
                if pairs[i].0 == pairs[out].0 {
                    pairs[out].1 += pairs[i].1;
                } else {
                    out += 1;
                    pairs[out] = pairs[i];
                }
            }
            pairs.truncate(out + 1);
        }
        compact_pairs(&mut self.router_busy);
        compact_pairs(&mut self.pu_busy);
        compact_pairs(&mut self.iq_occupancy);
    }

    /// Host heap bytes owned by this frame's sparse grids.
    pub fn heap_bytes(&self) -> u64 {
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
    /// Frame interval in NoC cycles. When the streaming sink downsampled,
    /// this is the *effective* (post-merge) interval.
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

    /// The `start_cycle`s of the frames a lockstep driver would have
    /// closed while stepping through the open interval
    /// `(after_cycle, next_cycle)`, in order.
    ///
    /// The cycle driver closes a frame at the end of every cycle `c` with
    /// `(c + 1) % interval == 0`; when the time-leaping driver jumps from
    /// `after_cycle` straight to `next_cycle` it must backfill exactly
    /// these captures so V1+ frame logs stay bit-identical. (The first
    /// backfilled frame flushes whatever deltas accumulated before the
    /// leap; the rest are idle frames, which the lockstep driver records
    /// too.)
    pub fn lockstep_capture_starts(
        &self,
        after_cycle: u64,
        next_cycle: u64,
    ) -> impl Iterator<Item = u64> {
        lockstep_capture_starts(self.interval_cycles, after_cycle, next_cycle)
    }

    /// Host heap bytes owned by the retained frames.
    pub fn heap_bytes(&self) -> u64 {
        self.frames.capacity() as u64 * std::mem::size_of::<Frame>() as u64
            + self.frames.iter().map(Frame::heap_bytes).sum::<u64>()
    }

    /// Merges a per-worker partial log into this one (frame-by-frame).
    ///
    /// Frames are paired by position; a longer `other` appends its tail.
    /// `self`'s interval is authoritative: merging logs with *unequal*
    /// intervals keeps `self.interval_cycles` untouched (the frames are
    /// still combined positionally — the caller is responsible for only
    /// merging logs captured on the same boundaries, which the engine
    /// guarantees by construction).
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

/// Capture boundaries shared by [`FrameLog`] and [`FrameSink`].
fn lockstep_capture_starts(
    interval_cycles: u64,
    after_cycle: u64,
    next_cycle: u64,
) -> impl Iterator<Item = u64> {
    let interval = interval_cycles.max(1);
    // captures happen at cycles c = m*interval - 1 for m >= 1;
    // we need those with after_cycle < c < next_cycle
    let first = (after_cycle + 2).div_ceil(interval).max(1);
    let last = next_cycle / interval; // m*interval - 1 <= next_cycle - 1
    (first..=last).map(move |m| (m - 1) * interval)
}

/// A shared, locked JSONL spill target (one per simulation, written by
/// every worker).
#[derive(Clone)]
pub struct FrameSpill {
    out: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for FrameSpill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameSpill").finish_non_exhaustive()
    }
}

impl FrameSpill {
    /// Creates a spill over an arbitrary writer, emitting the header
    /// record (`{"interval_cycles": ...}`).
    ///
    /// # Errors
    ///
    /// Propagates the header write failure as a string.
    pub fn new(mut out: Box<dyn Write + Send>, interval_cycles: u64) -> Result<Self, String> {
        writeln!(out, "{{\"interval_cycles\": {interval_cycles}}}")
            .map_err(|e| format!("writing frame-spill header: {e}"))?;
        Ok(FrameSpill {
            out: Arc::new(Mutex::new(out)),
        })
    }

    /// Creates a spill file at `path` (truncating).
    ///
    /// # Errors
    ///
    /// Returns a descriptive string if the file cannot be created.
    pub fn create(path: &str, interval_cycles: u64) -> Result<Self, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("creating frame-spill file {path}: {e}"))?;
        FrameSpill::new(Box::new(std::io::BufWriter::new(file)), interval_cycles)
    }

    fn write(&self, worker: usize, frame: &Frame) {
        let json = serde_json::to_string(frame).expect("frame serializes");
        let mut out = self.out.lock().expect("spill lock");
        // best effort: a full disk must not kill the simulation
        let _ = writeln!(out, "{{\"worker\": {worker}, \"frame\": {json}}}");
    }

    /// Flushes buffered records.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("spill lock").flush();
    }
}

/// Reconstructs the merged full-resolution [`FrameLog`] from spill JSONL
/// text (the inverse of what [`FrameSink`] writes: a header record plus
/// one record per worker per capture, in any order).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn read_spill_jsonl(text: &str) -> Result<FrameLog, String> {
    use serde::Value;
    let mut log: Option<FrameLog> = None;
    let mut records = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("spill line {}: {e}", lineno + 1))?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("spill line {}: not an object", lineno + 1))?;
        if let Some(interval) = obj.get("interval_cycles").and_then(Value::as_u64) {
            log = Some(FrameLog::new(interval));
            continue;
        }
        let log = log
            .as_mut()
            .ok_or_else(|| format!("spill line {}: record before header", lineno + 1))?;
        let frame_value = obj
            .get("frame")
            .ok_or_else(|| format!("spill line {}: missing frame", lineno + 1))?;
        let frame = Frame::from_value(frame_value)
            .map_err(|e| format!("spill line {}: {e}", lineno + 1))?;
        // every worker writes its captures in index order, so a valid
        // record's index can never exceed the records already read; a
        // huge index from a corrupt line must error, not allocate
        if frame.index > records {
            return Err(format!(
                "spill line {}: frame index {} exceeds the {records} records seen \
                 (corrupt spill?)",
                lineno + 1,
                frame.index,
            ));
        }
        records += 1;
        let idx = frame.index as usize;
        while log.frames.len() <= idx {
            let index = log.frames.len() as u64;
            log.frames.push(Frame {
                index,
                ..Default::default()
            });
        }
        let slot = &mut log.frames[idx];
        slot.start_cycle = frame.start_cycle;
        slot.absorb(&frame);
    }
    log.ok_or_else(|| "empty spill".into())
}

/// The streaming frame collector owned by one worker.
///
/// Pushes arrive at the lockstep capture boundaries (the same cadence as
/// a plain [`FrameLog`]). In-memory retention is bounded by `budget`:
/// when exceeded, adjacent frames merge pairwise and the effective
/// interval doubles, so memory stays O(budget) for arbitrarily long
/// runs. With no budget the sink *is* a `FrameLog` (bit-identical
/// retention). An optional [`FrameSpill`] receives every
/// full-resolution frame before downsampling.
#[derive(Debug)]
pub struct FrameSink {
    /// Capture cadence in NoC cycles (never changes; downsampling only
    /// affects retention).
    base_interval: u64,
    log: FrameLog,
    /// Max frames retained in memory (`>= 2`); `None` = unbounded.
    budget: Option<usize>,
    /// Captures merged into each retained frame (power of two).
    group: u64,
    /// Captures absorbed into the current tail frame so far.
    group_fill: u64,
    /// Total captures pushed (the full-resolution frame count).
    pushed: u64,
    spill: Option<(usize, FrameSpill)>,
}

impl FrameSink {
    /// A sink capturing every `interval_cycles`, keeping at most
    /// `budget` frames in memory (clamped to ≥ 2), spilling
    /// full-resolution frames to `spill` if given (tagged with
    /// `worker`).
    pub fn new(
        interval_cycles: u64,
        budget: Option<usize>,
        worker: usize,
        spill: Option<FrameSpill>,
    ) -> Self {
        let interval = interval_cycles.max(1);
        FrameSink {
            base_interval: interval,
            log: FrameLog::new(interval),
            budget: budget.map(|b| b.max(2)),
            group: 1,
            group_fill: 0,
            pushed: 0,
            spill: spill.map(|s| (worker, s)),
        }
    }

    /// The capture cadence (the configured frame interval).
    pub fn base_interval(&self) -> u64 {
        self.base_interval
    }

    /// Captures merged into each retained frame (1 = full resolution).
    pub fn downsample_factor(&self) -> u64 {
        self.group
    }

    /// Total full-resolution captures pushed so far.
    pub fn captures(&self) -> u64 {
        self.pushed
    }

    /// The retained (possibly downsampled) log.
    pub fn log(&self) -> &FrameLog {
        &self.log
    }

    /// Same boundaries as [`FrameLog::lockstep_capture_starts`], against
    /// the *base* interval — downsampling never changes when captures
    /// happen, only how they are retained.
    pub fn lockstep_capture_starts(
        &self,
        after_cycle: u64,
        next_cycle: u64,
    ) -> impl Iterator<Item = u64> {
        lockstep_capture_starts(self.base_interval, after_cycle, next_cycle)
    }

    /// Accepts the frame closed at a capture boundary. `frame.index` is
    /// assigned here (callers need not number frames).
    ///
    /// The retained log never holds more than `budget` frames, even
    /// mid-group: overflow is resolved *before* a new retained frame
    /// starts.
    pub fn push(&mut self, mut frame: Frame) {
        frame.index = self.pushed;
        self.pushed += 1;
        if let Some((worker, spill)) = &self.spill {
            spill.write(*worker, &frame);
        }
        if self.group_fill == 0 {
            if let Some(budget) = self.budget {
                if self.log.frames.len() >= budget {
                    self.downsample_by_2();
                }
            }
        }
        if self.group_fill == 0 {
            frame.index = self.log.frames.len() as u64;
            self.log.frames.push(frame);
        } else {
            let tail = self
                .log
                .frames
                .last_mut()
                .expect("partial group implies a tail frame");
            tail.absorb(&frame);
            // compacting per absorb keeps the tail at <= one pair per
            // active tile; without it the sparse grids would grow with
            // every capture and void the memory bound
            tail.compact();
        }
        self.group_fill += 1;
        if self.group_fill == self.group {
            self.group_fill = 0;
        }
    }

    /// Merges adjacent retained frames pairwise, doubling the group size
    /// and the effective interval.
    fn downsample_by_2(&mut self) {
        let old = std::mem::take(&mut self.log.frames);
        let odd_tail = old.len() % 2 == 1;
        let mut merged = Vec::with_capacity(old.len() / 2 + 1);
        let mut it = old.into_iter();
        while let Some(mut first) = it.next() {
            first.index = merged.len() as u64;
            if let Some(second) = it.next() {
                first.absorb(&second);
                first.compact();
            }
            merged.push(first);
        }
        self.log.frames = merged;
        // the tail frame of an odd-length log only holds half a group
        self.group_fill = if odd_tail { self.group } else { 0 };
        self.group *= 2;
        self.log.interval_cycles = self.base_interval * self.group;
    }

    /// Host heap bytes of the retained (bounded) log.
    pub fn heap_bytes(&self) -> u64 {
        self.log.heap_bytes()
    }

    /// Flushes the spill (end of run).
    pub fn finish(&self) {
        if let Some((_, spill)) = &self.spill {
            spill.flush();
        }
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
    fn lockstep_capture_starts_match_per_cycle_stepping() {
        for interval in [1u64, 3, 64] {
            let log = FrameLog::new(interval);
            for after in 0..50u64 {
                for next in after + 1..after + 80 {
                    let got: Vec<u64> = log.lockstep_capture_starts(after, next).collect();
                    let want: Vec<u64> = (after + 1..next)
                        .filter(|c| (c + 1).is_multiple_of(interval))
                        .map(|c| c + 1 - interval)
                        .collect();
                    assert_eq!(got, want, "interval {interval} after {after} next {next}");
                }
            }
        }
    }

    #[test]
    fn empty_log() {
        let log = FrameLog::new(10);
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
    }

    // --- edge cases the streaming aggregator must also satisfy ---

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

    #[test]
    fn interval_boundary_at_cycle_zero() {
        // with interval 1 the first capture closes at cycle 0 and covers
        // start_cycle 0; a leap over (0, n) must backfill starts 1..n-1
        let log = FrameLog::new(1);
        let starts: Vec<u64> = log.lockstep_capture_starts(0, 4).collect();
        assert_eq!(starts, vec![1, 2, 3]);
        // no capture strictly inside an empty open interval
        assert_eq!(log.lockstep_capture_starts(0, 1).count(), 0);
        // interval > 1: the boundary-ending-at-cycle-0 case is m=0,
        // which never fires (captures need a full interval)
        let log = FrameLog::new(5);
        assert_eq!(log.lockstep_capture_starts(0, 5).next(), Some(0));
        assert_eq!(log.lockstep_capture_starts(0, 4).count(), 0);
    }

    #[test]
    fn merge_of_unequal_intervals_keeps_self_interval() {
        let mut a = FrameLog::new(10);
        a.frames.push(frame(0, 1));
        let mut b = FrameLog::new(40); // e.g. a downsampled peer
        b.frames.push(frame(0, 2));
        a.merge(&b);
        assert_eq!(a.interval_cycles, 10, "self's interval is authoritative");
        assert_eq!(a.frames[0].tasks_delta, 3);
    }

    // --- streaming sink ---

    #[test]
    fn sink_without_budget_matches_plain_log() {
        let mut sink = FrameSink::new(10, None, 0, None);
        let mut plain = FrameLog::new(10);
        for i in 0..100u64 {
            sink.push(frame(0, i));
            let mut f = frame(0, i);
            f.index = plain.frames.len() as u64;
            f.start_cycle = 0;
            plain.frames.push(f);
        }
        // identical retention, indices, interval
        assert_eq!(sink.log().interval_cycles, 10);
        assert_eq!(sink.downsample_factor(), 1);
        assert_eq!(sink.log().len(), 100);
        for (i, f) in sink.log().frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
            assert_eq!(f.tasks_delta, i as u64);
        }
    }

    #[test]
    fn sink_budget_bounds_memory_and_conserves_deltas() {
        let mut sink = FrameSink::new(10, Some(8), 0, None);
        let mut total = 0u64;
        for i in 0..1000u64 {
            total += i;
            let mut f = frame(0, i);
            f.start_cycle = i * 10;
            sink.push(f);
        }
        assert!(
            sink.log().len() <= 8,
            "retained {} frames over budget",
            sink.log().len()
        );
        assert_eq!(sink.captures(), 1000);
        let retained: u64 = sink.log().frames.iter().map(|f| f.tasks_delta).sum();
        assert_eq!(retained, total, "downsampling must conserve deltas");
        // 1000 captures fit the budget at a group of 128 (8 frames)
        assert_eq!(sink.downsample_factor(), 128);
        assert_eq!(sink.log().interval_cycles, 1280);
        // indices stay dense
        for (i, f) in sink.log().frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
        }
        // start cycles stay monotone (each retained frame keeps its
        // group's first start)
        for w in sink.log().frames.windows(2) {
            assert!(w[0].start_cycle < w[1].start_cycle);
        }
    }

    #[test]
    fn sink_capture_starts_ignore_downsampling() {
        let mut sink = FrameSink::new(3, Some(2), 0, None);
        for _ in 0..32 {
            sink.push(frame(0, 1));
        }
        assert!(sink.downsample_factor() > 1);
        let log = FrameLog::new(3);
        let a: Vec<u64> = sink.lockstep_capture_starts(4, 40).collect();
        let b: Vec<u64> = log.lockstep_capture_starts(4, 40).collect();
        assert_eq!(a, b, "capture cadence must stay at the base interval");
    }

    #[test]
    fn sink_edge_cases_mirror_the_plain_log() {
        // empty sink merges as an empty log
        let sink = FrameSink::new(10, Some(4), 0, None);
        let mut target = FrameLog::new(10);
        target.frames.push(frame(0, 7));
        let snapshot = target.clone();
        target.merge(sink.log());
        assert_eq!(target, snapshot, "merging an empty sink is a no-op");
        // boundary at cycle 0, through the sink's shared arithmetic
        let sink = FrameSink::new(1, Some(4), 0, None);
        let starts: Vec<u64> = sink.lockstep_capture_starts(0, 4).collect();
        assert_eq!(starts, vec![1, 2, 3]);
    }

    #[test]
    fn spill_round_trips_full_resolution() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let spill = FrameSpill::new(Box::new(Shared(Arc::clone(&buf))), 10).unwrap();
        // two workers, aggressively downsampled in memory
        let mut a = FrameSink::new(10, Some(2), 0, Some(spill.clone()));
        let mut b = FrameSink::new(10, Some(2), 1, Some(spill));
        for i in 0..16u64 {
            let mut f = frame(0, i);
            f.start_cycle = i * 10;
            f.pu_busy = vec![(0, i as u32 + 1)];
            a.push(f.clone());
            f.pu_busy = vec![(1, i as u32 + 1)];
            b.push(f);
        }
        a.finish();
        b.finish();
        assert!(a.log().len() <= 2, "memory stayed bounded");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let restored = read_spill_jsonl(&text).expect("spill parses");
        // full resolution recovered: 16 frames, both workers merged
        assert_eq!(restored.interval_cycles, 10);
        assert_eq!(restored.len(), 16);
        for (i, f) in restored.frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
            assert_eq!(f.start_cycle, i as u64 * 10);
            assert_eq!(f.tasks_delta, 2 * i as u64, "both workers' deltas");
            assert_eq!(f.pu_grid(2), vec![i as u32 + 1, i as u32 + 1]);
        }
    }

    #[test]
    fn spill_reader_rejects_garbage() {
        assert!(read_spill_jsonl("").is_err());
        assert!(read_spill_jsonl("{\"worker\": 0}").is_err(), "no header");
        let ok = "{\"interval_cycles\": 5}\n";
        assert_eq!(read_spill_jsonl(ok).unwrap().interval_cycles, 5);
        assert!(read_spill_jsonl("not json").is_err());
    }

    #[test]
    fn spill_reader_rejects_absurd_indices_instead_of_allocating() {
        // a corrupt line with a huge index must be a clean error, not a
        // terabyte-scale placeholder allocation
        let text = "{\"interval_cycles\": 5}\n\
            {\"worker\": 0, \"frame\": {\"index\": 1099511627776, \"start_cycle\": 0, \
             \"tasks_delta\": 0, \"injected_delta\": 0, \"ejected_delta\": 0, \
             \"router_busy\": [], \"pu_busy\": [], \"iq_occupancy\": []}}\n";
        let err = read_spill_jsonl(text).unwrap_err();
        assert!(err.contains("exceeds"), "unexpected error: {err}");
    }

    #[test]
    fn downsampling_compacts_sparse_grids_to_one_pair_per_tile() {
        // the memory bound depends on merged frames not accumulating one
        // (tile, value) pair per absorbed capture
        let mut sink = FrameSink::new(10, Some(4), 0, None);
        let tiles = 8u32;
        let captures = 512u64;
        for i in 0..captures {
            let mut f = frame(0, 1);
            f.start_cycle = i * 10;
            f.pu_busy = (0..tiles).map(|t| (t, 1)).collect();
            f.router_busy = vec![(i as u32 % tiles, 2)];
            sink.push(f);
        }
        assert!(sink.log().len() <= 4);
        for f in &sink.log().frames {
            assert!(
                f.pu_busy.len() <= tiles as usize,
                "frame {} holds {} pu pairs for {} tiles",
                f.index,
                f.pu_busy.len(),
                tiles
            );
            assert!(f.router_busy.len() <= tiles as usize);
        }
        // and compaction conserved the dense totals
        let pu_total: u64 = sink
            .log()
            .frames
            .iter()
            .flat_map(|f| f.pu_grid(tiles))
            .map(u64::from)
            .sum();
        assert_eq!(pu_total, captures * tiles as u64);
        let router_total: u64 = sink
            .log()
            .frames
            .iter()
            .flat_map(|f| f.router_grid(tiles))
            .map(u64::from)
            .sum();
        assert_eq!(router_total, captures * 2);
    }
}
