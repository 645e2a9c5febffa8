//! Per-frame time-series statistics (the GUI tool's pane: average,
//! min/max, standard deviation and quartiles of a per-tile counter over
//! the execution — paper §III-F).

use muchisim_config::output::csv_table;
use muchisim_core::FrameLog;
use serde::{Deserialize, Serialize};

/// Distribution statistics of a per-tile counter within one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameStats {
    /// Frame index.
    pub frame: u64,
    /// First cycle of the frame.
    pub start_cycle: u64,
    /// Mean over all tiles (absent tiles count as zero).
    pub mean: f64,
    /// Minimum.
    pub min: u32,
    /// 25th percentile.
    pub q1: u32,
    /// Median.
    pub median: u32,
    /// 75th percentile.
    pub q3: u32,
    /// Maximum.
    pub max: u32,
    /// Standard deviation.
    pub stddev: f64,
}

impl FrameStats {
    fn from_grid(frame: u64, start_cycle: u64, grid: &mut [u32]) -> Self {
        if grid.is_empty() {
            // zero-tile grids (degenerate configs, empty logs re-summarized
            // downstream) must yield a well-defined all-zero row, not an
            // index underflow in the quartile lookup
            return FrameStats {
                frame,
                start_cycle,
                ..FrameStats::default()
            };
        }
        let n = grid.len() as f64;
        let mean = grid.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = grid.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        grid.sort_unstable();
        let pick = |q: f64| grid[((grid.len() - 1) as f64 * q).round() as usize];
        FrameStats {
            frame,
            start_cycle,
            mean,
            min: *grid.first().unwrap_or(&0),
            q1: pick(0.25),
            median: pick(0.5),
            q3: pick(0.75),
            max: *grid.last().unwrap_or(&0),
            stddev: var.sqrt(),
        }
    }
}

/// Which per-tile counter of a frame to summarize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Router busy cycles.
    RouterBusy,
    /// PU busy cycles.
    PuBusy,
    /// Input-queue occupancy (verbosity V3).
    IqOccupancy,
}

/// A per-frame statistics series extracted from a [`FrameLog`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    /// One row per frame.
    pub rows: Vec<FrameStats>,
}

impl TimeSeries {
    /// Summarizes `counter` over all frames for a grid of `total_tiles`.
    pub fn from_frames(log: &FrameLog, counter: Counter, total_tiles: u32) -> Self {
        let rows = log
            .frames
            .iter()
            .map(|f| {
                let mut grid = match counter {
                    Counter::RouterBusy => f.router_grid(total_tiles),
                    Counter::PuBusy => f.pu_grid(total_tiles),
                    Counter::IqOccupancy => {
                        let mut g = vec![0u32; total_tiles as usize];
                        for &(t, v) in &f.iq_occupancy {
                            g[t as usize] += v;
                        }
                        g
                    }
                };
                FrameStats::from_grid(f.index, f.start_cycle, &mut grid)
            })
            .collect();
        TimeSeries { rows }
    }

    /// Serializes to CSV: one column per [`FrameStats`] field.
    pub fn to_csv(&self) -> String {
        csv_table(&self.rows)
    }

    /// The tail-imbalance signal the paper highlights: frames where the
    /// max is far above the median indicate a long execution tail.
    ///
    /// Well-defined on degenerate inputs: an empty series (verbosity V0)
    /// and all-zero frames both report 0 — never NaN, never a panic.
    pub fn tail_imbalance(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| {
                if r.median == 0 {
                    r.max as f64
                } else {
                    r.max as f64 / r.median as f64
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_core::Frame;

    fn log_with(frames: Vec<Frame>) -> FrameLog {
        FrameLog {
            interval_cycles: 100,
            frames,
        }
    }

    #[test]
    fn stats_over_sparse_frame() {
        let f = Frame {
            index: 0,
            start_cycle: 0,
            pu_busy: vec![(0, 10), (1, 20)],
            ..Default::default()
        };
        let ts = TimeSeries::from_frames(&log_with(vec![f]), Counter::PuBusy, 4);
        let r = ts.rows[0];
        assert_eq!(r.min, 0);
        assert_eq!(r.max, 20);
        assert!((r.mean - 7.5).abs() < 1e-9);
        assert_eq!(r.median, 10);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let f = Frame::default();
        let ts = TimeSeries::from_frames(&log_with(vec![f]), Counter::RouterBusy, 4);
        let csv = ts.to_csv();
        assert!(csv.starts_with("frame,start_cycle,mean"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn empty_log_yields_empty_series_and_zero_imbalance() {
        // verbosity V0 leaves an empty FrameLog; every summary must stay
        // well-defined
        let ts = TimeSeries::from_frames(&log_with(Vec::new()), Counter::PuBusy, 16);
        assert!(ts.rows.is_empty());
        assert_eq!(ts.tail_imbalance(), 0.0);
        assert_eq!(ts.to_csv().lines().count(), 1, "header only");
    }

    #[test]
    fn zero_tile_grid_is_all_zero_not_a_panic() {
        let f = Frame::default();
        let ts = TimeSeries::from_frames(&log_with(vec![f]), Counter::IqOccupancy, 0);
        let r = ts.rows[0];
        assert_eq!((r.min, r.max, r.q1, r.median, r.q3), (0, 0, 0, 0, 0));
        assert_eq!(r.mean, 0.0);
        assert!(r.stddev == 0.0, "no NaN on empty grids");
        assert_eq!(ts.tail_imbalance(), 0.0);
    }

    #[test]
    fn single_merged_frame_summarizes_cleanly() {
        // one surviving frame after aggressive budget merging
        let f = Frame {
            index: 0,
            start_cycle: 0,
            pu_busy: vec![(0, 3), (3, 9)],
            ..Default::default()
        };
        let ts = TimeSeries::from_frames(&log_with(vec![f]), Counter::PuBusy, 4);
        assert_eq!(ts.rows.len(), 1);
        assert_eq!(ts.rows[0].max, 9);
        assert!(ts.tail_imbalance().is_finite());
        assert!(ts.tail_imbalance() > 0.0);
    }

    #[test]
    fn all_zero_frames_report_zero_imbalance() {
        let f = Frame {
            index: 0,
            pu_busy: vec![(0, 0), (1, 0)],
            ..Default::default()
        };
        let ts = TimeSeries::from_frames(&log_with(vec![f]), Counter::PuBusy, 4);
        assert_eq!(ts.tail_imbalance(), 0.0);
    }

    #[test]
    fn tail_imbalance_detects_stragglers() {
        let balanced = Frame {
            index: 0,
            pu_busy: vec![(0, 10), (1, 10), (2, 10), (3, 10)],
            ..Default::default()
        };
        let skewed = Frame {
            index: 0,
            pu_busy: vec![(0, 100), (1, 2), (2, 2), (3, 2)],
            ..Default::default()
        };
        let b = TimeSeries::from_frames(&log_with(vec![balanced]), Counter::PuBusy, 4);
        let s = TimeSeries::from_frames(&log_with(vec![skewed]), Counter::PuBusy, 4);
        assert!(s.tail_imbalance() > b.tail_imbalance());
    }
}
