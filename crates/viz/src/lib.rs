//! # muchisim-viz
//!
//! Data visualization and reporting (paper §III-F).
//!
//! The original framework ships a CLI plotting tool (multi-run metric
//! comparisons) and a PyQt5 GUI (per-frame time series and tile-grid
//! heat-map animations). This crate reproduces both as a library, with
//! text/CSV/PPM artifacts instead of matplotlib windows:
//!
//! * [`ReportTable`] — metrics for combinations of configurations,
//!   applications, and datasets, as CSV or aligned text, absolute or
//!   normalized to a baseline (the paper's Fig. 3/Fig. 5 style).
//! * [`TimeSeries`] — per-frame avg/min/max/stddev/quartile statistics of
//!   per-tile counters over the execution, the GUI's time-series pane.
//! * [`Heatmap`] — tile-grid activity frames as ASCII art or binary PPM
//!   images; a numbered PPM sequence is the "GIF" of the paper's Fig. 2.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod heatmap;
mod report;
mod series;

pub use heatmap::Heatmap;
pub use report::{ReportRow, ReportTable};
pub use series::{Counter, FrameStats, TimeSeries};
