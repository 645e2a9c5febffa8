//! The structured report a tripped ward terminates a run with.
//!
//! When a [`WardEngine`](muchisim_telemetry::WardEngine) predicate fires,
//! the driver does not just abort: every worker contributes a per-tile
//! backlog diagnostic, the leader folds them into a [`WardReport`], the
//! partially-completed [`SimResult`] is attached (its counters and frames
//! are valid up to the trip cycle), and — when
//! `telemetry.snapshot_on_trip` is set — a post-mortem snapshot is
//! written to the configured `checkpoint_path` for time-travel debugging
//! (`--resume` with the ward relaxed replays the run up to and past the
//! trip point).

use crate::tile::SimResult;

/// Queue backlog at one tile when a ward tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileDiag {
    /// Global tile id.
    pub tile: u32,
    /// Messages waiting in the tile's input queues.
    pub iq_msgs: u32,
    /// Messages waiting in the tile's channel (output) queues.
    pub cq_msgs: u32,
    /// Scripted sends not yet injected (synthetic traffic / replay).
    pub scripted: u32,
    /// Packets parked in the tile's router input queues, summed over
    /// NoC planes.
    pub parked_packets: u32,
}

impl TileDiag {
    /// Total backlog attributed to this tile (the ranking key).
    pub fn backlog(&self) -> u64 {
        self.iq_msgs as u64
            + self.cq_msgs as u64
            + self.scripted as u64
            + self.parked_packets as u64
    }
}

impl std::fmt::Display for TileDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile {}: iq {}, cq {}, scripted {}, parked {}",
            self.tile, self.iq_msgs, self.cq_msgs, self.scripted, self.parked_packets
        )
    }
}

/// Why and where a ward terminated the run, with enough state to debug it.
#[derive(Debug, Clone, PartialEq)]
pub struct WardReport {
    /// Ward name (`"stall"`, `"max_cycles"`, `"converged"`,
    /// `"diverged_queue"`, `"diverged_latency"`).
    pub ward: String,
    /// Simulated cycle of the sample that tripped the ward.
    pub cycle: u64,
    /// The predicate's explanation, with the numbers that crossed the
    /// threshold.
    pub detail: String,
    /// Worst-backlogged tiles across the whole grid, sorted by backlog
    /// (descending, tile id ascending as tiebreak).
    pub tiles: Vec<TileDiag>,
    /// Path of the post-mortem snapshot, when one was written.
    pub snapshot_path: Option<String>,
    /// Error from the post-mortem snapshot write, when one failed
    /// (recorded here, never masking the ward itself).
    pub snapshot_error: Option<String>,
    /// Error from the telemetry stream, when a subscriber failed (a
    /// metrics file that could not be written or closed): recorded here
    /// like `snapshot_error`.
    pub stream_error: Option<String>,
    /// The partial result: counters, frames, and latency statistics up
    /// to the trip, with `termination` set to `"ward:<name>"`.
    pub partial: Option<Box<SimResult>>,
}

impl std::fmt::Display for WardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ward `{}` tripped at cycle {}: {}",
            self.ward, self.cycle, self.detail
        )?;
        for t in &self.tiles {
            write!(f, "\n  {t}")?;
        }
        if let Some(path) = &self.snapshot_path {
            write!(f, "\n  post-mortem snapshot: {path}")?;
        }
        if let Some(err) = &self.snapshot_error {
            write!(f, "\n  post-mortem snapshot failed: {err}")?;
        }
        if let Some(err) = &self.stream_error {
            write!(f, "\n  telemetry stream failed: {err}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_sums_every_queue_class() {
        let d = TileDiag {
            tile: 7,
            iq_msgs: 1,
            cq_msgs: 2,
            scripted: 3,
            parked_packets: 4,
        };
        assert_eq!(d.backlog(), 10);
        assert!(d.to_string().contains("tile 7"));
    }

    #[test]
    fn report_display_names_the_ward_and_tiles() {
        let r = WardReport {
            ward: "stall".into(),
            cycle: 42_000,
            detail: "no task executed for 10000 cycles".into(),
            tiles: vec![TileDiag {
                tile: 3,
                iq_msgs: 0,
                cq_msgs: 0,
                scripted: 0,
                parked_packets: 9,
            }],
            snapshot_path: Some("target/trip.snap".into()),
            snapshot_error: None,
            stream_error: Some("disk full".into()),
            partial: None,
        };
        let text = r.to_string();
        assert!(
            text.contains("ward `stall` tripped at cycle 42000"),
            "{text}"
        );
        assert!(text.contains("tile 3"), "{text}");
        assert!(text.contains("target/trip.snap"), "{text}");
        assert!(
            text.contains("telemetry stream failed: disk full"),
            "{text}"
        );
    }
}
