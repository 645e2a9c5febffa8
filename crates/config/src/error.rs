//! Configuration validation errors.

use std::error::Error;
use std::fmt;

/// An error produced while validating a [`SystemConfig`].
///
/// [`SystemConfig`]: crate::SystemConfig
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A hierarchy level has a zero-sized extent.
    EmptyExtent {
        /// The offending level ("chiplet", "package", "node", "cluster").
        level: &'static str,
    },
    /// The NoC width is zero or not a multiple of 8 bits.
    InvalidNocWidth {
        /// The rejected width in bits.
        bits: u32,
    },
    /// A tile must contain at least one PU.
    NoPus,
    /// SRAM per tile must be non-zero.
    NoSram,
    /// The Ruche factor must be at least 2 and divide the chiplet dimension.
    InvalidRucheFactor {
        /// The rejected factor.
        factor: u32,
    },
    /// Queue capacities must be non-zero.
    EmptyQueue {
        /// Which queue ("input", "channel").
        queue: &'static str,
    },
    /// Operating frequency exceeds the peak design frequency.
    OperatingAbovePeak {
        /// Which clock domain ("pu", "noc").
        domain: &'static str,
    },
    /// No physical NoC configured.
    NoNocs,
    /// The DRAM configuration requests zero channels.
    NoDramChannels,
    /// The synthetic-traffic parameters are invalid.
    Traffic {
        /// What is wrong with them.
        why: &'static str,
    },
    /// The checkpoint options are inconsistent (missing path, zero
    /// cadence, or combined with an option snapshots cannot capture).
    Checkpoint {
        /// What is wrong with them.
        why: &'static str,
    },
    /// The telemetry/ward parameters are invalid.
    Telemetry {
        /// What is wrong with them.
        why: &'static str,
    },
    /// The application cannot run on a grid that is not square.
    NonSquareGrid {
        /// The application's label.
        app: &'static str,
        /// The grid's width and height in tiles.
        grid: (u32, u32),
    },
    /// A size is beyond what the simulator's 32-bit ids and counters can
    /// hold.
    LimitExceeded {
        /// Which size.
        what: &'static str,
        /// The largest supported value.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyExtent { level } => {
                write!(f, "hierarchy level `{level}` has a zero-sized extent")
            }
            ConfigError::InvalidNocWidth { bits } => {
                write!(
                    f,
                    "NoC width of {bits} bits is not a positive multiple of 8"
                )
            }
            ConfigError::NoPus => write!(f, "a tile must contain at least one PU"),
            ConfigError::NoSram => write!(f, "SRAM per tile must be non-zero"),
            ConfigError::InvalidRucheFactor { factor } => {
                write!(
                    f,
                    "ruche factor {factor} must be >= 2 and divide the chiplet width"
                )
            }
            ConfigError::EmptyQueue { queue } => {
                write!(f, "{queue} queue capacity must be non-zero")
            }
            ConfigError::OperatingAbovePeak { domain } => {
                write!(
                    f,
                    "{domain} operating frequency exceeds its peak design frequency"
                )
            }
            ConfigError::NoNocs => write!(f, "at least one physical NoC is required"),
            ConfigError::NoDramChannels => {
                write!(f, "DRAM configuration requests zero channels")
            }
            ConfigError::Traffic { why } => write!(f, "invalid traffic parameters: {why}"),
            ConfigError::Checkpoint { why } => {
                write!(f, "invalid checkpoint configuration: {why}")
            }
            ConfigError::Telemetry { why } => {
                write!(f, "invalid telemetry configuration: {why}")
            }
            ConfigError::NonSquareGrid { app, grid: (w, h) } => {
                write!(f, "a square grid is required by {app}, not {w}x{h}")
            }
            ConfigError::LimitExceeded { what, max } => {
                write!(f, "{what} exceeds the supported maximum of {max}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        let msgs = [
            ConfigError::EmptyExtent { level: "chiplet" }.to_string(),
            ConfigError::InvalidNocWidth { bits: 3 }.to_string(),
            ConfigError::NoPus.to_string(),
            ConfigError::NoSram.to_string(),
            ConfigError::InvalidRucheFactor { factor: 1 }.to_string(),
            ConfigError::EmptyQueue { queue: "input" }.to_string(),
            ConfigError::OperatingAbovePeak { domain: "pu" }.to_string(),
            ConfigError::NoNocs.to_string(),
            ConfigError::NoDramChannels.to_string(),
            ConfigError::Traffic { why: "rate" }.to_string(),
            ConfigError::Checkpoint { why: "path" }.to_string(),
            ConfigError::Telemetry { why: "cadence" }.to_string(),
            ConfigError::NonSquareGrid {
                app: "FFT",
                grid: (8, 4),
            }
            .to_string(),
            ConfigError::LimitExceeded {
                what: "the tile grid",
                max: 9,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "{m}");
            let acronym = m.starts_with("SRAM") || m.starts_with("NoC") || m.starts_with("DRAM");
            assert!(m.chars().next().unwrap().is_lowercase() || acronym, "{m}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ConfigError>();
    }
}
