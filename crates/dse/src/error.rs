//! Errors of the design-space-exploration subsystem.

use muchisim_config::ConfigError;
use muchisim_core::SimError;
use std::fmt;

/// Why a sweep could not be specified, executed, or reported.
#[derive(Debug)]
pub enum DseError {
    /// The experiment spec is malformed (bad JSON, missing fields,
    /// unknown apps or dataset kinds, empty axes, ...).
    Spec(String),
    /// A parameter override could not be parsed or applied.
    Override(String),
    /// An overridden configuration failed [`muchisim_config`] validation.
    Config(ConfigError),
    /// A simulation failed to run.
    Sim(SimError),
    /// The result store could not be read or written.
    Store(String),
    /// A sweep point sets a single-writer host-side output option that
    /// cannot coexist with batch execution: concurrent points would
    /// clobber one shared file, and a checkpoint-resumed point would
    /// replay writes into it. Names the offending configuration key and
    /// the first run that sets it.
    ResumeIncompatible {
        /// The rejected configuration key (`"noc_trace"`,
        /// `"checkpoint_path"`, `"telemetry.metrics_path"` or
        /// `"telemetry.metrics_csv"`).
        key: &'static str,
        /// The run ID of the first point setting the key.
        run_id: String,
    },
    /// Reading or writing a file failed.
    Io(std::io::Error),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Spec(msg) => write!(f, "invalid experiment spec: {msg}"),
            DseError::Override(msg) => write!(f, "invalid parameter override: {msg}"),
            DseError::Config(e) => write!(f, "invalid configuration: {e}"),
            DseError::Sim(e) => write!(f, "simulation failed: {e}"),
            DseError::Store(msg) => write!(f, "result store error: {msg}"),
            DseError::ResumeIncompatible { key, run_id } => write!(
                f,
                "point `{run_id}` sets {key}, which is unsupported in sweeps \
                 (concurrent points would clobber one shared file, and a \
                 resumed point would replay writes into it); run it via \
                 `muchisim run`"
            ),
            DseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Config(e) => Some(e),
            DseError::Sim(e) => Some(e),
            DseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for DseError {
    fn from(e: ConfigError) -> Self {
        DseError::Config(e)
    }
}

impl From<SimError> for DseError {
    fn from(e: SimError) -> Self {
        DseError::Sim(e)
    }
}

impl From<std::io::Error> for DseError {
    fn from(e: std::io::Error) -> Self {
        DseError::Io(e)
    }
}
