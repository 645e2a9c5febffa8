//! Simulation errors.

use crate::ward::WardReport;
use muchisim_config::ConfigError;
use std::error::Error;
use std::fmt;

/// An error constructing or running a simulation.
///
/// (`PartialEq` only, not `Eq`: [`SimError::Ward`] carries a partial
/// [`SimResult`](crate::SimResult), whose floating-point fields rule out
/// total equality.)
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The system configuration failed validation.
    Config(ConfigError),
    /// The application declares more task types than the engine supports.
    TooManyTaskTypes {
        /// Declared count.
        declared: u8,
    },
    /// The application's task-invocation graph has a cycle, which the
    /// paper forbids to avoid network deadlock (§III-B).
    CyclicTaskGraph,
    /// The application's result check failed.
    CheckFailed(
        /// The application's failure description.
        String,
    ),
    /// The NoC trace file could not be created or written.
    Trace(
        /// Description of the I/O failure.
        String,
    ),
    /// A checkpoint snapshot could not be written, read, or validated
    /// (I/O failure, corruption, version mismatch, or a configuration
    /// that does not match the snapshot).
    Snapshot(
        /// Description of the failure.
        String,
    ),
    /// A telemetry ward terminated the run. The report carries the
    /// tripped predicate, per-tile queue diagnostics, and the partial
    /// result up to the trip cycle.
    Ward(
        /// The structured trip report.
        Box<WardReport>,
    ),
    /// A telemetry stream (samples and, at verbosity ≥ V1, frames) could
    /// not be created or written, or one of its subscribers panicked.
    Telemetry(
        /// Description of the I/O failure.
        String,
    ),
    /// A worker thread panicked (an application task, or a broken
    /// simulator invariant). Its peers were released from the cycle
    /// barrier and the run was abandoned; there is no partial result.
    WorkerPanic {
        /// Index of the first worker that panicked.
        worker: usize,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::TooManyTaskTypes { declared } => {
                write!(
                    f,
                    "{declared} task types exceed the supported maximum of 32"
                )
            }
            SimError::CyclicTaskGraph => {
                write!(
                    f,
                    "task-invocation graph has a cycle (network deadlock hazard)"
                )
            }
            SimError::CheckFailed(why) => write!(f, "result check failed: {why}"),
            SimError::Trace(why) => write!(f, "NoC trace failed: {why}"),
            SimError::Snapshot(why) => write!(f, "snapshot failed: {why}"),
            SimError::Ward(report) => write!(f, "{report}"),
            SimError::Telemetry(why) => write!(f, "telemetry stream failed: {why}"),
            SimError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::CyclicTaskGraph.to_string().contains("cycle"));
        assert!(SimError::CheckFailed("boom".into())
            .to_string()
            .contains("boom"));
        let e = SimError::Config(ConfigError::NoPus);
        assert!(e.to_string().contains("invalid configuration"));
        assert!(SimError::Snapshot("bad magic".into())
            .to_string()
            .contains("snapshot failed: bad magic"));
        let ward = SimError::Ward(Box::new(crate::ward::WardReport {
            ward: "stall".into(),
            cycle: 10,
            detail: "wedged".into(),
            tiles: Vec::new(),
            snapshot_path: None,
            snapshot_error: None,
            stream_error: None,
            partial: None,
        }));
        assert!(ward.to_string().contains("ward `stall` tripped"));
        assert!(SimError::Telemetry("no space".into())
            .to_string()
            .contains("telemetry stream failed"));
        let panic = SimError::WorkerPanic {
            worker: 3,
            message: "index out of bounds".into(),
        };
        assert_eq!(panic.to_string(), "worker 3 panicked: index out of bounds");
    }

    #[test]
    fn source_chains_config_error() {
        let e = SimError::Config(ConfigError::NoPus);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&SimError::CyclicTaskGraph).is_none());
    }
}
