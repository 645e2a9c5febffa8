//! Telemetry sampling and ward (stop-condition) parameters.
//!
//! Observability is configuration, not code: [`TelemetryParams`] declares
//! *when* the running simulation snapshots a [`MetricsSample`] (every
//! `sample_every` simulated cycles, folded into the time-leap horizon so a
//! leap never skips a sample boundary) and *where* the stream goes (JSONL
//! and/or CSV files, an optional stdout progress line). On top of the
//! stream sit **wards**: declarative stop-conditions evaluated by the
//! barrier leader on the merged sample (`max_cycles`, `converged`,
//! `diverged`, and a stall watchdog) that terminate a run with a
//! structured diagnostic instead of letting a wedged configuration spin
//! forever. Everything here is plain serializable data inside
//! [`SystemConfig`](crate::SystemConfig), so every knob
//! (`telemetry.sample_every`, `telemetry.wards.stall_cycles`, ...) is
//! sweepable through the same string-keyed overrides as any DUT parameter.
//!
//! `MetricsSample` and the subscribers live in the `muchisim-telemetry`
//! crate; the sampling hook itself lives in the `muchisim-core` driver.

use serde::{Deserialize, Serialize};

/// The metric a [`ConvergedWard`] watches for settling.
///
/// All choices are *deterministic* fields of the merged sample (derived
/// from simulated state, never from host wall-clock), so a ward decision
/// is bit-identical across host-thread counts and leap/active-list modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WardMetric {
    /// Tasks executed per sample interval (delta).
    #[default]
    Tasks,
    /// Packets injected per sample interval (delta).
    Injected,
    /// Pending work items (queued messages + in-flight packets).
    Pending,
    /// Mean NoC packet latency over the sample interval.
    LatencyMean,
}

impl WardMetric {
    /// All metrics, in a stable order.
    pub const ALL: [WardMetric; 4] = [
        WardMetric::Tasks,
        WardMetric::Injected,
        WardMetric::Pending,
        WardMetric::LatencyMean,
    ];

    /// Short lowercase label (`"tasks"`, `"latency_mean"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            WardMetric::Tasks => "tasks",
            WardMetric::Injected => "injected",
            WardMetric::Pending => "pending",
            WardMetric::LatencyMean => "latency_mean",
        }
    }

    /// Parses a metric from its label, case-insensitively. The inverse of
    /// [`WardMetric::label`].
    pub fn from_label(name: &str) -> Option<WardMetric> {
        WardMetric::ALL
            .into_iter()
            .find(|m| m.label().eq_ignore_ascii_case(name))
    }
}

/// A convergence ward: stop once a metric's sample-to-sample delta stays
/// at or below `epsilon` for `window` consecutive samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergedWard {
    /// The watched metric.
    pub metric: WardMetric,
    /// Maximum absolute sample-to-sample change still counted as settled.
    pub epsilon: f64,
    /// Number of consecutive settled samples required to trip.
    pub window: u32,
}

impl Default for ConvergedWard {
    fn default() -> Self {
        ConvergedWard {
            metric: WardMetric::Tasks,
            epsilon: 0.0,
            window: 3,
        }
    }
}

/// Declarative stop-conditions evaluated on the live metric stream.
///
/// Each ward is optional and independent; the first one to trip ends the
/// run with a `SimError::Ward` carrying a per-tile/per-queue diagnostic
/// report. All predicates read only deterministic sample fields, so a
/// ward trip happens at the same simulated cycle on every host.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct WardParams {
    /// Hard cycle ceiling: trip once the sampled cycle reaches this value.
    pub max_cycles: Option<u64>,
    /// Stall watchdog: trip when no task executes and no flit moves for
    /// this many consecutive simulated cycles (rounded up to sample
    /// boundaries). Set it above the longest legitimate idle span of the
    /// workload — e.g. a barrier-heavy phase waiting on one straggler.
    pub stall_cycles: Option<u64>,
    /// Convergence predicate (metric delta below epsilon for a window).
    pub converged: Option<ConvergedWard>,
    /// Divergence predicate: trip when pending work grows past
    /// `factor ×` its first-sample baseline (queue blow-up).
    pub diverged_queue_factor: Option<f64>,
    /// Divergence predicate: trip when interval mean latency grows past
    /// `factor ×` its first-nonzero baseline (latency knee).
    pub diverged_latency_factor: Option<f64>,
}

impl WardParams {
    /// True when no ward is configured.
    pub(crate) fn is_empty(&self) -> bool {
        self.max_cycles.is_none()
            && self.stall_cycles.is_none()
            && self.converged.is_none()
            && self.diverged_queue_factor.is_none()
            && self.diverged_latency_factor.is_none()
    }
}

/// Telemetry stream + ward configuration.
///
/// Default-constructed telemetry is fully off (`sample_every: None`): the
/// driver takes no samples, allocates no channel, and the hot loop is
/// untouched. Sampling is observation, never perturbation — enabling it
/// changes no simulated outcome, only host-side work at sample
/// boundaries.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct TelemetryParams {
    /// Sample cadence in simulated cycles (`None` disables telemetry).
    pub sample_every: Option<u64>,
    /// JSONL metrics stream destination (one schema-versioned object per
    /// sample).
    pub metrics_path: Option<String>,
    /// CSV metrics stream destination (header + one row per sample).
    pub metrics_csv: Option<String>,
    /// Print a live progress line (`cycle / sim-cyc/s / active% / ETA`)
    /// to stdout.
    pub progress: bool,
    /// Declarative stop-conditions evaluated on each merged sample.
    pub wards: WardParams,
    /// On a ward trip, write a post-mortem snapshot to the configured
    /// `checkpoint_path` before terminating (requires one).
    pub snapshot_on_trip: bool,
}

impl TelemetryParams {
    /// True when any stream, ward, or progress output is requested.
    pub fn wants_sampling(&self) -> bool {
        self.metrics_path.is_some()
            || self.metrics_csv.is_some()
            || self.progress
            || !self.wards.is_empty()
    }

    /// True when the driver must take samples at all.
    pub fn enabled(&self) -> bool {
        self.sample_every.is_some() && self.wants_sampling()
    }

    /// Validates the telemetry parameters in isolation (cross-field rules
    /// against checkpointing live in `SystemConfig::validate`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Telemetry`](crate::ConfigError::Telemetry)
    /// naming the first invalid setting.
    pub(crate) fn validate(&self) -> Result<(), crate::ConfigError> {
        let bad = |why| Err(crate::ConfigError::Telemetry { why });
        if self.sample_every == Some(0) {
            return bad("sample_every must be at least one cycle");
        }
        if self.sample_every.is_none() && self.wants_sampling() {
            return bad("metrics streams, wards and progress require sample_every");
        }
        let w = &self.wards;
        if w.max_cycles == Some(0) {
            return bad("max_cycles ward must allow at least one cycle");
        }
        if w.stall_cycles == Some(0) {
            return bad("stall watchdog needs a non-zero cycle span");
        }
        if let Some(c) = &w.converged {
            if !c.epsilon.is_finite() || c.epsilon < 0.0 {
                return bad("converged epsilon must be finite and non-negative");
            }
            if c.window == 0 {
                return bad("converged window must cover at least one sample");
            }
        }
        for (factor, which) in [
            (w.diverged_queue_factor, "diverged_queue_factor"),
            (w.diverged_latency_factor, "diverged_latency_factor"),
        ] {
            if let Some(fac) = factor {
                if !fac.is_finite() || fac <= 1.0 {
                    return match which {
                        "diverged_queue_factor" => {
                            bad("diverged_queue_factor must be a finite value above 1")
                        }
                        _ => bad("diverged_latency_factor must be a finite value above 1"),
                    };
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_and_valid() {
        let p = TelemetryParams::default();
        assert!(p.validate().is_ok());
        assert!(!p.enabled());
        assert!(!p.wants_sampling());
        assert!(p.wards.is_empty());
    }

    #[test]
    fn metric_labels_round_trip_case_insensitively() {
        for m in WardMetric::ALL {
            assert_eq!(WardMetric::from_label(m.label()), Some(m));
            assert_eq!(WardMetric::from_label(&m.label().to_uppercase()), Some(m));
        }
        assert_eq!(WardMetric::from_label("nope"), None);
    }

    #[test]
    fn invalid_params_are_rejected_with_reasons() {
        let check = |mutate: fn(&mut TelemetryParams), needle: &str| {
            let mut p = TelemetryParams {
                sample_every: Some(1_000),
                ..Default::default()
            };
            mutate(&mut p);
            let err = p.validate().expect_err(needle).to_string();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        };
        check(|p| p.sample_every = Some(0), "sample_every");
        check(
            |p| {
                p.sample_every = None;
                p.progress = true;
            },
            "sample_every",
        );
        check(|p| p.wards.max_cycles = Some(0), "max_cycles");
        check(|p| p.wards.stall_cycles = Some(0), "stall");
        check(
            |p| {
                p.wards.converged = Some(ConvergedWard {
                    epsilon: -1.0,
                    ..ConvergedWard::default()
                })
            },
            "epsilon",
        );
        check(
            |p| {
                p.wards.converged = Some(ConvergedWard {
                    window: 0,
                    ..ConvergedWard::default()
                })
            },
            "window",
        );
        check(
            |p| p.wards.diverged_queue_factor = Some(1.0),
            "diverged_queue",
        );
        check(
            |p| p.wards.diverged_latency_factor = Some(f64::NAN),
            "diverged_latency",
        );
    }

    #[test]
    fn enabled_needs_cadence_and_a_consumer() {
        let mut p = TelemetryParams {
            sample_every: Some(500),
            ..TelemetryParams::default()
        };
        // cadence alone samples nothing: there is nobody to tell
        assert!(!p.enabled());
        p.wards.stall_cycles = Some(10_000);
        assert!(p.enabled());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn serde_round_trip_and_old_configs_default() {
        let p = TelemetryParams {
            sample_every: Some(1_024),
            metrics_path: Some("m.jsonl".into()),
            wards: WardParams {
                stall_cycles: Some(50_000),
                converged: Some(ConvergedWard::default()),
                ..WardParams::default()
            },
            ..TelemetryParams::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: TelemetryParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        // a pre-telemetry config (empty object) deserializes to defaults
        let old: TelemetryParams = serde_json::from_str("{}").unwrap();
        assert_eq!(old, TelemetryParams::default());
    }
}
