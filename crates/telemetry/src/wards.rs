//! Ward evaluation: declarative stop-conditions on the sample stream.

use muchisim_config::{WardMetric, WardParams};

use crate::sample::MetricsSample;

/// A tripped ward: which predicate fired, where, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct WardTrip {
    /// Ward name (`"stall"`, `"max_cycles"`, `"converged"`,
    /// `"diverged_queue"`, `"diverged_latency"`).
    pub ward: &'static str,
    /// Simulated cycle of the sample that tripped it.
    pub cycle: u64,
    /// Human-readable explanation with the numbers that crossed the
    /// threshold.
    pub detail: String,
}

/// Evaluates [`WardParams`] against consecutive [`MetricsSample`]s.
///
/// Stateful (stall ages, convergence windows, divergence baselines) and
/// strictly deterministic: it reads only simulation-derived sample
/// fields, so with identical configs it trips at the same cycle on every
/// host. Predicates are checked in a fixed order — `max_cycles`, stall,
/// queue divergence, latency divergence, convergence — and the first hit
/// wins.
#[derive(Debug)]
pub struct WardEngine {
    params: WardParams,
    /// Last sample cycle showing any task/packet/flit movement (starts
    /// at the run's first cycle so a slow warm-up gets the full span).
    last_progress_cycle: u64,
    /// Previous value of the convergence metric.
    prev_metric: Option<f64>,
    /// Consecutive settled samples seen so far.
    settled: u32,
    /// First-sample pending backlog (clamped ≥ 1), the queue-growth
    /// baseline.
    baseline_pending: Option<i64>,
    /// First nonzero interval latency mean, the latency-knee baseline.
    baseline_lat_mean: Option<f64>,
}

impl WardEngine {
    /// Creates an engine for a run starting (or resuming) at
    /// `start_cycle`.
    pub fn new(params: WardParams, start_cycle: u64) -> Self {
        WardEngine {
            params,
            last_progress_cycle: start_cycle,
            prev_metric: None,
            settled: 0,
            baseline_pending: None,
            baseline_lat_mean: None,
        }
    }

    /// Feeds one sample; returns the first tripped ward, if any.
    pub fn observe(&mut self, s: &MetricsSample) -> Option<WardTrip> {
        let trip = |ward, detail| {
            Some(WardTrip {
                ward,
                cycle: s.cycle,
                detail,
            })
        };

        if let Some(limit) = self.params.max_cycles {
            if s.cycle >= limit {
                return trip(
                    "max_cycles",
                    format!("cycle {} reached the {limit}-cycle ceiling", s.cycle),
                );
            }
        }

        let moved = s.tasks_delta > 0
            || s.injected_delta > 0
            || s.ejected_delta > 0
            || s.flit_hops_delta > 0;
        if moved {
            self.last_progress_cycle = s.cycle;
        } else if let Some(span) = self.params.stall_cycles {
            let idle = s.cycle.saturating_sub(self.last_progress_cycle);
            if idle >= span {
                return trip(
                    "stall",
                    format!(
                        "no task executed and no flit moved for {idle} cycles \
                         (watchdog span {span}; {} messages queued, {} packets pending)",
                        s.queued_msgs, s.pending
                    ),
                );
            }
        }

        if let Some(factor) = self.params.diverged_queue_factor {
            let base = *self.baseline_pending.get_or_insert(s.pending.max(1));
            if (s.pending as f64) >= factor * base as f64 {
                return trip(
                    "diverged_queue",
                    format!(
                        "pending work grew to {} from a baseline of {base} \
                         (threshold {factor}x)",
                        s.pending
                    ),
                );
            }
        }

        if let Some(factor) = self.params.diverged_latency_factor {
            if self.baseline_lat_mean.is_none() && s.lat_delta_mean > 0.0 {
                self.baseline_lat_mean = Some(s.lat_delta_mean);
            } else if let Some(base) = self.baseline_lat_mean {
                if s.lat_delta_mean >= factor * base {
                    return trip(
                        "diverged_latency",
                        format!(
                            "interval latency mean hit {:.1} cycles from a baseline \
                             of {base:.1} (threshold {factor}x)",
                            s.lat_delta_mean
                        ),
                    );
                }
            }
        }

        if let Some(conv) = &self.params.converged {
            let value = match conv.metric {
                WardMetric::Tasks => s.tasks_delta as f64,
                WardMetric::Injected => s.injected_delta as f64,
                WardMetric::Pending => s.pending as f64,
                WardMetric::LatencyMean => s.lat_delta_mean,
            };
            if let Some(prev) = self.prev_metric {
                if (value - prev).abs() <= conv.epsilon {
                    self.settled += 1;
                } else {
                    self.settled = 0;
                }
                if self.settled >= conv.window {
                    return trip(
                        "converged",
                        format!(
                            "{} delta stayed within {} for {} consecutive samples \
                             (latest value {value})",
                            conv.metric.label(),
                            conv.epsilon,
                            conv.window
                        ),
                    );
                }
            }
            self.prev_metric = Some(value);
        }

        None
    }
}

#[cfg(test)]
mod tests {
    use muchisim_config::ConvergedWard;

    use super::*;

    fn sample(cycle: u64, tasks_delta: u64) -> MetricsSample {
        MetricsSample {
            cycle,
            tasks_delta,
            ..MetricsSample::default()
        }
    }

    #[test]
    fn unarmed_engine_never_trips() {
        let mut e = WardEngine::new(WardParams::default(), 0);
        assert!(e.observe(&sample(1_000_000, 0)).is_none());
    }

    #[test]
    fn max_cycles_trips_at_the_ceiling() {
        let params = WardParams {
            max_cycles: Some(5_000),
            ..WardParams::default()
        };
        let mut e = WardEngine::new(params, 0);
        assert!(e.observe(&sample(4_999, 1)).is_none());
        let t = e.observe(&sample(5_000, 1)).expect("trip");
        assert_eq!(t.ward, "max_cycles");
        assert_eq!(t.cycle, 5_000);
    }

    #[test]
    fn stall_watchdog_needs_a_full_idle_span() {
        let params = WardParams {
            stall_cycles: Some(2_000),
            ..WardParams::default()
        };
        let mut e = WardEngine::new(params, 0);
        // progress at cycle 1000 resets the watchdog
        assert!(e.observe(&sample(1_000, 7)).is_none());
        // idle but not long enough
        assert!(e.observe(&sample(2_000, 0)).is_none());
        let t = e.observe(&sample(3_000, 0)).expect("trip");
        assert_eq!(t.ward, "stall");
        assert!(t.detail.contains("2000 cycles"), "{}", t.detail);
        // flit movement alone counts as progress
        let mut e = WardEngine::new(
            WardParams {
                stall_cycles: Some(2_000),
                ..WardParams::default()
            },
            0,
        );
        let moving = MetricsSample {
            cycle: 5_000,
            flit_hops_delta: 1,
            ..MetricsSample::default()
        };
        assert!(e.observe(&moving).is_none());
    }

    #[test]
    fn queue_divergence_measures_against_first_sample() {
        let params = WardParams {
            diverged_queue_factor: Some(4.0),
            ..WardParams::default()
        };
        let mut e = WardEngine::new(params, 0);
        let mut s = sample(100, 1);
        s.pending = 10;
        assert!(e.observe(&s).is_none());
        s.cycle = 200;
        s.pending = 39;
        assert!(e.observe(&s).is_none());
        s.cycle = 300;
        s.pending = 40;
        let t = e.observe(&s).expect("trip");
        assert_eq!(t.ward, "diverged_queue");
        assert!(t.detail.contains("baseline of 10"), "{}", t.detail);
    }

    #[test]
    fn latency_divergence_waits_for_a_nonzero_baseline() {
        let params = WardParams {
            diverged_latency_factor: Some(3.0),
            ..WardParams::default()
        };
        let mut e = WardEngine::new(params, 0);
        let mut s = sample(100, 1);
        s.lat_delta_mean = 0.0; // drain interval: no baseline yet
        assert!(e.observe(&s).is_none());
        s.cycle = 200;
        s.lat_delta_mean = 8.0; // baseline
        assert!(e.observe(&s).is_none());
        s.cycle = 300;
        s.lat_delta_mean = 23.9;
        assert!(e.observe(&s).is_none());
        s.cycle = 400;
        s.lat_delta_mean = 24.0;
        let t = e.observe(&s).expect("trip");
        assert_eq!(t.ward, "diverged_latency");
    }

    #[test]
    fn convergence_needs_the_full_window() {
        let params = WardParams {
            converged: Some(ConvergedWard {
                metric: WardMetric::Tasks,
                epsilon: 0.5,
                window: 2,
            }),
            ..WardParams::default()
        };
        let mut e = WardEngine::new(params, 0);
        assert!(e.observe(&sample(100, 50)).is_none()); // no prev yet
        assert!(e.observe(&sample(200, 50)).is_none()); // settled 1/2
        let t = e.observe(&sample(300, 50)).expect("trip"); // settled 2/2
        assert_eq!(t.ward, "converged");
        assert!(t.detail.contains("tasks"), "{}", t.detail);
        // a jump resets the window
        let params = WardParams {
            converged: Some(ConvergedWard {
                metric: WardMetric::Tasks,
                epsilon: 0.5,
                window: 2,
            }),
            ..WardParams::default()
        };
        let mut e = WardEngine::new(params, 0);
        assert!(e.observe(&sample(100, 50)).is_none());
        assert!(e.observe(&sample(200, 50)).is_none());
        assert!(e.observe(&sample(300, 90)).is_none()); // reset
        assert!(e.observe(&sample(400, 90)).is_none()); // settled 1/2
        assert!(e.observe(&sample(500, 90)).is_some());
    }
}
