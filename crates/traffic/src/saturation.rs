//! Latency-versus-offered-load characterization and saturation detection.
//!
//! The standard NoC design-exploration experiment: sweep the offered
//! load, measure mean/percentile packet latency at each point, and locate
//! the *saturation throughput* — the load at which latency departs from
//! its zero-load plateau and the network stops accepting what is offered.
//! Each point is one full simulation of a [`TrafficApp`], so the curve
//! reflects the whole modeled stack (inject queues, link serialization,
//! backpressure, eject contention), and every point is deterministic.

use crate::app::TrafficApp;
use muchisim_config::output::csv_table;
use muchisim_config::{SystemConfig, TrafficPattern};
use muchisim_core::{SimError, SimResult, Simulation};
use serde::{Deserialize, Serialize};

/// Measurements at one offered-load point.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Offered load in packets/tile/cycle (the configured rate).
    pub offered: f64,
    /// Accepted throughput in packets/tile/cycle: deliveries divided by
    /// the cycles the network actually needed (at least the injection
    /// window; beyond saturation the drain tail stretches it, so this
    /// plateaus at capacity while `offered` keeps growing).
    pub achieved: f64,
    /// Mean packet latency in NoC cycles (generation → ejection, source
    /// queueing included).
    pub avg_latency: f64,
    /// Median latency (log₂-bucket resolution).
    pub p50_latency: u64,
    /// 95th-percentile latency.
    pub p95_latency: u64,
    /// 99th-percentile latency.
    pub p99_latency: u64,
    /// Maximum latency (exact).
    pub max_latency: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub ejected: u64,
    /// Total simulated cycles (drain and termination included).
    pub runtime_cycles: u64,
}

/// A CSV row of a curve: its series label, then the point's columns.
#[derive(Default, Serialize)]
struct SeriesPoint {
    series: String,
    point: LoadPoint,
}

/// A latency-versus-load curve for one pattern on one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationCurve {
    /// The spatial pattern swept.
    pub pattern: TrafficPattern,
    /// One measurement per offered rate, in sweep order.
    pub points: Vec<LoadPoint>,
}

impl SaturationCurve {
    /// Zero-load baseline latency: the mean at the lowest offered rate.
    pub fn base_latency(&self) -> Option<f64> {
        self.points.first().map(|p| p.avg_latency)
    }

    /// The first point whose mean latency exceeds `factor ×` the
    /// zero-load baseline — the classic saturation criterion.
    pub fn saturation_point(&self, factor: f64) -> Option<&LoadPoint> {
        let base = self.base_latency()?;
        self.points
            .iter()
            .skip(1)
            .find(|p| p.avg_latency > factor * base)
    }

    /// The saturation throughput: the *accepted* rate at the saturation
    /// point, or `None` if no swept rate saturated the network.
    pub fn saturation_rate(&self, factor: f64) -> Option<f64> {
        self.saturation_point(factor).map(|p| p.achieved)
    }

    /// The curve as CSV: a `series` column labelling every point (e.g.
    /// `"mesh/uniform"`), then one column per [`LoadPoint`] field.
    pub fn to_csv(&self, series: &str) -> String {
        let rows: Vec<SeriesPoint> = self
            .points
            .iter()
            .map(|point| SeriesPoint {
                series: series.to_string(),
                point: point.clone(),
            })
            .collect();
        csv_table(&rows)
    }

    /// The curve as an aligned text table, every point labelled `series`.
    pub fn to_text(&self, series: &str) -> String {
        let mut out = format!(
            "{:<16} {:>8} {:>9} {:>9} {:>6} {:>6} {:>6} {:>7}\n",
            "series", "offered", "achieved", "avg lat", "p50", "p95", "p99", "max"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{series:<16} {:>8.4} {:>9.4} {:>9.2} {:>6} {:>6} {:>6} {:>7}\n",
                p.offered,
                p.achieved,
                p.avg_latency,
                p.p50_latency,
                p.p95_latency,
                p.p99_latency,
                p.max_latency
            ));
        }
        out
    }
}

/// Runs one offered-load point: `base` with `traffic.rate = rate` and
/// `pattern`, on `threads` host threads.
///
/// # Errors
///
/// Propagates configuration and engine errors; a failed delivery check
/// (lost packets) is promoted to [`SimError::CheckFailed`].
pub fn run_point(
    base: &SystemConfig,
    pattern: TrafficPattern,
    rate: f64,
    threads: usize,
) -> Result<LoadPoint, SimError> {
    let mut cfg = base.clone();
    cfg.traffic.rate = rate;
    let app = TrafficApp::new(&cfg, pattern)?;
    let window = cfg.traffic.cycles;
    let result = Simulation::new(cfg.clone(), app)?.run_parallel(threads)?;
    if let Some(why) = &result.check_error {
        return Err(SimError::CheckFailed(why.clone()));
    }
    Ok(load_point(&cfg, &result, rate, window))
}

fn load_point(cfg: &SystemConfig, result: &SimResult, rate: f64, window: u64) -> LoadPoint {
    let tiles = cfg.total_tiles() as f64;
    // cycles the network was actually busy: runtime minus the fixed
    // idleness-confirmation tail, floored at the injection window
    let active = result
        .runtime_cycles
        .saturating_sub(cfg.termination_latency_cycles())
        .max(window);
    let lat = &result.noc_latency;
    LoadPoint {
        offered: rate,
        achieved: result.counters.noc.ejected as f64 / (tiles * active as f64),
        avg_latency: lat.mean(),
        p50_latency: lat.percentile(0.50),
        p95_latency: lat.percentile(0.95),
        p99_latency: lat.percentile(0.99),
        max_latency: lat.max_cycles,
        injected: result.counters.noc.injected,
        ejected: result.counters.noc.ejected,
        runtime_cycles: result.runtime_cycles,
    }
}

/// Sweeps `rates` (ascending offered load) for `pattern` over `base`,
/// producing the latency-versus-load curve.
///
/// # Errors
///
/// Propagates the first failing point.
pub fn saturation_sweep(
    base: &SystemConfig,
    pattern: TrafficPattern,
    rates: &[f64],
    threads: usize,
) -> Result<SaturationCurve, SimError> {
    let points = rates
        .iter()
        .map(|&rate| run_point(base, pattern, rate, threads))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SaturationCurve { pattern, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::TrafficParams;

    fn base() -> SystemConfig {
        let traffic = TrafficParams {
            cycles: 600,
            ..TrafficParams::default()
        };
        SystemConfig::builder()
            .chiplet_tiles(4, 4)
            .pus_per_tile(4)
            .traffic(traffic)
            .build()
            .unwrap()
    }

    #[test]
    fn latency_grows_with_offered_load() {
        let curve =
            saturation_sweep(&base(), TrafficPattern::UniformRandom, &[0.02, 0.6], 1).unwrap();
        assert_eq!(curve.points.len(), 2);
        let (lo, hi) = (&curve.points[0], &curve.points[1]);
        assert!(lo.avg_latency > 0.0);
        assert!(
            hi.avg_latency > 2.0 * lo.avg_latency,
            "latency must climb toward saturation: {} -> {}",
            lo.avg_latency,
            hi.avg_latency
        );
        assert!(
            hi.achieved < hi.offered,
            "saturated point accepts less than offered"
        );
        assert!(lo.p50_latency <= lo.p95_latency);
        assert!(lo.p95_latency <= lo.max_latency);
    }

    #[test]
    fn saturation_detection_finds_the_knee() {
        let curve =
            saturation_sweep(&base(), TrafficPattern::UniformRandom, &[0.02, 0.1, 0.6], 1).unwrap();
        let sat = curve
            .saturation_point(3.0)
            .expect("0.6 saturates a 4x4 mesh");
        assert_eq!(sat.offered, 0.6);
        let rate = curve.saturation_rate(3.0).unwrap();
        assert!(
            rate > 0.0 && rate < 0.6,
            "accepted rate at saturation: {rate}"
        );
        // an unsaturated curve reports none
        let calm = SaturationCurve {
            pattern: TrafficPattern::UniformRandom,
            points: curve.points[..2].to_vec(),
        };
        assert!(calm.saturation_point(3.0).is_none());
        assert!(SaturationCurve {
            pattern: TrafficPattern::UniformRandom,
            points: Vec::new()
        }
        .saturation_rate(3.0)
        .is_none());
    }

    fn point(offered: f64, lat: f64) -> LoadPoint {
        LoadPoint {
            offered,
            achieved: offered * 0.9,
            avg_latency: lat,
            p50_latency: lat as u64,
            p95_latency: lat as u64 * 2,
            p99_latency: lat as u64 * 3,
            max_latency: lat as u64 * 4,
            injected: 0,
            ejected: 0,
            runtime_cycles: 0,
        }
    }

    #[test]
    fn csv_and_text_agree_on_rows() {
        let curve = SaturationCurve {
            pattern: TrafficPattern::UniformRandom,
            points: vec![point(0.02, 8.5), point(0.3, 210.0)],
        };
        let csv = curve.to_csv("mesh");
        assert!(csv.starts_with(
            "series,offered,achieved,avg_latency,p50_latency,p95_latency,p99_latency,\
             max_latency,injected,ejected,runtime_cycles\n"
        ));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.ends_with("\nmesh,0.3,0.27,210.0,210,420,630,840,0,0,0\n"));
        let text = curve.to_text("mesh");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("avg lat"));
    }

    #[test]
    fn empty_curve_renders_headers_only() {
        let curve = SaturationCurve {
            pattern: TrafficPattern::UniformRandom,
            points: Vec::new(),
        };
        assert_eq!(curve.to_csv("mesh").lines().count(), 1);
        assert_eq!(curve.to_text("mesh").lines().count(), 1);
    }
}
