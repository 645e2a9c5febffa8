//! Latency-versus-offered-load characterization and saturation detection.
//!
//! The standard NoC design-exploration experiment: sweep the offered
//! load, measure mean/percentile packet latency at each point, and locate
//! the *saturation throughput* — the load at which latency departs from
//! its zero-load plateau and the network stops accepting what is offered.
//! Each point is one full simulation of a [`TrafficApp`](crate::TrafficApp)
//! (`muchisim traffic sweep` runs them as design-space points into a
//! result store), so the curve reflects the whole modeled stack (inject
//! queues, link serialization, backpressure, eject contention), and
//! every point is deterministic. [`LoadPoint::of`] reads a point off
//! a run's configuration and result.

use muchisim_config::output::csv_table;
use muchisim_config::SystemConfig;
use muchisim_core::SimResult;
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

impl LoadPoint {
    /// The point a run of `result` under `cfg` measured: offered load
    /// `cfg.traffic.rate` over the injection window `cfg.traffic.cycles`.
    pub fn of(cfg: &SystemConfig, result: &SimResult) -> LoadPoint {
        let tiles = cfg.total_tiles() as f64;
        // cycles the network was actually busy: runtime minus the fixed
        // idleness-confirmation tail, floored at the injection window
        let active = result
            .runtime_cycles
            .saturating_sub(cfg.termination_latency_cycles())
            .max(cfg.traffic.cycles);
        let lat = &result.noc_latency;
        LoadPoint {
            offered: cfg.traffic.rate,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficApp;
    use muchisim_config::{TrafficParams, TrafficPattern};
    use muchisim_core::Simulation;

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

    /// Uniform-random traffic on [`base`] at each of `rates`.
    fn sweep(rates: &[f64]) -> SaturationCurve {
        let point = |&rate: &f64| {
            let mut cfg = base();
            cfg.traffic.rate = rate;
            let app = TrafficApp::new(&cfg, TrafficPattern::UniformRandom).unwrap();
            let result = Simulation::new(cfg.clone(), app).unwrap().run().unwrap();
            assert!(result.check_error.is_none(), "{:?}", result.check_error);
            LoadPoint::of(&cfg, &result)
        };
        SaturationCurve {
            points: rates.iter().map(point).collect(),
        }
    }

    #[test]
    fn latency_grows_with_offered_load() {
        let curve = sweep(&[0.02, 0.6]);
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
        let curve = sweep(&[0.02, 0.1, 0.6]);
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
            points: curve.points[..2].to_vec(),
        };
        assert!(calm.saturation_point(3.0).is_none());
        assert!(SaturationCurve { points: Vec::new() }
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
        let curve = SaturationCurve { points: Vec::new() };
        assert_eq!(curve.to_csv("mesh").lines().count(), 1);
        assert_eq!(curve.to_text("mesh").lines().count(), 1);
    }
}
