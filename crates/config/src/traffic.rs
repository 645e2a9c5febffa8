//! Synthetic-traffic parameters.
//!
//! NoC simulators are traditionally characterized with synthetic traffic
//! patterns (BookSim-style): every tile injects packets at a configurable
//! *offered load* toward destinations chosen by a spatial pattern, and
//! the latency-versus-load curve locates the network's saturation
//! throughput. [`TrafficParams`] is the declarative half of that
//! capability: plain serializable data living inside
//! [`SystemConfig`](crate::SystemConfig), so every knob (`traffic.rate`,
//! `traffic.seed`, ...) is sweepable through the same string-keyed
//! overrides as any other DUT parameter. The pattern is the workload's
//! choice (the `traf-*` suite apps), not a knob. The generator itself
//! lives in the `muchisim-traffic` crate.

use serde::{Deserialize, Serialize};

/// A synthetic spatial traffic pattern (destination choice per packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Destination uniformly random over all other tiles.
    #[default]
    UniformRandom,
    /// Coordinate complement: `(x, y) → (w-1-x, h-1-y)`, the longest
    /// deterministic paths (equals bit-complement on power-of-two grids).
    BitComplement,
    /// Generalized matrix transpose on the tile index:
    /// `y·w + x → x·h + y` (a bijection on any `w × h` grid).
    Transpose,
    /// Perfect shuffle (bit rotation) on power-of-two tile counts; a
    /// seed-derived pseudorandom permutation otherwise.
    Shuffle,
    /// Each tile sends to its east neighbor (wrapping), the minimal-hop
    /// extreme.
    NearestNeighbor,
    /// A fraction of the traffic converges on a few hotspot tiles; the
    /// rest is uniform random.
    Hotspot,
}

impl TrafficPattern {
    /// All patterns, in a stable order.
    pub const ALL: [TrafficPattern; 6] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
        TrafficPattern::Shuffle,
        TrafficPattern::NearestNeighbor,
        TrafficPattern::Hotspot,
    ];

    /// Short lowercase label (`"uniform"`, `"transpose"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::BitComplement => "bitcomp",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::NearestNeighbor => "neighbor",
            TrafficPattern::Hotspot => "hotspot",
        }
    }

    /// Parses a pattern from its label or serde variant name,
    /// case-insensitively. The inverse of [`TrafficPattern::label`].
    pub fn from_label(name: &str) -> Option<TrafficPattern> {
        TrafficPattern::ALL.into_iter().find(|p| {
            p.label().eq_ignore_ascii_case(name)
                || (p.to_value().as_str()).is_some_and(|v| v.eq_ignore_ascii_case(name))
        })
    }
}

/// Synthetic traffic-generator configuration.
///
/// Offered load is expressed in *packets per tile per NoC cycle*
/// (Bernoulli injection process per tile per cycle, the standard open-loop
/// model); payload sizes are drawn uniformly from
/// `[payload_words_min, payload_words_max]` 32-bit words. Generation is
/// deterministic: each tile derives its own RNG stream from `seed`, so
/// results are bit-identical across host-thread counts and repeat runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficParams {
    /// Offered load in packets per tile per NoC cycle (0 < rate ≤ 1).
    pub rate: f64,
    /// Injection-window length in NoC cycles (the run then drains).
    pub cycles: u64,
    /// Minimum payload size in 32-bit words.
    pub payload_words_min: u32,
    /// Maximum payload size in 32-bit words.
    pub payload_words_max: u32,
    /// Number of hotspot destination tiles ([`TrafficPattern::Hotspot`]).
    pub hotspot_targets: u32,
    /// Fraction of packets aimed at the hotspot set (0 ≤ f ≤ 1).
    pub hotspot_fraction: f64,
    /// Master RNG seed; per-tile streams are derived from it.
    pub seed: u64,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            rate: 0.05,
            cycles: 2_000,
            payload_words_min: 2,
            payload_words_max: 2,
            hotspot_targets: 4,
            hotspot_fraction: 0.5,
            seed: 0xD1CE,
        }
    }
}

impl TrafficParams {
    /// Validates the traffic parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Traffic`](crate::ConfigError::Traffic)
    /// naming the first invalid setting.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        let bad = |why| Err(crate::ConfigError::Traffic { why });
        if !self.rate.is_finite() || self.rate < 0.0 || self.rate > 1.0 {
            return bad("rate must be a finite value in [0, 1]");
        }
        if self.cycles == 0 {
            return bad("injection window must span at least one cycle");
        }
        if self.payload_words_min > self.payload_words_max {
            return bad("payload_words_min exceeds payload_words_max");
        }
        if self.hotspot_targets == 0 {
            return bad("hotspot pattern needs at least one target tile");
        }
        if !self.hotspot_fraction.is_finite() || !(0.0..=1.0).contains(&self.hotspot_fraction) {
            return bad("hotspot_fraction must be a finite value in [0, 1]");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(TrafficParams::default().validate().is_ok());
    }

    #[test]
    fn labels_round_trip_case_insensitively() {
        for p in TrafficPattern::ALL {
            assert_eq!(TrafficPattern::from_label(p.label()), Some(p));
            assert_eq!(
                TrafficPattern::from_label(&p.label().to_uppercase()),
                Some(p)
            );
        }
        // serde variant names parse too (`--pattern UniformRandom`)
        assert_eq!(
            TrafficPattern::from_label("UniformRandom"),
            Some(TrafficPattern::UniformRandom)
        );
        assert_eq!(TrafficPattern::from_label("nope"), None);
    }

    #[test]
    fn invalid_params_are_rejected_with_reasons() {
        let check = |mutate: fn(&mut TrafficParams), needle: &str| {
            let mut p = TrafficParams::default();
            mutate(&mut p);
            let err = p.validate().expect_err(needle).to_string();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        };
        check(|p| p.rate = -0.1, "rate");
        check(|p| p.rate = 1.5, "rate");
        check(|p| p.rate = f64::NAN, "rate");
        check(|p| p.cycles = 0, "window");
        check(|p| p.payload_words_min = 9, "payload_words_min");
        check(|p| p.hotspot_targets = 0, "hotspot");
        check(|p| p.hotspot_fraction = 2.0, "hotspot_fraction");
    }

    #[test]
    fn serde_round_trip() {
        let p = TrafficParams {
            rate: 0.125,
            ..TrafficParams::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: TrafficParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
