//! Next-event horizons for the time-leaping cycle driver.
//!
//! Every layer that can hold latent work — tile engines (queued tasks
//! waiting for a PU clock), channel queues, DRAM channel backlogs, NoC
//! shards and cross-shard mailboxes — answers one question through its
//! own `next_event_cycle` (`Worker::horizon` for the tiles): *given the
//! current cycle, what is the earliest future cycle at which you can do
//! anything?* The driver min-reduces those horizons across workers and,
//! when the answer is further than one cycle away, jumps the clock
//! straight there instead of stepping barrier-pair by barrier-pair
//! through cycles where provably nothing happens.
//!
//! A horizon is *exact*, never a heuristic: leaping to it must leave
//! every counter, queue, and statistics frame bit-identical to the
//! lockstep driver. Anything a component cannot bound precisely it must
//! clamp to `now + 1` (no leap).

use muchisim_config::SystemConfig;

/// Integer-femtosecond conversions between the PU and NoC clock domains.
///
/// The lockstep driver compared clock instants with `f64` picosecond
/// products, which made dispatch eligibility and leap targets vulnerable
/// to disagreeing by a rounding ulp at non-integer periods. All hot-loop
/// comparisons now go through this one struct so the two can never
/// diverge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockConv {
    /// PU clock period in femtoseconds.
    pub pu_period_fs: u64,
    /// NoC clock period in femtoseconds.
    pub noc_period_fs: u64,
    /// Whether the two domains tick in lockstep (the common 1:1
    /// configuration). The conversions below are on the per-tile
    /// per-cycle hot path, and the general case pays a 128-bit division
    /// per call; equal periods make every conversion the identity.
    same_period: bool,
}

impl ClockConv {
    pub fn from_system(cfg: &SystemConfig) -> Self {
        let pu_period_fs = cfg.pu_clock.operating.period_fs();
        let noc_period_fs = cfg.noc_clock.operating.period_fs();
        ClockConv {
            pu_period_fs,
            noc_period_fs,
            same_period: pu_period_fs == noc_period_fs,
        }
    }

    /// Whether a PU whose clock stands at `pu_cycle` has been caught up
    /// by NoC time `noc_cycle` (the §III-C dispatch-eligibility rule).
    pub fn pu_ready(&self, pu_cycle: u64, noc_cycle: u64) -> bool {
        if self.same_period {
            return pu_cycle <= noc_cycle;
        }
        pu_cycle as u128 * self.pu_period_fs as u128
            <= noc_cycle as u128 * self.noc_period_fs as u128
    }

    /// The first NoC cycle at or after the PU-clock instant `pu_cycle`
    /// (the cycle at which [`ClockConv::pu_ready`] turns true).
    pub fn noc_cycle_for_pu(&self, pu_cycle: u64) -> u64 {
        if self.same_period {
            return pu_cycle;
        }
        let fs = pu_cycle as u128 * self.pu_period_fs as u128;
        u64::try_from(fs.div_ceil(self.noc_period_fs as u128)).unwrap_or(u64::MAX)
    }

    /// PU cycles fully elapsed at NoC cycle `noc_cycle` (floor).
    pub fn pu_cycle_floor(&self, noc_cycle: u64) -> u64 {
        if self.same_period {
            return noc_cycle;
        }
        let fs = noc_cycle as u128 * self.noc_period_fs as u128;
        u64::try_from(fs / self.pu_period_fs as u128).unwrap_or(u64::MAX)
    }

    /// The femtosecond instant of PU cycle `pu_cycle`.
    pub fn pu_cycle_fs(&self, pu_cycle: u64) -> u64 {
        u64::try_from(pu_cycle as u128 * self.pu_period_fs as u128).unwrap_or(u64::MAX)
    }

    /// The first NoC cycle at or after the absolute instant `fs`.
    pub fn noc_cycle_for_fs(&self, fs: u64) -> u64 {
        (fs as u128).div_ceil(self.noc_period_fs as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::Frequency;

    fn conv(pu_ghz: f64, noc_ghz: f64) -> ClockConv {
        let mut b = SystemConfig::builder();
        b.pu_frequency(Frequency::ghz(pu_ghz))
            .noc_frequency(Frequency::ghz(noc_ghz));
        ClockConv::from_system(&b.build().unwrap())
    }

    #[test]
    fn equal_clocks_are_one_to_one() {
        let c = conv(1.0, 1.0);
        assert!(c.pu_ready(5, 5));
        assert!(!c.pu_ready(6, 5));
        assert_eq!(c.noc_cycle_for_pu(7), 7);
        assert_eq!(c.pu_cycle_floor(7), 7);
    }

    #[test]
    fn faster_pu_clock_ratio() {
        // 2 GHz PU over 1 GHz NoC: 2 PU cycles per NoC cycle
        let c = conv(2.0, 1.0);
        assert!(c.pu_ready(10, 5));
        assert!(!c.pu_ready(11, 5));
        assert_eq!(c.noc_cycle_for_pu(11), 6);
        assert_eq!(c.pu_cycle_floor(5), 10);
    }

    #[test]
    fn dispatch_and_horizon_agree_at_awkward_ratios() {
        // the satellite bug: 1.5 GHz PU vs 1 GHz NoC used to be decided
        // in f64 ps; now the leap target is *defined* as the first cycle
        // where pu_ready flips, so the two cannot disagree
        let c = conv(1.5, 1.0);
        for pu_cycle in 0..1000u64 {
            let target = c.noc_cycle_for_pu(pu_cycle);
            assert!(c.pu_ready(pu_cycle, target), "ready at its own horizon");
            if target > 0 {
                assert!(
                    !c.pu_ready(pu_cycle, target - 1),
                    "pu {pu_cycle} ready before horizon {target}"
                );
            }
        }
    }

    #[test]
    fn equal_period_fast_path_matches_general_formula() {
        let fast = conv(1.0, 1.0);
        assert!(fast.same_period);
        let slow = ClockConv {
            same_period: false,
            ..fast
        };
        for x in [0u64, 1, 7, 1000, 123_456_789] {
            assert_eq!(fast.noc_cycle_for_pu(x), slow.noc_cycle_for_pu(x));
            assert_eq!(fast.pu_cycle_floor(x), slow.pu_cycle_floor(x));
            for y in [0u64, 1, 7, 999, 123_456_789] {
                assert_eq!(fast.pu_ready(x, y), slow.pu_ready(x, y));
            }
        }
    }

    #[test]
    fn fs_round_trip() {
        let c = conv(1.0, 1.0);
        assert_eq!(c.pu_cycle_fs(3), 3_000_000);
        assert_eq!(c.noc_cycle_for_fs(3_000_000), 3);
        assert_eq!(c.noc_cycle_for_fs(3_000_001), 4);
    }
}
