//! Host-speed calibration.
//!
//! The recording host is a small shared VM whose speed moves between
//! levels 20–50 % apart, each lasting tens of seconds: longer than a
//! run, so repeating inside a run cannot average it away, and ten runs
//! of one commit then spread wider than any usable bound. A fixed
//! integer kernel that contains no simulator code slows down by most of
//! the same factor. It is timed just before and just after every
//! iteration, and the iteration's times are scaled to the speed at which
//! the kernel takes [`REF_NS`]. A faster simulator does not move the
//! kernel, so a change shows in the scaled times at its full size; a
//! slower host moves both, and mostly cancels.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Dependent xorshift steps per timed loop.
const STEPS: u64 = 1_500_000;

/// What one loop takes on the recording host's quiet level (1.5 ns per
/// step). Scaled seconds are seconds of that host at that level.
pub const REF_NS: f64 = 2_250_000.0;

fn timed_loop_ns() -> f64 {
    let started = Instant::now();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64
}

/// Nanoseconds the kernel takes right now: the median of five loops, so
/// a single preempted loop does not count (about 12 ms in all).
pub fn sample_ns() -> f64 {
    median(&[(); 5].map(|()| timed_loop_ns()))
}

/// The factor that scales a time measured between two samples to the
/// reference speed.
pub fn speed_factor(before_ns: f64, after_ns: f64) -> f64 {
    REF_NS / ((before_ns + after_ns) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_at_the_reference_speed_and_shrinks_slow_hosts_times() {
        assert_eq!(speed_factor(REF_NS, REF_NS), 1.0);
        // a host at half speed takes twice as long: its times are halved
        assert_eq!(speed_factor(2.0 * REF_NS, 2.0 * REF_NS), 0.5);
        assert!(sample_ns() > 0.0);
    }
}
