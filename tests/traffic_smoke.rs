//! Synthetic traffic through the full stack: the suite harness, both
//! cycle drivers, and the latency telemetry.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{SystemConfig, TrafficPattern};
use muchisim::data::synthetic::grid_2d;
use std::sync::Arc;

fn cfg(leap: bool) -> SystemConfig {
    let mut cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .time_leap(leap)
        .build()
        .unwrap();
    cfg.traffic.cycles = 250;
    cfg.traffic.rate = 0.1;
    cfg
}

#[test]
fn all_traffic_benchmarks_run_clean_through_the_suite() {
    let graph = Arc::new(grid_2d(2, 2)); // ignored, like FFT's
    assert_eq!(Benchmark::TRAFFIC.len(), 6);
    for bench in Benchmark::TRAFFIC {
        let result = run_benchmark(bench, cfg(true), &graph, 2)
            .unwrap_or_else(|e| panic!("{bench} failed: {e}"));
        assert!(
            result.check_error.is_none(),
            "{bench}: {:?}",
            result.check_error
        );
        assert!(
            result.counters.noc.injected > 200,
            "{bench} injected too little"
        );
        assert_eq!(
            result.noc_latency.count, result.counters.noc.ejected,
            "{bench}: one latency sample per delivery"
        );
        assert!(result.noc_latency.mean() > 0.0, "{bench}");
    }
}

#[test]
fn traffic_is_bit_identical_across_the_leap_ablation() {
    // the time-leaping driver jumps between scheduled injections; the
    // result must not change (same guarantee the app suite has). Past
    // the knee (rate 0.5) the timetables outrun the inject queues, and
    // refused sends sleep until their queue returns credit
    let graph = Arc::new(grid_2d(2, 2));
    for (pattern, rate) in [
        (TrafficPattern::Hotspot, 0.1),
        (TrafficPattern::Hotspot, 0.5),
        (TrafficPattern::UniformRandom, 0.5),
    ] {
        let bench = Benchmark::Traffic(pattern);
        let run = |leap: bool| {
            let mut c = cfg(leap);
            c.traffic.rate = rate;
            run_benchmark(bench, c, &graph, 1).unwrap()
        };
        let (leaped, lockstep) = (run(true), run(false));
        assert!(
            leaped.check_error.is_none(),
            "{bench}: {:?}",
            leaped.check_error
        );
        assert_eq!(
            leaped.runtime_cycles, lockstep.runtime_cycles,
            "{bench} at {rate}"
        );
        assert_eq!(leaped.counters, lockstep.counters, "{bench} at {rate}");
        assert_eq!(
            leaped.noc_latency, lockstep.noc_latency,
            "{bench} at {rate}"
        );
    }
}
