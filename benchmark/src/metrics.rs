//! The names every later change refers to: end-to-end and per-layer
//! metrics with their units. `BENCHMARK.json` lists the same names (a
//! unit test compares the two) and holds the bounds.

/// Where a per-layer reading comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The traced simulate call of the workload itself; 0 on a workload
    /// that does not use the layer.
    Workload,
    /// A fixed-size probe of the layer, the same in every traced run.
    Probe,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// A simulated count: identical on every run of the same commit,
    /// seed and workload, so two sets must agree on it exactly.
    pub exact: bool,
    pub source: Source,
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: false,
        source,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: true,
        source: Source::Workload,
    }
}

/// What a user of the simulator sees, defined the same way on every
/// workload: host throughput, set-up time and memory. Two more figures
/// ride along. Failed over attempted simulations is the `failed` /
/// `attempted` pair of every result line: it is 0 on a sound commit, so
/// it cannot carry a relative bound. `host_s`, the wall time of the
/// simulate call, is a per-layer metric: it is `events_per_s` upside
/// down times an event count that moves up to 30 % with the seed of a
/// BFS input, and a bound on it would mostly judge the seeds drawn.
pub const END_TO_END: [Metric; 3] = [
    timed("events_per_s", "1/s", "higher", Source::Workload),
    timed("setup_s", "s", "lower", Source::Workload),
    timed("peak_rss_mib", "MiB", "lower", Source::Workload),
];

use Source::{Probe, Workload};

pub const PER_LAYER: [Metric; 63] = [
    // the simulate call as a whole
    timed("host_s", "s", "lower", Workload),
    // data
    timed("data.rmat_gen_s", "s", "lower", Probe),
    timed("data.grid_gen_s", "s", "lower", Probe),
    // config
    timed("config.build_us", "us", "lower", Probe),
    // apps
    timed("apps.new_s", "s", "lower", Workload),
    // core
    timed("core.new_s", "s", "lower", Workload),
    timed("core.run_s", "s", "lower", Workload),
    timed("core.phase.pu_s", "s", "lower", Workload),
    timed("core.phase.inject_s", "s", "lower", Workload),
    timed("core.phase.net_s", "s", "lower", Workload),
    timed("core.phase.worklist_s", "s", "lower", Workload),
    timed("core.unattributed_s", "s", "lower", Workload),
    timed("core.thread_speedup", "ratio", "higher", Workload),
    timed("core.cpu_s", "s", "lower", Workload),
    timed("core.ns_per_sim_cycle", "ns", "lower", Workload),
    exact("core.state_bytes_per_tile", "B", "lower"),
    exact("core.snapshot_count", "count", "higher"),
    exact("core.snapshot_bytes", "B", "lower"),
    timed("core.capture_overhead_s", "s", "lower", Workload),
    timed("core.capture_overhead_frac", "ratio", "lower", Workload),
    timed("core.restore_s", "s", "lower", Workload),
    // noc
    timed("noc.uniform_ns_per_flit_hop", "ns", "lower", Probe),
    timed("noc.hotspot_ns_per_flit_hop", "ns", "lower", Probe),
    timed("noc.idle_step_ns", "ns", "lower", Probe),
    timed("noc.new_s", "s", "lower", Probe),
    timed("noc.activeset_ns_per_op", "ns", "lower", Probe),
    timed("noc.latency_record_ns", "ns", "lower", Probe),
    exact("noc.flit_hops", "count", "lower"),
    exact("noc.injected", "count", "lower"),
    exact("noc.collisions", "count", "lower"),
    exact("noc.backpressure", "count", "lower"),
    exact("noc.eject_stalls", "count", "lower"),
    exact("noc.lat_mean_cycles", "cycles", "lower"),
    exact("noc.lat_p99_cycles", "cycles", "lower"),
    // mem
    timed("mem.access_ns", "ns", "lower", Probe),
    exact("mem.cache_hit_ratio", "ratio", "higher"),
    // traffic
    timed("traffic.schedule_gen_s", "s", "lower", Probe),
    exact("traffic.accepted_rate.lo", "pkt/tile/cycle", "higher"),
    exact("traffic.accepted_rate.mid", "pkt/tile/cycle", "higher"),
    exact("traffic.accepted_rate.hi", "pkt/tile/cycle", "higher"),
    // telemetry
    timed("telemetry.publish_ns", "ns", "lower", Probe),
    exact("telemetry.samples", "count", "higher"),
    exact("telemetry.sample_yield", "ratio", "higher"),
    // dse
    timed("dse.expand_us_per_point", "us", "lower", Probe),
    timed("dse.points_per_s", "1/s", "higher", Workload),
    timed("dse.store_append_us", "us", "lower", Workload),
    timed("dse.store_load_s", "s", "lower", Workload),
    timed("dse.table_s", "s", "lower", Workload),
    timed("dse.reprice_s", "s", "lower", Workload),
    timed("dse.resume_skip_s", "s", "lower", Workload),
    // energy, viz
    timed("energy.report_us", "us", "lower", Probe),
    timed("viz.table_render_us", "us", "lower", Probe),
    // simulated results: a speed-only change leaves all three identical
    exact("sim.runtime_cycles", "cycles", "lower"),
    exact("sim.tasks", "count", "lower"),
    exact("sim.drift", "count", "lower"),
    // harness
    timed("host.calib_ns", "ns", "lower", Probe),
    timed("host.cpus", "count", "higher", Probe),
    timed("host.speed_factor", "ratio", "higher", Workload),
    timed("bench.trace_overhead_frac", "ratio", "lower", Workload),
    timed("bench.traced_setup_s", "s", "lower", Workload),
    timed("bench.traced_host_s", "s", "lower", Workload),
    timed("bench.traced_self_sum_s", "s", "lower", Workload),
    exact("fail_share", "ratio", "lower"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde::Value;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(Workload::ALL.map(Workload::name));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.unit
            );
        }
        assert!(find("setup_s").is_some());
        assert!(find("no.such.metric").is_none());
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// names, units and directions this crate emits.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_object().expect("an object");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("{key} must be an array");
            };
            items
                .iter()
                .map(|item| {
                    let item = item.as_object().expect("metric object");
                    let field = |f: &str| {
                        item.get(f)
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |metrics: &[Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads must be an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| {
                w.as_object()
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
