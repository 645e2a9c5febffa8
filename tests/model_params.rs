//! Every model parameter is read by some model.
//!
//! A parameter under `params` that no model reads is accepted by `--set`
//! and by a DSE axis, stored, and then ignored: a sweep along it returns
//! identical rows. This test scales each numeric leaf under `params`
//! ×100 (a zero default becomes 1), applies it through the same override
//! path `--set` uses, and requires that some model output moves on at
//! least one of two reference DUTs. The traffic generator's settings
//! (`traffic.*`) get the same guard against the timetable they draw.

use muchisim::config::{
    ClockDomain, DramConfig, Frequency, InterposerKind, LinkClass, SystemConfig, TrafficPattern,
};
use muchisim::core::{Application, GridInfo, SimCounters};
use muchisim::dse::{apply_to_config, parse_assignment};
use muchisim::energy::Report;
use muchisim::mem::{ChannelMap, TileMemory};
use muchisim::noc::TopoInfo;
use muchisim::traffic::TrafficApp;
use serde_json::JsonValue;

/// A DUT on which every model has something to compute: 16×2-tile
/// chiplets (16 columns, so the HBM channels per device do not clamp),
/// every hierarchy level 2×1 (all four link classes exist), DRAM, an SRAM
/// past the latency-step threshold and clocks off the 1 GHz
/// characterization point and below their peak.
fn reference_dut(interposer: InterposerKind) -> SystemConfig {
    let clock = ClockDomain {
        peak: Frequency::ghz(2.0),
        operating: Frequency::ghz(1.5),
    };
    SystemConfig::builder()
        .chiplet_tiles(16, 2)
        .package_chiplets(2, 1)
        .node_packages(2, 1)
        .cluster_nodes(2, 1)
        .dram(DramConfig::default())
        .sram_kib_per_tile(1024)
        .pu_clock(clock)
        .noc_clock(clock)
        .interposer(interposer)
        .build()
        .expect("the reference DUT is valid")
}

/// Counters with every numeric field non-zero, each a different value.
fn busy_counters() -> SimCounters {
    fn fill(v: &mut JsonValue, next: &mut u64) {
        match v {
            JsonValue::Number(_) => {
                *next += 1;
                *v = serde_json::from_str(&next.to_string()).expect("a number");
            }
            JsonValue::Array(items) => items.iter_mut().for_each(|i| fill(i, next)),
            JsonValue::Object(map) => {
                let keys: Vec<String> = map.keys().cloned().collect();
                for k in keys {
                    fill(map.get_mut(&k).expect("a listed key"), next);
                }
            }
            _ => {}
        }
    }
    let text = serde_json::to_string(&SimCounters::default()).expect("counters serialize");
    let mut tree: JsonValue = serde_json::from_str(&text).expect("counters parse");
    fill(&mut tree, &mut 0);
    let text = serde_json::to_string(&tree).expect("the tree serializes");
    serde_json::from_str(&text).expect("filled counters deserialize")
}

/// `(path, value)` of every leaf below `v` (anything but an object).
fn leaves(v: &JsonValue, path: &str, out: &mut Vec<(String, JsonValue)>) {
    match v.as_object() {
        Some(map) => {
            for (k, child) in map.iter() {
                leaves(child, &format!("{path}.{k}"), out);
            }
        }
        None => out.push((path.to_string(), v.clone())),
    }
}

/// Everything the models compute from a configuration.
fn model_outputs(cfg: &SystemConfig, counters: &SimCounters) -> String {
    let hops = [
        LinkClass::OnChip,
        LinkClass::DieToDie,
        LinkClass::OffPackage,
        LinkClass::InterNode,
    ]
    .map(|class| cfg.hop_extra_cycles(class));
    format!(
        "{:?}\n{}\n{hops:?}\n{:?}\n{:?}\n{:?}",
        Report::from_counters(cfg, counters),
        cfg.sram_latency_cycles(),
        TopoInfo::from_system(cfg),
        TileMemory::from_system(cfg),
        ChannelMap::from_system(cfg),
    )
}

#[test]
fn every_model_parameter_moves_a_model_output() {
    let counters = busy_counters();
    let duts = [
        reference_dut(InterposerKind::OrganicSubstrate),
        reference_dut(InterposerKind::SiliconInterposer),
    ];
    let baselines: Vec<String> = duts
        .iter()
        .map(|cfg| model_outputs(cfg, &counters))
        .collect();

    let params = serde_json::to_string(&duts[0].params).expect("params serialize");
    let params: JsonValue = serde_json::from_str(&params).expect("params parse");
    let mut all = Vec::new();
    leaves(&params, "params", &mut all);
    let numeric: Vec<(String, f64)> = all
        .into_iter()
        .filter_map(|(path, v)| Some((path, v.as_f64()?)))
        .collect();
    assert!(numeric.len() > 40, "only {} leaves found", numeric.len());

    let mut unread = Vec::new();
    for (path, value) in &numeric {
        let scaled = if *value == 0.0 { 1.0 } else { value * 100.0 };
        let assignment = parse_assignment(&format!("{path}={scaled}")).expect("an assignment");
        let moved = duts.iter().zip(&baselines).any(|(cfg, baseline)| {
            let changed = apply_to_config(cfg, std::slice::from_ref(&assignment))
                .unwrap_or_else(|e| panic!("{path}={scaled}: {e}"));
            model_outputs(&changed, &counters) != *baseline
        });
        if !moved {
            unread.push(path.clone());
        }
    }
    assert!(unread.is_empty(), "no model reads {unread:?}");
}

/// Every tile's timetable as a small `Hotspot` workload draws it on `cfg`.
fn hotspot_timetable(cfg: &SystemConfig) -> String {
    let app = TrafficApp::new(cfg, TrafficPattern::Hotspot).expect("a valid workload");
    let grid = GridInfo {
        width: cfg.width(),
        height: cfg.height(),
        total_tiles: cfg.total_tiles() as u32,
        pus_per_tile: cfg.pus_per_tile,
    };
    (0..grid.total_tiles)
        .map(|tile| {
            format!(
                "{:?}\n",
                app.scheduled_sends(tile, &grid).collect::<Vec<_>>()
            )
        })
        .collect()
}

/// Other values for a numeric leaf, to try in order: doubled (a zero
/// integer becomes one), then halved. A leaf that is no number has none.
fn other_values(v: &JsonValue) -> Vec<String> {
    if let Some(n) = v.as_u64() {
        vec![(n * 2).max(1).to_string(), (n / 2).to_string()]
    } else if let Some(x) = v.as_f64() {
        vec![(x * 2.0).to_string(), (x / 2.0).to_string()]
    } else {
        Vec::new()
    }
}

#[test]
fn every_traffic_setting_moves_the_drawn_timetable() {
    // 8x8, so that doubling the 4 hotspots gives 8 distinct tiles
    let mut base = SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .build()
        .expect("an 8x8 grid");
    base.traffic.cycles = 100;
    let baseline = hotspot_timetable(&base);

    let traffic = serde_json::to_string(&base.traffic).expect("traffic serializes");
    let traffic: JsonValue = serde_json::from_str(&traffic).expect("traffic parses");
    let mut settings = Vec::new();
    leaves(&traffic, "traffic", &mut settings);
    assert!(settings.len() >= 7, "only {} leaves found", settings.len());

    let mut unread = Vec::new();
    for (path, value) in &settings {
        let changed = other_values(value)
            .into_iter()
            .filter_map(|v| parse_assignment(&format!("{path}={v}")).ok())
            .find_map(|assignment| apply_to_config(&base, &[assignment]).ok())
            .unwrap_or_else(|| panic!("no other valid value for {path}"));
        if hotspot_timetable(&changed) == baseline {
            unread.push(path.clone());
        }
    }
    assert!(unread.is_empty(), "the drawn timetable ignores {unread:?}");
}
