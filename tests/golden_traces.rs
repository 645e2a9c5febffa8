//! Golden-trace regression tests: fixed-seed checksums of the full
//! counter set and the per-frame activity grids for the 8-app suite on
//! small grids across all three topologies (mesh, folded torus, Ruche).
//!
//! These pin the *simulated behavior* bit-for-bit, so host-side state
//! refactors (lazy router queues, pooled tile state, streaming frame
//! aggregation) are provably behavior-preserving: any change to a
//! counter, a frame delta, or an activity grid changes a checksum.
//! Every key is additionally re-run under the other three
//! (time-leap x active-list) combinations, which must all reproduce the
//! committed checksum — the speed layers are pure host-side shortcuts.
//!
//! Those 72 rows are single-thread artifacts on grids up to 8x8. Two
//! more rows pin the thread axis directly: the split-invariant
//! `schedule_checksum` of a hub-congested BFS on a 32x32 mesh, run at 2
//! and at 4 host threads (`@t2` / `@t4` keys).
//!
//! Four `MILL-*` rows (one per TSU policy, and round-robin over two
//! physical NoCs) pin the tile queue paths the suite leaves cold — see
//! `common/mod.rs` for which and why.
//!
//! Five `TRAF-*` rows pin the scripted-injection path, which no suite
//! app takes: uniform-random traffic past saturation and hotspot traffic
//! on an 8x8 mesh and folded torus, plus the uniform torus point at 2
//! host threads. Past saturation the timetables outrun the inject
//! queues, so the rows also pin how refused sends wait and retry.
//!
//! To regenerate after an *intentional* model change (each test rewrites
//! only its own rows of the file):
//!
//! ```text
//! MUCHISIM_BLESS=1 cargo test --test golden_traces
//! ```

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{NocTopology, SystemConfig, Verbosity};
use muchisim::core::digest::{schedule_checksum, trace_checksum as checksum};
use muchisim::data::rmat::RmatConfig;
use serde_json::JsonValue;
use std::sync::{Arc, Mutex};

mod common;
use common::{mill_config, mill_policies, Mill, KICK_CYCLES};
use muchisim::core::{SimResult, Simulation};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/traces.json");
const GRAPH_SEED: u64 = 0xC0FF_EE00;
const GRAPH_SCALE: u32 = 5; // 32 vertices, enough traffic on 8x8

/// RMAT scale of the hub-congested 32x32 point: 256 vertices whose
/// highest-degree root floods a 1024-tile mesh, so most router visits of
/// the run are back-pressured ones.
const HUB_GRAPH_SCALE: u32 = 8;

/// Rewrites `rows` (key, JSON object) in the golden file, keeping every
/// other row and the row order as committed, so each test blesses only
/// what it owns.
fn bless_rows(rows: &[(String, String)]) {
    static FILE: Mutex<()> = Mutex::new(());
    let _one_writer = FILE.lock().unwrap_or_else(|e| e.into_inner());
    // one row per line: `  "KEY": {...}` with an optional trailing comma
    let mut kept: Vec<(String, String)> = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let (key, body) = line.trim().strip_prefix('"')?.split_once("\": ")?;
            Some((key.to_string(), body.trim_end_matches(',').to_string()))
        })
        .collect();
    for (key, body) in rows {
        match kept.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = body.clone(),
            None => kept.push((key.clone(), body.clone())),
        }
    }
    let lines: Vec<String> = kept
        .iter()
        .map(|(key, body)| format!("  \"{key}\": {body}"))
        .collect();
    std::fs::write(GOLDEN_PATH, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .expect("write golden file");
    eprintln!("blessed {} rows of {GOLDEN_PATH}", rows.len());
}

/// The committed golden file.
fn load_committed() -> JsonValue {
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH} ({e}); bless with MUCHISIM_BLESS=1")
    });
    serde_json::from_str(&text).expect("golden file parses")
}

/// String field `field` of the committed row `key`.
fn committed_str<'a>(committed: &'a JsonValue, key: &str, field: &str) -> &'a str {
    committed
        .as_object()
        .and_then(|m| m.get(key))
        .and_then(JsonValue::as_object)
        .unwrap_or_else(|| panic!("{key} missing from {GOLDEN_PATH}; re-bless"))
        .get(field)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} has no `{field}` field"))
}

fn config(side: u32, topo: NocTopology, ruche: Option<u32>) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .noc_topology(topo)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(256);
    if let Some(r) = ruche {
        b.ruche_factor(r);
    }
    b.build().expect("valid golden config")
}

fn cases() -> Vec<(String, SystemConfig)> {
    let mut out = Vec::new();
    for side in [2u32, 4, 8] {
        for (name, topo, ruche) in [
            ("mesh", NocTopology::Mesh, None),
            ("torus", NocTopology::FoldedTorus, None),
            ("ruche", NocTopology::Mesh, Some(2)),
        ] {
            out.push((format!("{side}x{side}-{name}"), config(side, topo, ruche)));
        }
    }
    out
}

#[test]
fn golden_traces_match_committed_checksums() {
    let bless = std::env::var_os("MUCHISIM_BLESS").is_some();
    let graph = Arc::new(RmatConfig::scale(GRAPH_SCALE).generate(GRAPH_SEED));
    let committed: Option<JsonValue> = (!bless).then(load_committed);

    let mut blessed = Vec::new();
    let mut mismatches = Vec::new();
    let mut n = 0usize;
    for (cfg_name, cfg) in cases() {
        let tiles = cfg.width() * cfg.height();
        for bench in Benchmark::ALL {
            let key = format!("{}-{}", bench.label(), cfg_name);
            // single-threaded: results are bit-identical for any thread
            // count (pinned by the leap/suite/worklist determinism tests),
            // and the spin-barrier driver thrashes on single-CPU CI hosts
            let result = run_benchmark(bench, cfg.clone(), &graph, 1)
                .unwrap_or_else(|e| panic!("{key} failed to run: {e}"));
            assert!(
                result.check_error.is_none(),
                "{key} verifier failed: {:?}",
                result.check_error
            );
            let hash = checksum(&result, tiles);
            if !bless {
                // time leaping is a host-side shortcut: the lockstep
                // driver must reproduce the committed trace bit-for-bit
                let mut c = cfg.clone();
                c.time_leap = false;
                let r = run_benchmark(bench, c, &graph, 1)
                    .unwrap_or_else(|e| panic!("{key} [lockstep] failed to run: {e}"));
                assert_eq!(
                    checksum(&r, tiles),
                    hash,
                    "{key}: lockstep diverged from the default leaping run"
                );
            }
            if bless {
                blessed.push((
                    key,
                    format!(
                        "{{\"hash\": \"{hash:#018x}\", \"runtime_cycles\": {}, \"frames\": {}}}",
                        result.runtime_cycles,
                        result.frames.len()
                    ),
                ));
            } else {
                let want = committed
                    .as_ref()
                    .and_then(JsonValue::as_object)
                    .and_then(|m| m.get(&key))
                    .and_then(JsonValue::as_object)
                    .unwrap_or_else(|| panic!("{key} missing from {GOLDEN_PATH}; re-bless"));
                let want_hash = want
                    .get("hash")
                    .and_then(JsonValue::as_str)
                    .expect("hash field");
                let got = format!("{hash:#018x}");
                if got != want_hash {
                    mismatches.push(format!(
                        "{key}: got {got}, committed {want_hash} \
                         (runtime {} vs committed {})",
                        result.runtime_cycles,
                        want.get("runtime_cycles")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0),
                    ));
                }
            }
            n += 1;
        }
    }
    assert_eq!(n, 72, "8 apps x 3 grids x 3 topologies");
    if bless {
        bless_rows(&blessed);
        return;
    }
    assert!(
        mismatches.is_empty(),
        "{} of {n} golden traces diverged (behavior change!):\n{}\n\
         If the model change is intentional, re-bless with MUCHISIM_BLESS=1.",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The thread axis in the goldens: BFS from the highest-degree root of
/// an RMAT-8 graph on a 32x32 mesh — hub congestion, where most router
/// visits are replayed stalls — must land on the committed
/// `schedule_checksum` at 2 and at 4 host threads.
#[test]
fn threaded_hub_congested_runs_match_committed_schedule_rows() {
    let graph = Arc::new(RmatConfig::scale(HUB_GRAPH_SCALE).generate(GRAPH_SEED));
    let cfg = config(32, NocTopology::Mesh, None);
    let tiles = cfg.width() * cfg.height();
    let mut blessed = Vec::new();
    for threads in [2usize, 4] {
        let key = format!("BFS-32x32-mesh-hub@t{threads}");
        let result = run_benchmark(Benchmark::Bfs, cfg.clone(), &graph, threads)
            .unwrap_or_else(|e| panic!("{key} failed to run: {e}"));
        assert!(
            result.check_error.is_none(),
            "{key}: {:?}",
            result.check_error
        );
        let visits = result.host_router_visits;
        assert!(
            visits.replayed > visits.evaluated_moved,
            "{key} is meant to be hub-congested: {visits:?}"
        );
        let got = format!("{:#018x}", schedule_checksum(&result, tiles));
        if std::env::var_os("MUCHISIM_BLESS").is_some() {
            blessed.push((
                key,
                format!(
                    "{{\"schedule_hash\": \"{got}\", \"runtime_cycles\": {}}}",
                    result.runtime_cycles
                ),
            ));
            continue;
        }
        assert_eq!(
            got,
            committed_str(&load_committed(), &key, "schedule_hash"),
            "{key}: schedule diverged from the committed row (runtime {})",
            result.runtime_cycles
        );
    }
    if !blessed.is_empty() {
        bless_rows(&blessed);
    }
}

fn run_mill(cfg: SystemConfig, threads: usize, key: &str) -> SimResult {
    let result = Simulation::new(cfg, Mill)
        .expect("valid simulation")
        .run_parallel(threads)
        .unwrap_or_else(|e| panic!("{key} failed to run: {e}"));
    assert!(
        result.check_error.is_none(),
        "{key}: {:?}",
        result.check_error
    );
    result
}

/// The tile queue paths (see `common/mod.rs`): each policy's run must
/// land on its committed trace under both drivers, on its committed
/// schedule at 2 threads, and again when split into a checkpointed and a
/// resumed half — with the counters that prove the paths were live. The
/// `-2planes` row runs round-robin over two physical NoCs: `Mill`'s two
/// task types then inject on different planes, so one plane's inject
/// queue can refuse a tile while the other takes its sends.
#[test]
fn queue_path_rows_match_committed_checksums() {
    let mut blessed = Vec::new();
    let planes = mill_policies().map(|(label, policy)| (label, policy, 1));
    let two_planes = ("rr", muchisim::config::SchedulingPolicy::RoundRobin, 2);
    for (label, policy, nocs) in planes.into_iter().chain([two_planes]) {
        let suffix = if nocs == 1 { "" } else { "-2planes" };
        let key = format!("MILL-{label}-4x4-mesh{suffix}");
        let mut cfg = mill_config(policy, false);
        cfg.noc.num_physical = nocs;
        let tiles = cfg.width() * cfg.height();
        let result = run_mill(cfg.clone(), 1, &key);
        let (stalls, refused) = (
            result.counters.pu.cq_stall_cycles,
            result.counters.noc.eject_stalls,
        );
        assert!(
            stalls > KICK_CYCLES * 15,
            "{key}: CQ stalls {stalls} span no leap"
        );
        assert!(refused > 0, "{key}: no ejection was refused");
        let trace = |r: &SimResult| format!("{:#018x}", checksum(r, tiles));
        let schedule = |r: &SimResult| format!("{:#018x}", schedule_checksum(r, tiles));
        let row = format!(
            "{{\"hash\": \"{}\", \"schedule_hash\": \"{}\", \"runtime_cycles\": {}, \
             \"cq_stall_cycles\": {stalls}, \"eject_stalls\": {refused}}}",
            trace(&result),
            schedule(&result),
            result.runtime_cycles
        );
        if std::env::var_os("MUCHISIM_BLESS").is_some() {
            blessed.push((key, row));
            continue;
        }
        let committed = load_committed();
        let want = committed_str(&committed, &key, "hash");
        let want_schedule = committed_str(&committed, &key, "schedule_hash");
        assert_eq!(
            trace(&result),
            want,
            "{key}: trace diverged (runtime {}, CQ stalls {stalls}, refused {refused})",
            result.runtime_cycles
        );
        let mut c = cfg.clone();
        c.time_leap = false;
        let r = run_mill(c, 1, &key);
        assert_eq!(trace(&r), want, "{key}: lockstep");
        let threaded = run_mill(cfg.clone(), 2, &key);
        assert_eq!(schedule(&threaded), want_schedule, "{key}: 2 threads");
        // split two thirds in, where tile 0 still holds full IQs and the
        // senders' banks are allocated and empty again
        let path = std::env::temp_dir()
            .join(format!("muchisim-{}-{key}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut c = cfg.clone();
        c.checkpoint_path = Some(path.clone());
        c.checkpoint_every = Some(result.runtime_cycles * 2 / 3);
        let first = run_mill(c.clone(), 1, &key);
        c.checkpoint_every = None;
        c.checkpoint_resume = true;
        let resumed = run_mill(c, 2, &key);
        let _ = std::fs::remove_file(&path);
        assert_eq!(trace(&first), want, "{key}: checkpointed");
        assert_eq!(
            schedule(&resumed),
            want_schedule,
            "{key}: resumed on 2 threads"
        );
    }
    if !blessed.is_empty() {
        bless_rows(&blessed);
    }
}

/// Offered load of the `TRAF-*` rows, in packets/tile/cycle: past the
/// knee of an 8x8 mesh and torus under uniform-random traffic.
const TRAF_RATE: f64 = 0.4;
/// Injection window of the `TRAF-*` rows, in NoC cycles.
const TRAF_WINDOW: u64 = 200;

fn traffic_config(topo: NocTopology) -> SystemConfig {
    let mut cfg = config(8, topo, None);
    cfg.traffic.rate = TRAF_RATE;
    cfg.traffic.cycles = TRAF_WINDOW;
    cfg
}

/// The scripted-injection rows: each must land on its committed trace,
/// runtime and latency sums under both drivers, and accept less than it
/// offers — the drain outlasts the window only when sends were held back
/// at full inject queues. The uniform torus point is pinned once more at
/// 2 host threads, by its split-invariant schedule.
#[test]
fn scripted_traffic_rows_match_committed_checksums() {
    use muchisim::config::TrafficPattern;
    use muchisim::traffic::LoadPoint;
    let graph = Arc::new(RmatConfig::scale(2).generate(GRAPH_SEED)); // ignored by traffic
    let bless = std::env::var_os("MUCHISIM_BLESS").is_some();
    let mut blessed = Vec::new();
    let cases = [
        (
            "UNIFORM",
            TrafficPattern::UniformRandom,
            "mesh",
            NocTopology::Mesh,
        ),
        (
            "UNIFORM",
            TrafficPattern::UniformRandom,
            "torus",
            NocTopology::FoldedTorus,
        ),
        (
            "HOTSPOT",
            TrafficPattern::Hotspot,
            "mesh",
            NocTopology::Mesh,
        ),
        (
            "HOTSPOT",
            TrafficPattern::Hotspot,
            "torus",
            NocTopology::FoldedTorus,
        ),
    ];
    for (label, pattern, topo_name, topo) in cases {
        let key = format!("TRAF-{label}-8x8-{topo_name}");
        let cfg = traffic_config(topo);
        let tiles = cfg.width() * cfg.height();
        let bench = Benchmark::Traffic(pattern);
        let run = |c: SystemConfig, threads: usize| {
            let r = run_benchmark(bench, c, &graph, threads)
                .unwrap_or_else(|e| panic!("{key} failed to run: {e}"));
            assert!(r.check_error.is_none(), "{key}: {:?}", r.check_error);
            r
        };
        let result = run(cfg.clone(), 1);
        let point = LoadPoint::of(&cfg, &result);
        let offered = point.injected as f64 / (f64::from(tiles) * TRAF_WINDOW as f64);
        assert!(
            point.achieved < offered,
            "{key} is meant to be past saturation: accepted {} of {offered} offered",
            point.achieved
        );
        let lat = &result.noc_latency;
        let row = format!(
            "{{\"hash\": \"{:#018x}\", \"schedule_hash\": \"{:#018x}\", \"runtime_cycles\": {}, \
             \"lat_total_cycles\": {}, \"lat_max_cycles\": {}}}",
            checksum(&result, tiles),
            schedule_checksum(&result, tiles),
            result.runtime_cycles,
            lat.total_cycles,
            lat.max_cycles
        );
        let threaded = (topo == NocTopology::FoldedTorus
            && pattern == TrafficPattern::UniformRandom)
            .then(|| {
                let r = run(cfg.clone(), 2);
                let row = format!(
                    "{{\"schedule_hash\": \"{:#018x}\", \"runtime_cycles\": {}, \
                     \"lat_total_cycles\": {}}}",
                    schedule_checksum(&r, tiles),
                    r.runtime_cycles,
                    r.noc_latency.total_cycles
                );
                (format!("{key}@t2"), row)
            });
        if bless {
            blessed.push((key, row));
            blessed.extend(threaded);
            continue;
        }
        let committed = load_committed();
        let want = committed
            .as_object()
            .and_then(|m| m.get(&key))
            .unwrap_or_else(|| panic!("{key} missing from {GOLDEN_PATH}; re-bless"));
        assert_eq!(
            serde_json::from_str::<JsonValue>(&row).expect("row parses"),
            *want,
            "{key}: trace diverged"
        );
        let mut c = cfg.clone();
        c.time_leap = false;
        let lockstep = run(c, 1);
        assert_eq!(
            checksum(&lockstep, tiles),
            checksum(&result, tiles),
            "{key}: lockstep"
        );
        assert_eq!(lockstep.noc_latency, result.noc_latency, "{key}: lockstep");
        if let Some((key, row)) = threaded {
            let want = committed.as_object().and_then(|m| m.get(&key));
            let want = want.unwrap_or_else(|| panic!("{key} missing from {GOLDEN_PATH}; re-bless"));
            assert_eq!(
                serde_json::from_str::<JsonValue>(&row).expect("row parses"),
                *want,
                "{key}: schedule diverged"
            );
        }
    }
    if !blessed.is_empty() {
        bless_rows(&blessed);
    }
}
