//! Frames ride the telemetry stream: what a subscriber collects from the
//! hub is `SimResult::frames`, frame for frame — the kernel-end partial
//! frames included — for every thread count, leap mode and verbosity,
//! with or without checkpointing; the JSONL file holds the same frames as
//! `{"v":2,"frame":{…}}` lines; and a metrics path that cannot be created
//! is a typed error before anything is simulated.

use muchisim::apps::{high_degree_root, Bfs, PageRank, SyncMode};
use muchisim::config::{SystemConfig, SystemConfigBuilder, Verbosity};
use muchisim::core::{Application, Frame, MemorySubscriber, SimError, SimResult, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use muchisim::telemetry::{FrameRecord, SCHEMA_VERSION};
use std::sync::Arc;

const SIDE: u32 = 4;
const TILES: u32 = SIDE * SIDE;

fn base(verbosity: Verbosity) -> SystemConfigBuilder {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(SIDE, SIDE)
        .verbosity(verbosity)
        .frame_interval_cycles(64);
    b
}

fn graph() -> Arc<Csr> {
    Arc::new(RmatConfig::scale(5).generate(99))
}

/// Everything a frame means, with the sparse grids made dense (pair
/// order is a host-side artifact).
fn meaning(f: &Frame) -> impl PartialEq + std::fmt::Debug {
    let mut iq = vec![0u32; TILES as usize];
    for &(t, v) in &f.iq_occupancy {
        iq[t as usize] += v;
    }
    (
        (f.index, f.start_cycle),
        (f.tasks_delta, f.injected_delta, f.ejected_delta),
        (f.router_grid(TILES), f.pu_grid(TILES), iq),
    )
}

/// Runs `app` with a `MemorySubscriber` attached; the result and the
/// frames the subscriber heard.
fn streamed<A: Application>(
    mut cfg: SystemConfig,
    app: A,
    threads: usize,
) -> Result<(SimResult, Vec<Frame>), SimError> {
    cfg.telemetry.sample_every.get_or_insert(97);
    let memory = MemorySubscriber::new();
    let frames = memory.frames();
    let result = Simulation::new(cfg, app)?
        .with_subscriber(Box::new(memory))
        .run_parallel(threads)?;
    let frames = frames.lock().expect("frames lock").clone();
    Ok((result, frames))
}

fn assert_stream_is_the_result(what: &str, result: &SimResult, heard: &[Frame]) {
    assert_eq!(result.telemetry_dropped, 0, "{what}");
    assert_eq!(heard.len(), result.frames.len(), "{what}: frame count");
    for (h, f) in heard.iter().zip(&result.frames.frames) {
        assert_eq!(meaning(h), meaning(f), "{what}: frame {}", f.index);
    }
}

#[test]
fn frames_from_the_hub_equal_the_result_frames() {
    let g = graph();
    let root = high_degree_root(&g);
    let mut partial_frames = 0;
    for verbosity in [Verbosity::V1, Verbosity::V2, Verbosity::V3] {
        for leap in [true, false] {
            for threads in [1usize, 2, 4] {
                let what = format!("{verbosity:?} leap {leap} threads {threads}");
                let cfg = base(verbosity).time_leap(leap).build().unwrap();
                let bfs = Bfs::new(Arc::clone(&g), TILES, root, SyncMode::Async);
                let (result, heard) = streamed(cfg.clone(), bfs, threads).unwrap();
                assert!(result.frames.len() > 4, "{what}: too short to mean much");
                assert_stream_is_the_result(&format!("bfs {what}"), &result, &heard);
                // three kernels, so three kernel-end partial frames
                let pagerank = PageRank::new(Arc::clone(&g), TILES, 3);
                let (result, heard) = streamed(cfg, pagerank, threads).unwrap();
                assert_stream_is_the_result(&format!("pagerank {what}"), &result, &heard);
                partial_frames += heard
                    .windows(2)
                    .filter(|w| w[1].start_cycle - w[0].start_cycle != 64)
                    .count();
            }
        }
    }
    assert!(partial_frames > 0, "no kernel ended off a frame boundary");
}

#[test]
fn frames_stream_under_checkpointing_and_the_jsonl_lines_round_trip() {
    let dir = std::env::temp_dir().join(format!("muchisim-frame-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("run.jsonl");
    let g = graph();
    let mut cfg = base(Verbosity::V2)
        .checkpoint(dir.join("run.snap").to_string_lossy(), 500)
        .build()
        .expect("checkpointing and frame streaming compose");
    cfg.telemetry.sample_every = Some(128);
    cfg.telemetry.metrics_path = Some(metrics.to_string_lossy().into_owned());
    let root = high_degree_root(&g);
    let bfs = Bfs::new(Arc::clone(&g), TILES, root, SyncMode::Async);
    let (result, heard) = streamed(cfg, bfs, 2).unwrap();
    assert_stream_is_the_result("checkpointed", &result, &heard);

    let text = std::fs::read_to_string(&metrics).unwrap();
    let (frame_lines, sample_lines): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|l| l.contains("\"frame\":"));
    assert!(!sample_lines.is_empty(), "samples share the file");
    let read: Vec<Frame> = frame_lines
        .iter()
        .map(|line| {
            let record: FrameRecord = serde_json::from_str(line).expect("a frame line parses");
            assert_eq!(record.v, SCHEMA_VERSION);
            record.frame
        })
        .collect();
    // the file and the memory subscriber heard the same records
    assert_eq!(read, heard);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_metrics_path_is_a_telemetry_error_before_the_first_cycle() {
    let g = graph();
    let mut cfg = base(Verbosity::V2).build().unwrap();
    cfg.telemetry.sample_every = Some(128);
    // missing directories are created, so the path is made unwritable by
    // a regular file where a directory must go
    let blocker = std::env::temp_dir().join(format!(
        "muchisim-frame-stream-blocker-{}",
        std::process::id()
    ));
    std::fs::write(&blocker, b"").unwrap();
    let path = blocker.join("run.jsonl").to_string_lossy().into_owned();
    cfg.telemetry.metrics_path = Some(path);
    let bfs = Bfs::new(Arc::clone(&g), TILES, 0, SyncMode::Async);
    let outcome = streamed(cfg, bfs, 1);
    let _ = std::fs::remove_file(&blocker);
    match outcome {
        Err(SimError::Telemetry(why)) => assert!(why.contains("blocker"), "{why}"),
        other => panic!("expected a telemetry error, got {other:?}"),
    }
}
