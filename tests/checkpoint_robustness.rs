//! Negative-path coverage for the snapshot format: corrupt, truncated,
//! or incompatible checkpoint files must fail with a clean
//! [`SimError::Snapshot`] — never a panic, never a silently-wrong resume.
//!
//! Three layers: a table of whole-file damage (truncation, bad magic,
//! stale checksum), directed edits of single fields inside a file whose
//! checksum is valid again (what only the restore path can catch), and
//! seeded random mutations of two applications' snapshots.
//!
//! [`SimError::Snapshot`]: muchisim::core::SimError

use muchisim::apps::{high_degree_root, run_benchmark, Benchmark, Bfs, Spmv, SyncMode};
use muchisim::config::{DramConfig, SystemConfig, TrafficPattern, Verbosity};
use muchisim::core::snapshot::{ByteReader, Put, SnapshotHasher, Var};
use muchisim::core::{
    Application, FrameLog, OutMsg, PuCounters, ScheduledSend, SimError, Simulation,
};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use muchisim::mem::{CacheLine, MemCounters};
use muchisim::noc::{LatencyStats, NocCounters, Packet, Payload, ReduceOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

fn cfg(side: u32) -> SystemConfig {
    SystemConfig::builder()
        .chiplet_tiles(side, side)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(256)
        .build()
        .expect("valid config")
}

/// `cfg(4)` with a 4 KiB PLM caching DRAM.
fn cache_cfg() -> SystemConfig {
    let mut c = cfg(4);
    c.sram_kib_per_tile = 4;
    c.memory = muchisim::config::MemoryConfig::Dram(DramConfig::default());
    c.validate().expect("valid cache-backed config");
    c
}

/// Uniform traffic: 0.3 packets per tile and cycle, for 300 cycles.
const TRAFFIC: Benchmark = Benchmark::Traffic(TrafficPattern::UniformRandom);

/// `cfg(4)` offering [`TRAFFIC`]'s load.
fn traffic_cfg() -> SystemConfig {
    let mut c = cfg(4);
    c.traffic.rate = 0.3;
    c.traffic.cycles = 300;
    c
}

/// Arms the `max_cycles` ward to stop `c`'s run right after it executes
/// `cycle`: the first sample closes there.
fn stop_after(c: &mut SystemConfig, cycle: u64) {
    c.telemetry.sample_every = Some(cycle + 1);
    c.telemetry.wards.max_cycles = Some(cycle);
}

/// Writes a snapshot of [`TRAFFIC`] at cycle 150, halfway through its
/// injection window, to `path` and returns its bytes.
fn mid_window_traffic_snapshot(path: &str) -> Vec<u8> {
    let mut c = traffic_cfg();
    c.checkpoint_path = Some(path.to_string());
    c.checkpoint_every = Some(150);
    // later boundaries would overwrite the file: stop after the first
    stop_after(&mut c, 151);
    let app = muchisim::traffic::TrafficApp::new(&c, TrafficPattern::UniformRandom)
        .expect("valid traffic");
    let _ = Simulation::new(c, app).expect("valid").run();
    std::fs::read(path).expect("snapshot file exists")
}

/// Writes a valid BFS snapshot under `config` to `path` and returns its
/// bytes.
fn write_valid_snapshot(path: &str, graph: &Arc<Csr>, config: &SystemConfig) -> Vec<u8> {
    let probe = run_benchmark(Benchmark::Bfs, config.clone(), graph, 1).expect("probe runs");
    let mut c = config.clone();
    c.checkpoint_path = Some(path.to_string());
    c.checkpoint_every = Some((probe.runtime_cycles / 2).max(1));
    run_benchmark(Benchmark::Bfs, c, graph, 1).expect("checkpointing run");
    std::fs::read(path).expect("snapshot file exists")
}

/// Re-stamps the trailing checksum (the last 8 bytes cover every
/// preceding byte), so mutations ahead of it reach their own validation
/// step instead of tripping the checksum first.
fn restamp_checksum(bytes: &mut [u8]) {
    let n = bytes.len();
    let mut h = SnapshotHasher::new();
    h.update(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&h.finish().to_le_bytes());
}

/// Resumes `bench` from `path` and returns the error message (panics on
/// success).
fn resume_error(bench: Benchmark, path: &str, graph: &Arc<Csr>, config: SystemConfig) -> String {
    let mut c = config;
    c.checkpoint_path = Some(path.to_string());
    c.checkpoint_resume = true;
    match run_benchmark(bench, c, graph, 1) {
        Ok(_) => panic!("resume from a damaged snapshot succeeded"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn damaged_snapshots_fail_with_clean_errors() {
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));
    let dir = std::env::temp_dir();
    let valid_path = dir
        .join(format!("muchisim-robust-{}-valid.snap", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let valid = write_valid_snapshot(&valid_path, &graph, &cfg(4));
    assert!(valid.len() > 40, "snapshot suspiciously small");

    type Mutate = fn(&mut Vec<u8>);
    let table: [(&str, Mutate, &str); 9] = [
        ("empty file", |b| b.clear(), "snapshot failed"),
        ("truncated header", |b| b.truncate(10), "snapshot failed"),
        (
            "truncated body",
            |b| {
                let half = b.len() / 2;
                b.truncate(half);
            },
            "snapshot failed",
        ),
        (
            "one byte short",
            |b| {
                b.pop();
            },
            "snapshot failed",
        ),
        (
            "flipped payload bit",
            |b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
            },
            "checksum",
        ),
        (
            "bad magic",
            |b| {
                b[0] ^= 0xFF;
                restamp_checksum(b);
            },
            "not a MuchiSim snapshot",
        ),
        (
            "future version",
            |b| {
                // version is the u32 right after the 8-byte magic; the
                // checksum must be re-stamped or it fires first
                b[8] = b[8].wrapping_add(1);
                restamp_checksum(b);
            },
            "version",
        ),
        (
            "previous version",
            |b| {
                b[8] = b[8].wrapping_sub(1);
                restamp_checksum(b);
            },
            "version",
        ),
        (
            "trailing garbage",
            |b| b.extend_from_slice(&[0xAB; 16]),
            "snapshot failed",
        ),
    ];

    for (name, mutate, want) in table {
        let mut bytes = valid.clone();
        mutate(&mut bytes);
        let path = dir
            .join(format!(
                "muchisim-robust-{}-{}.snap",
                std::process::id(),
                name.replace(' ', "-")
            ))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, &bytes).expect("write mutated snapshot");
        let err = resume_error(Benchmark::Bfs, &path, &graph, cfg(4));
        assert!(
            err.contains("snapshot failed"),
            "{name}: error is not a clean SimError::Snapshot: {err}"
        );
        assert!(err.contains(want), "{name}: error lacks `{want}`: {err}");
        let _ = std::fs::remove_file(&path);
    }

    // a pristine file under the wrong configuration is rejected by the
    // identity header, with the mismatch spelled out
    let err = resume_error(Benchmark::Bfs, &valid_path, &graph, cfg(8));
    assert!(
        err.contains("snapshot failed"),
        "config mismatch is not a clean SimError::Snapshot: {err}"
    );
    assert!(
        err.contains("configuration") || err.contains("grid"),
        "config mismatch error is unhelpful: {err}"
    );

    // and a different application on the same grid is rejected by name
    let mut c = cfg(4);
    c.checkpoint_path = Some(valid_path.clone());
    c.checkpoint_resume = true;
    let err = match run_benchmark(Benchmark::Spmv, c, &graph, 1) {
        Ok(_) => panic!("resume under the wrong application succeeded"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains("application") || err.contains("bfs"),
        "app mismatch error is unhelpful: {err}"
    );
    let _ = std::fs::remove_file(&valid_path);
}

// ---------------------------------------------------------------------
// Directed edits: one field changed, checksum re-stamped.
// ---------------------------------------------------------------------

type PacketRecord = (u32, u8, Packet);

/// Byte offsets into a one-chunk, one-plane snapshot file, found by
/// walking it with the public codec.
struct Offsets {
    /// Every length or count prefix up to the tile records.
    prefixes: Vec<usize>,
    /// The chunk's `u64` byte length.
    chunk_len: usize,
    /// The plane's NoC counters and latency statistics; both lead with a
    /// `u64` count that is non-zero once a packet has been delivered.
    counters: usize,
    latency: usize,
    /// The `u32` count of queued-packet records, and the first byte
    /// after the last of them.
    packets: (usize, usize),
    /// The first arbiter record `(tile u32, dir u8, cursor u8)`, if any.
    first_rr: Option<usize>,
    /// The first tile record.
    first_tile: usize,
    /// The first tile's cold record (presence byte included) and its
    /// input-queue bank: `[start, end)` each.
    cold: (usize, usize),
    iqs: (usize, usize),
    /// The first tile's scheduled sends: `[start, end)`.
    scripted: (usize, usize),
}

fn offsets(bytes: &[u8]) -> (Offsets, Vec<PacketRecord>) {
    let body = &bytes[..bytes.len() - 8];
    let mut r = ByteReader::new(&body[12..]);
    let mut prefixes = Vec::new();
    macro_rules! here {
        () => {
            body.len() - r.remaining()
        };
    }
    macro_rules! skip {
        ($t:ty) => {
            r.get::<$t>().expect("valid snapshot walks")
        };
    }
    skip!(u64); // config hash
    prefixes.push(here!());
    skip!(String); // application name
    skip!((u32, u32, u32, u32)); // width, height, PUs, planes
    skip!((u8, u32)); // task types, kernels
    skip!((u32, u64, u64)); // kernel, cycle, base
    prefixes.push(here!());
    assert_eq!(skip!(u32), 1, "one writer thread, one chunk");
    let chunk_len = here!();
    skip!(u64);
    skip!((u64, u64, u64, u64)); // PU tail and open-frame counts
    prefixes.push(here!() + 8); // the frame count follows the interval
    skip!(FrameLog);
    prefixes.push(here!());
    assert_eq!(skip!(u32), 1, "one NoC plane");
    let counters = here!();
    skip!(NocCounters);
    let latency = here!();
    skip!(LatencyStats);
    let packets_at = here!();
    let packets = r.seq::<PacketRecord>().expect("packet records");
    let packets_end = here!();
    prefixes.extend([packets_at, packets_end]);
    skip!(Vec<(u32, u8, u64)>); // busy links
    let rr_at = here!();
    let rr = skip!(Vec<(u32, u8, u8)>);
    prefixes.extend([rr_at, here!()]);
    skip!(Vec<(u32, u32)>); // open-frame router busy counts
    prefixes.push(here!());
    skip!(u32); // tile count
    let first_tile = here!();
    skip!((u32, bool, u32, u8)); // tile, init flag, open-frame busy, cursor
    skip!(Vec<u64>); // PU clocks
    skip!((Var, Var)); // tasks, busy cycles
    let cold_at = here!();
    if skip!(u8) == 1 {
        skip!((PuCounters, MemCounters, Var, Vec<CacheLine>));
    }
    let iqs_at = here!();
    skip!(Vec<(u8, Vec<Payload>)>);
    let iqs_end = here!();
    skip!(Vec<(u8, Vec<OutMsg>)>);
    let scripted_at = here!();
    skip!(Vec<ScheduledSend>);
    let found = Offsets {
        prefixes,
        chunk_len,
        counters,
        latency,
        packets: (packets_at, packets_end),
        first_rr: (!rr.is_empty()).then_some(rr_at + 4),
        first_tile,
        cold: (cold_at, iqs_at),
        iqs: (iqs_at, iqs_end),
        scripted: (scripted_at, here!()),
    };
    (found, packets)
}

/// Replaces the file's queued-packet records with `edit`'s result.
fn edit_packets(bytes: &[u8], edit: impl FnOnce(&mut Vec<PacketRecord>)) -> Vec<u8> {
    let (at, mut packets) = offsets(bytes);
    edit(&mut packets);
    let mut section = Vec::new();
    packets.put(&mut section);
    replace(bytes, at.packets, &section)
}

/// Replaces the bytes `[start, end)` of the one chunk with `section`,
/// fixing up the chunk length and the checksum.
fn replace(bytes: &[u8], (start, end): (usize, usize), section: &[u8]) -> Vec<u8> {
    let (at, _) = offsets(bytes);
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(section);
    out.extend_from_slice(&bytes[end..]);
    let old_len = u64::from_le_bytes(bytes[at.chunk_len..at.chunk_len + 8].try_into().unwrap());
    let new_len = old_len + section.len() as u64 - (end - start) as u64;
    out[at.chunk_len..at.chunk_len + 8].copy_from_slice(&new_len.to_le_bytes());
    restamp_checksum(&mut out);
    out
}

/// Makes a two-chunk file of a one-chunk one: the second chunk is the
/// first again, with the `u64` at file offset `field` raised to its
/// maximum, so that summing the two chunks overflows it.
fn second_chunk_overflowing(bytes: &[u8], field: usize) -> Vec<u8> {
    let (at, _) = offsets(bytes);
    let body = bytes.len() - 8;
    let mut twin = bytes[at.chunk_len..body].to_vec();
    let field = field - at.chunk_len;
    twin[field..field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut out = bytes[..body].to_vec();
    out[at.chunk_len - 4..at.chunk_len].copy_from_slice(&2u32.to_le_bytes());
    out.extend_from_slice(&twin);
    out.extend_from_slice(&[0; 8]);
    restamp_checksum(&mut out);
    out
}

/// A BFS snapshot taken while packets are queued in the routers and at
/// least one arbiter has moved.
fn busy_bfs_snapshot(graph: &Arc<Csr>, tag: &str) -> (String, Vec<u8>) {
    let path = std::env::temp_dir()
        .join(format!("muchisim-robust-{}-{tag}.snap", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let probe = run_benchmark(Benchmark::Bfs, cfg(4), graph, 1).expect("probe runs");
    for tenths in [3, 2, 4, 5, 1, 6] {
        let mut c = cfg(4);
        c.checkpoint_path = Some(path.clone());
        c.checkpoint_every = Some((probe.runtime_cycles * tenths / 10).max(1));
        // later boundaries overwrite the file: stop at the first
        stop_after(&mut c, probe.runtime_cycles * tenths / 10 + 1);
        let _ = Simulation::new(c, bfs(graph, 16)).expect("valid").run();
        let bytes = std::fs::read(&path).expect("snapshot file exists");
        let (at, packets) = offsets(&bytes);
        if packets.len() >= 2 && at.first_rr.is_some() {
            return (path, bytes);
        }
    }
    panic!("no cadence caught BFS with packets in flight");
}

fn bfs(graph: &Arc<Csr>, tiles: u32) -> Bfs {
    Bfs::new(
        Arc::clone(graph),
        tiles,
        high_degree_root(graph),
        SyncMode::Async,
    )
}

#[test]
fn malformed_fields_behind_a_valid_checksum_are_typed_errors() {
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));
    let (path, valid) = busy_bfs_snapshot(&graph, "fields");
    let (at, queued) = offsets(&valid);
    // the rows named `... (cache)` edit a snapshot of a cache-backed run
    let cache_path = format!("{path}.cache");
    let cached = write_valid_snapshot(&cache_path, &graph, &cache_cfg());
    let (cache_at, _) = offsets(&cached);
    // and the rows named `... (traffic)` one of traffic, mid-window
    let traffic_path = format!("{path}.traffic");
    let traffic = mid_window_traffic_snapshot(&traffic_path);
    let (traffic_at, _) = offsets(&traffic);
    let sends_left: Vec<ScheduledSend> =
        ByteReader::new(&traffic[traffic_at.scripted.0..traffic_at.scripted.1])
            .get()
            .expect("scheduled sends");
    assert!(sends_left.len() >= 2, "tile 0 has sends left at cycle 150");

    // the untouched file, and an edit that changes nothing, both resume
    for bytes in [valid.clone(), edit_packets(&valid, |_| {})] {
        std::fs::write(&path, &bytes).expect("write snapshot");
        let mut c = cfg(4);
        c.checkpoint_path = Some(path.clone());
        c.checkpoint_resume = true;
        let resumed = run_benchmark(Benchmark::Bfs, c, &graph, 1).expect("clean resume");
        assert!(resumed.check_error.is_none(), "{:?}", resumed.check_error);
    }

    type Edit = Box<dyn Fn(&[u8]) -> Vec<u8>>;
    let packet = |f: fn(&mut Packet)| -> Edit {
        Box::new(move |b| edit_packets(b, |pkts| f(&mut pkts[0].2)))
    };
    let byte = |offset: usize, value: u8| -> Edit {
        Box::new(move |b| {
            let mut out = b.to_vec();
            out[offset] = value;
            restamp_checksum(&mut out);
            out
        })
    };
    // tile 0's input-queue bank, as `banks`
    let iqs = |banks: Vec<(u8, Vec<Payload>)>| -> Edit {
        let mut section = Vec::new();
        banks.put(&mut section);
        Box::new(move |b| replace(b, at.iqs, &section))
    };
    let p = || vec![Payload::from_slice(&[0])];
    // tile 0's scheduled sends, as `edit` leaves the ones in the file
    let scripted = |edit: fn(&mut Vec<ScheduledSend>)| -> Edit {
        let mut sends = sends_left.clone();
        edit(&mut sends);
        let mut section = Vec::new();
        sends.put(&mut section);
        Box::new(move |b| replace(b, traffic_at.scripted, &section))
    };
    // tile 0's cold record, replaced by one holding a single cache line
    let one_line = |cold: (usize, usize)| -> Edit {
        let mut section = vec![1];
        (PuCounters::default(), MemCounters::default(), Var(0)).put(&mut section);
        vec![CacheLine::default()].put(&mut section);
        Box::new(move |b| replace(b, cold, &section))
    };
    // one more packet injected than the record holds
    let unbalanced = format!(
        "plane 0: the counters put {} packets in flight (injected − ejected − combined), the \
         record holds {}",
        queued.len() + 1,
        queued.len()
    );
    let table: Vec<(&str, Edit, &str)> = vec![
        (
            "two packets of one queue that combine",
            Box::new(|b| {
                edit_packets(b, |pkts| {
                    pkts[0].2.reduce = Some(ReduceOp::MinU32);
                    let twin = pkts[0].clone();
                    pkts.insert(1, twin);
                })
            }),
            "post-combine",
        ),
        (
            "injected packets of a plane",
            Box::new(move |b| {
                let mut out = b.to_vec();
                let field = &mut out[at.counters..at.counters + 8];
                let injected = u64::from_le_bytes(field.try_into().unwrap());
                field.copy_from_slice(&(injected + 1).to_le_bytes());
                restamp_checksum(&mut out);
                out
            }),
            &unbalanced,
        ),
        (
            "packet destination",
            packet(|p| p.dst = 16),
            "packet record",
        ),
        ("packet task", packet(|p| p.task = 1), "packet record"),
        ("packet flits", packet(|p| p.flits = 0), "packet record"),
        (
            "packet virtual channel",
            packet(|p| p.vc = 2),
            "packet record",
        ),
        (
            "packet input port",
            Box::new(|b| edit_packets(b, |pkts| pkts[0].1 = 13)),
            "packet record",
        ),
        (
            "router arbiter cursor",
            byte(at.first_rr.expect("an arbiter moved") + 5, 13),
            "arbiter record",
        ),
        (
            // tile u32, init flag, open-frame busy u32, then the cursor
            "tile scheduler cursor",
            byte(at.first_tile + 9, 1),
            "scheduler cursor",
        ),
        // additive state of a crafted second chunk: summed with checks,
        // whatever the build's overflow setting
        (
            "injected packets of two chunks",
            Box::new(move |b| second_chunk_overflowing(b, at.counters)),
            "NoC counters overflow",
        ),
        (
            "latency samples of two chunks",
            Box::new(move |b| second_chunk_overflowing(b, at.latency)),
            "latency counters overflow",
        ),
        (
            // BFS declares one task type
            "queue bank of a task past the task types",
            iqs(vec![(1, p())]),
            "input-queue bank of task 1 is outside",
        ),
        (
            "queue bank of a repeated task",
            iqs(vec![(0, p()), (0, p())]),
            "input-queue bank of task 0 is listed twice",
        ),
        (
            "queue bank listing an empty queue",
            iqs(vec![(0, vec![])]),
            "input-queue bank of task 0 is listed empty",
        ),
        (
            "cold record with cache lines on a scratchpad tile",
            one_line(at.cold),
            "cache record on a scratchpad tile",
        ),
        (
            "cache record of the wrong line count (cache)",
            one_line(cache_at.cold),
            "cache record holds 1 lines",
        ),
        // a timetable's sends left must be the end of the application's
        // timetable, which a resume draws again
        (
            "scheduled send to another tile (traffic)",
            scripted(|sends| sends[1].dst = (sends[1].dst + 1) % 16),
            "tile 0: scheduled send 1 of the snapshot is not send",
        ),
        (
            "scheduled send with another payload (traffic)",
            scripted(|sends| sends[0].payload.set_word(0, 7_777)),
            "tile 0: scheduled send 0 of the snapshot is not send",
        ),
        (
            "scheduled send repeated ahead of the sends left (traffic)",
            scripted(|sends| sends.insert(0, sends[0].clone())),
            "tile 0: scheduled send 0 of the snapshot is not send",
        ),
        (
            "more scheduled sends than the timetable (traffic)",
            // a 300-cycle window holds at most 300 sends
            scripted(|sends| *sends = vec![sends[0].clone(); 301]),
            "tile 0: snapshot holds",
        ),
    ];
    // the sends left rewritten as they are resume clean
    std::fs::write(&traffic_path, scripted(|_| {})(&traffic)).expect("write snapshot");
    let mut c = traffic_cfg();
    c.checkpoint_path = Some(traffic_path.clone());
    c.checkpoint_resume = true;
    let resumed = run_benchmark(TRAFFIC, c, &graph, 1).expect("clean traffic resume");
    assert!(resumed.check_error.is_none(), "{:?}", resumed.check_error);

    for (name, edit, want) in table {
        let (bench, path, base, config) = if name.ends_with("(cache)") {
            (Benchmark::Bfs, &cache_path, &cached, cache_cfg())
        } else if name.ends_with("(traffic)") {
            (TRAFFIC, &traffic_path, &traffic, traffic_cfg())
        } else {
            (Benchmark::Bfs, &path, &valid, cfg(4))
        };
        std::fs::write(path, edit(base)).expect("write edited snapshot");
        let err = resume_error(bench, path, &graph, config);
        assert!(
            err.contains("snapshot failed"),
            "{name}: not a SimError::Snapshot: {err}"
        );
        assert!(err.contains(want), "{name}: error lacks `{want}`: {err}");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cache_path);
    let _ = std::fs::remove_file(&traffic_path);
}

/// A structurally valid BFS snapshot whose tile 0 waits on one message
/// with its PU clock raised 2^50 PU cycles ahead: nothing leaps in
/// lockstep, so without a stop the resume spins until that clock comes.
/// The `max_cycles` ward must end it, in a typed `SimError::Ward`,
/// before the watchdog does.
#[test]
fn a_far_future_clock_ends_at_the_ward_in_lockstep() {
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));
    let path = std::env::temp_dir()
        .join(format!(
            "muchisim-robust-{}-far-clock.snap",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let valid = write_valid_snapshot(&path, &graph, &cfg(4));
    let (at, _) = offsets(&valid);
    let mut waiting = Vec::new();
    vec![(0u8, vec![Payload::from_slice(&[0, 1])])].put(&mut waiting);
    let mut bytes = replace(&valid, at.iqs, &waiting);
    // tile u32, init flag, open-frame busy u32, cursor u8, then the PU
    // clocks' count and the first (only) clock
    let clock = at.first_tile + 14;
    bytes[clock..clock + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
    restamp_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("write edited snapshot");

    let probe = run_benchmark(Benchmark::Bfs, cfg(4), &graph, 1).expect("probe runs");
    let max_cycles = probe.runtime_cycles * 4;
    let (done, outcome) = std::sync::mpsc::channel();
    let resume = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut c = cfg(4);
            c.time_leap = false;
            c.checkpoint_path = Some(path);
            c.checkpoint_resume = true;
            stop_after(&mut c, max_cycles);
            let _ = done.send(Simulation::new(c, bfs(&graph, 16)).expect("valid").run());
        })
    };
    let outcome = outcome
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the far-future clock hung the resume past its ward");
    resume.join().expect("the resume thread returns");
    let _ = std::fs::remove_file(&path);
    match outcome {
        Err(SimError::Ward(report)) => {
            assert_eq!(
                (report.ward.as_str(), report.cycle),
                ("max_cycles", max_cycles)
            );
            assert!(
                report.tiles.iter().any(|t| t.tile == 0 && t.iq_msgs >= 1),
                "tile 0's waiting message is in the report: {report}"
            );
        }
        other => panic!("expected the max_cycles ward, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Seeded random mutations.
// ---------------------------------------------------------------------

/// Counts through to the system allocator, remembering the largest
/// single request a thread makes while its [`PEAK_REQUEST`] is armed
/// (non-zero).
struct PeakAlloc;

thread_local! {
    /// `0` = disarmed; otherwise `1 +` the largest request this thread
    /// made so far. Per thread, because the resume under test runs on the
    /// calling thread (one worker) while the sibling tests write
    /// snapshots through a 1 MiB buffer on theirs.
    static PEAK_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// Notes a request of `size` bytes on the current thread.
fn note_request(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down
    let _ = PEAK_REQUEST.try_with(|peak| {
        if peak.get() != 0 {
            peak.set(peak.get().max(size + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the only thing
// added is an update of a thread-local statistic.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: same layout, same contract
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; same contract
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// SplitMix64: a few lines, seedable, good enough to pick mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one random mutation to `bytes` (at least 64 of them);
/// `prefixes` are the offsets of the file's real length prefixes.
fn mutate(bytes: &mut Vec<u8>, prefixes: &[usize], rng: &mut Rng) -> &'static str {
    let n = bytes.len();
    // an earlier truncation may have cut some prefixes off
    let prefixes = &prefixes[..prefixes.partition_point(|&at| at + 4 <= n)];
    match rng.below(if prefixes.is_empty() { 5 } else { 6 }) {
        0 => {
            for _ in 0..=rng.below(4) {
                let at = rng.below(n);
                bytes[at] ^= 1 << rng.below(8);
            }
            "bit flips"
        }
        1 => {
            bytes.truncate(rng.below(n));
            "truncation"
        }
        2 => {
            // a run of the file written over, or inserted at, another place
            let len = 1 + rng.below(32);
            let from = rng.below(n - len);
            let run = bytes[from..from + len].to_vec();
            let to = rng.below(n - len);
            if rng.below(2) == 0 {
                bytes[to..to + len].copy_from_slice(&run);
            } else {
                bytes.splice(to..to, run);
            }
            "splice"
        }
        3 => {
            let from = rng.below(n - 1);
            let to = (from + 1 + rng.below(64)).min(n);
            bytes.drain(from..to);
            "deletion"
        }
        4 => {
            // two equal-length records (or parts of records) trade places
            let len = 4 + rng.below(24);
            let a = rng.below(n - 2 * len);
            let b = a + len + rng.below(n - 2 * len - a + 1);
            for i in 0..len {
                bytes.swap(a + i, b + i);
            }
            "swapped records"
        }
        _ => {
            let at = prefixes[rng.below(prefixes.len())];
            let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let new = match rng.below(4) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_mul(2).wrapping_add(1),
                2 => u32::MAX - rng.below(4) as u32,
                _ => rng.next() as u32,
            };
            bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
            "inflated length prefix"
        }
    }
}

/// What one hostile resume came to.
enum Outcome {
    /// `SimError::Snapshot`: the reader or the restore refused the file.
    Refused,
    /// The run resumed and finished.
    Resumed,
    /// The file restored — its structure and every index in it are
    /// sound — and the *run* then stopped on the values it carried: a
    /// clock far in the future ends at the `max_cycles` ward, a payload
    /// the application cannot index ends in its (caught) worker panic.
    RunStopped,
}

/// Resumes `app` from `path` with the `max_cycles` ward armed at
/// `max_cycles`, judged on one coarse sample there.
fn hostile_resume<A: Application>(
    cfg: &SystemConfig,
    app: A,
    path: &str,
    max_cycles: u64,
) -> Result<Outcome, String> {
    let mut c = cfg.clone();
    c.checkpoint_path = Some(path.to_string());
    c.checkpoint_resume = true;
    stop_after(&mut c, max_cycles);
    match Simulation::new(c, app).expect("valid").run() {
        Ok(_) => Ok(Outcome::Resumed),
        Err(SimError::Snapshot(_)) => Ok(Outcome::Refused),
        Err(SimError::Ward(_) | SimError::WorkerPanic { .. }) => Ok(Outcome::RunStopped),
        Err(other) => Err(format!("unexpected error kind: {other}")),
    }
}

/// Seeded random mutations of a valid snapshot — bit flips, truncation,
/// splices, deletions, inflated length prefixes, swapped records — with
/// the checksum re-stamped (7 cases in 8) so the damage reaches the
/// decoder and the restore path instead of stopping at the checksum.
///
/// Every case must end in `SimError::Snapshot` or in a run that the
/// restored state carries — never in a panic on the resuming thread, a
/// hang (a watchdog aborts the process, naming the seed), or a single
/// allocation out of proportion to the file. Decoding and restoring
/// happen on the calling thread, outside the workers' `catch_unwind`, so
/// a panic there fails the case; what may legitimately happen *after* a
/// structurally sound restore is listed at [`Outcome::RunStopped`].
#[test]
fn random_mutations_end_in_typed_errors_or_resumed_runs() {
    const SEEDS: u64 = 512;
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));

    // every case reports its seed before it starts; a minute without a
    // report means the case named last hangs
    let (report, reports) = std::sync::mpsc::channel::<String>();
    let watchdog = std::thread::spawn(move || {
        let mut running = String::from("set-up");
        loop {
            match reports.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(case) => running = case,
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    eprintln!("hang: {running} did not finish within a minute");
                    std::process::abort();
                }
            }
        }
    });

    // panics raised while a hostile file is being resumed are expected
    // (worker panics) or recorded with their seed (decoder panics):
    // either way they stay off stderr
    static QUIET: AtomicUsize = AtomicUsize::new(0);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if QUIET.load(Ordering::Relaxed) == 0 {
            hook(info);
        }
    }));
    let mut failures = Vec::new();
    let mut tally = [0usize; 3];
    for (label, config, spmv) in [
        ("bfs/scratchpad", cfg(4), false),
        ("spmv/cache", cache_cfg(), true),
    ] {
        let run = |path: &str, limit: u64| {
            if spmv {
                hostile_resume(&config, Spmv::new(Arc::clone(&graph), 16), path, limit)
            } else {
                hostile_resume(&config, bfs(&graph, 16), path, limit)
            }
        };
        let bench = if spmv {
            Benchmark::Spmv
        } else {
            Benchmark::Bfs
        };
        let probe = run_benchmark(bench, config.clone(), &graph, 1).expect("probe runs");
        let path = std::env::temp_dir()
            .join(format!(
                "muchisim-robust-{}-gen-{spmv}.snap",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        let mut c = config.clone();
        c.checkpoint_path = Some(path.clone());
        c.checkpoint_every = Some((probe.runtime_cycles / 2).max(1));
        run_benchmark(bench, c, &graph, 1).expect("checkpointing run");
        let valid = std::fs::read(&path).expect("snapshot file exists");
        let prefixes = offsets(&valid).0.prefixes;
        let limit = probe.runtime_cycles * 4;

        // what a clean resume asks of the allocator bounds what a
        // mutated one may: the same, or a few times the file
        PEAK_REQUEST.set(1);
        assert!(
            matches!(run(&path, limit), Ok(Outcome::Resumed)),
            "{label}: clean resume"
        );
        let clean_peak = PEAK_REQUEST.replace(0);
        let allowed = clean_peak.max(8 * valid.len());

        for seed in 0..SEEDS {
            report
                .send(format!("{label} seed {seed}"))
                .expect("watchdog runs");
            let mut rng = Rng(seed ^ (spmv as u64) << 32);
            let mut bytes = valid.clone();
            let mut what = Vec::new();
            for _ in 0..=rng.below(2) {
                if bytes.len() >= 64 {
                    what.push(mutate(&mut bytes, &prefixes, &mut rng));
                }
            }
            if bytes.len() >= 8 && rng.below(8) != 0 {
                restamp_checksum(&mut bytes);
            }
            std::fs::write(&path, &bytes).expect("write mutated snapshot");
            QUIET.store(1, Ordering::Relaxed);
            PEAK_REQUEST.set(1);
            let outcome = std::panic::catch_unwind(|| run(&path, limit));
            let peak = PEAK_REQUEST.replace(0);
            QUIET.store(0, Ordering::Relaxed);
            match outcome {
                Ok(Ok(Outcome::Refused)) => tally[0] += 1,
                Ok(Ok(Outcome::Resumed)) => tally[1] += 1,
                Ok(Ok(Outcome::RunStopped)) => tally[2] += 1,
                Ok(Err(why)) => failures.push(format!("{label} seed {seed} {what:?}: {why}")),
                Err(_) => failures.push(format!("{label} seed {seed} {what:?}: PANIC")),
            }
            if peak > allowed {
                failures.push(format!(
                    "{label} seed {seed} {what:?}: one allocation of {peak} bytes for a {} byte \
                     file (a clean resume peaks at {clean_peak})",
                    bytes.len()
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    drop(report);
    watchdog
        .join()
        .expect("watchdog exits once the cases are done");
    eprintln!(
        "{} refused, {} resumed, {} stopped by the run",
        tally[0], tally[1], tally[2]
    );
    assert!(
        failures.is_empty(),
        "{} of {} mutated snapshots misbehaved:\n{}",
        failures.len(),
        2 * SEEDS,
        failures.join("\n")
    );
    assert!(
        tally[0] > tally[1] + tally[2],
        "most damage must be refused: {tally:?}"
    );
}
