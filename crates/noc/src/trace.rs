//! Communication-trace recording: every packet entering the network.
//!
//! When recording is enabled, each shard logs a [`TraceEvent`] at its
//! injection point — the same point that increments `injected` — with
//! full packet fidelity (payload words and reduction operator included),
//! because replay must reproduce in-network reduce-combining decisions
//! bit for bit. Events are written as sorted JSONL, one event per line,
//! which keeps the format greppable and streamable; at the small payload
//! sizes of message-triggered tasks a line is ~80 bytes.
//!
//! Recording is config-driven (`SystemConfig::noc_trace`); replay lives
//! in the `muchisim-traffic` crate, which turns a trace back into
//! pre-scheduled injections.

use crate::packet::{Packet, ReduceOp};
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// One packet entering the NoC: everything needed to re-inject it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// NoC cycle of the (successful) injection.
    pub cycle: u64,
    /// Source tile.
    pub src: u32,
    /// Destination tile.
    pub dst: u32,
    /// Task type (also selects the physical NoC plane, `task % planes`).
    pub task: u8,
    /// Message length in flits under the recording configuration
    /// (informational — replay under a different link width recomputes it
    /// from the payload).
    pub flits: u16,
    /// In-network reduction operator, if any.
    pub reduce: Option<ReduceOp>,
    /// Payload words.
    pub payload: Vec<u32>,
}

impl TraceEvent {
    /// Captures the event for `pkt` as it enters the network (the
    /// packet's `ready_at` is its injection cycle at that point).
    pub(crate) fn from_packet(pkt: &Packet) -> Self {
        TraceEvent {
            cycle: pkt.ready_at,
            src: pkt.src,
            dst: pkt.dst,
            task: pkt.task,
            flits: pkt.flits,
            reduce: pkt.reduce,
            payload: pkt.payload.as_slice().to_vec(),
        }
    }
}

/// Sorts `events` into canonical replay order: by cycle, then source
/// tile, then task. The sort is stable, so the FIFO order of a tile's
/// same-task packets within one cycle (recorded in shard order) is
/// preserved — exactly the order the engine's channel-queue drain
/// produced them.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.cycle, e.src, e.task));
}

/// Writes `events` (sorted first) to a JSONL file at `path` through
/// [`output::replace`](muchisim_config::output::replace).
///
/// # Errors
///
/// Returns a description of the I/O or serialization failure.
pub fn write_trace_jsonl(path: &str, events: &mut [TraceEvent]) -> Result<(), String> {
    sort_events(events);
    muchisim_config::output::replace(path, |out| {
        for ev in events.iter() {
            let line = serde_json::to_string(ev).map_err(std::io::Error::other)?;
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    })
    .map_err(|e| e.to_string())
}

/// Reads a JSONL trace written by [`write_trace_jsonl`].
///
/// # Errors
///
/// Returns a description naming the offending line on malformed input.
pub fn read_trace_jsonl(path: &str) -> Result<Vec<TraceEvent>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let mut events = Vec::new();
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("reading {path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent =
            serde_json::from_str(&line).map_err(|e| format!("{path} line {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn ev(cycle: u64, src: u32, task: u8) -> TraceEvent {
        TraceEvent {
            cycle,
            src,
            dst: 9,
            task,
            flits: 2,
            reduce: None,
            payload: vec![src, cycle as u32],
        }
    }

    #[test]
    fn from_packet_captures_everything() {
        let pkt = Packet::unicast(3, 8, 1, Payload::from_slice(&[7, 5]), 2)
            .with_reduce(ReduceOp::MinU32)
            .ready_at(42);
        let e = TraceEvent::from_packet(&pkt);
        assert_eq!((e.cycle, e.src, e.dst, e.task, e.flits), (42, 3, 8, 1, 2));
        assert_eq!(e.reduce, Some(ReduceOp::MinU32));
        assert_eq!(e.payload, vec![7, 5]);
    }

    #[test]
    fn sort_is_stable_within_keys() {
        let mut events = vec![ev(5, 1, 0), ev(1, 2, 0), ev(1, 2, 1), ev(1, 0, 0)];
        // two same-key events keep their order
        let mut dup_a = ev(1, 2, 0);
        dup_a.payload = vec![111];
        events.push(dup_a.clone());
        sort_events(&mut events);
        assert_eq!(events[0].src, 0);
        assert_eq!(events[1], ev(1, 2, 0));
        assert_eq!(events[2], dup_a);
        assert_eq!(events[3].task, 1);
        assert_eq!(events[4].cycle, 5);
    }

    #[test]
    fn jsonl_round_trip() {
        let dir = std::env::temp_dir().join(format!("muchisim-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let path = path.to_str().unwrap().to_string();
        let mut events = vec![ev(9, 0, 0), ev(2, 1, 0)];
        write_trace_jsonl(&path, &mut events).unwrap();
        let back = read_trace_jsonl(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].cycle, 2, "written sorted");
        assert_eq!(back[1].cycle, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_name_their_position() {
        let dir = std::env::temp_dir().join(format!("muchisim-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{}garbage\n").unwrap();
        let err = read_trace_jsonl(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_trace_jsonl("/nonexistent/trace.jsonl").is_err());
    }
}
