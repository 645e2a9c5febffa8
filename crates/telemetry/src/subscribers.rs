//! Sample consumers: files, memory, and the stdout progress line.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use muchisim_config::output::Stream;
use serde::{Deserialize, Serialize};

use crate::frames::Frame;
use crate::sample::{MetricsSample, SCHEMA_VERSION};

/// A consumer of the telemetry stream.
///
/// Subscribers run on the hub's own thread, never on a simulation
/// worker: an I/O error is captured there, raises the hub's failure flag
/// (the driver ends the run at its next publish) and is reported when
/// the stream closes.
pub trait Subscriber: Send {
    /// Consumes one sample.
    ///
    /// # Errors
    ///
    /// Returns a message describing an I/O failure; the hub stops
    /// feeding a failed subscriber and surfaces the first error on
    /// close.
    fn on_sample(&mut self, sample: &MetricsSample) -> Result<(), String>;

    /// Consumes one merged statistics frame (verbosity ≥ V1). Ignored by
    /// default: most subscribers only chart the scalar samples.
    ///
    /// # Errors
    ///
    /// As [`on_sample`](Subscriber::on_sample).
    fn on_frame(&mut self, _frame: &Frame) -> Result<(), String> {
        Ok(())
    }

    /// Flushes and finalizes the stream.
    ///
    /// # Errors
    ///
    /// Returns a message describing an I/O failure during the flush.
    fn on_close(&mut self) -> Result<(), String> {
        Ok(())
    }
}

impl std::fmt::Debug for dyn Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Subscriber")
    }
}

/// A frame line of the JSONL stream: `{"v":2,"frame":{…}}`. Sample lines
/// are a flat [`MetricsSample`]; the `frame` key tells the two apart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub v: u32,
    /// The frame, merged across workers.
    pub frame: Frame,
}

/// Streams samples and frames as one JSON object per line (the
/// schema-versioned wire format; field `v` is [`SCHEMA_VERSION`]).
#[derive(Debug)]
pub struct JsonlSubscriber {
    out: Stream,
}

impl JsonlSubscriber {
    /// Creates (truncates) the JSONL file at `path` and its missing
    /// parent directories.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path when it cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, String> {
        let out = Stream::create(path).map_err(|e| e.to_string())?;
        Ok(JsonlSubscriber { out })
    }
}

impl Subscriber for JsonlSubscriber {
    fn on_sample(&mut self, sample: &MetricsSample) -> Result<(), String> {
        let line = serde_json::to_string(sample).map_err(|e| e.to_string())?;
        writeln!(self.out, "{line}").map_err(|e| e.to_string())
    }

    fn on_frame(&mut self, frame: &Frame) -> Result<(), String> {
        let frame = serde_json::to_string(frame).map_err(|e| e.to_string())?;
        writeln!(self.out, "{{\"v\":{SCHEMA_VERSION},\"frame\":{frame}}}")
            .map_err(|e| e.to_string())
    }

    fn on_close(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| e.to_string())
    }
}

/// Streams samples as CSV (header + one row per sample), for
/// spreadsheet-shaped consumers.
#[derive(Debug)]
pub struct CsvSubscriber {
    out: Stream,
    wrote_header: bool,
}

/// CSV column order (kept in sync with [`MetricsSample`]'s fields).
const CSV_HEADER: &str = "v,seq,cycle,tasks,tasks_delta,injected,injected_delta,\
ejected,ejected_delta,flit_hops,flit_hops_delta,pending,queued_msgs,active_tiles,\
total_tiles,active_routers,lat_count,lat_mean,lat_p50,lat_p95,lat_p99,\
lat_delta_count,lat_delta_mean,phase_pu_ns,phase_inject_ns,phase_net_ns,\
phase_worklist_ns,host_ns,cyc_per_s";

impl CsvSubscriber {
    /// Creates (truncates) the CSV file at `path` and its missing
    /// parent directories.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path when it cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, String> {
        let out = Stream::create(path).map_err(|e| e.to_string())?;
        Ok(CsvSubscriber {
            out,
            wrote_header: false,
        })
    }
}

impl Subscriber for CsvSubscriber {
    fn on_sample(&mut self, s: &MetricsSample) -> Result<(), String> {
        let io = |e: std::io::Error| e.to_string();
        if !self.wrote_header {
            writeln!(self.out, "{CSV_HEADER}").map_err(io)?;
            self.wrote_header = true;
        }
        writeln!(
            self.out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{},{:.3},{},{},{},{},{},{:.1}",
            s.v,
            s.seq,
            s.cycle,
            s.tasks,
            s.tasks_delta,
            s.injected,
            s.injected_delta,
            s.ejected,
            s.ejected_delta,
            s.flit_hops,
            s.flit_hops_delta,
            s.pending,
            s.queued_msgs,
            s.active_tiles,
            s.total_tiles,
            s.active_routers,
            s.lat_count,
            s.lat_mean,
            s.lat_p50,
            s.lat_p95,
            s.lat_p99,
            s.lat_delta_count,
            s.lat_delta_mean,
            s.phase_pu_ns,
            s.phase_inject_ns,
            s.phase_net_ns,
            s.phase_worklist_ns,
            s.host_ns,
            s.cyc_per_s,
        )
        .map_err(io)
    }

    fn on_close(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| e.to_string())
    }
}

/// Collects samples and frames into shared vectors — the test
/// subscriber.
#[derive(Debug, Default)]
pub struct MemorySubscriber {
    samples: Arc<Mutex<Vec<MetricsSample>>>,
    frames: Arc<Mutex<Vec<Frame>>>,
}

impl MemorySubscriber {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the collected samples (shared with the hub thread).
    pub fn samples(&self) -> Arc<Mutex<Vec<MetricsSample>>> {
        Arc::clone(&self.samples)
    }

    /// A handle to the collected frames (shared with the hub thread).
    pub fn frames(&self) -> Arc<Mutex<Vec<Frame>>> {
        Arc::clone(&self.frames)
    }
}

impl Subscriber for MemorySubscriber {
    fn on_sample(&mut self, sample: &MetricsSample) -> Result<(), String> {
        self.samples
            .lock()
            .map_err(|_| "sample collector poisoned".to_string())?
            .push(sample.clone());
        Ok(())
    }

    fn on_frame(&mut self, frame: &Frame) -> Result<(), String> {
        self.frames
            .lock()
            .map_err(|_| "frame collector poisoned".to_string())?
            .push(frame.clone());
        Ok(())
    }
}

/// The naive stdout progress line:
/// `cycle 12000 | 1.5M cyc/s | active 3.2% | ETA 00:42`.
///
/// Rewrites one terminal line per sample (carriage return, no newline
/// until close). The ETA extrapolates the current rate to
/// `target_cycle`, when one is known (a `max_cycles` ward).
#[derive(Debug)]
pub struct ProgressSubscriber {
    target_cycle: Option<u64>,
    wrote: bool,
}

impl ProgressSubscriber {
    /// Creates a progress line aiming at `target_cycle` (for the ETA).
    pub fn new(target_cycle: Option<u64>) -> Self {
        ProgressSubscriber {
            target_cycle,
            wrote: false,
        }
    }

    fn line(&self, s: &MetricsSample) -> String {
        let rate = if s.cyc_per_s >= 1e6 {
            format!("{:.1}M cyc/s", s.cyc_per_s / 1e6)
        } else if s.cyc_per_s >= 1e3 {
            format!("{:.1}k cyc/s", s.cyc_per_s / 1e3)
        } else {
            format!("{:.0} cyc/s", s.cyc_per_s)
        };
        let eta = match self.target_cycle {
            Some(target) if target > s.cycle && s.cyc_per_s > 0.0 => {
                let secs = (target - s.cycle) as f64 / s.cyc_per_s;
                let secs = secs.min(99.0 * 3600.0) as u64;
                format!(
                    "ETA {:02}:{:02}:{:02}",
                    secs / 3600,
                    (secs % 3600) / 60,
                    secs % 60
                )
            }
            _ => "ETA --".to_string(),
        };
        format!(
            "cycle {} | {rate} | active {:.1}% | {eta}",
            s.cycle,
            100.0 * s.active_fraction()
        )
    }
}

impl Subscriber for ProgressSubscriber {
    fn on_sample(&mut self, sample: &MetricsSample) -> Result<(), String> {
        let mut out = std::io::stdout().lock();
        // ignore a broken stdout pipe: progress is best-effort cosmetics
        let _ = write!(out, "\r\x1b[2K{}", self.line(sample));
        let _ = out.flush();
        self.wrote = true;
        Ok(())
    }

    fn on_close(&mut self) -> Result<(), String> {
        if self.wrote {
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out);
            let _ = out.flush();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, cycle: u64) -> MetricsSample {
        MetricsSample {
            seq,
            cycle,
            tasks: 100 * seq,
            active_tiles: 8,
            total_tiles: 64,
            cyc_per_s: 2_500_000.0,
            ..MetricsSample::default()
        }
    }

    #[test]
    fn jsonl_writes_one_versioned_object_per_line() {
        let dir = std::env::temp_dir().join("muchisim-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let mut sub = JsonlSubscriber::create(&path).unwrap();
        sub.on_sample(&sample(0, 1_000)).unwrap();
        sub.on_sample(&sample(1, 2_000)).unwrap();
        sub.on_close().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let back: MetricsSample = serde_json::from_str(line).unwrap();
            assert_eq!(back.v, crate::SCHEMA_VERSION);
            assert_eq!(back.seq, i as u64);
        }
    }

    #[test]
    fn csv_has_header_and_matching_column_count() {
        let dir = std::env::temp_dir().join("muchisim-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.csv");
        let mut sub = CsvSubscriber::create(&path).unwrap();
        sub.on_sample(&sample(0, 1_000)).unwrap();
        sub.on_close().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), cols);
        assert!(lines[0].starts_with("v,seq,cycle,"));
    }

    #[test]
    fn memory_subscriber_shares_its_buffer() {
        let mut sub = MemorySubscriber::new();
        let handle = sub.samples();
        sub.on_sample(&sample(0, 10)).unwrap();
        sub.on_sample(&sample(1, 20)).unwrap();
        sub.on_frame(&Frame::default()).unwrap();
        assert_eq!(handle.lock().unwrap().len(), 2);
        assert_eq!(sub.frames().lock().unwrap().len(), 1);
    }

    #[test]
    fn progress_line_formats_rate_active_and_eta() {
        let sub = ProgressSubscriber::new(Some(10_000_000));
        let line = sub.line(&sample(3, 5_000_000));
        assert!(line.contains("cycle 5000000"), "{line}");
        assert!(line.contains("2.5M cyc/s"), "{line}");
        assert!(line.contains("active 12.5%"), "{line}");
        assert!(line.contains("ETA 00:00:02"), "{line}");
        // no target → no ETA estimate
        let sub = ProgressSubscriber::new(None);
        assert!(sub.line(&sample(0, 1)).contains("ETA --"));
    }
}
