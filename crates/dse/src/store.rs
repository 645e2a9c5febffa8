//! The resumable JSONL result store.
//!
//! Every completed simulation of a sweep appends one self-contained JSON
//! line: identity, the full resolved [`SystemConfig`] and the complete
//! [`SimResult`] (counters included). Storing the inputs with the outputs
//! is what makes the paper's decoupled workflow possible — a store can be
//! re-reported or re-priced under different model parameters without
//! re-simulating — and storing one line per run is what makes sweeps
//! resumable: re-running a sweep skips run IDs already on disk.

use crate::error::DseError;
use muchisim_config::output;
use muchisim_config::SystemConfig;
use muchisim_core::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// One completed sweep run: identity + inputs + outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Stable run ID (see [`crate::RunPoint::run_id`]).
    pub run_id: String,
    /// Expansion-order index, so reports print in spec order no matter
    /// which worker finished first.
    pub order: u64,
    /// The report's "config" column label.
    pub config_label: String,
    /// Application label (e.g. `"BFS"`).
    pub app: String,
    /// Dataset label (e.g. `"RMAT-11"`).
    pub dataset: String,
    /// The fully resolved configuration the run used.
    pub config: SystemConfig,
    /// The simulation result, counters and all.
    pub result: SimResult,
}

/// An append-only JSONL store of [`RunRecord`]s.
#[derive(Debug)]
pub struct JsonlStore {
    path: PathBuf,
    records: Vec<RunRecord>,
}

impl JsonlStore {
    /// Opens (or prepares to create) the store at `path`, loading any
    /// records already present.
    ///
    /// A final line that fails to parse is treated as a crash-truncated
    /// append: it is dropped with a warning to stderr and the file is
    /// replaced by its lines up to the last valid record, so the next
    /// append starts on a clean boundary instead of concatenating onto
    /// the garbage. A malformed line anywhere else is an error.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the file exists but cannot be read
    /// and [`DseError::Store`] on malformed content.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DseError> {
        let path = path.into();
        let mut records = Vec::new();
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let last_nonempty = lines.iter().rposition(|line| !line.trim().is_empty());
            // byte offset of line `i`: the well-formed prefix before it
            let mut start = 0;
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    start += line.len();
                    continue;
                }
                match serde_json::from_str::<RunRecord>(line.trim_end()) {
                    Ok(rec) => {
                        records.push(rec);
                        start += line.len();
                    }
                    Err(e) if Some(i) == last_nonempty => {
                        eprintln!(
                            "warning: dropping truncated final record in {} ({e})",
                            path.display()
                        );
                        output::replace(&path, |w| w.write_all(&text.as_bytes()[..start]))?;
                        break;
                    }
                    Err(e) => {
                        return Err(DseError::Store(format!(
                            "{} line {}: {e}",
                            path.display(),
                            i + 1
                        )));
                    }
                }
            }
        }
        Ok(JsonlStore { path, records })
    }

    /// The store's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All records, in file order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// The run IDs already completed.
    pub fn completed_ids(&self) -> HashSet<String> {
        self.records.iter().map(|r| r.run_id.clone()).collect()
    }

    /// Appends one record to the file (creating it and parent directories
    /// on first write) and to the in-memory view.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] / [`DseError::Store`] when the record
    /// cannot be serialized or written.
    pub fn append(&mut self, record: RunRecord) -> Result<(), DseError> {
        let mut line = serde_json::to_string(&record)
            .map_err(|e| DseError::Store(format!("serializing record: {e}")))?;
        // one write for line + newline: a crash can leave a truncated
        // line (which open() repairs) but never a complete record missing
        // its terminator, which a later append would corrupt
        line.push('\n');
        output::append(&self.path, line.as_bytes())?;
        self.records.push(record);
        Ok(())
    }

    /// Records sorted into expansion order (then run ID, for stability
    /// across stores that merged several sweeps).
    pub fn sorted_records(&self) -> Vec<&RunRecord> {
        let mut out: Vec<&RunRecord> = self.records.iter().collect();
        out.sort_by(|a, b| a.order.cmp(&b.order).then_with(|| a.run_id.cmp(&b.run_id)));
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use muchisim_config::TimePs;
    use muchisim_core::{FrameLog, SimCounters};

    pub(crate) fn record(run_id: &str, order: u64, check_error: Option<&str>) -> RunRecord {
        RunRecord {
            run_id: run_id.to_string(),
            order,
            config_label: "cfg".to_string(),
            app: "BFS".to_string(),
            dataset: "RMAT-5".to_string(),
            config: SystemConfig::default(),
            result: SimResult {
                runtime_cycles: 1,
                runtime: TimePs::ps(1.0),
                counters: SimCounters::default(),
                frames: FrameLog::default(),
                noc_latency: muchisim_core::LatencyStats::default(),
                host_seconds: 0.0,
                host_phase_ns: muchisim_core::HostPhaseNs::default(),
                host_router_visits: Default::default(),
                host_threads: 1,
                total_tiles: 1,
                host_state_bytes: 0,
                check_error: check_error.map(str::to_string),
                telemetry_dropped: 0,
                termination: "finished".to_string(),
            },
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("muchisim-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_reload_round_trip() {
        let path = temp_path("round_trip.jsonl");
        let mut store = JsonlStore::open(&path).unwrap();
        store.append(record("a", 0, None)).unwrap();
        store.append(record("b", 1, Some("bad"))).unwrap();
        let reloaded = JsonlStore::open(&path).unwrap();
        assert_eq!(reloaded.records(), store.records());
        assert!(reloaded.completed_ids().contains("a"));
        assert_eq!(
            reloaded.records()[1].result.check_error.as_deref(),
            Some("bad")
        );
    }

    #[test]
    fn records_written_before_the_frame_keys_were_removed_still_load() {
        // older stores carry `frame_budget` / `frame_spill` (always `null`
        // there: sweeps rejected the spill, nothing set the budget) and
        // `active_list` (`false` in full-sweep ablations), results carry
        // the tasks per grid column, and no `telemetry_dropped`
        let line = serde_json::to_string(&record("old", 0, None)).unwrap();
        let legacy = line
            .replace(
                "\"noc_trace\":",
                "\"frame_budget\":null,\"frame_spill\":null,\"noc_trace\":",
            )
            .replace("\"verbosity\":", "\"active_list\":false,\"verbosity\":")
            .replace(
                "\"termination\":",
                "\"column_activity\":[3,0,5,1],\"termination\":",
            )
            .replace(",\"telemetry_dropped\":0", "");
        assert!(legacy.contains("\"active_list\":false"));
        assert!(legacy.contains("\"column_activity\":[3,0,5,1]"));
        assert_ne!(legacy, line);
        assert!(!legacy.contains("telemetry_dropped"));
        let path = temp_path("legacy.jsonl");
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let store = JsonlStore::open(&path).unwrap();
        assert_eq!(store.records(), &[record("old", 0, None)]);
    }

    #[test]
    fn crash_truncated_tail_is_cut_so_appends_stay_parseable() {
        let path = temp_path("truncated.jsonl");
        let mut store = JsonlStore::open(&path).unwrap();
        store.append(record("a", 0, None)).unwrap();
        // simulate a crash mid-append: a partial record with no newline
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"run_id\":\"parti").unwrap();
        }
        // reopening drops the garbage AND truncates the file...
        let mut resumed = JsonlStore::open(&path).unwrap();
        assert_eq!(resumed.records().len(), 1);
        let first = serde_json::to_string(&record("a", 0, None)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{first}\n")
        );
        // ...so the next append lands on a clean line boundary
        resumed.append(record("b", 1, None)).unwrap();
        let reloaded = JsonlStore::open(&path).unwrap();
        assert_eq!(reloaded.records().len(), 2);
        assert_eq!(reloaded.records()[1].run_id, "b");
    }

    #[test]
    fn malformed_middle_line_is_an_error() {
        let path = temp_path("corrupt.jsonl");
        let line = serde_json::to_string(&record("a", 0, None)).unwrap();
        // a garbage line *followed by* a valid record is corruption, not
        // a crash-truncated tail
        std::fs::write(&path, format!("not json\n{line}\n")).unwrap();
        let err = JsonlStore::open(&path).unwrap_err();
        assert!(matches!(err, DseError::Store(_)), "{err:?}");
    }
}
