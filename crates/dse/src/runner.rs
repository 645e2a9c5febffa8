//! The parallel batch runner.
//!
//! Takes the expanded [`RunPoint`]s of a spec and executes the ones not
//! yet in the store, scheduling simulations concurrently over a
//! host-thread budget. Each distinct dataset is generated once and shared
//! across all its sweep points via `Arc<Csr>` — a sweep of N configs over
//! one graph holds one host copy, not N.
//!
//! Results stream into the [`JsonlStore`] as they complete, so an
//! interrupted sweep resumes where it stopped. Simulation results are
//! deterministic (see the leap/parallel determinism tests), so running
//! points concurrently and out of order changes nothing about the
//! reported numbers.
//!
//! With [`BatchRunner::with_sample_every`], every point additionally
//! streams a live metrics sample each `sample_every` cycles into its own
//! `<store>.metrics/<run_id>.jsonl`, so an in-flight sweep can be watched
//! point by point (`tail -f`) instead of only at record granularity.
//! Points whose configs arm telemetry wards stay first-class sweep
//! subjects: a tripped ward is an *outcome*, not a batch failure — the
//! partial result inside the [`muchisim_core::WardReport`] is recorded
//! with `termination = "ward:<name>"` and the sweep continues.

use crate::error::DseError;
use crate::spec::{DatasetSpec, ExperimentSpec, RunPoint};
use crate::store::{JsonlStore, RunRecord};
use muchisim_apps::run_benchmark;
use muchisim_data::Csr;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// What a batch did: how many points ran, were skipped as already
/// complete, or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Points simulated in this invocation.
    pub executed: usize,
    /// Points skipped because the store already held their run ID,
    /// recorded with the point's configuration.
    pub skipped: usize,
    /// Points whose result check failed — counting both fresh executions
    /// and failures already recorded in the store for skipped points, so
    /// a resumed sweep over bad data stays loud instead of going green.
    pub check_failures: usize,
    /// Points a telemetry ward terminated early (fresh executions plus
    /// ward records already in the store for skipped points). These are
    /// recorded outcomes, not failures: their partial results are in the
    /// store with `termination = "ward:<name>"`.
    pub ward_trips: usize,
}

/// A batch executor with a host-thread budget.
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    /// Total host threads the batch may use at once.
    pub host_threads: usize,
    /// When set, every point streams a metrics sample each `sample_every`
    /// cycles into `<store>.metrics/<run_id>.jsonl` — live per-point
    /// progress for an in-flight sweep. Sampling is pure observation:
    /// reported numbers are bit-identical either way.
    pub sample_every: Option<u64>,
}

impl BatchRunner {
    /// A runner budgeted to `host_threads` total threads.
    pub fn new(host_threads: usize) -> Self {
        BatchRunner {
            host_threads: host_threads.max(1),
            sample_every: None,
        }
    }

    /// Enables live per-point metrics: each point streams a sample every
    /// `every` cycles (min 1) into `<store>.metrics/<run_id>.jsonl`.
    pub fn with_sample_every(mut self, every: u64) -> Self {
        self.sample_every = Some(every.max(1));
        self
    }

    /// Expands and runs `spec`, streaming results into `store`.
    ///
    /// # Errors
    ///
    /// Propagates expansion errors and the first engine or store error
    /// (completed points remain in the store either way).
    pub fn run_spec(
        &self,
        spec: &ExperimentSpec,
        store: &mut JsonlStore,
    ) -> Result<BatchOutcome, DseError> {
        let points = spec.expand()?;
        self.run_points(&points, spec.threads_per_run, store)
    }

    /// Runs the `points` not yet in `store`, `threads_per_run` host
    /// threads each, at most `host_threads / threads_per_run` (min 1)
    /// simulations in flight.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Store`] before anything runs when the store
    /// holds a point's run ID with another configuration; otherwise the
    /// first engine or store error, completed points remaining recorded.
    pub fn run_points(
        &self,
        points: &[RunPoint],
        threads_per_run: usize,
        store: &mut JsonlStore,
    ) -> Result<BatchOutcome, DseError> {
        let threads_per_run = threads_per_run.max(1);
        let stored: HashMap<&str, &RunRecord> = store
            .records()
            .iter()
            .map(|r| (r.run_id.as_str(), r))
            .collect();
        let mut outcome = BatchOutcome::default();
        let mut pending = Vec::new();
        for point in points {
            // single-writer host-side outputs cannot coexist with a
            // batch: NoC tracing and metrics streams truncate and write
            // one shared file per simulation (concurrent points would
            // interleave into the same path and silently corrupt it),
            // and a user-set checkpoint path would make every point
            // resume from whichever point snapshotted last
            let cfg = &point.config;
            let shared = [
                ("noc_trace", &cfg.noc_trace),
                ("checkpoint_path", &cfg.checkpoint_path),
                ("telemetry.metrics_path", &cfg.telemetry.metrics_path),
                ("telemetry.metrics_csv", &cfg.telemetry.metrics_csv),
            ];
            if let Some(&(key, _)) = shared.iter().find(|(_, path)| path.is_some()) {
                let run_id = point.run_id.clone();
                return Err(DseError::ResumeIncompatible { key, run_id });
            }
            let Some(record) = stored.get(point.run_id.as_str()) else {
                pending.push(point);
                continue;
            };
            // run IDs do not encode base overrides: a record stands for
            // its point only if it ran the point's config
            if record.config != *cfg {
                return Err(DseError::Store(format!(
                    "{} holds run `{}` with another configuration; \
                     delete it or use another store",
                    store.path().display(),
                    point.run_id
                )));
            }
            outcome.skipped += 1;
            // a ward-terminated record expectably fails the output check
            // (the run was cut short by design), so it counts as a ward
            // trip, not a check failure
            if record.result.termination_label().starts_with("ward:") {
                outcome.ward_trips += 1;
            } else if record.result.check_error.is_some() {
                outcome.check_failures += 1;
            }
        }

        // Generate each distinct dataset once, shared by every point.
        let mut datasets: HashMap<DatasetSpec, Arc<Csr>> = HashMap::new();
        for point in &pending {
            datasets
                .entry(point.dataset.clone())
                .or_insert_with(|| Arc::new(point.dataset.generate()));
        }

        let beside_store = |suffix: &str| {
            let mut os = store.path().as_os_str().to_os_string();
            os.push(suffix);
            PathBuf::from(os)
        };
        // live per-point metrics streams live next to the store, one file
        // per run ID, kept after completion (they are the record of how
        // the point got there)
        let metrics_dir = self.sample_every.map(|_| beside_store(".metrics"));

        let slots = (self.host_threads / threads_per_run).clamp(1, pending.len().max(1));
        let queue = Mutex::new(pending.into_iter());
        let sink: Mutex<(&mut JsonlStore, Vec<DseError>, &mut BatchOutcome)> =
            Mutex::new((store, Vec::new(), &mut outcome));

        std::thread::scope(|scope| {
            for _ in 0..slots {
                scope.spawn(|| loop {
                    let Some(point) = queue.lock().expect("queue lock").next() else {
                        return;
                    };
                    let graph = Arc::clone(&datasets[&point.dataset]);
                    let mut cfg = point.config.clone();
                    if let Some(dir) = &metrics_dir {
                        let path = dir.join(format!("{}.jsonl", point.run_id));
                        cfg.telemetry.sample_every = self.sample_every;
                        cfg.telemetry.metrics_path = Some(path.to_string_lossy().into_owned());
                    }
                    // a ward trip is a recorded outcome, not an engine
                    // failure: fold its partial result back into the Ok
                    // path (termination already says "ward:<name>")
                    let run = match run_benchmark(point.app, cfg, &graph, threads_per_run) {
                        Err(muchisim_core::SimError::Ward(report)) if report.partial.is_some() => {
                            Ok(*report.partial.expect("partial checked above"))
                        }
                        other => other,
                    };
                    let mut guard = sink.lock().expect("sink lock");
                    let (store, errors, outcome) = &mut *guard;
                    match run {
                        Ok(result) => {
                            outcome.executed += 1;
                            if result.termination_label().starts_with("ward:") {
                                outcome.ward_trips += 1;
                            } else if result.check_error.is_some() {
                                outcome.check_failures += 1;
                            }
                            let record = RunRecord {
                                run_id: point.run_id.clone(),
                                order: point.order,
                                config_label: point.config_label.clone(),
                                app: point.app.label().to_string(),
                                dataset: point.dataset.label(),
                                config: point.config.clone(),
                                result,
                            };
                            if let Err(e) = store.append(record) {
                                errors.push(e);
                                return; // a dead store poisons the batch
                            }
                        }
                        Err(e) => errors.push(e.into()),
                    }
                });
            }
        });

        let (_, mut errors, _) = sink.into_inner().expect("sink lock");
        match errors.is_empty() {
            true => Ok(outcome),
            false => Err(errors.swap_remove(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::from_json(
            r#"{
                "name": "runner_test",
                "base": ["hierarchy.chiplet.x=4", "hierarchy.chiplet.y=4"],
                "axes": [{"name": "sram", "points": [
                    {"label": "64KiB", "set": ["sram_kib_per_tile=64"]},
                    {"label": "128KiB", "set": ["sram_kib_per_tile=128"]}
                ]}],
                "apps": ["bfs", "histo"],
                "datasets": [{"rmat": {"scale": 5, "seed": 7}}]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn batch_runs_all_points_then_resumes_with_skips() {
        let dir = std::env::temp_dir().join(format!("muchisim-dse-{}", std::process::id()));
        let path = dir.join("runner_test.jsonl");
        let _ = std::fs::remove_file(&path);

        let spec = tiny_spec();
        let mut store = JsonlStore::open(&path).unwrap();
        let outcome = BatchRunner::new(4).run_spec(&spec, &mut store).unwrap();
        assert_eq!(outcome.executed, 4);
        assert_eq!(outcome.skipped, 0);
        assert_eq!(outcome.check_failures, 0);
        assert_eq!(store.records().len(), 4);

        // a second invocation over the same store runs nothing
        let mut reopened = JsonlStore::open(&path).unwrap();
        assert_eq!(reopened.records().len(), 4);
        let outcome2 = BatchRunner::new(4).run_spec(&spec, &mut reopened).unwrap();
        assert_eq!(outcome2.executed, 0);
        assert_eq!(outcome2.skipped, 4);

        // concurrent execution reported the same numbers as serial
        let serial_path = dir.join("runner_test_serial.jsonl");
        let _ = std::fs::remove_file(&serial_path);
        let mut serial = JsonlStore::open(&serial_path).unwrap();
        BatchRunner::new(1).run_spec(&spec, &mut serial).unwrap();
        for (a, b) in serial
            .sorted_records()
            .iter()
            .zip(reopened.sorted_records())
        {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.result.runtime_cycles, b.result.runtime_cycles);
            assert_eq!(a.result.counters, b.result.counters);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stored_run_is_skipped_only_under_the_points_config() {
        let dir = std::env::temp_dir().join(format!("muchisim-dse-stale-{}", std::process::id()));
        let path = dir.join("stale.jsonl");
        let _ = std::fs::remove_file(&path);
        let spec = tiny_spec();
        let mut store = JsonlStore::open(&path).unwrap();
        BatchRunner::new(4).run_spec(&spec, &mut store).unwrap();
        let again = BatchRunner::new(4).run_spec(&spec, &mut store).unwrap();
        assert_eq!((again.executed, again.skipped), (0, 4));

        // an edited base keeps every run ID and changes every config
        let mut edited = tiny_spec();
        edited
            .base
            .push(crate::parse_assignment("traffic.seed=9").unwrap());
        let first = edited.expand().unwrap().remove(0).run_id;
        let err = BatchRunner::new(4)
            .run_spec(&edited, &mut store)
            .unwrap_err();
        assert!(matches!(err, DseError::Store(_)), "{err:?}");
        let message = err.to_string();
        assert!(message.contains(&format!("{} holds run `{first}`", path.display())));
        assert_eq!(store.records().len(), 4, "nothing may have run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn noc_trace_points_are_rejected() {
        let spec = ExperimentSpec::from_json(
            r#"{
                "name": "trace_reject",
                "base": ["hierarchy.chiplet.x=2", "hierarchy.chiplet.y=2",
                         "noc_trace=\"/tmp/shared.trace.jsonl\""],
                "apps": ["bfs"],
                "datasets": [{"rmat": {"scale": 5, "seed": 7}}]
            }"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("muchisim-dse-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace_reject.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut store = JsonlStore::open(&path).unwrap();
        let err = BatchRunner::new(2).run_spec(&spec, &mut store).unwrap_err();
        assert!(
            matches!(
                err,
                DseError::ResumeIncompatible {
                    key: "noc_trace",
                    ..
                }
            ),
            "wrong variant: {err:?}"
        );
        assert!(
            err.to_string().contains("noc_trace"),
            "unexpected error: {err}"
        );
        assert!(store.records().is_empty(), "nothing may have run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn user_set_checkpoint_path_points_are_rejected() {
        // the runner derives per-point snapshot paths itself; a shared
        // user-set path would make every point resume from whichever
        // point snapshotted last
        let spec = ExperimentSpec::from_json(
            r#"{
                "name": "ckpt_reject",
                "base": ["hierarchy.chiplet.x=2", "hierarchy.chiplet.y=2",
                         "checkpoint_path=\"/tmp/shared.snap\"",
                         "checkpoint_every=1000"],
                "apps": ["bfs"],
                "datasets": [{"rmat": {"scale": 5, "seed": 7}}]
            }"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("muchisim-dse-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt_reject.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut store = JsonlStore::open(&path).unwrap();
        let err = BatchRunner::new(2).run_spec(&spec, &mut store).unwrap_err();
        assert!(
            matches!(
                err,
                DseError::ResumeIncompatible {
                    key: "checkpoint_path",
                    ..
                }
            ),
            "wrong variant: {err:?}"
        );
        assert!(
            err.to_string().contains("checkpoint_path"),
            "unexpected error: {err}"
        );
        assert!(store.records().is_empty(), "nothing may have run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traffic_rate_axis_sweeps_through_the_batch_runner() {
        // the tentpole promise: synthetic traffic is a first-class sweep
        // subject — pattern via the app axis, rate via string overrides
        let spec = ExperimentSpec::from_json(
            r#"{
                "name": "traffic_axis",
                "base": ["hierarchy.chiplet.x=4", "hierarchy.chiplet.y=4",
                         "traffic.cycles=200"],
                "axes": [{"name": "load", "points": [
                    {"label": "r0.02", "set": ["traffic.rate=0.02"]},
                    {"label": "r0.10", "set": ["traffic.rate=0.10"]}
                ]}],
                "apps": ["traf-uniform", "traf-transpose"],
                "datasets": [{"rmat": {"scale": 4, "seed": 1}}]
            }"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("muchisim-dse-traf-{}", std::process::id()));
        let path = dir.join("traffic_axis.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut store = JsonlStore::open(&path).unwrap();
        let outcome = BatchRunner::new(2).run_spec(&spec, &mut store).unwrap();
        assert_eq!(outcome.executed, 4);
        assert_eq!(outcome.check_failures, 0);
        let low: u64 = store
            .records()
            .iter()
            .filter(|r| r.config_label == "r0.02")
            .map(|r| r.result.counters.noc.injected)
            .sum();
        let high: u64 = store
            .records()
            .iter()
            .filter(|r| r.config_label == "r0.10")
            .map(|r| r.result.counters.noc.injected)
            .sum();
        assert!(
            high > 2 * low,
            "5x the rate must inject well over 2x the packets ({low} vs {high})"
        );
        assert!(store
            .records()
            .iter()
            .all(|r| r.result.noc_latency.count == r.result.counters.noc.ejected));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_path_points_are_rejected() {
        // per-point metrics streams are the runner's job (one file per
        // run ID); a user-set shared stream path would interleave points
        let spec = ExperimentSpec::from_json(
            r#"{
                "name": "metrics_reject",
                "base": ["hierarchy.chiplet.x=2", "hierarchy.chiplet.y=2",
                         "telemetry.sample_every=64",
                         "telemetry.metrics_path=\"/tmp/shared.metrics.jsonl\""],
                "apps": ["bfs"],
                "datasets": [{"rmat": {"scale": 5, "seed": 7}}]
            }"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("muchisim-dse-mreject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics_reject.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut store = JsonlStore::open(&path).unwrap();
        let err = BatchRunner::new(2).run_spec(&spec, &mut store).unwrap_err();
        assert!(
            matches!(
                err,
                DseError::ResumeIncompatible {
                    key: "telemetry.metrics_path",
                    ..
                }
            ),
            "wrong variant: {err:?}"
        );
        assert!(store.records().is_empty(), "nothing may have run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_batch_streams_per_point_metrics_without_perturbing_results() {
        let dir = std::env::temp_dir().join(format!("muchisim-dse-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let points = spec.expand().unwrap();

        // reference sweep without sampling
        let plain_path = dir.join("plain.jsonl");
        let _ = std::fs::remove_file(&plain_path);
        let mut plain = JsonlStore::open(&plain_path).unwrap();
        BatchRunner::new(2).run_spec(&spec, &mut plain).unwrap();

        let store_path = dir.join("sampled.jsonl");
        let _ = std::fs::remove_file(&store_path);
        let metrics_dir = dir.join("sampled.jsonl.metrics");
        let _ = std::fs::remove_dir_all(&metrics_dir);
        let mut store = JsonlStore::open(&store_path).unwrap();
        let outcome = BatchRunner::new(2)
            .with_sample_every(64)
            .run_spec(&spec, &mut store)
            .unwrap();
        assert_eq!(outcome.executed, points.len());
        assert_eq!(outcome.ward_trips, 0);

        // every point streamed its own JSONL metrics file...
        for point in &points {
            let stream = metrics_dir.join(format!("{}.jsonl", point.run_id));
            let text = std::fs::read_to_string(&stream)
                .unwrap_or_else(|e| panic!("missing metrics stream {}: {e}", stream.display()));
            assert!(
                text.lines().count() >= 1,
                "empty metrics stream for {}",
                point.run_id
            );
            assert!(text.lines().all(|l| l.starts_with("{\"v\":")));
        }
        // ...and sampling changed nothing about the reported numbers
        for (a, b) in plain.sorted_records().iter().zip(store.sorted_records()) {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.result.runtime_cycles, b.result.runtime_cycles);
            assert_eq!(a.result.counters, b.result.counters);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ward_tripped_points_are_recorded_outcomes_not_batch_failures() {
        // one axis point arms an impossibly tight cycle budget: that
        // point must land in the store as termination "ward:max_cycles"
        // with its partial result, while the untripped point completes
        let spec = ExperimentSpec::from_json(
            r#"{
                "name": "ward_axis",
                "base": ["hierarchy.chiplet.x=4", "hierarchy.chiplet.y=4",
                         "telemetry.sample_every=32"],
                "axes": [{"name": "budget", "points": [
                    {"label": "unbounded", "set": []},
                    {"label": "tight", "set": ["telemetry.wards.max_cycles=64"]}
                ]}],
                "apps": ["bfs"],
                "datasets": [{"rmat": {"scale": 5, "seed": 7}}]
            }"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("muchisim-dse-ward-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ward_axis.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut store = JsonlStore::open(&path).unwrap();
        let outcome = BatchRunner::new(2).run_spec(&spec, &mut store).unwrap();
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.ward_trips, 1);
        assert_eq!(
            outcome.check_failures, 0,
            "a deliberate ward trip is not a check failure"
        );
        let records = store.sorted_records();
        assert_eq!(records.len(), 2);
        let tripped = records
            .iter()
            .find(|r| r.config_label == "tight")
            .expect("tight point recorded");
        assert_eq!(tripped.result.termination_label(), "ward:max_cycles");
        let done = records
            .iter()
            .find(|r| r.config_label == "unbounded")
            .expect("unbounded point recorded");
        assert_eq!(done.result.termination_label(), "finished");
        assert!(done.result.check_error.is_none());
        assert!(
            tripped.result.runtime_cycles < done.result.runtime_cycles,
            "the warded point must have been cut short ({} vs {})",
            tripped.result.runtime_cycles,
            done.result.runtime_cycles
        );

        // resuming over the same store re-counts the stored trip without
        // re-running anything — the fleet view stays truthful
        let mut reopened = JsonlStore::open(&path).unwrap();
        let outcome2 = BatchRunner::new(2).run_spec(&spec, &mut reopened).unwrap();
        assert_eq!(outcome2.executed, 0);
        assert_eq!(outcome2.skipped, 2);
        assert_eq!(outcome2.ward_trips, 1);
        assert_eq!(outcome2.check_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_check_failures_stay_loud_on_resume() {
        let dir = std::env::temp_dir().join(format!("muchisim-dse-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failed.jsonl");
        let _ = std::fs::remove_file(&path);

        let spec = tiny_spec();
        let points = spec.expand().unwrap();

        // a previous invocation recorded a run whose check failed
        let mut store = JsonlStore::open(&path).unwrap();
        let mut failed = crate::store::tests::record(&points[0].run_id, points[0].order, None);
        failed.config = points[0].config.clone();
        failed.result.check_error = Some("mismatch at vertex 3".to_string());
        store.append(failed).unwrap();

        // resuming executes only the other points, but the stored
        // failure still counts — the sweep must not go green
        let outcome = BatchRunner::new(4)
            .run_points(&points, spec.threads_per_run, &mut store)
            .unwrap();
        assert_eq!(outcome.executed, points.len() - 1);
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.check_failures, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
