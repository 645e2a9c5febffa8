//! One run of one workload: the set-up / simulate loop, the correctness
//! gate, and the metrics of either the untraced or the traced pass.

use crate::calib;
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::probes::{self, Reading};
use crate::procfs;
use crate::stats::median;
use crate::trace::{self_times, Tracer};
use crate::workloads::{
    capture_files, durable_cadence_counts, prepare, resume_durable, Facts, Raw, Sizing, Workload,
};
use serde::Value;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The seed `expected.json` pins simulated results for.
pub const PIN_SEED: u64 = 42;

/// Set-up is milliseconds on most workloads, so an untraced iteration
/// repeats it, for this share of the iteration's time or until it has
/// this many samples, to steady the median.
const EXTRA_SETUP_SHARE: f64 = 0.08;
const SETUPS_PER_ITERATION: usize = 40;

/// Iteration cap, so a smoke-sized run does not spin for thousands.
const MAX_ITERATIONS: usize = 40;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
}

/// The result line of a run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reading>,
}

/// Simulated results pinned in `expected.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub digest: u64,
    pub runtime_cycles: u64,
    pub packets: u64,
}

impl Pin {
    pub fn of(facts: &Facts) -> Pin {
        Pin {
            digest: facts.digest,
            runtime_cycles: facts.runtime_cycles,
            packets: facts.packets(),
        }
    }
}

pub fn pin_key(workload: Workload, sizing: Sizing) -> String {
    format!("{}/{}", workload.name(), sizing.label())
}

/// Parses the text of `expected.json`.
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, Pin>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("expected.json: {e}"))?;
    let pins = doc
        .as_object()
        .and_then(|d| d.get("pins"))
        .and_then(Value::as_object)
        .ok_or("expected.json: no `pins` object")?;
    pins.iter()
        .map(|(key, pin)| {
            let field = |name: &str| pin.as_object().and_then(|p| p.get(name));
            let digest = field("digest")
                .and_then(Value::as_str)
                .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok());
            let cycles = field("runtime_cycles").and_then(Value::as_u64);
            let packets = field("packets").and_then(Value::as_u64);
            match (digest, cycles, packets) {
                (Some(digest), Some(runtime_cycles), Some(packets)) => Ok((
                    key.clone(),
                    Pin {
                        digest,
                        runtime_cycles,
                        packets,
                    },
                )),
                _ => Err(format!("expected.json: malformed pin `{key}`")),
            }
        })
        .collect()
}

fn pins() -> Result<BTreeMap<String, Pin>, String> {
    parse_pins(include_str!("../expected.json"))
}

/// A directory under `benchmark/out` for the files this run writes,
/// removed again when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nth = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()?.join(format!("tmp-{}-{nth}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out` under the current directory, which must be the
/// repository root: the benchmark writes nowhere else.
pub fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (no benchmark/Cargo.toml here)".into());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Attempted and failed simulations of the whole run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        eprintln!("FAILED: {why}");
        self.failures.push(why);
    }
}

/// One set-up plus simulate call, with the host's speed around it.
struct Iteration {
    /// Wall seconds of the set-up the simulate call consumed.
    setup_s: f64,
    /// Wall seconds of every set-up made in this iteration.
    setups: Vec<f64>,
    /// Wall seconds of the simulate call.
    host_s: f64,
    /// Scales this iteration's wall times to the reference host speed
    /// (see [`calib`]).
    speed: f64,
    /// Wall seconds of the whole iteration, calibration included.
    wall_s: f64,
    cpu_s: f64,
    facts: Facts,
    /// Simulations the simulate call made.
    sims: u64,
    spans: Range<usize>,
}

impl Iteration {
    fn scaled_host_s(&self) -> f64 {
        self.host_s * self.speed
    }

    fn events_per_s(&self) -> f64 {
        self.facts.events() as f64 / self.scaled_host_s()
    }
}

/// Whether another loop body fits `budget_s`, given what the bodies so
/// far took: the loop ends within half a body of the budget.
fn fits(bodies: &[Iteration], budget_s: f64) -> bool {
    let spent: f64 = bodies.iter().map(|it| it.wall_s).sum();
    bodies.len() < MAX_ITERATIONS && spent + spent / bodies.len() as f64 / 2.0 <= budget_s
}

fn median_of(iterations: &[Iteration], of: &dyn Fn(&Iteration) -> f64) -> f64 {
    median(&iterations.iter().map(of).collect::<Vec<_>>())
}

struct Runner<'a> {
    opts: &'a Options,
    dir: &'a Path,
    tr: Tracer,
    tally: Tally,
}

impl Runner<'_> {
    /// One iteration. `extra_setup_share` > 0 repeats the set-up after
    /// the simulate call for that share of the iteration's time.
    fn iterate(
        &mut self,
        workload: Workload,
        sizing: Sizing,
        seed: u64,
        extra_setup_share: f64,
    ) -> Iteration {
        let first_span = self.tr.spans().len();
        let dir = self.dir;
        let entered = Instant::now();
        let calib_before = calib::sample_ns();
        let started = Instant::now();
        let prepared = self
            .tr
            .span("setup", |tr| prepare(workload, sizing, seed, dir, tr));
        let setup_s = started.elapsed().as_secs_f64();
        let cpu_before = procfs::cpu_seconds().unwrap_or(0.0);
        let started = Instant::now();
        let raw = match prepared {
            Ok(simulate) => self.tr.span("simulate", simulate),
            Err(why) => Raw {
                attempted: 1,
                failures: vec![format!("set-up: {why}")],
                ..Raw::default()
            },
        };
        let host_s = started.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu_before;
        let spans = first_span..self.tr.spans().len();

        let mut setups = vec![setup_s];
        let extra = Instant::now();
        while setups.len() < SETUPS_PER_ITERATION
            && extra.elapsed().as_secs_f64() < extra_setup_share * (setup_s + host_s)
        {
            let started = Instant::now();
            let again = prepare(workload, sizing, seed, dir, &mut self.tr);
            setups.push(started.elapsed().as_secs_f64());
            if let Err(why) = again {
                self.tally.attempted += 1;
                self.tally
                    .fail(format!("{}: repeated set-up: {why}", workload.name()));
            }
        }
        let speed = calib::speed_factor(calib_before, calib::sample_ns());

        self.tally.attempted += raw.attempted;
        for why in &raw.failures {
            self.tally.fail(format!("{}: {why}", workload.name()));
        }
        Iteration {
            setup_s,
            setups,
            host_s,
            speed,
            wall_s: entered.elapsed().as_secs_f64(),
            cpu_s,
            facts: Facts::from_raw(&raw),
            sims: raw.attempted,
            spans,
        }
    }

    /// Compares `facts` with the pinned results. A mismatch is a drift
    /// of the model, reported loudly but not a failed operation: a
    /// deliberate model change re-blesses `expected.json` in a benchmark
    /// change of its own.
    fn drifted(&self, workload: Workload, sizing: Sizing, facts: &Facts) -> Result<bool, String> {
        let key = pin_key(workload, sizing);
        let pinned = *pins()?
            .get(&key)
            .ok_or_else(|| format!("expected.json has no pin `{key}`"))?;
        let got = Pin::of(facts);
        if got != pinned {
            eprintln!(
                "DRIFT: {key} at seed {PIN_SEED} simulated {got:x?}, expected.json pins {pinned:x?}"
            );
        }
        Ok(got != pinned)
    }

    /// Runs the workload's smoke sizing at the pinned seed against its
    /// pin: cheap enough for every run, whatever `--seed` it measures.
    fn smoke_drifted(&mut self) -> Result<bool, String> {
        let it = self.iterate(self.opts.workload, Sizing::Smoke, PIN_SEED, 0.0);
        self.drifted(self.opts.workload, Sizing::Smoke, &it.facts)
    }

    /// Checks the measured run itself when it ran at the pinned seed.
    fn measured_drifted(&self, facts: &Facts) -> Result<bool, String> {
        Ok(self.opts.seed == PIN_SEED
            && self.drifted(self.opts.workload, self.opts.sizing, facts)?)
    }

    /// Every iteration of one run simulates the same inputs, so every
    /// schedule checksum must equal the first, and the twin's.
    fn check_digests(&mut self, own: &[Iteration], twin: Option<&Iteration>) {
        let workload = self.opts.workload;
        let Some(first) = own.first() else { return };
        if own.iter().any(|it| it.facts.digest != first.facts.digest) {
            self.tally.attempted += 1;
            self.tally.fail(format!(
                "{}: schedule checksum differs between rounds",
                workload.name()
            ));
        }
        if let (Some(twin), Some(twin_workload)) = (twin, workload.twin()) {
            if twin.facts.digest != first.facts.digest {
                self.tally.attempted += 1;
                self.tally.fail(format!(
                    "{}: schedule checksum {:#x} differs from {}'s {:#x}",
                    workload.name(),
                    first.facts.digest,
                    twin_workload.name(),
                    twin.facts.digest
                ));
            }
        }
    }

    fn untraced(&mut self) -> Result<Vec<Reading>, String> {
        let Options {
            workload,
            seed,
            seconds,
            sizing,
            ..
        } = *self.opts;
        self.smoke_drifted()?;
        let mut own = vec![self.iterate(workload, sizing, seed, EXTRA_SETUP_SHARE)];
        // read after one simulation: a user runs one per process, and
        // the allocator's growth over repeated ones is not its footprint
        let peak_rss_mib = procfs::peak_rss_mib()?;
        let twin = workload.twin().map(|t| self.iterate(t, sizing, seed, 0.0));
        // at least two, or there is no round-to-round checksum to compare
        while own.len() < 2 || fits(&own, seconds) {
            own.push(self.iterate(workload, sizing, seed, EXTRA_SETUP_SHARE));
        }
        self.check_digests(&own, twin.as_ref());
        self.measured_drifted(&own[0].facts)?;

        let setups: Vec<f64> = own
            .iter()
            .flat_map(|it| it.setups.iter().map(|s| s * it.speed))
            .collect();
        eprintln!(
            "{}: {} iterations, {} set-ups; host_s as measured {:.3?}, speed factors {:.3?}",
            workload.name(),
            own.len(),
            setups.len(),
            own.iter().map(|it| it.host_s).collect::<Vec<_>>(),
            own.iter().map(|it| it.speed).collect::<Vec<_>>(),
        );
        Ok(vec![
            ("events_per_s", median_of(&own, &Iteration::events_per_s)),
            ("setup_s", median(&setups)),
            ("peak_rss_mib", peak_rss_mib),
        ])
    }

    /// What the durable run left on disk, what capturing cost against
    /// the plain twin, and a restart from the snapshot, which must finish
    /// on the same schedule.
    fn durable_readings(
        &mut self,
        facts: &Facts,
        host_s: f64,
        plain_host_s: f64,
    ) -> Result<Vec<Reading>, String> {
        let Options { seed, sizing, .. } = *self.opts;
        let (snap, stream) = capture_files(self.dir);
        let (snapshots, slots) = durable_cadence_counts(sizing, facts.runtime_cycles)?;
        let samples = std::fs::read_to_string(&stream)
            .map_err(|e| format!("reading {}: {e}", stream.display()))?
            .lines()
            .count() as f64;
        let snapshot_bytes = std::fs::metadata(&snap)
            .map_err(|e| format!("reading {}: {e}", snap.display()))?
            .len();
        self.tally.attempted += 1;
        let restore_s = match resume_durable(&mut self.tr, sizing, seed, self.dir) {
            Ok((resumed, outside_loop_s)) => {
                let resumed = Facts::from_raw(&Raw {
                    results: vec![resumed],
                    ..Raw::default()
                });
                if resumed.digest != facts.digest {
                    self.tally
                        .fail("resumed run's schedule checksum differs".into());
                }
                outside_loop_s
            }
            Err(why) => {
                self.tally.fail(format!("resume: {why}"));
                0.0
            }
        };
        let overhead_s = host_s - plain_host_s;
        Ok(vec![
            ("core.snapshot_count", snapshots as f64),
            ("core.snapshot_bytes", snapshot_bytes as f64),
            ("core.capture_overhead_s", overhead_s),
            ("core.capture_overhead_frac", overhead_s / plain_host_s),
            ("core.restore_s", restore_s),
            ("telemetry.samples", samples),
            ("telemetry.sample_yield", samples / slots.max(1) as f64),
        ])
    }

    fn traced(&mut self) -> Result<Vec<Reading>, String> {
        let Options {
            workload,
            seed,
            seconds,
            sizing,
            ..
        } = *self.opts;
        let run_started = Instant::now();
        let mut drift = self.smoke_drifted()?;
        let dir = self.dir;
        let mut readings = probes::run_all(&mut self.tr, sizing, seed, dir)?;
        let budget = seconds - run_started.elapsed().as_secs_f64();

        // a workload with a twin alternates with it, so both see the same host
        let (mut own, mut twins) = (Vec::new(), Vec::new());
        let share = if workload.twin().is_some() { 0.5 } else { 1.0 };
        while own.is_empty() || fits(&own, budget * share) {
            if let Some(t) = workload.twin() {
                twins.push(self.iterate(t, sizing, seed, 0.0));
            }
            own.push(self.iterate(workload, sizing, seed, 0.0));
        }
        self.check_digests(&own, twins.first());
        drift |= self.measured_drifted(&own[0].facts)?;

        let med = |of: &dyn Fn(&Iteration) -> f64| median_of(&own, of);
        let last = own.last().expect("at least one iteration");
        let facts = &last.facts;
        let host_s = med(&|it| it.host_s);
        let phase_s = |ns: u64| ns as f64 / 1e9;
        readings.extend([
            ("host_s", med(&Iteration::scaled_host_s)),
            (
                "apps.new_s",
                med(&|it| self.tr.total_s("apps.new", it.spans.clone())),
            ),
            ("core.new_s", med(&|it| it.facts.engine_build_s)),
            ("core.run_s", med(&|it| it.facts.loop_s)),
            ("core.phase.pu_s", med(&|it| phase_s(it.facts.phase.pu))),
            (
                "core.phase.inject_s",
                med(&|it| phase_s(it.facts.phase.inject)),
            ),
            ("core.phase.net_s", med(&|it| phase_s(it.facts.phase.net))),
            (
                "core.phase.worklist_s",
                med(&|it| phase_s(it.facts.phase.worklist)),
            ),
            (
                "core.unattributed_s",
                med(&|it| it.facts.thread_loop_s - phase_s(it.facts.phase.total())),
            ),
            ("core.cpu_s", med(&|it| it.cpu_s)),
            (
                "core.ns_per_sim_cycle",
                med(&|it| it.host_s * 1e9 / it.facts.runtime_cycles.max(1) as f64),
            ),
            ("core.state_bytes_per_tile", facts.state_bytes_per_tile),
            ("noc.flit_hops", facts.noc.total_flit_hops() as f64),
            ("noc.injected", facts.noc.injected as f64),
            ("noc.collisions", facts.noc.collisions as f64),
            ("noc.backpressure", facts.noc.backpressure as f64),
            ("noc.eject_stalls", facts.noc.eject_stalls as f64),
            ("noc.lat_mean_cycles", facts.latency.mean()),
            ("noc.lat_p99_cycles", facts.latency.percentile(0.99) as f64),
            ("mem.cache_hit_ratio", facts.mem.hit_rate()),
            ("sim.runtime_cycles", facts.runtime_cycles as f64),
            ("sim.tasks", facts.tasks as f64),
            ("host.cpus", procfs::cpus() as f64),
            ("host.speed_factor", med(&|it| it.speed)),
        ]);
        for (name, rate) in [
            "traffic.accepted_rate.lo",
            "traffic.accepted_rate.mid",
            "traffic.accepted_rate.hi",
        ]
        .into_iter()
        .zip(&facts.accepted_rates)
        {
            readings.push((name, *rate));
        }

        // the thread-scaling figure: the same simulation on one thread
        // over this one; 1 wherever `run_parallel` runs on one thread
        let twin_host_s = (!twins.is_empty()).then(|| median_of(&twins, &|t| t.host_s));
        readings.push((
            "core.thread_speedup",
            match twin_host_s {
                Some(one_thread) if workload.host_threads() > 1 => one_thread / host_s,
                _ => 1.0,
            },
        ));
        if let (Workload::PagerankGridDurable, Some(plain)) = (workload, twin_host_s) {
            readings.extend(self.durable_readings(facts, host_s, plain)?);
        }
        if workload == Workload::DseBatch {
            readings.push(("dse.points_per_s", med(&|it| it.sims as f64 / it.host_s)));
            readings.extend(probes::dse_store_costs(&mut self.tr, sizing, seed, dir)?);
        }

        // spans are a few dozen per iteration against seconds of work:
        // far below what two noisy runs can resolve, so the overhead is
        // the measured cost of a span times the spans taken
        let span_s = {
            let mut scratch = Tracer::new(true);
            let started = Instant::now();
            for _ in 0..100_000 {
                scratch.span("x", |_| ());
            }
            started.elapsed().as_secs_f64() / 100_000.0
        };
        let self_sum_ns: u64 = self_times(self.tr.spans())[last.spans.clone()].iter().sum();
        readings.extend([
            (
                "bench.trace_overhead_frac",
                last.spans.len() as f64 * span_s / (last.setup_s + last.host_s),
            ),
            ("bench.traced_setup_s", last.setup_s),
            ("bench.traced_host_s", last.host_s),
            ("bench.traced_self_sum_s", self_sum_ns as f64 / 1e9),
            ("sim.drift", f64::from(u8::from(drift))),
            (
                "fail_share",
                self.tally.failures.len() as f64 / self.tally.attempted.max(1) as f64,
            ),
        ]);

        let trace_path = out_dir()?.join(format!("trace-{}.jsonl", workload.name()));
        self.tr.write_jsonl(&trace_path, workload.name())?;
        eprintln!(
            "{}: {} traced iterations, {} spans -> {}",
            workload.name(),
            own.len(),
            self.tr.spans().len(),
            trace_path.display()
        );
        Ok(readings)
    }
}

/// Orders `readings` as the catalogue lists them. A workload that does
/// not use a layer reports that layer's workload metrics as 0; a probe
/// without a reading is a harness bug.
fn in_catalogue_order(readings: &[Reading], trace: bool) -> Result<Vec<Reading>, String> {
    let catalogue: &[crate::metrics::Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in readings {
        if !catalogue.iter().any(|m| m.name == *name) {
            return Err(format!("reading `{name}` is not in the catalogue"));
        }
    }
    catalogue
        .iter()
        .map(|m| {
            let value = readings
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|r| r.1);
            match (value, m.source, trace) {
                (Some(v), _, _) => Ok((m.name, v)),
                (None, Source::Workload, true) => Ok((m.name, 0.0)),
                (None, _, _) => Err(format!("no reading for `{}`", m.name)),
            }
        })
        .collect()
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    let mut runner = Runner {
        opts,
        dir: &scratch.0,
        tr: Tracer::new(opts.trace),
        tally: Tally::default(),
    };
    let readings = if opts.trace {
        runner.traced()?
    } else {
        runner.untraced()?
    };
    Ok(Outcome {
        attempted: runner.tally.attempted.max(1),
        failed: runner.tally.failures.len() as u64,
        metrics: in_catalogue_order(&readings, opts.trace)?,
    })
}

/// Simulates every workload at both sizings at [`PIN_SEED`] and returns
/// the text of a fresh `expected.json`.
pub fn bless() -> Result<String, String> {
    let scratch = Scratch::create()?;
    let mut tr = Tracer::new(false);
    let mut lines = Vec::new();
    for workload in Workload::ALL {
        for sizing in [Sizing::Full, Sizing::Smoke] {
            let raw = prepare(workload, sizing, PIN_SEED, &scratch.0, &mut tr)?(&mut tr);
            if let Some(why) = raw.failures.first() {
                return Err(format!("{}: {why}", pin_key(workload, sizing)));
            }
            let pin = Pin::of(&Facts::from_raw(&raw));
            eprintln!("{}: {pin:x?}", pin_key(workload, sizing));
            lines.push(format!(
                "    \"{}\": {{\"digest\": \"{:#018x}\", \"runtime_cycles\": {}, \"packets\": {}}}",
                pin_key(workload, sizing),
                pin.digest,
                pin.runtime_cycles,
                pin.packets
            ));
        }
    }
    Ok(format!(
        "{{\n  \"seed\": {PIN_SEED},\n  \"pins\": {{\n{}\n  }}\n}}\n",
        lines.join(",\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_pins_cover_every_workload_and_sizing() {
        let pins = pins().unwrap();
        for w in Workload::ALL {
            for sizing in [Sizing::Full, Sizing::Smoke] {
                assert!(
                    pins.contains_key(&pin_key(w, sizing)),
                    "{}",
                    pin_key(w, sizing)
                );
            }
        }
        // host threads, checkpoints and sampling never change the schedule
        for w in Workload::ALL {
            if let Some(twin) = w.twin() {
                for sizing in [Sizing::Full, Sizing::Smoke] {
                    assert_eq!(pins[&pin_key(w, sizing)], pins[&pin_key(twin, sizing)]);
                }
            }
        }
    }

    /// The `--smoke` sizing end to end, as a CI job would call it: every
    /// workload, untraced and traced, correct, complete and undrifted.
    #[test]
    fn smoke_sizing_runs_every_workload_both_ways() {
        // `out_dir` is relative to the repository root; no other test
        // depends on the current directory
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Options {
                    workload,
                    seed: PIN_SEED,
                    seconds: 0.05,
                    trace,
                    sizing: Sizing::Smoke,
                };
                let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert_eq!(outcome.failed, 0, "{}", workload.name());
                assert!(outcome.attempted >= 2);
                let catalogue: &[crate::metrics::Metric] =
                    if trace { &PER_LAYER } else { &END_TO_END };
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(names, catalogue.iter().map(|m| m.name).collect::<Vec<_>>());
                let value = |name: &str| outcome.metrics.iter().find(|m| m.0 == name).unwrap().1;
                for (name, v) in &outcome.metrics {
                    assert!(v.is_finite(), "{} {name} = {v}", workload.name());
                }
                if trace {
                    assert_eq!(value("sim.drift"), 0.0, "{}", workload.name());
                    assert!(value("sim.runtime_cycles") > 0.0);
                    let roots = value("bench.traced_setup_s") + value("bench.traced_host_s");
                    let gap = (value("bench.traced_self_sum_s") - roots).abs();
                    assert!(gap <= 0.05 * roots, "self times {gap} off {roots}");
                } else {
                    // the contract wants end-to-end metrics that are never 0
                    assert!(outcome.metrics.iter().all(|m| m.1 > 0.0));
                }
            }
        }
    }

    #[test]
    fn pins_parse_and_reject_malformed_entries() {
        let good = r#"{"seed": 42, "pins": {"a/full": {"digest": "0xff", "runtime_cycles": 7, "packets": 3}}}"#;
        assert_eq!(
            parse_pins(good).unwrap()["a/full"],
            Pin {
                digest: 255,
                runtime_cycles: 7,
                packets: 3
            }
        );
        assert!(parse_pins(r#"{"pins": {"a/full": {"digest": "zz"}}}"#).is_err());
        assert!(parse_pins("{}").is_err());
    }

    #[test]
    fn catalogue_order_fills_unused_layers_only_when_traced() {
        let traced = in_catalogue_order(&[], true);
        assert!(traced.is_err(), "probe readings are mandatory");
        assert!(in_catalogue_order(&[("setup_s", 1.0)], false).is_err());
        assert!(in_catalogue_order(&[("bogus", 1.0)], true).is_err());
        let all: Vec<Reading> = END_TO_END.iter().map(|m| (m.name, 2.0)).rev().collect();
        let ordered = in_catalogue_order(&all, false).unwrap();
        assert_eq!(ordered[0].0, "events_per_s");
        assert_eq!(ordered.len(), END_TO_END.len());
    }
}
