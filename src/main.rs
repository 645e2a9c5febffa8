//! The `muchisim` command line.
//!
//! Four subcommands cover the paper's workflow end to end:
//!
//! * `muchisim run <app> [scale [side [threads]]]` — one simulation,
//!   report and host summary printed. A run kept for later
//!   post-processing is a one-point `sweep` into a store.
//! * `muchisim sweep --spec FILE` — a declarative design-space sweep
//!   (see [`muchisim::dse`]): points run concurrently, results stream
//!   into a resumable JSONL store, completed run IDs are skipped.
//! * `muchisim report --store FILE` — aggregate a store into the
//!   comparison table, optionally re-priced with `--set` overrides
//!   (energy/cost post-processing without re-simulation).
//! * `muchisim traffic sweep|replay` — NoC characterization: synthetic
//!   latency-vs-load saturation sweeps (one rate axis run through the
//!   same batch runner into a store, so a rerun resumes) and app-free
//!   replay of a recorded communication trace (see [`muchisim::traffic`]).
//!
//! Every flag is a row of a table in [`cli`], and one that sets a
//! configuration field is an alias for `--set key=value` ([`config`]).
//! Parsing is strict: unparseable values and unknown flags are errors
//! (exit code 2), never silently replaced with defaults.

mod cli;

use cli::{chosen, parse, parsed, Args, CliError};
use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{SystemConfig, TrafficPattern};
use muchisim::core::digest::Fnv;
use muchisim::core::{SimError, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::dse::{
    apply_to_config, parse_assignment, slug, table_from_store, Axis, AxisPoint, BatchOutcome,
    BatchRunner, DatasetSpec, DseError, ExperimentSpec, JsonlStore, Override,
};
use muchisim::energy::Report;
use muchisim::traffic::{LoadPoint, SaturationCurve, TrafficApp};
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::Arc;

/// An early end: the exit code and what to say on stderr. Code 1: the
/// run itself failed. Code 2: the command line is malformed ([`usage`])
/// or, in one line, asks for a system the simulator cannot hold.
struct Failure(i32, String);

fn usage(msg: impl std::fmt::Display) -> Failure {
    Failure(2, format!("{msg}\nrun `muchisim --help` for usage"))
}

impl From<CliError> for Failure {
    fn from(e: CliError) -> Self {
        usage(e.0)
    }
}

impl From<DseError> for Failure {
    fn from(e: DseError) -> Self {
        match e {
            DseError::Config(e) => Failure(2, e.to_string()),
            DseError::Spec(_) | DseError::Override(_) => usage(e),
            DseError::Sim(e) => e.into(),
            other => Failure(1, other.to_string()),
        }
    }
}

impl From<SimError> for Failure {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Config(e) => Failure(2, e.to_string()),
            other => Failure(1, format!("simulation failed: {other}")),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let code = dispatch(&argv).unwrap_or_else(|Failure(code, message)| {
        eprintln!("error: {message}");
        code
    });
    std::process::exit(code);
}

fn dispatch(argv: &[&str]) -> Result<i32, Failure> {
    if argv.iter().any(|&arg| arg == "-h" || arg == "--help") {
        emit(&cli::help());
        return Ok(0);
    }
    match argv {
        [] => Err(usage("missing subcommand (run, sweep, report, or traffic)")),
        ["run", rest @ ..] => cmd_run(&parse(&cli::RUN, rest)?),
        ["sweep", rest @ ..] => cmd_sweep(&parse(&cli::SWEEP, rest)?),
        ["report", rest @ ..] => cmd_report(&parse(&cli::REPORT, rest)?),
        ["traffic"] => Err(usage("traffic needs a subcommand (sweep or replay)")),
        ["traffic", "sweep", rest @ ..] => cmd_traffic_sweep(&parse(&cli::TRAFFIC_SWEEP, rest)?),
        ["traffic", "replay", rest @ ..] => cmd_traffic_replay(&parse(&cli::TRAFFIC_REPLAY, rest)?),
        ["traffic", other, ..] => Err(usage(format!("unknown traffic subcommand `{other}`"))),
        [other, ..] => Err(usage(format!("unknown subcommand `{other}`"))),
    }
}

/// The one route from a command line to a `SystemConfig`: the defaults,
/// overridden by a `side`×`side` grid, what the subcommand fixes
/// (`base`) and every `--set` and flag of `args`, validated once; with
/// the overrides that built it.
fn config(args: &Args, side: u32, base: &[&str]) -> Result<(SystemConfig, Vec<Override>), Failure> {
    let x = format!("hierarchy.chiplet.x={side}");
    let y = format!("hierarchy.chiplet.y={side}");
    let overrides = args.overrides(&[&[x.as_str(), &y], base].concat())?;
    let cfg = apply_to_config(&SystemConfig::default(), &overrides)?;
    Ok((cfg, overrides))
}

/// Where a sweep named `name` keeps its results unless told otherwise.
fn default_store(name: &str) -> String {
    format!("target/dse/{}.jsonl", slug(name))
}

/// The host-thread count of `text`: at least one.
fn thread_count(text: &str) -> Result<usize, CliError> {
    Ok(parsed::<NonZeroUsize>("thread count", text)?.get())
}

fn cmd_run(args: &Args) -> Result<i32, Failure> {
    let Some(name) = args.positional(0) else {
        return Err(usage("run needs an <app> argument"));
    };
    let labels = Benchmark::ALL.map(|b| b.label().to_lowercase());
    let app = chosen(Benchmark::from_label(name), "app", name, &labels)?;
    let scale: u32 = parsed("RMAT scale", args.positional(1).unwrap_or("11"))?;
    let side: u32 = parsed("grid side", args.positional(2).unwrap_or("16"))?;
    let threads = thread_count(args.positional(3).unwrap_or("8"))?;
    // --seed drives both generators so one flag makes the whole run
    // reproducible; an explicit --set traffic.seed still wins
    let seed: u64 = parsed("seed", args.get("--seed").unwrap_or("42"))?;
    let (cfg, _) = config(args, side, &[])?;

    let graph = Arc::new(RmatConfig::scale(scale).generate(seed));
    println!(
        "running {} on RMAT-{scale} (seed {seed}) over {}x{} tiles \
         with {threads} host threads...",
        app.label(),
        cfg.width(),
        cfg.height(),
    );
    let result = match run_benchmark(app, cfg.clone(), &graph, threads) {
        Ok(result) => result,
        Err(SimError::Ward(report)) => {
            // a tripped ward is a structured diagnostic, not a crash:
            // print the report (with its per-tile backlogs) and use a
            // distinct exit code so scripts can branch on it
            eprintln!("{report}");
            if let Some(partial) = &report.partial {
                eprintln!(
                    "partial result: {} cycles simulated, {} tasks executed",
                    partial.runtime_cycles, partial.counters.pu.tasks_executed
                );
            }
            return Ok(3);
        }
        Err(e) => return Err(e.into()),
    };
    match &result.check_error {
        None => println!("check: PASSED"),
        Some(e) => println!("check: FAILED ({e})"),
    }
    println!(
        "host: {} tiles | {:.3} Msimcycles/s | {:.3} Mpackets/s | \
         {:.0} bytes/tile ({:.1} MiB simulation state) | {:.2}s x{} threads",
        result.total_tiles,
        result.sim_cycles_per_sec() / 1e6,
        result.packets_per_sec() / 1e6,
        result.bytes_per_tile(),
        result.host_state_bytes as f64 / (1u64 << 20) as f64,
        result.host_seconds,
        result.host_threads,
    );
    let ph = &result.host_phase_ns;
    println!(
        "host: phases pu {:.3}s | inject {:.3}s | net {:.3}s | \
         worklist {:.3}s ({:.1}% of attributed time)",
        ph.pu as f64 / 1e9,
        ph.inject as f64 / 1e9,
        ph.net as f64 / 1e9,
        ph.worklist as f64 / 1e9,
        ph.worklist_share() * 100.0,
    );
    let rv = &result.host_router_visits;
    println!(
        "host: router visits moved {} | stalled {} | slept on credit {} | \
         asleep on time {} ({:.1}% of visits evaluated for nothing)",
        rv.evaluated_moved,
        rv.evaluated_stalled,
        rv.replayed,
        rv.asleep,
        rv.stalled_share() * 100.0,
    );
    let lat = &result.noc_latency;
    println!(
        "host: noc latency mean {:.1} | p50 {} | p95 {} | p99 {} | \
         max {} cycles over {} packets",
        lat.mean(),
        lat.percentile(0.50),
        lat.percentile(0.95),
        lat.percentile(0.99),
        lat.max_cycles,
        lat.count,
    );
    if cfg.telemetry.enabled() {
        println!(
            "host: stream dropped {} record(s) to a slow subscriber",
            result.telemetry_dropped
        );
    }
    let report = Report::from_counters(&cfg, &result.counters);
    emit(&format!("{}\n", report.to_json()));
    if let Some(path) = &cfg.noc_trace {
        println!(
            "NoC trace written to {path} (replay with `muchisim traffic replay --trace {path}`)"
        );
    }
    if let Some(path) = &cfg.telemetry.metrics_path {
        println!("metrics stream written to {path}");
    }
    if let Some(path) = &cfg.telemetry.metrics_csv {
        println!("metrics CSV written to {path}");
    }
    Ok(i32::from(result.check_error.is_some()))
}

fn cmd_sweep(args: &Args) -> Result<i32, Failure> {
    let spec_path = args.required("--spec")?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| usage(format!("reading {spec_path}: {e}")))?;
    let mut spec = ExperimentSpec::from_json(&text)?;
    let host_threads = match args.get("--host-threads") {
        Some(text) => thread_count(text)?,
        None => std::thread::available_parallelism().map_or(8, NonZeroUsize::get),
    };
    let every = args.get("--sample-every");
    let every = every
        .map(|n| parsed::<NonZeroU64>("sample cadence", n))
        .transpose()?;
    if let Some(seed) = args.get("--seed") {
        let seed: u64 = parsed("seed", seed)?;
        // one flag reseeds the whole sweep's synthetic traffic; applied
        // to the base so every axis point inherits it, and each seed
        // gets its own default store (a store holding another seed's
        // records for the same run IDs is refused by the runner)
        spec.base.extend(args.overrides(&[])?);
        spec.name = format!("{}-seed{seed}", spec.name);
    }
    let default_store = default_store(&spec.name);
    let store_path = args.get("--store").unwrap_or(&default_store);

    let csv = args.get("--csv").is_some();
    let points = spec.expand()?;
    let title = format!(
        "sweep `{}`: {} points ({} axes, {} apps, {} datasets), {} host threads x {} per run\n",
        spec.name,
        points.len(),
        spec.axes.len(),
        spec.apps.len(),
        spec.datasets.len(),
        host_threads,
        spec.threads_per_run,
    );
    prose(&title, csv);
    let mut store = JsonlStore::open(store_path)?;
    let mut runner = BatchRunner::new(host_threads);
    if let Some(every) = every {
        runner = runner.with_sample_every(every.get());
        let live = format!(
            "live metrics: one stream per point under {store_path}.metrics/ \
             (every {every} cycles)\n"
        );
        prose(&live, csv);
    }
    let outcome = runner.run_points(&points, spec.threads_per_run, &mut store)?;
    report_outcome(&outcome, &store, csv);
    print_table(&store, &[], csv)?;
    Ok(i32::from(outcome.check_failures > 0))
}

/// Says what a batch did: the executed/skipped line and any ward trips on
/// stdout, or on stderr when stdout carries a CSV (`prose_to_stderr`);
/// failed result checks always as a warning on stderr.
fn report_outcome(outcome: &BatchOutcome, store: &JsonlStore, prose_to_stderr: bool) {
    let mut text = format!(
        "executed {} points, skipped {} already-completed points ({})\n",
        outcome.executed,
        outcome.skipped,
        store.path().display()
    );
    if outcome.ward_trips > 0 {
        text += &format!(
            "{} point(s) were terminated by a telemetry ward (see the `term` column)\n",
            outcome.ward_trips
        );
    }
    prose(&text, prose_to_stderr);
    if outcome.check_failures > 0 {
        eprintln!(
            "warning: {} run(s) failed their result check",
            outcome.check_failures
        );
    }
}

fn cmd_report(args: &Args) -> Result<i32, Failure> {
    let store_path = args.required("--store")?;
    let store = JsonlStore::open(store_path)?;
    if store.records().is_empty() {
        return Err(Failure(1, format!("{store_path} holds no records")));
    }
    let failed: Vec<&str> = store
        .records()
        .iter()
        .filter(|r| r.result.check_error.is_some())
        .map(|r| r.run_id.as_str())
        .collect();
    if !failed.is_empty() {
        eprintln!(
            "warning: {} stored run(s) failed their result check: {}",
            failed.len(),
            failed.join(", ")
        );
    }
    print_table(&store, &args.overrides(&[])?, args.get("--csv").is_some())?;
    Ok(i32::from(!failed.is_empty()))
}

fn cmd_traffic_sweep(args: &Args) -> Result<i32, Failure> {
    let name = args.get("--pattern").unwrap_or("uniform");
    let labels = TrafficPattern::ALL.map(TrafficPattern::label);
    let pattern = chosen(TrafficPattern::from_label(name), "pattern", name, &labels)?;
    let list = args.get("--rates").unwrap_or("0.02,0.05,0.1,0.2,0.35,0.5");
    let rates = list
        .split(',')
        .map(|text| Ok((text.trim(), parsed("offered rate", text.trim())?)))
        .collect::<Result<Vec<(&str, f64)>, CliError>>()?;
    // saturation detection baselines on the first point, so the list
    // must really be ascending offered load
    if rates.windows(2).any(|w| w[0].1 >= w[1].1) {
        let unordered = format!("--rates must be strictly ascending (got {list})");
        return Err(usage(unordered));
    }
    let side: u32 = parsed("grid side", args.get("--side").unwrap_or("8"))?;
    let threads = thread_count(args.get("--threads").unwrap_or("4"))?;
    let topo = args.get("--topo").unwrap_or("mesh");
    // 4 PUs per tile, so receive handlers never bottleneck ahead of the
    // network
    let (cfg, base) = config(args, side, &["pus_per_tile=4"])?;
    let csv = args.get("--csv").is_some();
    let title = format!(
        "traffic sweep: {} on {side}x{side} {topo}, {} rates, window {} cycles, seed {}\n",
        pattern.label(),
        rates.len(),
        cfg.traffic.cycles,
        cfg.traffic.seed,
    );
    prose(&title, csv);
    let rate_point = |&(label, rate): &(&str, f64)| {
        let set = vec![parse_assignment(&format!("traffic.rate={rate}"))?];
        let label = label.to_string();
        Ok(AxisPoint { label, set })
    };
    // the store is named by the base config, so only this sweep's
    // command line (whatever its --threads) finds it again
    let mut hash = Fnv::new();
    let json = serde_json::to_string(&cfg).expect("a config serializes");
    hash.bytes(json.as_bytes());
    let spec = ExperimentSpec {
        name: format!("traffic-sweep-{:016x}", hash.finish()),
        threads_per_run: threads,
        base,
        axes: vec![Axis {
            name: "rate".to_string(),
            points: rates
                .iter()
                .map(rate_point)
                .collect::<Result<_, DseError>>()?,
        }],
        apps: vec![Benchmark::Traffic(pattern)],
        // traffic ignores the dataset; the smallest RMAT stands in
        datasets: vec![DatasetSpec::Rmat { scale: 4, seed: 1 }],
    };
    let points = spec.expand()?;
    let mut store = JsonlStore::open(default_store(&spec.name))?;
    let host_threads = std::thread::available_parallelism().map_or(8, NonZeroUsize::get);
    let outcome = BatchRunner::new(host_threads).run_points(&points, threads, &mut store)?;
    report_outcome(&outcome, &store, csv);
    let point = |run_id: &str| {
        // the last record of an ID is the one the runner checked
        let record = store.records().iter().rev().find(|r| r.run_id == run_id);
        let record = record.expect("the batch recorded every point");
        LoadPoint::of(&record.config, &record.result)
    };
    let points = points.iter().map(|p| point(&p.run_id)).collect();
    let curve = SaturationCurve { points };
    let series = format!("{topo}/{}", pattern.label());
    emit(&if csv {
        curve.to_csv(&series)
    } else {
        curve.to_text(&series)
    });
    let verdict = match curve.saturation_point(3.0) {
        Some(p) => format!(
            "saturation: offered {:.3} packets/tile/cycle (accepted {:.3}, \
             mean latency {:.1} cycles vs {:.1} at zero load)\n",
            p.offered,
            p.achieved,
            p.avg_latency,
            curve.base_latency().unwrap_or(0.0),
        ),
        None => "saturation: not reached within the swept rates\n".to_string(),
    };
    prose(&verdict, csv);
    Ok(i32::from(outcome.check_failures > 0))
}

fn cmd_traffic_replay(args: &Args) -> Result<i32, Failure> {
    let trace_path = args.required("--trace")?;
    let side: u32 = parsed("grid side", args.get("--side").unwrap_or("16"))?;
    let threads = thread_count(args.get("--threads").unwrap_or("4"))?;
    let (cfg, _) = config(args, side, &[])?;
    let tiles = cfg.total_tiles() as u32;
    let app = TrafficApp::replay_file(trace_path, tiles).map_err(|e| Failure(1, e))?;
    println!(
        "replaying {} packets (last injection at cycle {}) on {side}x{side} \
         with {threads} host threads...",
        app.total_packets(),
        app.last_cycle(),
    );
    let result = Simulation::new(cfg, app)?.run_parallel(threads)?;
    if let Some(why) = &result.check_error {
        return Err(Failure(1, format!("replay check failed: {why}")));
    }
    let noc = &result.counters.noc;
    println!(
        "replay done: {} injected | {} ejected | {} combines | {} msg hops | \
         runtime {} cycles | latency mean {:.1} p95 {} max {}",
        noc.injected,
        noc.ejected,
        noc.reduce_combines,
        noc.msg_hops,
        result.runtime_cycles,
        result.noc_latency.mean(),
        result.noc_latency.percentile(0.95),
        result.noc_latency.max_cycles,
    );
    Ok(0)
}

fn print_table(store: &JsonlStore, overrides: &[Override], csv: bool) -> Result<(), Failure> {
    let table = table_from_store(store, overrides).map_err(|e| Failure(1, e.to_string()))?;
    let text = format!("{}\n", table.to_text());
    emit(&if csv { table.to_csv() } else { text });
    Ok(())
}

/// Writes `text` to stderr when stdout carries data (`to_stderr`), else
/// to stdout.
fn prose(text: &str, to_stderr: bool) {
    match to_stderr {
        true => eprint!("{text}"),
        false => emit(text),
    }
}

/// Writes to stdout, exiting quietly when the consumer closed the pipe
/// (`muchisim report | head` must not panic with a backtrace).
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}
