//! The `muchisim` command line.
//!
//! Four subcommands cover the paper's workflow end to end:
//!
//! * `muchisim run <app> [scale [side [threads]]]` — one simulation,
//!   report printed, counters file written for later post-processing;
//!   `--trace FILE` additionally records the NoC injection trace.
//! * `muchisim sweep --spec FILE` — a declarative design-space sweep
//!   (see [`muchisim::dse`]): points run concurrently, results stream
//!   into a resumable JSONL store, completed run IDs are skipped.
//! * `muchisim report --store FILE` — aggregate a store into the
//!   comparison table, optionally re-priced with `--set` overrides
//!   (energy/cost post-processing without re-simulation).
//! * `muchisim traffic sweep|replay` — NoC characterization: synthetic
//!   latency-vs-load saturation sweeps and app-free replay of a
//!   recorded communication trace (see [`muchisim::traffic`]).
//!
//! Argument parsing is strict: unparseable numbers and unknown flags are
//! errors (exit code 2), never silently replaced with defaults.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{
    ConvergedWard, NocTopology, SystemConfig, TelemetryParams, TrafficPattern, WardMetric,
};
use muchisim::core::SimError;
use muchisim::data::rmat::RmatConfig;
use muchisim::dse::{
    apply_to_config, parse_assignment, parse_json_or_string, table_from_store, BatchRunner,
    DseError, ExperimentSpec, JsonlStore, Override,
};
use muchisim::energy::Report;
use muchisim::traffic::{saturation_sweep, SaturationCurve, TraceReplayApp};
use muchisim::viz::{LoadLatencyRow, LoadLatencyTable};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "\
muchisim — MuchiSim: design exploration for multi-chip manycore systems

USAGE:
    muchisim run <app> [scale [side [threads]]] [--telemetry] [--seed N]
                 [--threads N] [--no-active-list] [--trace FILE]
                 [--checkpoint FILE] [--checkpoint-every N] [--resume]
                 [--metrics FILE] [--metrics-csv FILE] [--sample-every N]
                 [--progress] [--ward KEY=VALUE]...
                 [--set KEY=VALUE]...
    muchisim sweep --spec FILE [--store FILE] [--host-threads N] [--seed N]
                 [--sample-every N] [--csv]
    muchisim report --store FILE [--set KEY=VALUE]... [--csv]
    muchisim traffic sweep [--pattern P] [--rates R,R,...] [--side N]
                 [--topo mesh|torus|ruche] [--threads N] [--seed N]
                 [--csv] [--set KEY=VALUE]...
    muchisim traffic replay --trace FILE [--side N] [--threads N]
                 [--set KEY=VALUE]...

SUBCOMMANDS:
    run      Run one benchmark on an RMAT graph and print its report.
             <app> is a suite label (bfs, sssp, page, wcc, spmv, spmm,
             histo, fft) or a synthetic-traffic workload (traf-uniform,
             traf-bitcomp, traf-transpose, traf-shuffle, traf-neighbor,
             traf-hotspot); scale is the RMAT scale (default 11), side
             the square grid side in tiles (default 16), threads the
             host threads (default 8). --seed seeds both the dataset
             generator and traffic.seed; --trace records every NoC
             injection to FILE (JSONL) for later replay. --telemetry
             additionally prints simulator throughput and the host
             memory footprint. --threads N overrides the positional
             thread count; --no-active-list disables the active-tile
             worklists (full per-cycle sweeps, bit-identical results,
             shorthand for --set active_list=false).
             --checkpoint FILE snapshots the full simulation state to
             FILE periodically (--checkpoint-every N cycles, default
             10000); with --resume the run restores FILE first, if it
             exists, and continues bit-identically from its cycle (see
             docs/CHECKPOINT.md). Incompatible with --trace.
             --metrics FILE streams a schema-versioned JSONL metrics
             sample every --sample-every N cycles (default 1024);
             --metrics-csv FILE streams the same samples as CSV;
             --progress rewrites a live stdout line
             (cycle / sim-cyc/s / active% / ETA). --ward KEY=VALUE
             (repeatable) arms a declarative stop-condition on the
             sample stream (see docs/OBSERVABILITY.md):
               max_cycles=N        stop at cycle N
               stall=N             stall watchdog: no task executes and
                                   no flit moves for N cycles
               converged=M:EPS[:W] metric M delta within EPS for W
                                   samples (M: tasks, injected, pending,
                                   latency_mean; W default 3)
               diverged_queue=F    pending work grew past F x baseline
               diverged_latency=F  interval latency past F x baseline
               snapshot=BOOL       write a post-mortem snapshot to the
                                   --checkpoint FILE on any trip
             A tripped ward prints its diagnostic report and exits 3.
    sweep    Expand a JSON experiment spec into run points, execute the
             ones missing from the store concurrently, and print the
             comparison table. Re-invoking skips completed run IDs.
             --seed appends a traffic.seed override to the spec's base.
             --sample-every N streams live per-point metrics into
             <store>.metrics/<run_id>.jsonl while the sweep runs. Specs
             may arm telemetry wards (telemetry.wards.* overrides); a
             tripped point is recorded with termination ward:<name>, not
             treated as a batch failure.
    report   Rebuild the comparison table from a result store without
             re-simulating; --set re-prices the stored runs under
             different model parameters.
    traffic  NoC characterization. `traffic sweep` runs a synthetic
             pattern (default uniform) across ascending offered loads
             (--rates, packets/tile/cycle) on a side×side grid
             (default 8, 4 PUs/tile) and prints the latency-vs-load
             table plus the detected saturation rate. `traffic replay`
             re-injects a trace recorded with `run --trace`, app-free,
             under the configuration given by --side/--set.

COMMON OPTIONS:
    --set KEY=VALUE   Configuration override (repeatable), e.g.
                      --set sram_kib_per_tile=64 --set traffic.rate=0.08
    --csv             Print the table as CSV instead of aligned text.
    -h, --help        Show this help.
";

fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `muchisim --help` for usage");
    std::process::exit(2);
}

/// The command line parsed, but asks for a system the simulator cannot
/// hold (see `SystemConfig::validate`): one line, same exit code.
fn config_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_num<T: FromStr>(what: &str, text: &str) -> T
where
    T::Err: Display,
{
    text.parse()
        .unwrap_or_else(|e| usage_error(format!("invalid {what} `{text}`: {e}")))
}

fn parse_set(args: &mut std::iter::Peekable<std::vec::IntoIter<String>>) -> Override {
    let Some(assignment) = args.next() else {
        usage_error("--set needs a KEY=VALUE argument");
    };
    parse_assignment(&assignment).unwrap_or_else(|e| usage_error(e))
}

/// Applies one `--ward KEY=VALUE` assignment to the telemetry params.
fn apply_ward(assignment: &str, t: &mut TelemetryParams) {
    let Some((key, value)) = assignment.split_once('=') else {
        usage_error(format!("--ward needs KEY=VALUE, got `{assignment}`"));
    };
    match key {
        "max_cycles" => t.wards.max_cycles = Some(parse_num("max_cycles ward", value)),
        "stall" => t.wards.stall_cycles = Some(parse_num("stall ward span", value)),
        "converged" => {
            let mut parts = value.split(':');
            let name = parts.next().unwrap_or("");
            let metric = WardMetric::from_label(name).unwrap_or_else(|| {
                usage_error(format!(
                    "unknown converged metric `{name}`; choose one of: {}",
                    WardMetric::ALL.map(WardMetric::label).join(", ")
                ))
            });
            let Some(eps) = parts.next() else {
                usage_error("converged ward needs METRIC:EPSILON[:WINDOW]");
            };
            let epsilon: f64 = parse_num("converged epsilon", eps);
            let window: u32 = parts.next().map_or(3, |w| parse_num("converged window", w));
            if parts.next().is_some() {
                usage_error(format!("converged ward `{value}` has too many `:` parts"));
            }
            t.wards.converged = Some(ConvergedWard {
                metric,
                epsilon,
                window,
            });
        }
        "diverged_queue" => {
            t.wards.diverged_queue_factor = Some(parse_num("diverged_queue factor", value))
        }
        "diverged_latency" => {
            t.wards.diverged_latency_factor = Some(parse_num("diverged_latency factor", value))
        }
        "snapshot" => t.snapshot_on_trip = parse_num("snapshot flag", value),
        other => usage_error(format!(
            "unknown ward `{other}`; choose one of: max_cycles, stall, converged, \
             diverged_queue, diverged_latency, snapshot"
        )),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return;
    }
    if args.is_empty() {
        usage_error("missing subcommand (run, sweep, or report)");
    }
    let sub = args.remove(0);
    let code = match sub.as_str() {
        "run" => cmd_run(args),
        "sweep" => cmd_sweep(args),
        "report" => cmd_report(args),
        "traffic" => cmd_traffic(args),
        other => usage_error(format!("unknown subcommand `{other}`")),
    };
    std::process::exit(code);
}

fn cmd_run(args: Vec<String>) -> i32 {
    let mut positional: Vec<String> = Vec::new();
    let mut overrides: Vec<Override> = Vec::new();
    let mut telemetry = false;
    let mut seed: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut threads_flag: Option<usize> = None;
    let mut no_active_list = false;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut resume = false;
    let mut metrics_path: Option<String> = None;
    let mut metrics_csv: Option<String> = None;
    let mut sample_every: Option<u64> = None;
    let mut progress = false;
    let mut ward_args: Vec<String> = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--set" => overrides.push(parse_set(&mut args)),
            "--metrics" => {
                metrics_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--metrics needs a FILE")),
                )
            }
            "--metrics-csv" => {
                metrics_csv = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--metrics-csv needs a FILE")),
                )
            }
            "--sample-every" => {
                sample_every = Some(parse_flag_value(
                    &mut args,
                    "--sample-every",
                    "sample cadence",
                ))
            }
            "--progress" => progress = true,
            "--ward" => ward_args.push(
                args.next()
                    .unwrap_or_else(|| usage_error("--ward needs a KEY=VALUE argument")),
            ),
            "--telemetry" => telemetry = true,
            "--seed" => seed = Some(parse_flag_value(&mut args, "--seed", "seed")),
            "--threads" => {
                threads_flag = Some(parse_flag_value(&mut args, "--threads", "thread count"))
            }
            "--no-active-list" => no_active_list = true,
            "--trace" => {
                trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--trace needs a FILE")),
                )
            }
            "--checkpoint" => {
                checkpoint_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--checkpoint needs a FILE")),
                )
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_flag_value(
                    &mut args,
                    "--checkpoint-every",
                    "checkpoint cadence",
                ))
            }
            "--resume" => resume = true,
            flag if flag.starts_with('-') => usage_error(format!("unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    if positional.len() > 4 {
        usage_error(format!("unexpected argument `{}`", positional[4]));
    }
    let Some(app_name) = positional.first() else {
        usage_error("run needs an <app> argument");
    };
    let Some(app) = Benchmark::from_label(app_name) else {
        usage_error(format!(
            "unknown app `{app_name}`; choose one of: {}",
            Benchmark::ALL.map(|b| b.label().to_lowercase()).join(", ")
        ));
    };
    let scale: u32 = positional.get(1).map_or(11, |s| parse_num("RMAT scale", s));
    let side: u32 = positional.get(2).map_or(16, |s| parse_num("grid side", s));
    let threads: usize = threads_flag.unwrap_or_else(|| {
        positional
            .get(3)
            .map_or(8, |s| parse_num("thread count", s))
    });

    let mut builder = SystemConfig::builder();
    builder.chiplet_tiles(side, side);
    if let Some(path) = &trace_path {
        builder.noc_trace(path.clone());
    }
    let base = builder.build().unwrap_or_else(|e| config_error(e));
    let mut cfg = apply_to_config(&base, &overrides).unwrap_or_else(|e| match e {
        DseError::Config(e) => config_error(e),
        other => usage_error(other),
    });
    if no_active_list {
        cfg.active_list = false;
    }
    // telemetry flags layer on top of any --set telemetry.* overrides
    // (explicit flags win); an unset cadence defaults to 1024 cycles
    let telemetry_flags = metrics_path.is_some()
        || metrics_csv.is_some()
        || sample_every.is_some()
        || progress
        || !ward_args.is_empty();
    if telemetry_flags {
        let t = &mut cfg.telemetry;
        if metrics_path.is_some() {
            t.metrics_path = metrics_path.clone();
        }
        if metrics_csv.is_some() {
            t.metrics_csv = metrics_csv.clone();
        }
        if progress {
            t.progress = true;
        }
        for w in &ward_args {
            apply_ward(w, t);
        }
        match sample_every {
            Some(n) => t.sample_every = Some(n),
            None => t.sample_every = t.sample_every.or(Some(1024)),
        }
    }
    // checkpoint flags land after the builder, so re-validate: the
    // checkpoint rules (path required, incompatible with --trace) must
    // fail at the command line, not one snapshot cadence into the run
    if checkpoint_path.is_some() || checkpoint_every.is_some() || resume {
        cfg.checkpoint_path = checkpoint_path;
        if cfg.checkpoint_path.is_some() {
            cfg.checkpoint_every = Some(checkpoint_every.unwrap_or(10_000));
        } else if checkpoint_every.is_some() {
            usage_error("--checkpoint-every needs --checkpoint FILE");
        }
        cfg.checkpoint_resume = resume;
        if let Err(e) = cfg.validate() {
            usage_error(e);
        }
    } else if telemetry_flags {
        // the telemetry rules (cadence non-zero, snapshot ward needs a
        // checkpoint path) must also fail at the command line
        if let Err(e) = cfg.validate() {
            usage_error(e);
        }
    }
    // --seed drives both generators so one flag makes the whole run
    // reproducible; an explicit --set traffic.seed still wins
    let graph_seed = seed.unwrap_or(42);
    if let Some(s) = seed {
        if !overrides.iter().any(|(k, _)| k == "traffic.seed") {
            cfg.traffic.seed = s;
        }
    }

    let graph = Arc::new(RmatConfig::scale(scale).generate(graph_seed));
    println!(
        "running {} on RMAT-{scale} (seed {graph_seed}) over {side}x{side} tiles \
         with {threads} host threads...",
        app.label()
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
            return 3;
        }
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            return 1;
        }
    };
    let failed = match &result.check_error {
        None => {
            println!("check: PASSED");
            false
        }
        Some(e) => {
            println!("check: FAILED ({e})");
            true
        }
    };
    if telemetry {
        println!(
            "telemetry: {} tiles | {:.3} Msimcycles/s | {:.3} Mpackets/s | \
             {:.0} bytes/tile ({:.1} MiB simulation state) | host {:.2}s x{} threads",
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
            "telemetry: host phases pu {:.3}s | inject {:.3}s | net {:.3}s | \
             worklist {:.3}s ({:.1}% of attributed time)",
            ph.pu as f64 / 1e9,
            ph.inject as f64 / 1e9,
            ph.net as f64 / 1e9,
            ph.worklist as f64 / 1e9,
            ph.worklist_share() * 100.0,
        );
        let rv = &result.host_router_visits;
        println!(
            "telemetry: router visits moved {} | stalled {} | slept on credit {} | \
             asleep on time {} ({:.1}% of visits evaluated for nothing)",
            rv.evaluated_moved,
            rv.evaluated_stalled,
            rv.replayed,
            rv.asleep,
            rv.stalled_share() * 100.0,
        );
        let lat = &result.noc_latency;
        println!(
            "telemetry: noc latency mean {:.1} | p50 {} | p95 {} | p99 {} | \
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
                "telemetry: stream dropped {} record(s) to a slow subscriber",
                result.telemetry_dropped
            );
        }
    }
    let report = Report::from_counters(&cfg, &result.counters);
    emit(&format!("{}\n", report.to_json()));

    // the counters file: rerun post-processing later with new parameters
    let counters_path = std::path::Path::new("target").join("counters.json");
    let write = serde_json::to_string_pretty(&result.counters)
        .map_err(|e| e.to_string())
        .and_then(|json| std::fs::write(&counters_path, json).map_err(|e| e.to_string()));
    match write {
        Ok(()) => println!("counters file written to {}", counters_path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", counters_path.display());
            return 1;
        }
    }
    if let Some(path) = &trace_path {
        println!(
            "NoC trace written to {path} (replay with `muchisim traffic replay --trace {path}`)"
        );
    }
    if let Some(path) = &metrics_path {
        println!("metrics stream written to {path}");
    }
    if let Some(path) = &metrics_csv {
        println!("metrics CSV written to {path}");
    }
    i32::from(failed)
}

/// Parses the value of `flag` from the next argument, exiting 2 when it
/// is missing or malformed.
fn parse_flag_value<T: FromStr>(
    args: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
    flag: &str,
    what: &str,
) -> T
where
    T::Err: Display,
{
    let Some(text) = args.next() else {
        usage_error(format!("{flag} needs a value"));
    };
    parse_num(what, &text)
}

fn cmd_sweep(args: Vec<String>) -> i32 {
    let mut spec_path: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut host_threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut sample_every: Option<u64> = None;
    let mut csv = false;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_flag_value(&mut args, "--seed", "seed")),
            "--sample-every" => {
                sample_every = Some(parse_flag_value(
                    &mut args,
                    "--sample-every",
                    "sample cadence",
                ))
            }
            "--spec" => {
                spec_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--spec needs a FILE")),
                )
            }
            "--store" => {
                store_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--store needs a FILE")),
                )
            }
            "--host-threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_error("--host-threads needs a number"));
                host_threads = Some(parse_num("host-thread count", &v));
            }
            "--csv" => csv = true,
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let Some(spec_path) = spec_path else {
        usage_error("sweep needs --spec FILE");
    };
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(text) => text,
        Err(e) => usage_error(format!("reading {spec_path}: {e}")),
    };
    let mut spec = ExperimentSpec::from_json(&text).unwrap_or_else(|e| usage_error(e));
    if let Some(s) = seed {
        // one flag reseeds the whole sweep's synthetic traffic; applied
        // to the base so every axis point inherits it
        spec.base.push((
            "traffic.seed".to_string(),
            parse_json_or_string(&s.to_string()),
        ));
        // run IDs don't encode base overrides, so a differently-seeded
        // sweep must not resume a same-named store and skip everything;
        // renaming the spec gives each seed its own default store (an
        // explicit --store is the caller's responsibility and is warned)
        spec.name = format!("{}-seed{s}", spec.name);
        if store_path.is_some() {
            eprintln!(
                "warning: --seed changes results but not run IDs; \
                 use a fresh --store per seed or completed IDs will be skipped"
            );
        }
    }
    let store_path = store_path
        .unwrap_or_else(|| format!("target/dse/{}.jsonl", muchisim::dse::slug(&spec.name)));
    let host_threads =
        host_threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(8, |n| n.get()));

    let points = match spec.expand() {
        Ok(points) => points,
        Err(e) => usage_error(e),
    };
    println!(
        "sweep `{}`: {} points ({} axes, {} apps, {} datasets), {} host threads x {} per run",
        spec.name,
        points.len(),
        spec.axes.len(),
        spec.apps.len(),
        spec.datasets.len(),
        host_threads,
        spec.threads_per_run,
    );
    let mut store = match JsonlStore::open(&store_path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut runner = BatchRunner::new(host_threads);
    if let Some(every) = sample_every {
        if every == 0 {
            usage_error("--sample-every must be >= 1");
        }
        runner = runner.with_sample_every(every);
        println!(
            "live metrics: one stream per point under {store_path}.metrics/ \
             (every {every} cycles)"
        );
    }
    let outcome = match runner.run_points(&points, spec.threads_per_run, &mut store) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "executed {} points, skipped {} already-completed points ({})",
        outcome.executed,
        outcome.skipped,
        store.path().display()
    );
    if outcome.ward_trips > 0 {
        println!(
            "{} point(s) were terminated by a telemetry ward (see the `term` column)",
            outcome.ward_trips
        );
    }
    if outcome.check_failures > 0 {
        eprintln!(
            "warning: {} run(s) failed their result check",
            outcome.check_failures
        );
    }
    match print_table(&store, &[], csv) {
        Ok(()) if outcome.check_failures == 0 => 0,
        Ok(()) => 1,
        Err(code) => code,
    }
}

fn cmd_report(args: Vec<String>) -> i32 {
    let mut store_path: Option<String> = None;
    let mut overrides: Vec<Override> = Vec::new();
    let mut csv = false;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                store_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--store needs a FILE")),
                )
            }
            "--set" => overrides.push(parse_set(&mut args)),
            "--csv" => csv = true,
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let Some(store_path) = store_path else {
        usage_error("report needs --store FILE");
    };
    let store = match JsonlStore::open(&store_path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if store.records().is_empty() {
        eprintln!("error: {store_path} holds no records");
        return 1;
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
    match print_table(&store, &overrides, csv) {
        Ok(()) if failed.is_empty() => 0,
        Ok(()) => 1,
        Err(code) => code,
    }
}

fn cmd_traffic(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        usage_error("traffic needs a subcommand (sweep or replay)");
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "sweep" => cmd_traffic_sweep(args),
        "replay" => cmd_traffic_replay(args),
        other => usage_error(format!("unknown traffic subcommand `{other}`")),
    }
}

/// Builds the traffic base configuration: a square grid with 4 PUs per
/// tile (so receive handlers never bottleneck ahead of the network) and
/// the requested topology, then user overrides on top.
fn traffic_config(side: u32, topo: &str, overrides: &[Override]) -> SystemConfig {
    let mut builder = SystemConfig::builder();
    builder.chiplet_tiles(side, side).pus_per_tile(4);
    match topo {
        "mesh" => builder.noc_topology(NocTopology::Mesh),
        "torus" => builder.noc_topology(NocTopology::FoldedTorus),
        "ruche" => builder.noc_topology(NocTopology::Mesh).ruche_factor(2),
        other => usage_error(format!(
            "unknown topology `{other}`; expected mesh, torus, or ruche"
        )),
    };
    let base = builder.build().unwrap_or_else(|e| usage_error(e));
    apply_to_config(&base, overrides).unwrap_or_else(|e| usage_error(e))
}

fn cmd_traffic_sweep(args: Vec<String>) -> i32 {
    let mut pattern = TrafficPattern::UniformRandom;
    let mut rates: Vec<f64> = vec![0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
    let mut side = 8u32;
    let mut topo = "mesh".to_string();
    let mut threads = 4usize;
    let mut seed: Option<u64> = None;
    let mut overrides: Vec<Override> = Vec::new();
    let mut csv = false;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pattern" => {
                let name: String = args
                    .next()
                    .unwrap_or_else(|| usage_error("--pattern needs a name"));
                pattern = TrafficPattern::from_label(&name).unwrap_or_else(|| {
                    usage_error(format!(
                        "unknown pattern `{name}`; choose one of: {}",
                        TrafficPattern::ALL.map(TrafficPattern::label).join(", ")
                    ))
                });
            }
            "--rates" => {
                let list: String = args
                    .next()
                    .unwrap_or_else(|| usage_error("--rates needs a comma-separated list"));
                rates = list
                    .split(',')
                    .map(|r| parse_num("offered rate", r.trim()))
                    .collect();
                if rates.is_empty() {
                    usage_error("--rates lists no rates");
                }
                // saturation detection baselines on the first point, so
                // the list must really be ascending offered load
                if rates.windows(2).any(|w| w[0] >= w[1]) {
                    usage_error(format!("--rates must be strictly ascending (got {list})"));
                }
            }
            "--side" => side = parse_flag_value(&mut args, "--side", "grid side"),
            "--topo" => {
                topo = args
                    .next()
                    .unwrap_or_else(|| usage_error("--topo needs a name"))
            }
            "--threads" => threads = parse_flag_value(&mut args, "--threads", "thread count"),
            "--seed" => seed = Some(parse_flag_value(&mut args, "--seed", "seed")),
            "--csv" => csv = true,
            "--set" => overrides.push(parse_set(&mut args)),
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let mut cfg = traffic_config(side, &topo, &overrides);
    // an explicit --set traffic.seed wins, matching `run`'s precedence
    if let Some(s) = seed {
        if !overrides.iter().any(|(k, _)| k == "traffic.seed") {
            cfg.traffic.seed = s;
        }
    }
    println!(
        "traffic sweep: {} on {side}x{side} {topo}, {} rates, window {} cycles, seed {}",
        pattern.label(),
        rates.len(),
        cfg.traffic.cycles,
        cfg.traffic.seed,
    );
    let curve = match saturation_sweep(&cfg, pattern, &rates, threads) {
        Ok(curve) => curve,
        Err(e) => {
            eprintln!("error: traffic sweep failed: {e}");
            return 1;
        }
    };
    let label = format!("{topo}/{}", pattern.label());
    let table = curve_table(&label, &curve);
    if csv {
        emit(&table.to_csv());
    } else {
        emit(&table.to_text());
    }
    match curve.saturation_point(3.0) {
        Some(p) => println!(
            "saturation: offered {:.3} packets/tile/cycle (accepted {:.3}, \
             mean latency {:.1} cycles vs {:.1} at zero load)",
            p.offered,
            p.achieved,
            p.avg_latency,
            curve.base_latency().unwrap_or(0.0),
        ),
        None => println!("saturation: not reached within the swept rates"),
    }
    0
}

/// Converts a saturation curve into the viz latency-vs-load table.
fn curve_table(label: &str, curve: &SaturationCurve) -> LoadLatencyTable {
    let mut table = LoadLatencyTable::default();
    for p in &curve.points {
        table.push(LoadLatencyRow {
            series: label.to_string(),
            offered: p.offered,
            achieved: p.achieved,
            avg_latency: p.avg_latency,
            p50_latency: p.p50_latency,
            p95_latency: p.p95_latency,
            p99_latency: p.p99_latency,
            max_latency: p.max_latency,
        });
    }
    table
}

fn cmd_traffic_replay(args: Vec<String>) -> i32 {
    let mut trace_path: Option<String> = None;
    let mut side = 16u32;
    let mut threads = 4usize;
    let mut overrides: Vec<Override> = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--trace needs a FILE")),
                )
            }
            "--side" => side = parse_flag_value(&mut args, "--side", "grid side"),
            "--threads" => threads = parse_flag_value(&mut args, "--threads", "thread count"),
            "--set" => overrides.push(parse_set(&mut args)),
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let Some(trace_path) = trace_path else {
        usage_error("replay needs --trace FILE");
    };
    let base = SystemConfig::builder()
        .chiplet_tiles(side, side)
        .build()
        .unwrap_or_else(|e| usage_error(e));
    let cfg = apply_to_config(&base, &overrides).unwrap_or_else(|e| usage_error(e));
    let tiles = cfg.total_tiles() as u32;
    let app = match TraceReplayApp::from_file(&trace_path, tiles) {
        Ok(app) => app,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "replaying {} packets (last injection at cycle {}) on {side}x{side} \
         with {threads} host threads...",
        app.total_packets(),
        app.last_cycle(),
    );
    let result = match muchisim::core::Simulation::new(cfg, app) {
        Ok(sim) => match sim.run_parallel(threads) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: replay failed: {e}");
                return 1;
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(why) = &result.check_error {
        eprintln!("error: replay check failed: {why}");
        return 1;
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
    0
}

fn print_table(store: &JsonlStore, overrides: &[Override], csv: bool) -> Result<(), i32> {
    let table = table_from_store(store, overrides).map_err(|e| {
        eprintln!("error: {e}");
        1
    })?;
    if csv {
        emit(&table.to_csv());
    } else {
        emit(&format!("{}\n", table.to_text()));
    }
    Ok(())
}

/// Writes to stdout, exiting quietly when the consumer closed the pipe
/// (`muchisim report | head` must not panic with a backtrace).
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}
