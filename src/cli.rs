//! The command line as data: one [`Flag`] table per subcommand, one
//! pure [`parse`], and `--help` rendered from the same rows.
//!
//! A flag that sets a configuration field names the field's path in
//! [`Flag::key`] and is *lowered* to the `key=value` assignment `--set`
//! takes ([`Args::overrides`]), so every setting reaches `SystemConfig`
//! through one `apply_to_config` and is type-checked and validated
//! once, by the code that checks `--set`.

use muchisim::config::{ConvergedWard, WardMetric};
use muchisim::dse::{parse_assignment, Override};
use std::borrow::Borrow;
use std::fmt::Display;
use std::str::FromStr;

/// One row of a subcommand's flag table.
pub(crate) struct Flag {
    pub name: &'static str,
    /// Placeholder for the flag's value; empty for a switch.
    pub metavar: &'static str,
    pub repeatable: bool,
    /// The configuration path the flag is an alias for; empty for none.
    pub key: &'static str,
    pub help: &'static str,
}

/// A subcommand: its positional synopsis (one word per positional it
/// accepts) and its flag table.
pub(crate) struct Command {
    pub name: &'static str,
    pub positionals: &'static str,
    pub flags: &'static [Flag],
    pub about: &'static str,
}

/// A malformed command line; the message backticks the argument at fault.
pub(crate) struct CliError(pub String);

/// Parses `text` as a `what`, naming both when it is not one.
pub(crate) fn parsed<T: FromStr<Err: Display>>(what: &str, text: &str) -> Result<T, CliError> {
    let invalid = |e| CliError(format!("invalid {what} `{text}`: {e}"));
    text.parse().map_err(invalid)
}

/// `found`, or an error naming `name` and the `known` choices.
pub(crate) fn chosen<T, S: Borrow<str>>(
    found: Option<T>,
    what: &str,
    name: &str,
    known: &[S],
) -> Result<T, CliError> {
    let known = known.join(", ");
    found.ok_or_else(|| CliError(format!("unknown {what} `{name}`; choose one of: {known}")))
}

/// An argv split along one command's table.
pub(crate) struct Args {
    positionals: Vec<String>,
    /// `(flag, value)` in argv order; a switch carries an empty value.
    flags: Vec<(&'static Flag, String)>,
}

/// Splits `argv` into the positionals and flags of `command`.
pub(crate) fn parse(command: &'static Command, argv: &[&str]) -> Result<Args, CliError> {
    let (mut positionals, mut flags) = (Vec::new(), Vec::<(&Flag, String)>::new());
    let mut argv = argv.iter();
    while let Some(&arg) = argv.next() {
        if !arg.starts_with('-') {
            if positionals.len() == command.positionals.split_whitespace().count() {
                return Err(CliError(format!("unexpected argument `{arg}`")));
            }
            positionals.push(arg.to_string());
            continue;
        }
        let Some(flag) = command.flags.iter().find(|f| f.name == arg) else {
            return Err(CliError(format!("unknown flag `{arg}`")));
        };
        if !flag.repeatable && flags.iter().any(|(given, _)| given.name == arg) {
            return Err(CliError(format!("`{arg}` given more than once")));
        }
        let missing = || CliError(format!("`{arg}` needs a value ({})", flag.metavar));
        let value = match flag.metavar {
            "" => "", // a switch takes nothing from argv
            _ => *argv.next().ok_or_else(missing)?,
        };
        flags.push((flag, value.to_string()));
    }
    Ok(Args { positionals, flags })
}

/// A flag whose key starts with `.0` implies the default `.1`, which
/// any `--set` and any flag override.
const IMPLIED: [(&str, &str); 2] = [
    ("telemetry.", "telemetry.sample_every=1024"),
    ("checkpoint_path", "checkpoint_every=10000"),
];

/// `--ward NAME=VALUE` assigns to the key `telemetry.` + `.1`.
const WARDS: [(&str, &str); 6] = [
    ("max_cycles", "wards.max_cycles"),
    ("stall", "wards.stall_cycles"),
    ("converged", "wards.converged"),
    ("diverged_queue", "wards.diverged_queue_factor"),
    ("diverged_latency", "wards.diverged_latency_factor"),
    ("snapshot", "snapshot_on_trip"),
];

/// `--topo NAME` stands for the assignments `.1`.
const TOPOLOGIES: [(&str, &[&str]); 3] = [
    ("mesh", &["noc.topology=Mesh"]),
    ("torus", &["noc.topology=FoldedTorus"]),
    ("ruche", &["noc.topology=Mesh", "noc.ruche_factor=2"]),
];

/// The row of `table` named `name`.
fn row<'t, V>(table: &'t [(&str, V)], what: &str, name: &str) -> Result<&'t V, CliError> {
    let found = table.iter().find(|row| row.0 == name).map(|row| &row.1);
    let known: Vec<&str> = table.iter().map(|row| row.0).collect();
    chosen(found, what, name, &known)
}

/// Lowers one `--ward NAME=VALUE`; `converged=METRIC:EPSILON[:WINDOW]`
/// is the one value that is not its key's JSON form.
fn lower_ward(text: &str) -> Result<String, CliError> {
    let Some((name, value)) = text.split_once('=') else {
        return Err(CliError(format!("--ward needs KEY=VALUE, got `{text}`")));
    };
    let key = row(&WARDS, "ward", name)?;
    if name != "converged" {
        return Ok(format!("telemetry.{key}={value}"));
    }
    let (metric, epsilon, window) = match value.split(':').collect::<Vec<_>>()[..] {
        [metric, epsilon] => (metric, epsilon, "3"),
        [metric, epsilon, window] => (metric, epsilon, window),
        _ => {
            let form = format!("converged ward needs METRIC:EPSILON[:WINDOW], got `{value}`");
            return Err(CliError(form));
        }
    };
    let labels = WardMetric::ALL.map(WardMetric::label);
    let found = WardMetric::from_label(metric);
    let ward = ConvergedWard {
        metric: chosen(found, "converged metric", metric, &labels)?,
        epsilon: parsed("converged epsilon", epsilon)?,
        window: parsed("converged window", window)?,
    };
    let json = serde_json::to_string(&ward).expect("plain data serializes");
    Ok(format!("telemetry.{key}={json}"))
}

impl Args {
    /// The value of the flag `name` (empty for a switch), when given.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().find(|(flag, _)| flag.name == name);
        given.map(|(_, value)| value.as_str())
    }

    /// The value of a flag the command cannot do without.
    pub(crate) fn required(&self, name: &str) -> Result<&str, CliError> {
        let missing = || CliError(format!("missing the required flag `{name}`"));
        self.get(name).ok_or_else(missing)
    }

    /// The `index`-th positional, when given.
    pub(crate) fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// The command line as one override list: `base` (what the
    /// subcommand itself fixes), the defaults its flags imply and
    /// `--seed`; then the `--set`s; then every other flag with a key —
    /// so a flag beats a `--set`, which beats a default.
    pub(crate) fn overrides(&self, base: &[&str]) -> Result<Vec<Override>, CliError> {
        let mut early: Vec<String> = base.iter().map(|text| text.to_string()).collect();
        let (mut sets, mut late) = (Vec::new(), Vec::new());
        for (flag, value) in &self.flags {
            let key = flag.key;
            let implied = IMPLIED.iter().filter(|(prefix, _)| key.starts_with(prefix));
            early.extend(implied.map(|(_, default)| default.to_string()));
            match (flag.name, flag.metavar) {
                ("--set", _) => sets.push(value.clone()),
                _ if key.is_empty() => {}
                ("--seed", _) => early.push(format!("{key}={value}")),
                ("--ward", _) => late.push(lower_ward(value)?),
                ("--topo", _) => {
                    let assignments = row(&TOPOLOGIES, "topology", value)?;
                    late.extend(assignments.iter().map(|text| text.to_string()));
                }
                (_, "") => late.push(format!("{key}=true")),
                (_, "FILE") => {
                    // a path is a string even when it reads as JSON
                    let path = serde_json::to_string(value).expect("a string serializes");
                    late.push(format!("{key}={path}"));
                }
                _ => late.push(format!("{key}={value}")),
            }
        }
        let layers = [early, sets, late].concat();
        let assignment =
            |text: &String| parse_assignment(text).map_err(|e| CliError(e.to_string()));
        layers.iter().map(assignment).collect()
    }
}

type Text = &'static str;

const fn flag(name: Text, metavar: Text, key: Text, help: Text) -> Flag {
    Flag {
        name,
        metavar,
        repeatable: false,
        key,
        help,
    }
}

const SET: Flag = Flag {
    repeatable: true,
    ..flag("--set", "KEY=VALUE", "", "configuration override (repeatable), e.g. --set sram_kib_per_tile=64\n--set traffic.rate=0.08; a flag that names the same key wins")
};
const CSV: Flag = flag(
    "--csv",
    "",
    "",
    "print the table as CSV instead of aligned text",
);
const SIDE: Flag = flag(
    "--side",
    "N",
    "",
    "square grid side in tiles (default: sweep 8, replay 16)",
);
const THREADS: Flag = flag("--threads", "N", "", "host threads per run (default 4)");

#[rustfmt::skip]
pub(crate) static RUN: Command = Command {
    name: "run",
    positionals: "<app> [scale [side [threads]]]",
    about: "Run one benchmark on an RMAT graph and print its report and host summary. <app> is\n\
        a suite label (bfs, sssp, page, wcc, spmv, spmm, histo, fft) or a synthetic-traffic\n\
        workload (traf-uniform, traf-bitcomp, traf-transpose, traf-shuffle, traf-neighbor,\n\
        traf-hotspot); scale is the RMAT scale (default 11), side the square grid side in tiles\n\
        (16), threads the host threads (8). To re-price a run later without re-simulating, run\n\
        it as a one-point spec with `sweep`, then `report --store FILE --set params.KEY=VALUE`.",
    flags: &[
        flag("--seed", "N", "traffic.seed", "seed the dataset generator (default 42) and traffic.seed"),
        flag("--trace", "FILE", "noc_trace", "record every NoC injection to FILE (JSONL) for `traffic replay`"),
        flag("--checkpoint", "FILE", "checkpoint_path", "snapshot the full simulation state to FILE periodically\n(see docs/CHECKPOINT.md; incompatible with --trace)"),
        flag("--checkpoint-every", "N", "checkpoint_every", "snapshot cadence in cycles (default 10000)"),
        flag("--resume", "", "checkpoint_resume", "restore the checkpoint file first, if it exists, and continue\nbit-identically from its cycle"),
        flag("--metrics", "FILE", "telemetry.metrics_path", "stream schema-versioned JSONL metrics samples to FILE"),
        flag("--metrics-csv", "FILE", "telemetry.metrics_csv", "stream the same samples as CSV"),
        flag("--sample-every", "N", "telemetry.sample_every", "sample cadence in cycles (default 1024)"),
        flag("--progress", "", "telemetry.progress", "rewrite a live stdout line (cycle / sim-cyc/s / active% / ETA)"),
        Flag { repeatable: true, ..flag("--ward", "KEY=VALUE", "telemetry.wards", "arm a stop-condition on the sample stream (repeatable; see\n\
            docs/OBSERVABILITY.md); a tripped ward prints its report and exits 3:\n\
            max_cycles=N        stop at cycle N\n\
            stall=N             no task executes and no flit moves for N cycles\n\
            converged=M:EPS[:W] metric M (tasks, injected, pending, latency_mean)\n\
            \x20                   moves at most EPS for W samples (default 3)\n\
            diverged_queue=F    pending work grew past F x baseline\n\
            diverged_latency=F  interval latency grew past F x baseline\n\
            snapshot=BOOL       write a post-mortem snapshot to the checkpoint file") },
        SET,
    ],
};

#[rustfmt::skip]
pub(crate) static SWEEP: Command = Command {
    name: "sweep",
    positionals: "",
    about: "Expand a JSON experiment spec into run points, execute the ones missing from the\n\
        store concurrently, and print the comparison table. Re-invoking skips completed run\n\
        IDs. A point a ward stops is recorded with termination ward:<name>, not as a failure.\n\
        With --csv, stdout is the CSV alone and the other lines go to stderr.",
    flags: &[
        flag("--spec", "FILE", "", "the experiment spec (required)"),
        flag("--store", "FILE", "", "the resumable JSONL result store (default target/dse/<name>.jsonl)"),
        flag("--host-threads", "N", "", "host-thread budget shared by the concurrent points"),
        flag("--seed", "N", "traffic.seed", "append a traffic.seed override to the spec's base"),
        flag("--sample-every", "N", "", "stream live per-point metrics into <store>.metrics/<run_id>.jsonl"),
        CSV,
    ],
};

#[rustfmt::skip]
pub(crate) static REPORT: Command = Command {
    name: "report",
    positionals: "",
    about: "Rebuild the comparison table from a result store without re-simulating; --set\n\
        re-prices the stored runs under different model parameters.",
    flags: &[flag("--store", "FILE", "", "the result store to read (required)"), SET, CSV],
};

#[rustfmt::skip]
pub(crate) static TRAFFIC_SWEEP: Command = Command {
    name: "traffic sweep",
    positionals: "",
    about: "Run a synthetic pattern across ascending offered loads on a side x side grid with\n\
        4 PUs per tile; print the latency-vs-load table and the detected saturation rate. The\n\
        rates run as sweep points, concurrently, into a store under target/dse/ named by the\n\
        configuration: rerunning the same command resumes it and simulates only what is\n\
        missing. With --csv, stdout is the CSV alone and the other lines go to stderr.",
    flags: &[
        flag("--pattern", "P", "", "uniform (default), bitcomp, transpose, shuffle, neighbor, hotspot"),
        flag("--rates", "R,R,...", "", "strictly ascending offered loads in packets/tile/cycle"),
        SIDE,
        flag("--topo", "T", "noc.topology", "mesh (default), torus, or ruche"),
        THREADS,
        flag("--seed", "N", "traffic.seed", "seed of the traffic generators"),
        CSV,
        SET,
    ],
};

#[rustfmt::skip]
pub(crate) static TRAFFIC_REPLAY: Command = Command {
    name: "traffic replay",
    positionals: "",
    about: "Re-inject a trace recorded with `run --trace`, app-free, under the configuration\n\
        given by --side and --set.",
    flags: &[flag("--trace", "FILE", "", "the recorded trace (required)"), SIDE, THREADS, SET],
};

static COMMANDS: [&Command; 5] = [&RUN, &SWEEP, &REPORT, &TRAFFIC_SWEEP, &TRAFFIC_REPLAY];

/// Renders `--help` from the tables.
pub(crate) fn help() -> String {
    let mut out =
        String::from("muchisim: design exploration for multi-chip manycore systems\n\nUSAGE:\n");
    for command in COMMANDS {
        let synopsis = format!("muchisim {} {} [FLAGS]", command.name, command.positionals);
        out += &format!("    {}\n", synopsis.replace("  ", " "));
    }
    for command in COMMANDS {
        let about = command.about.replace('\n', "\n    ");
        out += &format!("\n{}:\n    {about}\n\n", command.name.to_uppercase());
        for flag in command.flags {
            let usage = format!("{} {}", flag.name, flag.metavar);
            let help = flag.help.replace('\n', &format!("\n{:28}", ""));
            out += &format!("    {usage:<23} {help}\n");
        }
    }
    out + "\n    -h, --help              show this help\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Valid values and junk, space-separated (the doubled space is an
    /// empty argument).
    const VALUES: &str = "-  -- -1 --bogus = =1 a=b pus_per_tile=2 max_cycles=5 snapshot=1 \
        converged=tasks:0.5:x converged=: stall ruche torus 7 0.1,0.2 x.snap bfs \u{1F980}=\"";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Hostile argv never panics the parser or the lowering, and
        /// every error backticks a token of the argv it was given (or
        /// the flag that is missing from it).
        #[test]
        fn every_error_names_the_offending_token(
            which in 0usize..5,
            picks in proptest::collection::vec((0usize..60, any::<bool>()), 0..9),
        ) {
            let command = COMMANDS[which];
            let (flags, values) = (command.flags, VALUES.split(' ').collect::<Vec<_>>());
            let pick = |&(pick, flag): &(usize, bool)| match flag {
                true => flags[pick % flags.len()].name,
                false => values[pick % values.len()],
            };
            let argv: Vec<&str> = picks.iter().map(pick).collect();
            let lowered = parse(command, &argv).and_then(|args| {
                args.required(flags[0].name)?;
                args.overrides(&["pus_per_tile=4"])
            });
            if let Err(CliError(message)) = lowered {
                let token = message.split('`').nth(1).expect(&message);
                let named = argv.iter().any(|arg| arg.contains(token));
                prop_assert!(named || flags.iter().any(|f| f.name == token), "{argv:?}: {message}");
            }
        }
    }
}
