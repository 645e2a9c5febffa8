//! The repository's benchmark.
//!
//! ```text
//! muchisim-benchmark --workload NAME --seed N --seconds N --trace 0|1 [--smoke]
//! muchisim-benchmark suite [--rounds N] [--seed N] [--seconds N] [--smoke] [--out FILE]
//! muchisim-benchmark compare A.json B.json
//! muchisim-benchmark bless
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Everything else goes to standard
//! error. Run it from the repository root; `benchmark/run.sh` builds and
//! does so. See `benchmark/README.md` for what the names mean.

mod calib;
mod json;
mod metrics;
mod probes;
mod procfs;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use run::Options;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use suite::SuiteOptions;
use workloads::{Sizing, Workload};

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(at);
        Ok(Some(self.rest.remove(at)))
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: `{text}` is not a valid number")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.rest.first() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }
}

fn sizing(args: &mut Args) -> Sizing {
    if args.flag("--smoke") {
        Sizing::Smoke
    } else {
        Sizing::Full
    }
}

fn one_workload(mut args: Args) -> Result<bool, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.map(Workload::name).to_vec();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let opts = Options {
        workload,
        seed: args.number("--seed")?.unwrap_or(run::PIN_SEED),
        seconds: args.number("--seconds")?.unwrap_or(15.0),
        trace: match args.value("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        sizing: sizing(&mut args),
    };
    args.done()?;
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let outcome = run::run(&opts)?;
    println!(
        "{}",
        suite::result_line(outcome.attempted, outcome.failed, &outcome.metrics)?
    );
    Ok(true)
}

fn whole_suite(mut args: Args) -> Result<bool, String> {
    let opts = SuiteOptions {
        rounds: args.number("--rounds")?.unwrap_or(5),
        seed: args.number("--seed")?.unwrap_or(run::PIN_SEED),
        seconds: args.number("--seconds")?.unwrap_or(15),
        sizing: sizing(&mut args),
        out: match args.value("--out")? {
            Some(path) => PathBuf::from(path),
            None => run::out_dir()?.join("results.json"),
        },
        child_timeout: Duration::from_secs(170),
    };
    args.done()?;
    if opts.rounds == 0 || opts.seconds == 0 {
        return Err("--rounds and --seconds must be at least 1".into());
    }
    Ok(!suite::suite(&opts)?)
}

fn dispatch(mut rest: Vec<String>) -> Result<bool, String> {
    match rest.first().map(String::as_str) {
        Some("suite") => whole_suite(Args {
            rest: rest.split_off(1),
        }),
        Some("compare") => match &rest[1..] {
            [a, b] => suite::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        Some("bless") => {
            let path = "benchmark/expected.json";
            let text = run::bless()?;
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{path} rewritten; rebuild to use it");
            Ok(true)
        }
        _ => one_workload(Args { rest }),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
