//! The whole benchmark as one command, and the comparison of two of its
//! result files.
//!
//! The suite runs every (workload, round) as a child process of this
//! binary, so peak memory is per workload and a hung or crashed
//! workload is a counted failure of that workload only. Workloads are
//! interleaved round-robin, so slow drift of the host lands on all of
//! them alike. Round `r` uses seed `S + r`, as the acceptance check
//! does; one traced round at seed `S` follows the untraced rounds.

use crate::json::{get, int, items, num, obj, text};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{summary, Summary};
use crate::workloads::{Sizing, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub rounds: u64,
    pub seed: u64,
    pub seconds: u64,
    pub sizing: Sizing,
    pub out: PathBuf,
    /// A child still running after this long is killed and counted as a
    /// failed workload, not a hung benchmark.
    pub child_timeout: Duration,
}

/// One parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> Result<String, String> {
    let fields = metrics.iter().map(|(name, value)| {
        let unit = crate::metrics::find(name).map_or("", |m| m.unit);
        (*name, obj([("value", num(*value)), ("unit", text(unit))]))
    });
    let line = obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", obj(fields)),
    ]);
    serde_json::to_string(&line).map_err(|e| format!("result line: {e}"))
}

pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let field = |key: &str| get(&doc, key).ok_or_else(|| format!("result line lacks `{key}`"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = get(m, "value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ResultLine {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: field("attempted")?
            .as_u64()
            .ok_or("`attempted` is not a count")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        metrics,
    })
}

fn run_child(
    opts: &SuiteOptions,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.sizing == Sizing::Smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + opts.child_timeout;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {:?}", opts.child_timeout));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    // the child prints one line, far below the pipe's capacity, so
    // reading after it exited cannot have blocked it
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("reading child output: {e}"))?;
    }
    let last = stdout.lines().last().unwrap_or("");
    match parse_result_line(last) {
        Ok(line) => Ok(line),
        Err(why) => Err(format!("{status}, no result line ({why})")),
    }
}

/// All samples of one workload.
#[derive(Debug, Default)]
struct Samples {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    fn absorb(&mut self, outcome: Result<ResultLine, String>, workload: Workload) {
        match outcome {
            Ok(line) => {
                self.attempted += line.attempted;
                self.failed += line.failed;
                for (name, value) in line.metrics {
                    self.values.entry(name).or_default().push(value);
                }
            }
            Err(why) => {
                eprintln!("FAILED: {}: {why}", workload.name());
                self.attempted += 1;
                self.failed += 1;
            }
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn summary_json(metric: &Metric, values: &[f64]) -> Value {
    let s = summary(values);
    obj([
        ("unit", text(metric.unit)),
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", int(s.n as u64)),
        (
            "values",
            Value::Array(values.iter().map(|v| num(*v)).collect()),
        ),
    ])
}

/// Runs the suite, prints every metric by name and writes the result
/// file. Returns whether any simulation failed.
pub fn suite(opts: &SuiteOptions) -> Result<bool, String> {
    let started = Instant::now();
    let mut samples: Vec<Samples> = Workload::ALL.iter().map(|_| Samples::default()).collect();
    for round in 0..opts.rounds {
        for (workload, into) in Workload::ALL.into_iter().zip(&mut samples) {
            eprintln!("round {}/{} {}", round + 1, opts.rounds, workload.name());
            into.absorb(
                run_child(opts, workload, opts.seed + round, false),
                workload,
            );
        }
    }
    for (workload, into) in Workload::ALL.into_iter().zip(&mut samples) {
        eprintln!("traced round {}", workload.name());
        into.absorb(run_child(opts, workload, opts.seed, true), workload);
    }

    println!(
        "{:<22} {:<28} {:<14} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    let mut failed_any = false;
    let mut workloads_json = Vec::new();
    for (workload, got) in Workload::ALL.into_iter().zip(&samples) {
        failed_any |= got.failed > 0;
        let mut sections = Vec::new();
        for (section, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let mut fields = Vec::new();
            for metric in catalogue {
                let Some(values) = got.values.get(metric.name) else {
                    continue;
                };
                let s = summary(values);
                println!(
                    "{:<22} {:<28} {:<14} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                    workload.name(),
                    metric.name,
                    metric.unit,
                    s.median,
                    s.q1,
                    s.q3,
                    s.n
                );
                fields.push((metric.name, summary_json(metric, values)));
            }
            sections.push((section, obj(fields)));
        }
        println!(
            "{:<22} {:<28} {:<14} {:>14.6} (failed {} of {} attempted)",
            workload.name(),
            "fail_share.all_rounds",
            "ratio",
            got.failed as f64 / got.attempted.max(1) as f64,
            got.failed,
            got.attempted
        );
        sections.push(("attempted", int(got.attempted)));
        sections.push(("failed", int(got.failed)));
        workloads_json.push((workload.name(), obj(sections)));
    }
    let doc = obj([
        (
            "host",
            obj([
                ("cpus", int(crate::procfs::cpus() as u64)),
                ("cpu_model", text(&cpu_model())),
            ]),
        ),
        ("seed", int(opts.seed)),
        ("rounds", int(opts.rounds)),
        ("seconds", int(opts.seconds)),
        ("sizing", text(opts.sizing.label())),
        ("wall_s", num(started.elapsed().as_secs_f64())),
        ("workloads", obj(workloads_json)),
    ]);
    let pretty = serde_json::to_string_pretty(&doc).map_err(|e| format!("results: {e}"))?;
    std::fs::write(&opts.out, pretty + "\n")
        .map_err(|e| format!("writing {}: {e}", opts.out.display()))?;
    eprintln!(
        "results written to {} after {:.0} s",
        opts.out.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(failed_any)
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn stored_summary(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<Summary> {
    let m = get(
        get(get(get(doc, "workloads")?, workload)?, section)?,
        metric,
    )?;
    let field = |key: &str| get(m, key).and_then(Value::as_f64);
    Some(Summary {
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        n: field("n")? as usize,
    })
}

/// How far `b` is worse than `a`, as a share of `a`.
pub fn worse_by(metric: &Metric, a: f64, b: f64) -> f64 {
    let delta = if metric.better == "lower" {
        b - a
    } else {
        a - b
    };
    delta / a.abs()
}

/// `worse` when B's median is worse than A's by more than the bound;
/// otherwise `unresolved` when either set spreads wider than the bound
/// (the sets cannot show the metric unchanged), else `ok`.
pub fn verdict(metric: &Metric, bound: f64, a: &Summary, b: &Summary) -> &'static str {
    if worse_by(metric, a.median, b.median) > bound {
        "worse"
    } else if a.spread().max(b.spread()) > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Prints one row per (end-to-end metric, workload) of two result files
/// and checks that exact metrics agree exactly. Returns whether B is
/// acceptable against A.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let manifest = load(Path::new("BENCHMARK.json"))?;
    let bound_of = |name: &str| {
        items(get(&manifest, "end_to_end").unwrap_or(&Value::Null))
            .iter()
            .find(|m| get(m, "name").and_then(Value::as_str) == Some(name))
            .and_then(|m| get(m, "bound")?.as_f64())
            .ok_or_else(|| format!("BENCHMARK.json has no bound for `{name}`"))
    };
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>18} {:>6} {:>8} {:>8}  verdict",
        "metric", "workload", "A median", "B median", "B/A (base A)", "bound", "A iqr", "B iqr"
    );
    let mut acceptable = true;
    for metric in &END_TO_END {
        let bound = bound_of(metric.name)?;
        for workload in Workload::ALL {
            let lookup = |doc| stored_summary(doc, workload.name(), "end_to_end", metric.name);
            let (Some(sa), Some(sb)) = (lookup(&a), lookup(&b)) else {
                return Err(format!(
                    "{} / {} is missing from a result file",
                    workload.name(),
                    metric.name
                ));
            };
            let verdict = verdict(metric, bound, &sa, &sb);
            acceptable &= verdict != "worse";
            println!(
                "{:<14} {:<22} {:>14.6} {:>14.6} {:>18.4} {:>6.2} {:>8.4} {:>8.4}  {verdict}",
                metric.name,
                workload.name(),
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound,
                sa.spread(),
                sb.spread()
            );
        }
    }
    for workload in Workload::ALL {
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let lookup = |doc| stored_summary(doc, workload.name(), "per_layer", metric.name);
            if let (Some(sa), Some(sb)) = (lookup(&a), lookup(&b)) {
                if sa.median != sb.median {
                    acceptable = false;
                    println!(
                        "EXACT MISMATCH {} {}: A {} B {}",
                        workload.name(),
                        metric.name,
                        sa.median,
                        sb.median
                    );
                }
            }
        }
        let failed = |doc| get(get(get(doc, "workloads")?, workload.name())?, "failed")?.as_u64();
        if failed(&a) != Some(0) || failed(&b) != Some(0) {
            acceptable = false;
            println!(
                "FAILED SIMULATIONS {}: A {:?} B {:?}",
                workload.name(),
                failed(&a),
                failed(&b)
            );
        }
    }
    println!(
        "exact metrics and failure counts {}",
        if acceptable {
            "agree"
        } else {
            "DISAGREE or a metric is worse"
        }
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_vendored_json() {
        let line = result_line(12, 0, &[("host_s", 1.203_456_789), ("setup_s", 0.004_2)]).unwrap();
        assert!(!line.contains('\n'));
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!(
            parsed,
            ResultLine {
                correct: true,
                attempted: 12,
                failed: 0,
                metrics: vec![
                    ("host_s".into(), 1.203_456_789),
                    ("setup_s".into(), 0.004_2)
                ],
            }
        );
        let doc: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let unit = get(
            get(get(&doc, "metrics").unwrap(), "host_s").unwrap(),
            "unit",
        );
        assert_eq!(unit.and_then(Value::as_str), Some("s"));
        assert!(
            !parse_result_line(&result_line(3, 1, &[]).unwrap())
                .unwrap()
                .correct
        );
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = crate::metrics::find("setup_s").unwrap();
        let higher = crate::metrics::find("events_per_s").unwrap();
        let tight = |median: f64| Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 10,
        };
        let wide = |median: f64| Summary {
            median,
            q1: median * 0.8,
            q3: median * 1.2,
            n: 10,
        };
        assert_eq!(verdict(lower, 0.1, &tight(1.0), &tight(1.05)), "ok");
        assert_eq!(verdict(lower, 0.1, &tight(1.0), &tight(1.2)), "worse");
        assert_eq!(verdict(lower, 0.1, &tight(1.0), &tight(0.5)), "ok");
        assert_eq!(verdict(higher, 0.1, &tight(100.0), &tight(80.0)), "worse");
        assert_eq!(verdict(higher, 0.1, &tight(100.0), &tight(120.0)), "ok");
        assert_eq!(verdict(lower, 0.1, &wide(1.0), &tight(1.05)), "unresolved");
        assert_eq!(verdict(lower, 0.1, &wide(1.0), &tight(1.5)), "worse");
        assert!((worse_by(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
    }
}
