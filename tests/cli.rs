//! The command line's observable contract, as one table:
//! `argv → (exit code, first stderr line or stdout needle)`.
//!
//! Blessed at 34de943 (the hand-rolled parser) before `src/main.rs` was
//! touched: there, all rows but the three under "layering bugs" held. A
//! row whose outcome the table-driven parser (`src/cli.rs`) then changed
//! carries a `was:` comment with the parent's `End` and text; every
//! other row holds at both commits. The changes are of five kinds: one
//! spelling of "needs a value", "unknown flag" and "unexpected argument"
//! on every subcommand; flag values type-checked by the `--set`
//! deserializer; configuration errors printed as one line (`Config`)
//! on every subcommand; zero thread counts and repeated flags rejected;
//! `--no-active-list`, `--telemetry` and `run --threads` removed.
//!
//! Four rows changed again at PR 21, where a value the deserializer
//! rejects is reported with the override that carries it
//! (`` `key=token`: … ``); their `was:` is the text at 20189a8.

use std::path::PathBuf;
use std::process::Command;

/// How a row ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    /// Exit 0; the text is a needle in stdout.
    Pass,
    /// Exit 2, the text is the first stderr line and the
    /// "run `muchisim --help`" hint follows it: the argv is malformed.
    Usage,
    /// Exit 2, the text is the only stderr line: the argv parsed but
    /// names a system the simulator cannot hold.
    Config,
    /// Exit 3: a ward tripped; the text is a needle in stderr.
    Ward,
    /// Exit 1: the run itself failed; the text is the first stderr line.
    Fail,
}
use End::{Config, Fail, Pass, Usage, Ward};

const HINT: &str = "run `muchisim --help` for usage";
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/ci_smoke.json");

#[rustfmt::skip]
const ROWS: &[(&[&str], End, &str)] = &[
    // ── top level ────────────────────────────────────────────────────
    (&[], Usage, "error: missing subcommand (run, sweep, report, or traffic)"), // was: Usage "error: missing subcommand (run, sweep, or report)"
    (&["bogus"], Usage, "error: unknown subcommand `bogus`"),
    (&["--help"], Pass, "USAGE:"),
    (&["run", "--help"], Pass, "USAGE:"),
    (&["traffic"], Usage, "error: traffic needs a subcommand (sweep or replay)"),
    (&["traffic", "bogus"], Usage, "error: unknown traffic subcommand `bogus`"),

    // ── run: positionals ─────────────────────────────────────────────
    (&["run"], Usage, "error: run needs an <app> argument"),
    (&["run", "nosuchapp"], Usage, "error: unknown app `nosuchapp`; choose one of: bfs, sssp, page, wcc, spmv, spmm, histo, fft"),
    (&["run", "bfs", "5", "4", "1", "extra"], Usage, "error: unexpected argument `extra`"),
    (&["run", "bfs", "x"], Usage, "error: invalid RMAT scale `x`: invalid digit found in string"),
    (&["run", "bfs", "5", "x"], Usage, "error: invalid grid side `x`: invalid digit found in string"),
    (&["run", "bfs", "5", "4", "x"], Usage, "error: invalid thread count `x`: invalid digit found in string"),
    (&["run", "bfs", "5", "4", "0"], Usage, "error: invalid thread count `0`: number would be zero for non-zero type"), // was: Pass "with 0 host threads"
    (&["run", "bfs", "5", "4", "1"], Pass, "check: PASSED"),
    (&["run", "bfs", "5", "8", "1", "--seed", "7", "--set", "hierarchy.chiplet.y=4"], Pass, "over 8x4 tiles"), // was: Pass "over 8x8 tiles"
    (&["run", "bfs", "--bogus"], Usage, "error: unknown flag `--bogus`"),

    // ── run: every flag's missing value ──────────────────────────────
    (&["run", "bfs", "--set"], Usage, "error: `--set` needs a value (KEY=VALUE)"), // was: Usage "error: --set needs a KEY=VALUE argument"
    (&["run", "bfs", "--metrics"], Usage, "error: `--metrics` needs a value (FILE)"), // was: Usage "error: --metrics needs a FILE"
    (&["run", "bfs", "--metrics-csv"], Usage, "error: `--metrics-csv` needs a value (FILE)"), // was: Usage "error: --metrics-csv needs a FILE"
    (&["run", "bfs", "--sample-every"], Usage, "error: `--sample-every` needs a value (N)"), // was: Usage "error: --sample-every needs a value"
    (&["run", "bfs", "--ward"], Usage, "error: `--ward` needs a value (KEY=VALUE)"), // was: Usage "error: --ward needs a KEY=VALUE argument"
    (&["run", "bfs", "--seed"], Usage, "error: `--seed` needs a value (N)"), // was: Usage "error: --seed needs a value"
    (&["run", "bfs", "--threads"], Usage, "error: unknown flag `--threads`"), // was: Usage "error: --threads needs a value"
    (&["run", "bfs", "--trace"], Usage, "error: `--trace` needs a value (FILE)"), // was: Usage "error: --trace needs a FILE"
    (&["run", "bfs", "--checkpoint"], Usage, "error: `--checkpoint` needs a value (FILE)"), // was: Usage "error: --checkpoint needs a FILE"
    (&["run", "bfs", "--checkpoint-every"], Usage, "error: `--checkpoint-every` needs a value (N)"), // was: Usage "error: --checkpoint-every needs a value"

    // ── run: malformed and mistyped values ───────────────────────────
    (&["run", "bfs", "--set", "novalue"], Usage, "error: invalid parameter override: `novalue` is not of the form key=value"),
    (&["run", "bfs", "--set", "=1"], Usage, "error: invalid parameter override: `=1` has an empty key"),
    (&["run", "bfs", "5", "4", "1", "--set", "nosuch=1"], Usage, "error: invalid parameter override: unknown parameter `nosuch` in `nosuch`; known keys here: …"),
    (&["run", "bfs", "5", "4", "1", "--set", "pus_per_tile=lots"], Usage, "error: invalid parameter override: `pus_per_tile=lots`: expected u32, got string"), // was: Usage "error: invalid parameter override: overridden config does not deserialize: …"
    (&["run", "bfs", "5", "4", "1", "--set", "pus_per_tile=0"], Config, "error: a tile must contain at least one PU"),
    (&["run", "bfs", "5", "4", "1", "--seed", "abc"], Usage, "error: invalid seed `abc`: invalid digit found in string"),
    (&["run", "bfs", "5", "4", "1", "--seed", "-1"], Usage, "error: invalid seed `-1`: invalid digit found in string"),
    (&["run", "bfs", "5", "4", "1", "--sample-every", "abc"], Usage, "error: invalid parameter override: `telemetry.sample_every=abc`: expected u64, got string"), // was: Usage "error: invalid parameter override: overridden config does not deserialize: expected u64, got string"
    (&["run", "bfs", "5", "4", "1", "--sample-every", "0"], Config, "error: invalid telemetry configuration: sample_every must be at least one cycle"), // was: Usage "error: invalid telemetry configuration: sample_every must be at least one cycle"
    (&["run", "bfs", "5", "4", "1", "--checkpoint", "x.snap", "--checkpoint-every", "abc"], Usage, "error: invalid parameter override: `checkpoint_every=abc`: expected u64, got string"), // was: Usage "error: invalid parameter override: overridden config does not deserialize: expected u64, got string"
    (&["run", "bfs", "5", "4", "1", "--checkpoint", "x.snap", "--checkpoint-every", "0"], Config, "error: invalid checkpoint configuration: checkpoint_every must be at least 1 cycle"), // was: Usage "error: invalid checkpoint configuration: checkpoint_every must be at least 1 cycle"

    // ── run: cross-flag rules ────────────────────────────────────────
    (&["run", "bfs", "5", "4", "1", "--checkpoint-every", "5"], Config, "error: invalid checkpoint configuration: checkpoint_every requires checkpoint_path"), // was: Usage "error: --checkpoint-every needs --checkpoint FILE"
    (&["run", "bfs", "5", "4", "1", "--resume"], Config, "error: invalid checkpoint configuration: checkpoint_resume requires checkpoint_path"), // was: Usage "error: invalid checkpoint configuration: checkpoint_resume requires checkpoint_path"
    (&["run", "bfs", "5", "4", "1", "--checkpoint", "x.snap", "--trace", "t.jsonl"], Config, "error: invalid checkpoint configuration: checkpointing is incompatible with noc_trace"), // was: Usage "error: invalid checkpoint configuration: checkpointing is incompatible with noc_trace"
    (&["run", "bfs", "5", "4", "1", "--ward", "snapshot=true"], Config, "error: invalid telemetry configuration: snapshot_on_trip requires checkpoint_path"), // was: Usage "error: invalid telemetry configuration: snapshot_on_trip requires checkpoint_path"

    // ── run: wards ───────────────────────────────────────────────────
    (&["run", "bfs", "--ward", "noequals"], Usage, "error: --ward needs KEY=VALUE, got `noequals`"),
    (&["run", "bfs", "5", "4", "1", "--ward", "bogus=1"], Usage, "error: unknown ward `bogus`; choose one of: max_cycles, stall, converged, diverged_queue, diverged_latency, snapshot"),
    (&["run", "bfs", "5", "4", "1", "--ward", "max_cycles=abc"], Usage, "error: invalid parameter override: `telemetry.wards.max_cycles=abc`: expected u64, got string"), // was: Usage "error: invalid parameter override: overridden config does not deserialize: expected u64, got string"
    (&["run", "bfs", "5", "4", "1", "--ward", "max_cycles=0"], Config, "error: invalid telemetry configuration: max_cycles ward must allow at least one cycle"), // was: Usage "error: invalid telemetry configuration: max_cycles ward must allow at least one cycle"
    (&["run", "bfs", "5", "4", "1", "--ward", "converged=bogus:1"], Usage, "error: unknown converged metric `bogus`; choose one of: tasks, injected, pending, latency_mean"),
    (&["run", "bfs", "5", "4", "1", "--ward", "converged=tasks"], Usage, "error: converged ward needs METRIC:EPSILON[:WINDOW], got `tasks`"), // was: Usage "error: converged ward needs METRIC:EPSILON[:WINDOW]"
    (&["run", "bfs", "5", "4", "1", "--ward", "converged=tasks:1:2:3"], Usage, "error: converged ward needs METRIC:EPSILON[:WINDOW], got `tasks:1:2:3`"), // was: Usage "error: converged ward `tasks:1:2:3` has too many `:` parts"
    (&["run", "bfs", "5", "4", "1", "--ward", "converged=tasks:x"], Usage, "error: invalid converged epsilon `x`: invalid float literal"),
    (&["run", "bfs", "5", "4", "1", "--sample-every", "16", "--ward", "max_cycles=64"], Ward, "ward `max_cycles` tripped"),
    (&["run", "bfs", "5", "4", "1", "--sample-every", "16", "--ward", "stall=100000", "--ward", "diverged_queue=1000000"], Pass, "check: PASSED"),

    // ── run: the layering bugs of the hand-rolled parser (fail at 34de943) ─
    (&["run", "bfs", "5", "4", "1", "--set", "telemetry.wards.max_cycles=64", "--sample-every", "16"], Ward, "ward `max_cycles` tripped"), // was: Config "error: invalid telemetry configuration: metrics streams, wards and progress require sample_every"
    (&["run", "bfs", "5", "4", "1", "--set", "checkpoint_path=x.snap", "--set", "checkpoint_every=100", "--resume"], Pass, "check: PASSED"), // was: Usage "error: invalid checkpoint configuration: checkpoint_every requires checkpoint_path"
    (&["run", "bfs", "5", "4", "1", "--set", "telemetry.sample_every=0", "--ward", "max_cycles=64", "--sample-every", "16"], Ward, "ward `max_cycles` tripped"), // was: Config "error: invalid telemetry configuration: sample_every must be at least one cycle"

    // ── run: one override list — implied default < --set < flag ──────
    (&["run", "bfs", "5", "4", "1", "--set", "telemetry.sample_every=16", "--ward", "max_cycles=64"], Ward, "ward `max_cycles` tripped"),
    (&["run", "bfs", "5", "4", "1", "--checkpoint", "x.snap", "--set", "checkpoint_every=0"], Config, "error: invalid checkpoint configuration: checkpoint_every must be at least 1 cycle"),
    (&["run", "traf-uniform", "4", "4", "1", "--set", "noc.width_bits=32", "--set", "traffic.cycles=40", "--set", "traffic.rate=0.05", "--set", "traffic.payload_words_min=66000", "--set", "traffic.payload_words_max=66000"], Config, "error: traffic.payload_words_max exceeds the supported maximum of 65534"), // was: Pass "check: PASSED", each packet's 66 001 flits wrapped to 465
    (&["run", "traf-uniform", "4", "4", "1", "--set", "traffic.cycles=200", "--set", "traffic.pattern=Transpose"], Usage, "error: invalid parameter override: unknown parameter `pattern` in `traffic.pattern`; known keys here: …"), // was: Pass "check: PASSED", the pattern accepted and ignored
    (&["run", "fft", "5", "8", "1", "--set", "hierarchy.chiplet.y=4"], Config, "error: a square grid is required by FFT, not 8x4"), // was: exit 101, a panic
    (&["run", "bfs", "5", "4", "1", "--metrics", "123"], Pass, "metrics stream written to 123"),
    (&["run", "bfs", "5", "4", "1", "--metrics", "deep/dir/m.jsonl", "--sample-every", "16"], Pass, "metrics stream written to deep/dir/m.jsonl"), // was: Fail "error: simulation failed: telemetry stream failed: cannot create metrics stream deep/dir/m.jsonl: No such file or directory (os error 2)"
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02", "--threads", "1", "--seed", "7", "--set", "traffic.seed=9"], Pass, "seed 9"),

    // ── run: duplicates and removed switches ─────────────────────────
    (&["run", "bfs", "5", "4", "1", "--seed", "1", "--seed", "2"], Usage, "error: `--seed` given more than once"), // was: Pass "(seed 2)"
    (&["run", "bfs", "5", "4", "1", "--no-active-list"], Usage, "error: unknown flag `--no-active-list`"), // was: Pass "check: PASSED"
    (&["run", "bfs", "5", "4", "1", "--telemetry"], Usage, "error: unknown flag `--telemetry`"), // was: Pass "telemetry: router visits moved"
    (&["run", "bfs", "5", "4", "--threads", "1"], Usage, "error: unknown flag `--threads`"), // was: Pass "with 1 host threads"

    // ── sweep ────────────────────────────────────────────────────────
    (&["sweep"], Usage, "error: missing the required flag `--spec`"), // was: Usage "error: sweep needs --spec FILE"
    (&["sweep", "--bogus"], Usage, "error: unknown flag `--bogus`"), // was: Usage "error: unknown argument `--bogus`"
    (&["sweep", "stray"], Usage, "error: unexpected argument `stray`"), // was: Usage "error: unknown argument `stray`"
    (&["sweep", "--spec"], Usage, "error: `--spec` needs a value (FILE)"), // was: Usage "error: --spec needs a FILE"
    (&["sweep", "--store"], Usage, "error: `--store` needs a value (FILE)"), // was: Usage "error: --store needs a FILE"
    (&["sweep", "--host-threads"], Usage, "error: `--host-threads` needs a value (N)"), // was: Usage "error: --host-threads needs a number"
    (&["sweep", "--seed"], Usage, "error: `--seed` needs a value (N)"), // was: Usage "error: --seed needs a value"
    (&["sweep", "--sample-every"], Usage, "error: `--sample-every` needs a value (N)"), // was: Usage "error: --sample-every needs a value"
    (&["sweep", "--spec", "nosuch.json"], Usage, "error: reading nosuch.json: No such file or directory (os error 2)"),
    (&["sweep", "--spec", SPEC, "--host-threads", "x"], Usage, "error: invalid thread count `x`: invalid digit found in string"), // was: Usage "error: invalid host-thread count `x`: invalid digit found in string"
    (&["sweep", "--spec", SPEC, "--host-threads", "0", "--store", "zero.jsonl"], Usage, "error: invalid thread count `0`: number would be zero for non-zero type"), // was: Pass "0 host threads"
    (&["sweep", "--spec", SPEC, "--sample-every", "0", "--store", "s0.jsonl"], Usage, "error: invalid sample cadence `0`: number would be zero for non-zero type"), // was: Usage "error: --sample-every must be >= 1"
    (&["sweep", "--spec", SPEC, "--store", "s.jsonl", "--host-threads", "2"], Pass, "executed 2 points, skipped 0"),
    (&["sweep", "--spec", SPEC, "--store", "s.jsonl", "--csv"], Pass, "config,app,dataset,runtime_s,"), // was: Pass "executed 0 points, skipped 2"

    // ── report ───────────────────────────────────────────────────────
    (&["report"], Usage, "error: missing the required flag `--store`"), // was: Usage "error: report needs --store FILE"
    (&["report", "--bogus"], Usage, "error: unknown flag `--bogus`"), // was: Usage "error: unknown argument `--bogus`"
    (&["report", "stray"], Usage, "error: unexpected argument `stray`"), // was: Usage "error: unknown argument `stray`"
    (&["report", "--store"], Usage, "error: `--store` needs a value (FILE)"), // was: Usage "error: --store needs a FILE"
    (&["report", "--set"], Usage, "error: `--set` needs a value (KEY=VALUE)"), // was: Usage "error: --set needs a KEY=VALUE argument"
    (&["report", "--store", "empty.jsonl"], Fail, "error: empty.jsonl holds no records"),
    (&["report", "--store", "s.jsonl", "--set", "params.cost.hbm_usd_per_gb=3.0"], Pass, "BFS"),
    (&["report", "--store", "s.jsonl", "--set", "nosuch=1"], Fail, "error: invalid parameter override: unknown parameter `nosuch`…"),

    // ── traffic sweep ────────────────────────────────────────────────
    (&["traffic", "sweep", "--bogus"], Usage, "error: unknown flag `--bogus`"), // was: Usage "error: unknown argument `--bogus`"
    (&["traffic", "sweep", "stray"], Usage, "error: unexpected argument `stray`"), // was: Usage "error: unknown argument `stray`"
    (&["traffic", "sweep", "--pattern"], Usage, "error: `--pattern` needs a value (P)"), // was: Usage "error: --pattern needs a name"
    (&["traffic", "sweep", "--rates"], Usage, "error: `--rates` needs a value (R,R,...)"), // was: Usage "error: --rates needs a comma-separated list"
    (&["traffic", "sweep", "--side"], Usage, "error: `--side` needs a value (N)"), // was: Usage "error: --side needs a value"
    (&["traffic", "sweep", "--topo"], Usage, "error: `--topo` needs a value (T)"), // was: Usage "error: --topo needs a name"
    (&["traffic", "sweep", "--threads"], Usage, "error: `--threads` needs a value (N)"), // was: Usage "error: --threads needs a value"
    (&["traffic", "sweep", "--seed"], Usage, "error: `--seed` needs a value (N)"), // was: Usage "error: --seed needs a value"
    (&["traffic", "sweep", "--set"], Usage, "error: `--set` needs a value (KEY=VALUE)"), // was: Usage "error: --set needs a KEY=VALUE argument"
    (&["traffic", "sweep", "--pattern", "bogus"], Usage, "error: unknown pattern `bogus`; choose one of: uniform, bitcomp, transpose, shuffle, neighbor, hotspot"),
    (&["traffic", "sweep", "--rates", "0.3,0.1"], Usage, "error: --rates must be strictly ascending (got 0.3,0.1)"),
    (&["traffic", "sweep", "--rates", "0.1,x"], Usage, "error: invalid offered rate `x`: invalid float literal"),
    (&["traffic", "sweep", "--rates", ""], Usage, "error: invalid offered rate ``: cannot parse float from empty string"),
    (&["traffic", "sweep", "--topo", "bogus"], Usage, "error: unknown topology `bogus`; choose one of: mesh, torus, ruche"), // was: Usage "error: unknown topology `bogus`; expected mesh, torus, or ruche"
    (&["traffic", "sweep", "--side", "x"], Usage, "error: invalid grid side `x`: invalid digit found in string"),
    (&["traffic", "sweep", "--side", "0"], Config, "error: hierarchy level `chiplet` has a zero-sized extent"), // was: Usage "error: hierarchy level `chiplet` has a zero-sized extent"
    (&["traffic", "sweep", "--side", "4", "--set", "traffic.rate=2"], Config, "error: invalid traffic parameters: …"), // was: Usage "error: invalid configuration: invalid traffic parameters: …"
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02,0.3", "--threads", "0"], Usage, "error: invalid thread count `0`: number would be zero for non-zero type"), // was: Pass "saturation:"
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02,0.3", "--threads", "1", "--topo", "torus", "--seed", "7", "--csv"], Pass, "series,offered,achieved,"), // was: Pass "saturation:"
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02,0.3", "--threads", "2", "--topo", "torus", "--seed", "7"], Pass, "executed 0 points, skipped 2"), // was: Pass "saturation:", both points simulated again (no store)
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02", "--threads", "1", "--csv", "--topo", "torus"], Pass, "torus/uniform,0.02,"), // was: Usage "error: unexpected argument `torus`", the switch took `--topo` as its value
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02,0.3", "--threads", "1", "--topo", "ruche", "--pattern", "transpose"], Pass, "traffic sweep: transpose on 4x4 ruche, 2 rates"),
    (&["traffic", "sweep", "--side", "4", "--rates", "0.02", "--threads", "1", "--pattern", "UniformRandom"], Pass, "traffic sweep: uniform on 4x4"),

    // ── traffic replay ───────────────────────────────────────────────
    (&["traffic", "replay"], Usage, "error: missing the required flag `--trace`"), // was: Usage "error: replay needs --trace FILE"
    (&["traffic", "replay", "--bogus"], Usage, "error: unknown flag `--bogus`"), // was: Usage "error: unknown argument `--bogus`"
    (&["traffic", "replay", "stray"], Usage, "error: unexpected argument `stray`"), // was: Usage "error: unknown argument `stray`"
    (&["traffic", "replay", "--trace"], Usage, "error: `--trace` needs a value (FILE)"), // was: Usage "error: --trace needs a FILE"
    (&["traffic", "replay", "--side"], Usage, "error: `--side` needs a value (N)"), // was: Usage "error: --side needs a value"
    (&["traffic", "replay", "--threads"], Usage, "error: `--threads` needs a value (N)"), // was: Usage "error: --threads needs a value"
    (&["traffic", "replay", "--set"], Usage, "error: `--set` needs a value (KEY=VALUE)"), // was: Usage "error: --set needs a KEY=VALUE argument"
    (&["traffic", "replay", "--trace", "nosuch.jsonl"], Fail, "error: …"),
    (&["traffic", "replay", "--trace", "t.jsonl", "--side", "0"], Config, "error: hierarchy level `chiplet` has a zero-sized extent"), // was: Usage "error: hierarchy level `chiplet` has a zero-sized extent"
    (&["run", "bfs", "5", "4", "1", "--seed", "7", "--trace", "t.jsonl"], Pass, "NoC trace written to t.jsonl"),
    (&["traffic", "replay", "--trace", "t.jsonl", "--side", "4", "--threads", "1"], Pass, "replay done:"),
];

/// An empty scratch working directory, so rows touch nothing in the
/// checkout: the stores `traffic sweep` keeps under `target/dse/`, and
/// the files the `run` and `sweep` rows name, land there.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("muchisim-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Why `row` does not hold, if it does not.
fn violation(dir: &std::path::Path, (argv, end, text): (&[&str], End, &str)) -> Option<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_muchisim"))
        .args(argv)
        .current_dir(dir)
        .env_remove("MUCHISIM_NO_LEAP")
        .output()
        .expect("muchisim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut lines = stderr.lines();
    let first = lines.next().unwrap_or("");
    let second = lines.next();
    let code = match end {
        Pass => 0,
        Usage | Config => 2,
        Ward => 3,
        Fail => 1,
    };
    // a trailing `…` pins a prefix (the tail lists keys or OS text)
    let line_is = |line: &str| match text.strip_suffix('…') {
        Some(prefix) => line.starts_with(prefix),
        None => line == text,
    };
    let holds = out.status.code() == Some(code)
        && match end {
            Pass => stdout.contains(text),
            Ward => stderr.contains(text),
            Usage => line_is(first) && second == Some(HINT),
            Config => line_is(first) && second.is_none(),
            Fail => line_is(first),
        };
    (!holds).then(|| {
        format!(
            "{argv:?}: expected {end:?} `{text}`\n  got exit {:?}\n  stderr: {:?}\n  stdout tail: {:?}",
            out.status.code(),
            stderr.lines().take(2).collect::<Vec<_>>(),
            stdout.lines().rev().take(2).collect::<Vec<_>>(),
        )
    })
}

#[test]
fn every_row_of_the_cli_table_holds() {
    let dir = scratch_dir();
    // rows run in order: later ones read the store and trace earlier ones wrote
    let broken: Vec<String> = ROWS
        .iter()
        .filter_map(|&row| violation(&dir, row))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        broken.is_empty(),
        "{} of {} rows do not hold:\n{}",
        broken.len(),
        ROWS.len(),
        broken.join("\n")
    );
}
