#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh                          build, 5 untraced rounds of all seven workloads,
#                                             one traced round, every metric by name
#   benchmark/run.sh suite --rounds 10 ...    the same with other settings (see README.md)
#   benchmark/run.sh compare A.json B.json    two result files side by side
#   benchmark/run.sh --workload W --seed N --seconds N --trace 0|1
#                                             one run, one JSON result line (the BENCHMARK.json form)
#
# Exits non-zero when the build fails, when a simulation failed in the
# suite, or when `compare` finds B worse than A.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# cargo's progress goes to stderr: stdout carries only results
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [ "$#" -eq 0 ]; then
    set -- suite
fi
exec "$target/release/muchisim-benchmark" "$@"
