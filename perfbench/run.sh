#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout (BENCHMARK.json is read from there).
set -euo pipefail
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
