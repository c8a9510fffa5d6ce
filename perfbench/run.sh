#!/usr/bin/env bash
# Build the benchmark runner from source and run it, from the root of a
# checkout:
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 30 --trace 0
# --all runs every workload in turn, each in its own process, and fails
# if any of them does. Build output goes to stderr so the last stdout
# line stays the JSON result; the dune cache is off so nothing is
# written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
if [ "${1:-}" = "--all" ]; then
  shift
  status=0
  for w in campaign lockstep build; do
    ./_build/default/perfbench/main.exe --workload "$w" "$@" || status=1
  done
  exit "$status"
fi
exec ./_build/default/perfbench/main.exe "$@"
