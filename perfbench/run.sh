#!/usr/bin/env bash
# Build the benchmark from source, then run it from the repository root:
#
#   bash perfbench/run.sh --workload estimate --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh ab PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artifact inside the tree (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bin/main.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
