#!/bin/sh
# Build sjbench from this checkout's sources, then run it with the given
# arguments (see benchmark/README.md). Run from the repository root:
#
#   sh benchmark/run.sh --workload kv --seed 7 --seconds 12 --trace 0
#
# Build output goes to stderr, so the last line of stdout is sjbench's
# one-line JSON result. Exits non-zero, printing no result, when the
# build fails.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/sjbench.exe 1>&2
exec ./_build/default/benchmark/sjbench.exe "$@"
