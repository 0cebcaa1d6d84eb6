#!/usr/bin/env bash
# Build tgdtool and the benchmark from source, then run the benchmark with
# the given arguments (see benchmark/README.md).  Build output goes to
# stderr, so the last line of stdout is the benchmark's result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./bin/tgdtool.exe ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
