#!/bin/sh
# Entry point of the host-time benchmark (BENCHMARK.json "command"):
# builds perf/main.exe from source in this checkout, then runs it with the
# given arguments, e.g.
#   sh perf/run.sh --workload direct-fgkaslr --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; stdout is the benchmark's alone.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perf/main.exe >&2
exec ./_build/default/perf/main.exe "$@"
