#!/bin/sh
# Build the benchmark from source in the current checkout, then run it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -eu
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
