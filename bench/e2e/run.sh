#!/bin/sh
# Build the end-to-end benchmark from the sources of this checkout, then run
# it with the given arguments.  Run it from the root of the checkout:
#
#   sh bench/e2e/run.sh --workload echo_local --seed 1 --seconds 15 --trace 0
#
# See bench/e2e/README.md for the workloads, the metrics and the options.
#
# The shared dune cache is off so that the build writes only inside the
# checkout.
set -e
dune build --root . --display quiet --cache=disabled bench/e2e/dcp_bench.exe
exec ./_build/default/bench/e2e/dcp_bench.exe "$@"
