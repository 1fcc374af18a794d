#!/bin/sh
# Build perfbench/bench.exe from source and run it with the given
# arguments. Run from the root of a checkout:
#
#   sh perfbench/run.sh --workload plain-sim --seed 1 --seconds 28 --trace 0
#
# The build goes to .bench_build/ (release profile, dune's shared cache
# off). dune keeps the captured output of every compiler call in
# $TMPDIR, so TMPDIR points inside .bench_build/ too: a run writes
# nothing outside the checkout.
set -e
mkdir -p .bench_build/tmp
TMPDIR="$PWD/.bench_build/tmp" exec dune exec --root . --build-dir .bench_build \
  --profile release --cache=disabled ./perfbench/bench.exe -- "$@"
