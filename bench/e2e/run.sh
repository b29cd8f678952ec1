#!/bin/sh
# Build the end-to-end benchmark from source, then run it with the
# given arguments. Run from the repository root:
#
#   sh bench/e2e/run.sh --workload pay3_opt --seed 1 --seconds 10 --trace 0
#
# Build output goes to .bench_build/dune, so the benchmark leaves
# nothing outside .bench_build/ (its journals and traces go to
# .bench_build/e2e).
set -eu
mkdir -p .bench_build
dune build --root . --build-dir "$PWD/.bench_build/dune" --display quiet ./bench/e2e/e2e.exe 1>&2
exec .bench_build/dune/default/bench/e2e/e2e.exe "$@"
