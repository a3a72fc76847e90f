#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Any other `main.exe run` option may follow (see benchmark/README.md).  Run
# it from the root of the checkout; everything it writes stays there.
set -e
dune build --root "$PWD" --profile release --cache disabled --display quiet \
  ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe run "$@"
