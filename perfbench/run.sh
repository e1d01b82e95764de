#!/usr/bin/env bash
# Build the benchmark and the server from source, then run the benchmark:
#
#   bash perfbench/run.sh --workload xmark-warm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to _build; dune's shared
# cache is off, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./perfbench/main.exe ./bin/serve.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
