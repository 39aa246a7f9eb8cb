#!/usr/bin/env bash
# Build the benchmark and the server it drives from this checkout, then
# run it with the given arguments (see perfbench.ml for the usage).
# Build output goes to stderr so the result stays the last stdout line;
# the build's and the run's temporary files stay inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
mkdir -p _perfbench/tmp
export TMPDIR="$PWD/_perfbench/tmp"
dune build --root . ./perfbench/perfbench.exe ./bin/serve_main.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe \
  --server ./_build/default/bin/serve_main.exe "$@"
