#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#   bash perfbench/run.sh --workload sweep|chain|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-check
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then
  dune build --root . ./perfbench/main.exe 1>&2
else
  opam exec -- dune build --root . ./perfbench/main.exe 1>&2
fi
exec ./_build/default/perfbench/main.exe "$@"
