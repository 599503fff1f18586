#!/usr/bin/env bash
# Builds the benchmark and the pimcomp CLI from source, then runs one
# workload from the repository root:
#
#   bash perfbench/run.sh --workload compile-cold|serve-warm|synth-explore \
#     --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result.
set -euo pipefail
# --cache=disabled keeps every build output inside the checkout.
dune build --root . --cache=disabled perfbench/pbench.exe bin/pimcomp_cli.exe >&2
exec ./_build/default/perfbench/pbench.exe \
  --cli ./_build/default/bin/pimcomp_cli.exe "$@"
