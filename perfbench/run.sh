#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the trace files all live under .bench_build/ in the current directory,
# so nothing is written outside it. The last line of standard output is
# the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off

# The benchmark is its own module that imports the repository's packages
# through a replace directive, so it builds only inside a full checkout.
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
mkdir -p "$out"
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
