#!/usr/bin/env bash
# Builds the benchmark from the checkout, then runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 12 --trace 0
#
# Every build product, cache and run file stays under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --workdir "$build" "$@"
