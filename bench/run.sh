#!/usr/bin/env bash
# Runs jurybench from the root of a source checkout, the way BENCHMARK.json
# describes it:
#
#   bash bench/run.sh --workload select-uncached-N128 --seed 1 --seconds 30 --trace 0
#
# It builds the benchmark (and, through it, cmd/juryd) from source, keeping
# the Go build cache, temporary files and juryd's data directories under
# .bench_build/ in the checkout, then passes its arguments to jurybench.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/juryd/main.go" ]; then
	echo "run.sh: $root has no juryd source tree (go.mod, cmd/juryd)" >&2
	exit 1
fi
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$work/bin/jurybench" ./jurybench)
cd "$root"
exec "$work/bin/jurybench" "$@"
