#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments, from the root of a checkout of this repository:
#
#   bash perfbench/run.sh --workload warm_churn --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out"

# Keep the Go toolchain's caches and settings inside the checkout and
# off the network.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOENV=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" --out "$out/perfbench-results" "$@"
