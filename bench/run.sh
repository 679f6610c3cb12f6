#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, for example
#
#   bash bench/run.sh --workload ladder --seed 1 --seconds 30 --trace 0
#
# The benchmark is a Go module of its own (bench/go.mod) that imports
# the repository through a replace directive, so it always measures the
# source tree it sits in.  The Go build cache, the binary and everything
# a run writes stay under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "bench: $root holds no swsm source tree (go.mod and internal/ are missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/bench" && go build -o "$build/swsm-bench" .)

cd "$root"
exec "$build/swsm-bench" "$@"
