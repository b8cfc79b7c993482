#!/usr/bin/env bash
# Builds the served-tier benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash mippbench/run.sh --workload design-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/mippbench" && go build -o "$build/bin/mippbench" .) >&2
cd "$root"
exec "$build/bin/mippbench" "$@"
