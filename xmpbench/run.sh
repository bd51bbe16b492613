#!/usr/bin/env bash
# Builds the XMP benchmark from this source tree and runs it from the
# repository root. Everything the build and the runs leave behind goes
# under .bench_build/ in the repository root.
#
#   bash xmpbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash xmpbench/run.sh compare SET_A SET_B
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

# Keep the Go caches and the go command's config (telemetry included) inside
# the tree, and never reach for the network: the benchmark depends on the
# standard library and this repository only.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd xmpbench && go build -o "$out/xmpbench" .) >&2
exec "$out/xmpbench" "$@"
