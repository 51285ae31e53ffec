#!/usr/bin/env bash
# Builds the benchmark and the pathfinderd daemon from this checkout's
# sources, then runs one workload:
#
#   bash benchmark/run.sh --workload aes-eval --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, the go
# command's own config and telemetry files, daemon data directories) stays
# under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

cd "$root/benchmark"
go build -o "$out/bin/benchmark" .
go build -o "$out/bin/pathfinderd" pathfinder/cmd/pathfinderd

cd "$root"
exec "$out/bin/benchmark" -daemon "$out/bin/pathfinderd" -work "$out/run" "$@"
