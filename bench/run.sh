#!/usr/bin/env bash
# Builds bbmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload cluster-wire --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# (including the keyed-http WAL) and bbmark's output directory all live
# under .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go"
export GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$build/bbmark" ./cmd/bbmark
exec "$build/bbmark" -out "$build/out" "$@"
