#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Every build artefact (binary, Go build cache, toolchain
# state) stays under .bench_build in the current directory.
#
#   bash perfbench/run.sh --workload sim-table3 --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

bin="$out/perfbench.$$"
(
	cd "$src"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		go build -buildvcs=false -o "$bin" .
) >&2
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" "$@"
