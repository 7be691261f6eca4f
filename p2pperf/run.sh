#!/usr/bin/env bash
# Builds the p2pperf benchmark from the checkout it is run in and runs
# it with the given arguments. Run from the repository root:
#
#   bash p2pperf/run.sh --workload fresh-reads --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the span files stay under
# .bench_build/ in the checkout (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
(
	cd "$root/p2pperf"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		GOWORK=off go build -o "$build/p2pperf" .
)
exec "$build/p2pperf" --trace-dir "$build/traces" "$@"
