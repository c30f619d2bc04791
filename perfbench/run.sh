#!/usr/bin/env bash
# Builds harmonyd and the benchmark from this checkout, then runs one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload casestudy --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, scratch daemon stores and traced
# runs' ledgers all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
# With telemetry in its default "local" mode, the go command forks a
# detached sidecar that can outlive this script; turning it off in the
# private config directory keeps the build from leaving any process behind.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/harmonyd" ./cmd/harmonyd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -harmonyd "$out/harmonyd" -work "$out" "$@"
