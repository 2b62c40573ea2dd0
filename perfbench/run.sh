#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload read-warm --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# run's scratch files stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
