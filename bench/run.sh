#!/bin/bash
# BENCHMARK.json's command. Builds the benchmark from source into
# .bench_build — build cache, work directory, toolchain state and binary all
# inside the checkout — and runs it with the flags it was given.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the engine this benchmark serves on is not here" >&2
	exit 1
fi
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/tmp"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS=
# With a fresh config directory the go command would start a detached
# telemetry child that outlives the run; mode "off" keeps it from starting.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
