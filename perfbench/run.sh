#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage: bash perfbench/run.sh --workload view|collab|distribute|all \
#          --seed N --seconds S --trace 0|1
# Everything the build and the run write stays under .bench_build/ in the
# directory the script is started from (the root of the checkout).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own files (env, telemetry) here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
