#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it with
# the given arguments, from the repository root:
#
#   bash bench/run.sh --workload steady --seed 3 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build in the repository root. Without the repository's sources
# (bench/ alone) the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd -P)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/servebench" .)
exec "$out/servebench" -dir "$out/tmp" "$@"
