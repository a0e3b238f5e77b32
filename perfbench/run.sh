#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload cold-wide --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, results, spans)
# stays under .bench_build/ in the current directory. The toolchain is the
# local one; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/results" "$@"
