#!/usr/bin/env bash
# Builds moused and the benchmark program from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the binaries, moused address files and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/run"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/moused" ./cmd/moused >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -moused "$out/bin/moused" -work "$out/run" "$@"
