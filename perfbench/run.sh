#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload support_sessions --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, scratch snapshots) goes under
# .bench_build/ in the current directory, which must be the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench.new" .)
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
