#!/usr/bin/env bash
# Builds colab-serve and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 45 --trace 0
#
# Build products, the Go build cache and run scratch files stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

# Compiler output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/colab-serve" ./cmd/colab-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -serve-bin "$out/bin/colab-serve" "$@"
