#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload au-sync-1e5 --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1            # every workload, one child process each
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, scratch files) stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
