#!/usr/bin/env bash
# Builds the ltebench binary from the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash ltebench/run.sh --workload rx-pass --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product (the binary, the Go
# build cache, the traces the benchmark writes) stays under .bench_build/
# in the current directory; the build needs no network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
export CGO_ENABLED=0

# A checkout holding only the benchmark has no receiver module to build
# against: go build fails and the non-zero exit propagates.
go -C "$here" build -o "$out/ltebench" .
exec "$out/ltebench" "$@"
