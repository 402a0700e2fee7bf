#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from this checkout's sources and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload direct-256x32 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and trace.json all live under .bench_build/,
# so a run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
(cd bench && go build -o "$out/bxt-e2e" .)
exec "$out/bxt-e2e" "$@"
