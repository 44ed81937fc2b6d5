#!/usr/bin/env bash
# Builds parj-server, parj-node and the perfbench program from the checkout
# this script belongs to, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload watdiv-serve --seed 1 --seconds 25 --trace 0
#
# Build outputs, Go caches and per-run scratch files stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$out/bin"
(cd "$root" && go build -o "$out/bin/" ./cmd/parj-server ./cmd/parj-node)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
