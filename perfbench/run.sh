#!/usr/bin/env bash
# Builds the stms benchmark from the sources in the current checkout and
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig8-timed --seed 42 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and result documents go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS="" GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GONOSUMDB="" GOENV=off
(cd "$here" && go build -o "$out/stmsperf" .)
exec "$out/stmsperf" --out "$out" "$@"
