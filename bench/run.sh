#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fcgi-sockref --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in that checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/experiments || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of an iolite checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/iolbench" .
exec "$out/iolbench" "$@"
