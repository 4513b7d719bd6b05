#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload.
# Run from the root of the checkout; flags are forwarded, for example
#
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, the service journals and the Go tool's own
# configuration and telemetry stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/work" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -work "$build/work" "$@"
