#!/bin/sh
# Builds fpspingd, fpsrouter and the benchmark from the checkout it is run
# in, then runs the benchmark. Run from the repository root:
#
#	sh perfbench/run.sh --workload cached-zipf --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/fpspingd ] || [ ! -d cmd/fpsrouter ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$build/bin/" ./cmd/fpspingd ./cmd/fpsrouter >&2
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" -bin "$build/bin" -out "$build/out" "$@"
