#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build ./benchmark
# and run it, with the build cache and the binary in benchmark/out/
# (git-ignored from inside benchmark/), so that a run reads and writes
# nothing outside the checkout, and with the toolchain pinned to what is
# installed, so that nothing is ever fetched.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here; run from the root of a full checkout" >&2
	exit 1
fi
export GOCACHE="$PWD/benchmark/out/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o benchmark/out/benchmark ./benchmark
exec benchmark/out/benchmark "$@"
