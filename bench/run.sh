#!/usr/bin/env bash
# run.sh — build the benchmark harness and the ftgcs-serve binary under
# test from the checkout's source, then run the harness.
#
#   bench/run.sh                                  every workload, 3 interleaved rounds, medians
#   bench/run.sh --trace 1                        the same for the per-layer metrics (+ span files in bench/out/)
#   bench/run.sh --workload flood_line            one workload; the last line of stdout is the result JSON
#   bench/run.sh --workload serve_mix --seed 2 --seconds 20 --trace 0
#   bench/run.sh --workload sweep_reuse --seed 3 --record    record correctness pins into bench/expected.json
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (binaries, Go caches, temporary stores) and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

if [[ ! -f go.mod || ! -d cmd/ftgcs-serve ]]; then
    echo "bench/run.sh: no program to measure: $root has no go.mod and cmd/ftgcs-serve" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
# With a fresh config directory the go command would start a detached
# telemetry child that outlives the build; the mode file turns that off.
echo off > "$build/config/go/telemetry/mode"

t0=$(date +%s%N)
go build -o "$build/ftgcs-serve" ./cmd/ftgcs-serve
(cd bench && go build -o "$build/ftgcs-bench" ./ftgcs-bench)
compile_ms=$(( ($(date +%s%N) - t0) / 1000000 ))

exec "$build/ftgcs-bench" --serve-bin "$build/ftgcs-serve" --work-dir "$build/tmp" \
    --expected bench/expected.json --out bench/out --compile-ms "$compile_ms" "$@"
