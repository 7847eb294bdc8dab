#!/usr/bin/env bash
# Builds skadi-perf from source inside the checkout and runs it with the given
# arguments. This is the command BENCHMARK.json names: the benchmark driver
# calls it as
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# from the root of a checkout. Everything the build writes (binary, Go build
# cache) stays under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
# bench/ is its own module that replaces skadi with the repository root; in a
# directory without the repository's sources this build fails and so does the
# benchmark, without printing a result.
(cd "$root/bench" && go build -buildvcs=false -o "$build/skadi-perf" ./cmd/skadi-perf)
cd "$root"
exec "$build/skadi-perf" "$@"
