#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root. The Go build cache, the compiler's
# scratch space, the binary, the benchmark's scratch files and its
# traces all stay under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build in the working directory.
#
#   bash bench/run.sh                                   # every workload
#   bash bench/run.sh --workload clicklog --seed 3 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gotmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" --out "$out" "$@"
