#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache go under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
