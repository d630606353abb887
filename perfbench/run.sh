#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, telemetry, the binary) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, so the run touches nothing outside
# the tree. Without the repository's sources beside it the build fails
# and the script exits non-zero before printing any result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
