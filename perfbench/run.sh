#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 36 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# every scratch file stay under $CARGO_TARGET_DIR (default .bench_build)
# in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
