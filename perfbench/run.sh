#!/usr/bin/env bash
# Builds the meshsortd benchmark from the sources of the checkout it
# sits in and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload sort --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and every temporary file stay under
# .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
