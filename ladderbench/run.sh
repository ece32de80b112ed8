#!/usr/bin/env bash
# Builds the layer-ladder benchmark from the sources in this checkout and
# runs it. Run from the repository root:
#
#   bash ladderbench/run.sh --workload kv-update --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary) goes
# under the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "ladderbench: library sources not found next to $here; run from a full checkout" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C "$here" build -o "$out/ladderbench" .
exec "$out/ladderbench" "$@"
