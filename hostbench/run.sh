#!/usr/bin/env bash
# Builds the host-time benchmark from the sources of this checkout and runs it
# from the checkout root.  Every file the build writes (Go build cache, module
# cache, toolchain config) stays under .bench_build/.
#
#   bash hostbench/run.sh --workload figure-sweep --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/hostbench" && go build -o "$out/hostbench" .) >&2
cd "$root"
exec "$out/hostbench" "$@"
