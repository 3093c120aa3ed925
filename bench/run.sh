#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload store-steady --seed 0 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays in .bench_build at the root of the checkout. See bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp"

export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command's settings file and telemetry counters live under the
# user's config directory; keep both inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
