#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (the binary, the Go build
# cache, a traced run's span logs) stays under .bench_build/ in the
# repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/home/gomod" \
		GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
