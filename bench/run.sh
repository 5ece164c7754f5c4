#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (Go build cache, temp files, toolchain counters, the binary) stays
# under .bench_build in the checkout, so a run reads and writes nothing
# outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
(
	cd bench
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/qbench" .
) >&2
export TMPDIR="$out/tmp"
exec "$out/qbench" "$@"
